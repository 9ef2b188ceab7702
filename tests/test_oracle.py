"""The engine against exact rational elimination (tests/oracle.py) on the corpus."""

from itertools import accumulate

import pytest

import oracle
from hitbounds import corpus, engine
from hitbounds.generators import unit_path


def exact(value):
    return pytest.approx(float(value), rel=1e-13, abs=0.0)


def test_expected_time_matches_exact_oracle():
    # worst gap on graphs 0-99: 3.1e-14
    for i in range(100):
        graph = corpus.corpus_graph(i)
        assert engine.expected_hitting_time(graph) == exact(
            oracle.expected_hitting_time(graph)), i


@pytest.mark.parametrize("beta", [0.2, 0.5, 0.8, 1.0])
def test_transform_and_visits_match_exact_oracle(beta):
    # worst gaps on graphs 0-29: 1.7e-14 on S_beta, 1.2e-14 on R_beta
    for i in range(30):
        graph = corpus.corpus_graph(i)
        assert engine.survival_transform(graph, beta) == exact(
            oracle.survival_transform(graph, beta)), i
        assert engine.origin_visits(graph, beta) == exact(
            oracle.origin_visits(graph, beta)), i


@pytest.mark.parametrize("graphs, horizon", [
    (corpus.standard_corpus(30), 40),
    ([unit_path(20)], 400),
    ([unit_path(150)], 100),
])
def test_pmf_matches_exact_oracle(graphs, horizon):
    # worst gaps: 2.6e-15 on the pmf, 1.5e-15 on the cdf; an exact zero is 0.0
    for i, graph in enumerate(graphs):
        graph = graph.normalized()
        stats = engine.hitting_time_pmf(graph, horizon=horizon)
        pmf = oracle.hitting_pmf(graph, horizon)
        assert stats.pmf.tolist() == [exact(p) for p in pmf], i
        assert stats.cdf.tolist() == [exact(c) for c in accumulate(pmf)], i


def test_pmf_oracle_cases_reach_both_branches():
    # unit_path(n) has n live vertices and 2 (n - 1) live entries of K_z
    assert engine._pmf_doublings(20, 38, 400) == 6  # six doublings, 64-step blocks
    assert engine._pmf_doublings(150, 298, 100) is None  # single CSR steps
