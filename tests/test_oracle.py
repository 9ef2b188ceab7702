"""The engine against exact rational elimination (tests/oracle.py) on the corpus."""

import pytest

import oracle
from hitbounds import corpus, engine


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
