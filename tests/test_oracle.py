"""The engine against exact rational elimination (tests/oracle.py) on the corpus
and on small graphs with extreme weights."""

from itertools import accumulate

import numpy as np
import pytest

import oracle
from hitbounds import corpus, engine
from hitbounds.generators import unit_path
from hitbounds.graph import WeightedGraph


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
    assert engine._pmf_doublings(20, 38, 400) == 7  # seven doublings, 128-step blocks
    assert engine._pmf_doublings(150, 298, 100) is None  # single CSR steps


def _extreme_graph(index):
    """3-8 vertices: a random recursive tree plus up to 3 extra edges (self-loops
    included), weights 10^U(-12, 12), one target."""
    rng = np.random.default_rng([2001, index])
    n = int(rng.integers(3, 9))
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    for _ in range(int(rng.integers(0, 4))):
        pairs.append(tuple(sorted(int(x) for x in rng.integers(0, n, size=2))))
    pairs = sorted(set(pairs))
    weights = 10.0 ** rng.uniform(-12.0, 12.0, size=len(pairs))
    origin, target = (int(x) for x in rng.choice(n, size=2, replace=False))
    return WeightedGraph([(u, v, float(w)) for (u, v), w in zip(pairs, weights)],
                         origin=origin, targets=[target])


# Graphs whose statistic the engine misses today, by a raise or a wrong value:
# at beta = 1, LU forms its pivots by subtraction.  The marks are strict, so
# each fix shows up as an XPASS to be unmarked.
_EXTREME_MISSES = {
    "E[T]": {1, 2, 4, 5, 6, 7, 9, 10, 11, 14, 15, 18, 20, 21, 22, 23, 24, 26, 27,
             29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 40, 41, 42, 43, 45, 47, 49,
             50, 55, 56, 58},
    "S_0.5": set(),
    "R_1": {1, 2, 4, 5, 6, 7, 9, 11, 15, 20, 21, 22, 23, 24, 26, 27, 30, 31, 32,
            33, 34, 35, 36, 37, 40, 41, 42, 43, 45, 47, 49, 50, 55, 56},
}


@pytest.mark.parametrize("stat, index", [
    pytest.param(stat, index, id=f"{stat}-{index}", marks=[pytest.mark.xfail(
        strict=True, reason="beta = 1 solve loses extreme weights")]
        if index in misses else [])
    for stat, misses in _EXTREME_MISSES.items() for index in range(60)])
def test_extreme_weights_match_exact_oracle(stat, index):
    graph = _extreme_graph(index)
    if stat == "E[T]":
        value = engine.expected_hitting_time(graph)
        assert value >= graph.distance(graph.origin)
        truth = oracle.expected_hitting_time(graph)
    elif stat == "S_0.5":
        survival = [engine.survival_transform(graph, b) for b in (0.2, 0.5, 0.8)]
        assert 0.0 <= survival[0] <= survival[1] <= survival[2] <= 1.0
        value, truth = survival[1], oracle.survival_transform(graph, 0.5)
    else:
        value = engine.origin_visits(graph, 1.0)
        assert value >= 1.0
        truth = oracle.origin_visits(graph, 1)
    assert value == exact(truth)
