import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hitbounds
from hitbounds import bounds, corpus, engine
from hitbounds.generators import (
    fast_path, poly_growth_drift, random_graph, tree_line, unit_path)
from hitbounds.graph import GraphError, WeightedGraph


def two_path():
    return unit_path(2)


def direct_expected(graph):
    """Independent oracle: dense solve of (I - K_z) h = 1 on alive vertices."""
    comp = graph.component_of(graph.origin)
    alive = [i for i in comp if i not in graph.target_indices]
    pos = {i: k for k, i in enumerate(alive)}
    a = np.eye(len(alive))
    for i in alive:
        wi = graph.vertex_weights[i]
        for j, w in graph.adjacency[i].items():
            if j in pos:
                a[pos[i], pos[j]] -= w / wi
    h = np.linalg.solve(a, np.ones(len(alive)))
    return float(h[pos[graph.origin_index]])


def stepped_pmf(graph, horizon):
    """Reference pmf and survival mass: one dense step per loop iteration."""
    comp = graph.component_of(graph.origin)
    alive = [i for i in comp if i not in graph.target_indices]
    pos = {i: k for k, i in enumerate(alive)}
    kz = np.zeros((len(alive), len(alive)))
    arrive = np.zeros(len(alive))
    for i in alive:
        for j, w in graph.adjacency[i].items():
            if j in pos:
                kz[pos[i], pos[j]] += w / graph.vertex_weights[i]
            else:
                arrive[pos[i]] += w / graph.vertex_weights[i]
    pmf = np.zeros(horizon + 1)
    v = np.zeros(len(alive))
    v[pos[graph.origin_index]] = 1.0
    for k in range(1, horizon + 1):
        pmf[k] = v @ arrive
        v = v @ kz
        if not v.any():
            break
    return pmf, float(v.sum())


def relabel(graph, seed):
    """The same graph with labels replaced by a seeded permutation of 0..n-1."""
    perm = np.random.default_rng(seed).permutation(graph.n)
    new = {x: int(perm[i]) for i, x in enumerate(graph.labels)}
    return WeightedGraph(
        [(new[graph.labels[i]], new[graph.labels[j]], w)
         for i, j, w in graph.edge_list()],
        origin=new[graph.origin], targets=[new[t] for t in graph.targets],
        vertices=[new[x] for x in graph.labels])


@pytest.fixture(scope="module")
def deep_tree():
    """3391 vertices, 3390 of them live: a sparse solve with tiny S_beta."""
    return tree_line(3, [4] * 28, 30)


def test_transition_kernel_row_stochastic():
    g = random_graph(seed=1)
    kz = engine._kernel(g)
    sums = np.bincount(kz.row, weights=kz.p, minlength=g.n)
    for i in range(g.n):
        expect = 0.0 if i in g.target_indices else 1.0
        assert sums[i] == pytest.approx(expect, abs=1e-12)


def test_expected_unit_paths():
    for n in (1, 2, 5, 17, 50):
        assert engine.expected_hitting_time(unit_path(n)) == pytest.approx(
            n * n, rel=1e-12)


def test_expected_two_vertex_weighted():
    # single edge: one step regardless of weight
    g = WeightedGraph([(0, 1, 3.7)], origin=0, targets=[1])
    assert engine.expected_hitting_time(g) == pytest.approx(1.0)


def test_expected_unreachable_is_infinite():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[3])
    assert engine.expected_hitting_time(g) == math.inf
    assert engine.survival_transform(g, 0.5) == 0.0
    assert engine.effective_resistance(g) == math.inf


def test_survival_two_path_hand_value():
    # S(1/2) solves S = (beta/2)(1 + beta S) at the middle vertex: S = 1/7
    assert engine.survival_transform(two_path(), 0.5) == pytest.approx(
        1 / 7, rel=1e-14)
    assert engine.origin_visits(two_path(), 0.5) == pytest.approx(
        8 / 7, rel=1e-14)
    assert engine.gamma(two_path(), 0.5) == pytest.approx(8 / 7, rel=1e-14)


def test_survival_at_one_is_hitting_probability():
    g = random_graph(seed=5)
    assert engine.survival_transform(g, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_survival_monotone_in_beta():
    g = random_graph(seed=9)
    values = [engine.survival_transform(g, b) for b in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


def test_beta_validation():
    g = two_path()
    for bad in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(GraphError):
            engine.survival_transform(g, bad)
    with pytest.raises(GraphError):
        engine.gamma(g, 1.0000001)


def test_green_row_matches_kernel():
    g = random_graph(seed=13)
    beta = 0.7
    comp, vals = g.component_of(g.origin), engine.green_rows(g, (beta,))[0]
    full = engine.green_kernel(g, beta)
    for k, i in enumerate(comp):
        assert vals[k] == pytest.approx(full[g.origin_index, i], abs=1e-13)


def test_visits_count_initial_visit():
    # R counts the visit at time 0, so R >= 1 always
    for seed in range(8):
        g = random_graph(seed=seed)
        assert engine.origin_visits(g, 0.6) >= 1.0


def test_resistance_series_rule():
    weights = [2.0, 0.5, 3.0, 1.25]
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    g = WeightedGraph(edges, origin=0, targets=[len(weights)])
    assert engine.effective_resistance(g) == pytest.approx(
        sum(1 / w for w in weights), rel=1e-14)


def test_resistance_parallel_rule():
    # two disjoint two-edge routes between o and z
    g = WeightedGraph(
        [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)],
        origin=0, targets=[3])
    # branch resistances 2 and 1 in parallel: 2/3
    assert engine.effective_resistance(g) == pytest.approx(2 / 3, rel=1e-12)


def test_visits_at_one_equals_weighted_resistance():
    for seed in (21, 22, 23):
        g = random_graph(seed=seed)
        r = engine.effective_resistance(g)
        wo = g.vertex_weight(g.origin)
        assert engine.origin_visits(g, 1.0) == pytest.approx(wo * r, rel=1e-11)


def test_pmf_two_path_geometric():
    # from the middle of 0-1-2 the walk returns with prob 1/2 each round trip:
    # P(T = 2k) = 2^-k
    stats = engine.hitting_time_pmf(two_path(), horizon=40)
    for k in range(1, 12):
        assert stats.pmf[2 * k] == pytest.approx(0.5 ** k, rel=1e-12)
        assert stats.pmf[2 * k - 1] == 0.0
    assert stats.expected == pytest.approx(4.0, rel=1e-12)


def test_pmf_mass_and_mean(corpus_sample):
    for g in corpus_sample[:10]:
        stats = engine.hitting_time_pmf(g)
        total = float(stats.pmf.sum()) + stats.survival_mass
        assert total == pytest.approx(1.0, abs=1e-9)
        mean = float(np.arange(len(stats.pmf)) @ stats.pmf)
        assert mean <= stats.expected + 1e-9
        assert stats.survival_mass < 1e-3
        assert stats.cdf_at(-1) == 0.0
        assert stats.cdf_at(-math.inf) == 0.0
        assert stats.cdf_at(stats.horizon) == pytest.approx(
            1.0 - stats.survival_mass, abs=1e-12)
        whole = stats.cdf_at(stats.horizon)
        assert stats.cdf_at(stats.horizon + 0.5) == whole
        assert stats.cdf_at(1e300) == whole
        assert stats.cdf_at(math.inf) == whole
        with pytest.raises(GraphError):
            stats.cdf_at(math.nan)


def test_pmf_matches_survival_transform(corpus_sample):
    # S_beta = sum_t pmf[t] beta^t once survival mass is negligible
    g = corpus_sample[3]
    stats = engine.hitting_time_pmf(g)
    for beta in (0.3, 0.8):
        direct = float(np.polynomial.polynomial.polyval(beta, stats.pmf))
        assert direct == pytest.approx(
            engine.survival_transform(g, beta), abs=1e-10)


@pytest.fixture(scope="module")
def pmf_graphs(corpus_sample):
    return ([unit_path(60), fast_path(120, poly_growth_drift(120, 1.0))]
            + corpus_sample[:50])


def assert_pmf_matches_stepping(g, horizon):
    stats = engine.hitting_time_pmf(g, horizon=horizon)
    pmf, survival = stepped_pmf(g, stats.horizon)
    assert np.array_equal(stats.pmf == 0.0, pmf == 0.0)
    np.testing.assert_allclose(stats.pmf, pmf, rtol=1e-11, atol=0.0)
    assert stats.survival_mass == pytest.approx(survival, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("horizon", [0, 1, 2, 63, 64, 65, 1000, None])
def test_blocked_pmf_matches_stepping(pmf_graphs, horizon):
    for g in pmf_graphs:
        assert_pmf_matches_stepping(g, horizon)
    # unit_path(60) is bipartite with an even distance: odd times are impossible
    assert not engine.hitting_time_pmf(pmf_graphs[0], horizon=horizon).pmf[1::2].any()


# Above 200 live vertices: CSR steps up to horizon 65, dense blocks at 3000
@pytest.mark.parametrize("horizon", [0, 1, 63, 64, 65, 3000])
def test_wide_path_pmf_matches_stepping(horizon):
    assert_pmf_matches_stepping(unit_path(300), horizon)


@pytest.mark.parametrize("seed", [None, 9])
def test_wide_tree_pmf_matches_stepping(seed):
    g = tree_line(3, [4, 4], 7)  # 247 live vertices
    assert_pmf_matches_stepping(g if seed is None else relabel(g, seed), 8000)


def pmf_doublings(g, horizon=None):
    """engine._pmf_doublings on g's live vertices and horizon."""
    kz = engine._kernel(g)
    alive = kz.comp[~kz.at_target]
    _, c, _ = engine._restrict(g, alive)
    if horizon is None:
        horizon = engine.default_horizon(g, engine.expected_hitting_time(g))
    return engine._pmf_doublings(len(alive), int((c >= 0).sum()), horizon)


def test_pmf_path_chosen_by_cost():
    # one doubling only: every 2-step block is a dense 1499 x 1499 matvec
    assert pmf_doublings(fast_path(1500, 1.01), 4000) is None
    assert pmf_doublings(unit_path(300)) == 6
    assert pmf_doublings(tree_line(3, [4, 4], 7), 8000) == 6
    # corpus graphs (at most 12 live vertices) stay dense at every horizon
    horizons = [*range(2000), 2_000_000, engine.PMF_HORIZON_CAP]
    for m in range(1, 13):
        for nnz in (0, m * m):
            assert all(engine._pmf_doublings(m, nnz, h) is not None
                       for h in horizons)
    # kept powers are capped at DENSE_VERTEX_LIMIT vertices
    m = engine.DENSE_VERTEX_LIMIT
    assert engine._pmf_doublings(m, m * m, 10**6) == 6
    assert engine._pmf_doublings(m + 1, (m + 1) ** 2, 10**6) is None


def test_pmf_stops_once_walk_is_absorbed():
    # the origin's only neighbour is the target: T = 1 surely
    g = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], origin=0, targets=[1])
    stats = engine.hitting_time_pmf(g, horizon=500)
    assert stats.pmf[1] == 1.0
    assert stats.pmf.sum() == 1.0
    assert stats.survival_mass == 0.0


def test_pmf_rejects_horizon_beyond_cap():
    for horizon in (-1, engine.PMF_HORIZON_CAP + 1):
        with pytest.raises(GraphError, match="horizon must lie in"):
            engine.hitting_time_pmf(unit_path(2), horizon=horizon)


def test_pmf_rejects_non_integer_horizon(count_calls):
    # int() would truncate 2.9 to 2, parse "12" and read True as 1
    g = unit_path(3)
    solves = count_calls(engine, "_solve")
    for horizon in (2.9, 3.0, "12", True, np.float64(4.0), -1):
        with pytest.raises(GraphError, match="horizon must lie in .* be an integer"):
            engine.hitting_time_pmf(g, horizon=horizon)
    assert solves == []  # checked before E[T] is solved
    for horizon in (12, np.int64(12), np.uint8(12)):
        assert engine.hitting_time_pmf(g, horizon=horizon).horizon == 12


def test_walk_parameters_take_one_solve(count_calls):
    solves = count_calls(engine, "_solve")
    engine.walk_parameters(random_graph(seed=3), (0.5,))
    assert len(solves) == 1


def test_walk_parameters_are_fresh_objects():
    g = unit_path(5)
    [p] = engine.walk_parameters(g, (0.5,))
    s = p.survival
    p.survival = 2.0  # changes the caller's copy, not the walk record
    assert engine.survival_transform(g, 0.5) == s
    assert engine.walk_parameters(g, (0.5,))[0] is not p


def test_failed_parameter_check_keeps_nothing(monkeypatch):
    # a row whose target entry is 2: S = 2 lies outside [0, 1]
    monkeypatch.setattr(engine, "_solve", lambda graph, betas, idx, rhs, **kw:
                        np.full((len(betas), len(idx)), 2.0))
    g = unit_path(5)
    for _ in range(2):  # nothing of the failed solve was kept
        with pytest.raises(GraphError, match=r"survival 2.0 outside \[0, 1\]"):
            engine.survival_transform(g, 0.5)
    assert engine._kernel(g).rows == {}
    assert engine._kernel(g).params == {}


def test_walk_record_solves_each_system_once(count_calls):
    solves = count_calls(engine, "_solve")
    g = random_graph(seed=3)
    row = engine.green_rows(g, (0.5,))[0]
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 0.0
    assert engine.green_rows(g, (0.5,))[0] is row
    for stat in (engine.survival_transform, engine.origin_visits, engine.gamma):
        stat(g, 0.5)
    engine.expected_hitting_time(g)
    engine.hitting_time_pmf(g, horizon=50)  # reads E[T] from the record
    assert len(solves) == 2
    engine.origin_visits(g, 0.25)
    assert len(solves) == 3


def one_beta_row(graph, beta):
    """Reference Green row: one system per call, as solved before stacking."""
    kz = engine._kernel(graph)
    r, c, p = engine._restrict(graph, kz.comp)
    inner = c >= 0
    r, c, v = r[inner], c[inner], beta * p[inner]
    m = len(kz.comp)
    rhs = (kz.comp == graph.origin_index).astype(float)
    if m <= engine._DENSE_MAX:
        a = np.eye(m)
        a[r, c] -= v
        return np.linalg.solve(a.T, rhs)
    from scipy.sparse import csc_matrix, identity
    from scipy.sparse.linalg import splu

    a = identity(m, format="csc") - csc_matrix((v, (r, c)), shape=(m, m))
    return splu(a).solve(rhs, trans="T")


def chunk(graph):
    """Systems per stacked LAPACK call on graph's Green rows."""
    return max(1, (engine._DENSE_MAX // len(engine._kernel(graph).comp)) ** 2)


def assert_rows_identical(graph, betas):
    rows = engine.green_rows(graph, betas)
    assert len(rows) == len(betas)
    for beta, row in zip(betas, rows):
        assert not row.flags.writeable
        assert np.array_equal(row, one_beta_row(graph, beta))


def test_green_rows_bit_identical_on_corpus(corpus_sample):
    betas = (1.0, *bounds.default_beta_grid())
    for g in corpus_sample[:30]:
        assert_rows_identical(g.normalized(), betas)


def test_green_rows_bit_identical_across_chunks():
    betas = bounds.default_beta_grid()
    one, many = unit_path(150), unit_path(50)
    assert chunk(one) == 1 and 1 < chunk(many) < len(betas)
    for g in (one, many):
        assert_rows_identical(g, betas)


def test_green_rows_sparse_branch():
    g = unit_path(260)
    assert len(engine._kernel(g).comp) > engine._DENSE_MAX
    assert_rows_identical(g, (1.0, 0.3, 0.999))


def test_green_rows_repeated_beta(count_calls):
    solves = count_calls(engine, "_solve")
    g = random_graph(seed=3)
    rows = engine.green_rows(g, (0.5, 0.3, 0.5, 0.3))
    assert rows[0] is rows[2] and rows[1] is rows[3]
    assert [list(betas) for _, betas, *_ in solves] == [[0.5, 0.3]]
    assert_rows_identical(g, (0.5, 0.3, 0.5))
    assert engine.green_rows(g, (0.3,))[0] is rows[1]
    assert len(solves) == 1


def test_green_rows_without_target_at_one():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[3])
    with pytest.raises(GraphError, match="unreachable"):
        engine.green_rows(g, (0.5, 1.0))
    assert engine.origin_visits(g, 1.0) == math.inf
    assert engine.survival_transform(g, 1.0) == 0.0
    assert_rows_identical(g, (0.5,))


def test_stacked_solves_stay_within_one_dense_system(monkeypatch):
    # a stack never holds more entries than one _DENSE_MAX-sized solve
    sizes = []
    solve = np.linalg.solve

    def recording(a, b):
        sizes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    for g in (unit_path(50), fast_path(120, poly_growth_drift(120, 1.0))):
        bounds.check_theorem1(g)
    assert max(math.prod(shape) for shape in sizes) <= engine._DENSE_MAX ** 2
    assert max(shape[0] for shape in sizes) > 1  # some calls did stack


def test_corpus_check_solve_count(count_calls):
    # 2200 distinct (graph, system) pairs; every one is solved once, and a
    # graph's beta grid goes to _solve in one call.  Each draw builds one
    # graph, every suite reads its one normalization, and distance() runs
    # one BFS per graph: 143 constructions and 1506 BFS runs in all
    solves = count_calls(engine, "_solve")
    builds = count_calls(WeightedGraph, "__init__")
    hops = [count_calls(module, "_hops")
            for module in (hitbounds.graph, hitbounds.generators, hitbounds.flows)]
    corpus.run_all(count=100, seed=11, flow_count=20)
    assert sum(len(betas) for _, betas, *_ in solves) == 2200
    assert len(solves) == 300
    assert len(builds) == 143
    assert sum(map(len, hops)) == 1506


def test_commute_report_reuses_the_bound_walk_record(count_calls):
    # graph 2 has a pocket, so its normalization drops vertices; E[T] there
    # and the resistance come from check_theorem1's record, only the return
    # walk is solved
    graph = corpus.corpus_graph(2)
    assert graph.normalized().n < graph.n
    bounds.check_theorem1(graph)
    solves = count_calls(engine, "_solve")
    assert corpus.commute_report([graph])["all_pass"]
    assert sum(len(betas) for _, betas, *_ in solves) == 1


def test_survival_grid_matches_single_reads():
    # bit for bit, sign of zero included, against solves of one beta each
    betas = bounds.default_beta_grid() + (1.0,)

    def bits(values):
        return [(v, math.copysign(1.0, v)) for v in values]

    def grid(graph, betas):
        return [p.survival for p in engine.walk_parameters(graph, betas)]

    for i in range(30):
        values = grid(corpus.corpus_graph(i).normalized(), betas)
        g = corpus.corpus_graph(i).normalized()
        assert bits(values) == bits([engine.survival_transform(g, b) for b in betas])
        assert engine.walk_parameters(g, ()) == []
    lone = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[3])
    assert bits(grid(lone, betas)) == bits([0.0] * len(betas))
    with pytest.raises(GraphError):
        engine.walk_parameters(lone, (1.5,))


def test_zero_weight_origin_gamma_is_infinite():
    g = WeightedGraph([(1, 2, 1.0)], origin=0, targets=[2], vertices=[0, 1, 2])
    [p] = engine.walk_parameters(g, (0.5,))
    assert (p.survival, p.visits, p.gamma) == (0.0, 1.0, math.inf)
    assert engine.gamma(g, 0.5) == p.gamma
    assert engine.effective_resistance(g) == math.inf


def test_unreachable_zero_weight_targets_gamma_is_infinite():
    # R_1 = inf and w_z = 0: Gamma is inf, not inf * 0 = nan
    g = WeightedGraph([(0, 1, 1.0)], origin=0, targets=[2], vertices=[0, 1, 2])
    assert engine.origin_visits(g, 1.0) == math.inf
    assert engine.gamma(g, 1.0) == math.inf
    assert engine._gamma(g, math.inf) == math.inf


def test_large_path_solve():
    g = unit_path(3000)
    assert engine.expected_hitting_time(g) == pytest.approx(9e6, rel=1e-10)


def test_large_cycle_solve():
    n, k = 2500, 1250
    g = WeightedGraph([(i, (i + 1) % n, 1.0) for i in range(n)],
                      origin=0, targets=[k])
    assert engine.expected_hitting_time(g) == pytest.approx(
        k * (n - k), rel=1e-9)


def test_walk_parameters_validate(corpus_sample):
    for g in corpus_sample[:12]:
        [params] = engine.walk_parameters(g, (0.6,))
        params.validate()
        assert 0.0 < params.survival < 1.0
        assert params.visits >= 1.0


@given(st.integers(0, 10_000), st.sampled_from([0.35, 0.75]))
@settings(max_examples=25, deadline=None)
def test_expected_matches_direct_solve(seed, beta):
    g = random_graph(seed=seed)
    assert engine.expected_hitting_time(g) == pytest.approx(
        direct_expected(g), rel=1e-9)
    # Green row sums against the direct fundamental matrix at beta < 1
    comp, vals = g.component_of(g.origin), engine.green_rows(g, (beta,))[0]
    alive = [i for i in comp if i not in g.target_indices]
    pos = {i: k for k, i in enumerate(alive)}
    a = np.eye(len(alive))
    for i in alive:
        wi = g.vertex_weights[i]
        for j, w in g.adjacency[i].items():
            if j in pos:
                a[pos[i], pos[j]] -= beta * w / wi
    row = np.linalg.solve(a.T, np.eye(len(alive))[pos[g.origin_index]])
    for k, i in enumerate(comp):
        if i in pos:
            assert vals[k] == pytest.approx(row[pos[i]], abs=1e-11)


def test_large_tree_solve_independent_of_labels(deep_tree):
    beta = 0.9999999
    base = (engine.expected_hitting_time(deep_tree),
            engine.survival_transform(deep_tree, beta),
            engine.origin_visits(deep_tree, beta))
    g = relabel(deep_tree, seed=4)
    got = (engine.expected_hitting_time(g),
           engine.survival_transform(g, beta),
           engine.origin_visits(g, beta))
    assert got == pytest.approx(base, rel=1e-10)


def test_survival_adds_targets_in_order(deep_tree):
    """S_beta adds the row at the targets left to right, as sum() does,
    on a graph with few targets and on deep_tree's 307."""
    for graph in (random_graph(seed=3), deep_tree):
        kz = engine._kernel(graph)
        for beta in (0.5, 0.9, 0.99):
            row = engine.green_rows(graph, (beta,))[0]
            assert (engine.survival_transform(graph, beta)
                    == float(sum(row[kz.at_target])))


def direct_survival(graph, beta):
    """Independent oracle: dense solve of S = beta K_z S on alive vertices, S = 1 on z."""
    comp = graph.component_of(graph.origin)
    alive = [i for i in comp if i not in graph.target_indices]
    pos = {i: k for k, i in enumerate(alive)}
    a = np.eye(len(alive))
    b = np.zeros(len(alive))
    for i in alive:
        wi = graph.vertex_weights[i]
        for j, w in graph.adjacency[i].items():
            if j in pos:
                a[pos[i], pos[j]] -= beta * w / wi
            else:
                b[pos[i]] += beta * w / wi
    return float(np.linalg.solve(a, b)[pos[graph.origin_index]])


def test_large_tree_tiny_survival_transform(deep_tree):
    for beta, approx in ((0.5, 4.74e-27), (0.99, 4.58e-12)):
        exact = direct_survival(deep_tree, beta)
        assert exact == pytest.approx(approx, rel=1e-3, abs=0.0)
        assert engine.survival_transform(deep_tree, beta) == pytest.approx(
            exact, rel=1e-9, abs=0.0)


def test_import_leaves_sparse_solvers_unloaded():
    # scipy.sparse.linalg costs about 0.1 s and 8 MiB to import; only large
    # solves should pay for it.
    src = os.path.dirname(os.path.dirname(hitbounds.__file__))
    code = ("import sys, hitbounds; "
            "sys.exit('scipy.sparse.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _path_with_weights(weights):
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    return WeightedGraph(edges, origin=0, targets=[len(weights)])


@pytest.mark.parametrize("n", [4, 251])  # 2 and 249 unknowns: LAPACK and SuperLU
def test_singular_kernel_raises_graph_error(n):
    # 1 + 1e-30 == 1: the last live row of I - K_z is 0 in floating point
    graph = _path_with_weights([1.0] * (n - 2) + [1e-30])
    assert (n - 2 <= engine._DENSE_MAX) is (n == 4)
    for _ in range(2):  # a failed solve leaves nothing in the walk record
        with pytest.raises(GraphError, match="singular in floating point"):
            engine.expected_hitting_time(graph)
        with pytest.raises(GraphError, match="singular in floating point"):
            engine.green_rows(graph, (1.0,))
    kz = engine._kernel(graph)
    assert kz.expected is None and kz.rows == {}


def test_expected_time_below_distance_raises():
    # LU loses the small weights of this path: the solve gives E[T] = -1.378e16
    graph = _path_with_weights(tuple(10.0 ** (-3 * i) for i in range(10)))
    for _ in range(2):  # a failed guard leaves nothing in the walk record
        with pytest.raises(GraphError, match="below the distance 10"):
            engine.expected_hitting_time(graph)
    assert engine._kernel(graph).expected is None


@pytest.mark.xfail(raises=GraphError, strict=True,
                   reason="ROADMAP item 1: the LU solve loses the small weights")
@pytest.mark.parametrize("weights", [
    (1.0, 1e-13),  # survival 1.0008 outside [0, 1]
    tuple(10.0 ** (-3 * i) for i in range(10)),  # visit count -6.9e15 below 1
], ids=["3_vertices", "11_vertices"])
def test_tiny_weight_paths_keep_exact_statistics(weights):
    graph = _path_with_weights(weights)
    bounds.check_theorem1(graph)
    assert engine.survival_transform(graph, 1.0) == pytest.approx(1.0, rel=1e-12)
    resistance = math.fsum(1.0 / w for w in weights)
    assert engine.origin_visits(graph, 1.0) == pytest.approx(
        weights[0] * resistance, rel=1e-12)


def test_green_kernel_targetless_component_is_infinite_at_one():
    g = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (3, 4, 2.0)], origin=0, targets=[2])
    full = engine.green_kernel(g, 1.0)
    assert np.isinf(full[3:, 3:]).all()
    assert not full[:3, 3:].any() and not full[3:, :3].any()
    assert np.isfinite(full[:3, :3]).all()
    assert full[0, 0] == engine.origin_visits(g, 1.0)
    assert np.isfinite(engine.green_kernel(g, 0.5)).all()


def test_green_kernel_refuses_graphs_above_dense_limit():
    graph = unit_path(engine.DENSE_VERTEX_LIMIT)  # one vertex more than the limit
    assert graph.n == engine.DENSE_VERTEX_LIMIT + 1
    with pytest.raises(GraphError, match="use green_rows"):
        engine.green_kernel(graph, 0.5)
