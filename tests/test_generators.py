import math

import pytest

from hitbounds import corpus, engine
from hitbounds.corpus import corpus_graph
from hitbounds.generators import (
    biased_line,
    concatenated_fast,
    fast_path,
    fast_path_expected,
    fast_path_resistance,
    poly_growth_drift,
    random_graph,
    tree_line,
    unit_path,
)
from hitbounds.graph import GraphError, serialize
from hitbounds.refwalk import ParameterError


def test_unit_path_structure():
    g = unit_path(4)
    assert g.labels == (0, 1, 2, 3, 4)
    assert g.origin == 0 and g.targets == (4,)
    assert all(w == 1.0 for _, _, w in g.edge_list())
    assert len(g.edge_list()) == 4
    assert g.metadata["generator"] == "unit_path"
    assert engine.expected_hitting_time(g) == pytest.approx(16.0, rel=1e-12)


def test_unit_path_validation():
    with pytest.raises(ParameterError):
        unit_path(0)
    with pytest.raises(ParameterError):
        unit_path(True)
    with pytest.raises(ParameterError):
        unit_path(2.5)


def test_biased_line_weights_and_horizon():
    g = biased_line(3, 2.0, tail=5)
    assert g.labels == tuple(range(-5, 4))
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 2) == 2.0
    assert g.weight(2, 3) == 4.0
    assert g.weight(-1, 0) == 0.5
    assert g.weight(-5, -4) == 2.0 ** -5
    # the walk cannot feel either cut end before min(tail, n) steps
    assert g.metadata["safe_horizon"] == 3
    assert biased_line(9, 2.0, tail=2).metadata["safe_horizon"] == 2
    assert biased_line(4, 2.0).metadata["safe_horizon"] == 0


def test_biased_line_unit_drift_matches_unit_path():
    a = biased_line(6, 1.0)
    b = unit_path(6)
    assert a.edge_list() == b.edge_list()


def test_biased_line_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            biased_line(3, bad)
    with pytest.raises(GraphError):
        biased_line(1200, 2.0)  # 2^1199 overflows
    with pytest.raises(GraphError):
        biased_line(2, 2.0, tail=1200)


def test_fast_path_weights():
    g = fast_path(5, 3.0)
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 2) == pytest.approx(2.0)  # (g-1) g^0
    assert g.weight(2, 3) == pytest.approx(6.0)  # (g-1) g^1
    assert g.weight(3, 4) == pytest.approx(18.0)
    assert g.weight(4, 5) == pytest.approx(36.0)  # (g-1)^2 g^(n-3)
    assert g.vertex_weight(5) == pytest.approx(36.0)


def test_fast_path_closed_forms_match_engine():
    for n in (4, 6, 9, 14):
        for drift in (1.5, 2.0, 4.0):
            g = fast_path(n, drift)
            assert engine.expected_hitting_time(g) == pytest.approx(
                fast_path_expected(n, drift), rel=1e-11)
            assert engine.effective_resistance(g) == pytest.approx(
                fast_path_resistance(n, drift), rel=1e-12)


def test_fast_path_validation():
    with pytest.raises(ParameterError):
        fast_path(3, 2.0)
    with pytest.raises(ParameterError):
        fast_path(5, 1.0)
    with pytest.raises(GraphError):
        fast_path(1000, 10.0)
    with pytest.raises(ParameterError):
        fast_path_expected(3, 2.0)
    with pytest.raises(ParameterError):
        fast_path_resistance(5, 0.5)
    for closed_form in (fast_path_expected, fast_path_resistance):
        with pytest.raises(ParameterError):  # finite g > 1, as fast_path
            closed_form(10, math.inf)


def test_poly_growth_drift_exceeds_one():
    for n in (2, 10, 1000, 1e6):
        for p in (0, 0.5, 2):
            assert poly_growth_drift(n, p) > 1.0


def test_poly_growth_drift_total_weight_scaling():
    # the drift is tuned so total weight tracks n^(p+2) / ((p+2) log n)^2
    n = 1000
    for p in (0, 1, 2):
        drift = poly_growth_drift(n, p)
        level = (p + 2) * math.log(n)
        target = 2.0 * n ** (p + 2) / level ** 2
        assert 0.5 < fast_path(n, drift).total_weight() / target < 2.0


def test_poly_growth_drift_validation():
    with pytest.raises(ParameterError):
        poly_growth_drift(1.0)
    with pytest.raises(ParameterError):
        poly_growth_drift(10, -0.5)
    with pytest.raises(ParameterError):
        poly_growth_drift(1.1, 2)  # (p+2) log n barely below 1


def test_concatenated_fast_default_schedule():
    g = concatenated_fast(max_vertices=70_000)
    assert g.metadata["cuts"] == [16, 256, 65536]
    assert g.metadata["safe_horizon"] == 65536
    assert g.origin == 0 and g.targets == (65536,)
    assert len(g.labels) == 65537


def test_concatenated_fast_blocks_share_cuts():
    g = concatenated_fast(cuts=[16, 256])
    assert len(g.labels) == 257
    assert g.weight(16, 17) == 1.0  # each block restarts with a unit edge
    d1 = poly_growth_drift(16)
    assert g.weight(15, 16) == pytest.approx((d1 - 1.0) ** 2 * d1 ** 13)
    assert g.distance(0) == 256


def test_concatenated_fast_validation():
    with pytest.raises(ParameterError):
        concatenated_fast(cuts=[3])
    with pytest.raises(ParameterError):
        concatenated_fast(cuts=[16, 8])
    with pytest.raises(ParameterError):
        concatenated_fast(cuts=[10, 12])  # second block too short
    with pytest.raises(ParameterError):
        concatenated_fast(max_vertices=10)
    with pytest.raises(GraphError):
        concatenated_fast(cuts=[16, 3_000_000])


def test_tree_line_structure():
    g = tree_line(2, [0, 2], 3)
    assert len(g.labels) == 10  # 4 line vertices + 2 + 4 tree vertices
    assert g.origin == 0
    # absorbed at hop distance >= 3: the endpoint and every tree vertex
    assert set(g.targets) == {
        3, "t2/1/0", "t2/1/1", "t2/2/2", "t2/2/3", "t2/2/4", "t2/2/5"}
    assert g.weight(2, "t2/1/0") == 1.0
    assert g.weight("t2/1/0", "t2/2/2") == 1.0
    assert g.metadata["safe_horizon"] == 3


def test_tree_line_depth_zero_is_plain_line():
    g = tree_line(3, [0, 0, 0], 3)
    assert g.labels == (0, 1, 2, 3)
    assert g.targets == (3,)


def test_tree_line_validation():
    with pytest.raises(ParameterError):
        tree_line(1, [0], 3)
    with pytest.raises(ParameterError):
        tree_line(2, [0] * 5, 3)
    with pytest.raises(ParameterError):
        tree_line(2, [-1], 3)
    with pytest.raises(GraphError):
        tree_line(2, [40], 2)  # ~2^41 tree vertices


def test_random_graph_deterministic():
    a = random_graph(seed=7)
    b = random_graph(seed=7)
    assert serialize(a) == serialize(b)
    assert serialize(random_graph(seed=(1, 5))) != serialize(
        random_graph(seed=(1, 6)))


def test_random_graph_constraints():
    for seed in range(30):
        g = random_graph(seed=seed)
        n = len(g.labels)
        assert n <= 12
        assert len(g.component_of(g.origin)) == n
        assert g.distance(g.origin) >= 3
        for _, _, w in g.edge_list():
            assert 0.1 <= w <= 10.0


def test_random_graph_options():
    g = random_graph(seed=11, self_loop_prob=1.0)
    assert any(u == v for u, v, _ in g.edge_list())
    wide = random_graph(seed=3, max_vertices=30)
    assert wide.distance(wide.origin) >= 3
    with pytest.raises(ParameterError):
        random_graph(seed=0, max_vertices=1)


def test_corpus_graph_variants():
    assert serialize(corpus_graph(42)) == serialize(corpus_graph(42))
    looped = corpus_graph(3)  # every index = 3 mod 5 carries a self-loop
    assert any(u == v for u, v, _ in looped.edge_list())
    multi = corpus_graph(7)  # every index = 7 mod 11 asks for a second target
    assert len(multi.targets) >= 1
    for idx in (0, 1, 2, 3, 7, 999):
        g = corpus_graph(idx)
        assert g.distance(g.origin) >= 3
        assert len(g.labels) <= 12


def test_corpus_reports_count_generator_input():
    graphs = [corpus_graph(i) for i in range(3)]
    bounds = corpus.bound_report(g for g in graphs)
    assert bounds["graphs"] == 3
    assert bounds["checks"] == corpus.bound_report(graphs)["checks"]
    assert corpus.commute_report(g for g in graphs)["graphs"] == 3
