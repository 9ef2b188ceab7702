import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitbounds import engine, montecarlo
from hitbounds.corpus import corpus_graph
from hitbounds.generators import tree_line
from hitbounds.graph import (
    GraphError,
    ParseError,
    WeightedGraph,
    _hops,
    parse,
    read_graph_file,
    serialize,
    write_graph_file,
)


def square():
    """4-cycle with a chord and a self-loop at vertex 2."""
    return WeightedGraph(
        [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 0, 0.5), (0, 2, 0.25),
         (2, 2, 3.0)],
        origin=0, targets=[3])


def test_basic_queries():
    g = square()
    assert g.n == 4
    assert g.labels == (0, 1, 2, 3)
    assert g.weight(0, 1) == 1.0
    assert g.weight(1, 0) == 1.0
    assert g.weight(0, 3) == 0.5
    assert g.weight(1, 3) == 0.0


def test_vertex_weight_counts_self_loop_once():
    g = square()
    assert g.vertex_weight(2) == 2.0 + 1.5 + 0.25 + 3.0
    assert g.vertex_weight(0) == 1.0 + 0.5 + 0.25
    assert g.total_weight() == pytest.approx(
        sum(g.vertex_weight(x) for x in g.labels))


def test_set_weight_defaults_to_targets():
    g = square()
    assert g.set_weight() == g.vertex_weight(3)


def test_zero_weight_edges_are_dropped():
    g = WeightedGraph([(0, 1, 1.0), (1, 2, 0.0)], origin=0, targets=[2])
    assert g.weight(1, 2) == 0.0
    assert g.n == 3  # vertex 2 still present (it is a target)
    assert g.distance(g.origin) == math.inf


def test_duplicate_edges():
    g = WeightedGraph([(0, 1, 2.0), (1, 0, 2.0)], origin=0, targets=[1])
    assert g.weight(0, 1) == 2.0
    with pytest.raises(GraphError):
        WeightedGraph([(0, 1, 2.0), (1, 0, 3.0)], origin=0, targets=[1])


def test_invalid_inputs():
    with pytest.raises(GraphError):
        WeightedGraph([(0, 1, -1.0)], origin=0, targets=[1])
    with pytest.raises(GraphError):
        WeightedGraph([(0, 1, math.inf)], origin=0, targets=[1])
    with pytest.raises(GraphError):
        WeightedGraph([(0, 1, 1.0)], origin=0, targets=[])
    with pytest.raises(GraphError):
        WeightedGraph([(0, 1, 1.0)], origin=0, targets=[0])
    with pytest.raises(GraphError):
        WeightedGraph([(True, 1, 1.0)], origin=True, targets=[1])
    with pytest.raises(GraphError):
        WeightedGraph([((1,), 2, 1.0)], origin=(1,), targets=[2])
    with pytest.raises(GraphError, match=r"\(u, v, weight\) triple"):
        WeightedGraph([(0, 1)], origin=0, targets=[1])
    with pytest.raises(GraphError, match="must be a number"):
        WeightedGraph([(0, 1, "1.0")], origin=0, targets=[1])


def test_mixed_label_ordering():
    g = WeightedGraph([(2, "a", 1.0), ("a", 0, 1.0)], origin=0, targets=[2])
    # ints first in numeric order, then strings
    assert g.labels == (0, 2, "a")


def test_distance():
    g = square()
    assert g.distance(0) == 1
    assert g.distance(1) == 2
    lone = WeightedGraph([(0, 1, 1.0)], origin=0, targets=[5], vertices=[5])
    assert lone.distance(0) == math.inf


def test_component_of():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[3])
    assert g.component_of(0) == [0, 1]
    assert g.component_of(3) == [2, 3]


def test_replace():
    g = square()
    h = g.replace(origin=3, targets=[0])
    assert h.origin == 3 and h.targets == (0,)
    assert h.weight(0, 1) == g.weight(0, 1)
    assert g.origin == 0  # original untouched


def test_replace_rejects_unknown_labels_and_origin_among_targets():
    g = square()
    for origin, targets in ((9, [0]), (3, [9]), (3, [True]), (3, [0, 3])):
        with pytest.raises(GraphError):
            g.replace(origin=origin, targets=targets)
    with pytest.raises(GraphError, match="non-empty"):
        g.replace(targets=[])
    assert g.replace(targets=[3, 1, 3]).targets == (1, 3)


def test_replaced_graph_starts_its_own_walk_record():
    g = corpus_graph(7)  # two targets, so the contraction is a new graph
    assert len(g.targets) == 2
    g.distance(g.origin)
    engine.expected_hitting_time(g.normalized())
    engine.expected_hitting_time(g)
    cached = ("_kz", "_normalized", "_target_hops")
    assert all(name in g.__dict__ for name in cached)
    h = g.replace(origin=g.targets[0], targets=[g.origin])
    assert not any(name in h.__dict__ for name in cached)
    assert h.adjacency is g.adjacency and h.labels is g.labels
    assert h.set_weight() == g.vertex_weight(g.origin)
    assert g.distance(g.origin) >= 3 and h.distance(g.origin) == 0  # own hop list
    fresh = WeightedGraph([(g.labels[i], g.labels[j], w) for i, j, w in g.edge_list()],
                          h.origin, h.targets, metadata=g.metadata)
    assert serialize(h) == serialize(fresh)
    assert engine.expected_hitting_time(h) == engine.expected_hitting_time(fresh)
    assert h._kz is not g._kz


def test_contract_targets_merges_and_sums():
    g = WeightedGraph(
        [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 0.5), (2, 3, 4.0)],
        origin=0, targets=[2, 3])
    c = g.contract_targets()
    assert c.targets == (2,)
    # parallel edges 1-2 and 1-3 merge; target-internal 2-3 is dropped
    assert c.weight(1, 2) == 2.5
    assert c.vertex_weight(2) == 2.5
    assert c.n == 3


def test_contract_single_target_is_identity_shape():
    g = square()
    c = g.contract_targets()
    assert c.targets == g.targets
    assert c.edge_list() == g.edge_list()


def test_restrict_accessible_drops_pockets():
    # vertex 4 hangs behind the target: unreachable without crossing it
    g = WeightedGraph(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        origin=0, targets=[3])
    r = g.restrict_accessible()
    assert 4 not in r.labels
    assert r.n == 4
    # separate island also goes
    g2 = WeightedGraph(
        [(0, 1, 1.0), (1, 2, 1.0), (5, 6, 1.0)], origin=0, targets=[2])
    r2 = g2.restrict_accessible()
    assert 5 not in r2.labels and 6 not in r2.labels


def test_restrict_accessible_keeps_unreachable_targets():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[3])
    r = g.restrict_accessible()
    assert 3 in r.labels
    assert r.distance(r.origin) == math.inf


def test_serialize_parse_round_trip():
    g = square()
    text = serialize(g)
    h = parse(text)
    assert h.labels == g.labels
    assert h.edge_list() == g.edge_list()
    assert h.origin == g.origin and h.targets == g.targets
    # normal form: serializing the parse reproduces the text exactly
    assert serialize(h) == text
    assert text.endswith("\n")


def test_parse_rejects_junk():
    with pytest.raises(ParseError):
        parse("{not json")
    with pytest.raises(ParseError):
        parse(json.dumps([1, 2, 3]))
    with pytest.raises(ParseError):
        parse(json.dumps({"edges": [[0, 1, 1.0]], "origin": 0}))  # no targets


_GOOD = {"vertices": [0, 1, 2], "edges": [[0, 1, 1.0], [1, 2, 1.0]],
         "origin": 0, "targets": [2]}


@pytest.mark.parametrize("change, message", [
    ({"vertices": {"0": 1}}, "'vertices' must be a list"),
    ({"vertices": [0, 1, 2, 1]}, "duplicate vertex 1"),
    ({"vertices": [0, 1, 2, 1.5]}, "vertex label must be int or str, got 1.5"),
    ({"edges": 3}, "'edges' must be a list"),
    ({"edges": [[0, 1]]}, r"edge must be a \[u, v, w\] triple"),
    ({"edges": [[0, 3, 1.0]]}, "references an unknown vertex"),
    ({"edges": [[[0], 1, 1.0]]}, r"vertex label must be int or str, got \[0\]"),
    ({"origin": 7}, "unknown origin 7"),
    ({"origin": {"id": 0}}, "vertex label must be int or str"),
    ({"targets": []}, "'targets' must be a non-empty list"),
    ({"targets": 2}, "'targets' must be a non-empty list"),
    ({"targets": [5]}, "unknown target 5"),
    ({"targets": [[2]]}, "vertex label must be int or str"),
    ({"metadata": []}, "'metadata' must be an object"),
    # GraphError from the constructor, raised as ParseError
    ({"edges": [[0, 1, -1.0], [1, 2, 1.0]]}, "negative weight"),
    ({"origin": 2}, "must not be a target"),
])
def test_parse_rejects_malformed_document(change, message):
    with pytest.raises(ParseError, match=message):
        parse(json.dumps({**_GOOD, **change}))


def test_file_round_trip(tmp_path):
    g = square()
    path = tmp_path / "g.json"
    write_graph_file(g, path)
    h = read_graph_file(path)
    assert serialize(h) == serialize(g)


def test_metadata_round_trip():
    g = WeightedGraph([(0, 1, 1.0)], origin=0, targets=[1],
                      metadata={"generator": "test", "k": 3})
    h = parse(serialize(g))
    assert h.metadata == {"generator": "test", "k": 3}


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12,
                           unique=True))
    edges = []
    for i, j in chosen:
        w = draw(st.floats(0.01, 100.0, allow_nan=False))
        edges.append((i, j, w))
    labels = sorted({u for e in edges for u in e[:2]})
    if len(labels) < 2:
        edges.append((labels[0], labels[0] + 1, 1.0))
        labels = sorted({u for e in edges for u in e[:2]})
    origin = draw(st.sampled_from(labels))
    target = draw(st.sampled_from([x for x in labels if x != origin]))
    return WeightedGraph(edges, origin=origin, targets=[target])


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_serialization_is_stable(g):
    text = serialize(g)
    assert serialize(parse(text)) == text


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_weights_symmetric_and_nonnegative(g):
    for x in g.labels:
        for y in g.labels:
            assert g.weight(x, y) == g.weight(y, x)
            assert g.weight(x, y) >= 0.0
    assert g.total_weight() >= 0.0


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_normalization_preserves_distance(g):
    d = g.distance(g.origin)
    work = g.contract_targets().restrict_accessible()
    assert work.distance(work.origin) == d


def hop_oracle(graph, avoid=frozenset()):
    """All-pairs hop counts by Floyd-Warshall over paths with no interior vertex in avoid."""
    d = np.full((graph.n, graph.n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, _ in graph.edge_list():
        if i != j:
            d[i, j] = d[j, i] = 1.0
    for k in range(graph.n):
        if k not in avoid:
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def relabelled(graph, seed):
    perm = np.random.default_rng(seed).permutation(graph.n)
    new = {x: int(perm[i]) for i, x in enumerate(graph.labels)}
    return WeightedGraph(
        [(new[graph.labels[i]], new[graph.labels[j]], w)
         for i, j, w in graph.edge_list()],
        origin=new[graph.origin], targets=[new[t] for t in graph.targets],
        vertices=[new[x] for x in graph.labels])


@pytest.mark.parametrize("graphs", ["corpus", "tree_line"])
def test_hop_distances_match_oracle(graphs):
    if graphs == "corpus":
        cases = [corpus_graph(i) for i in range(100)]
    else:
        cases = [relabelled(tree_line(2, [4] * 5 + [2] * 2, 8), seed=3)]
    for g in cases:
        d = hop_oracle(g)
        tset = sorted(g.target_indices)
        for i, x in enumerate(g.labels):
            assert g.distance(x) == d[i, tset].min()
            assert g.component_of(x) == np.flatnonzero(np.isfinite(d[i])).tolist()
        o = g.origin_index
        free = hop_oracle(g, avoid=g.target_indices)[o]
        hops = _hops(g.adjacency, [o], blocked=g.target_indices)
        assert hops == [int(v) if math.isfinite(v) else -1 for v in free]
        keep = set(np.flatnonzero(np.isfinite(free)).tolist()) | g.target_indices
        assert g.restrict_accessible().labels == tuple(g.labels[i] for i in sorted(keep))
        assert np.isfinite(d[o]).all()
        assert montecarlo._hop_distances(g).tolist() == d[o].astype(int).tolist()


def test_normalized_is_cached_and_idempotent():
    g = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (1, 3, 2.0), (3, 4, 1.0),
                       (2, 2, 0.5)], origin=0, targets=[2, 3])
    w = g.normalized()
    assert w is not g and g.normalized() is w
    assert w.normalized() is w
    assert w.contract_targets() is w and w.restrict_accessible() is w
    assert 4 not in w.labels and w.targets == (2,)



def test_normal_graph_freed_without_cycle_collector():
    # a normal graph is its own normalization; recording that must not make
    # a reference cycle, or the graph and its walk record outlive every name
    gc.disable()
    try:
        g = corpus_graph(0).normalized()
        assert g.normalized() is g and g.contract_targets() is g
        ref = weakref.ref(g)
        del g
        assert ref() is None
        g = corpus_graph(7)  # its normalization is a graph of its own
        work = g.normalized()
        assert work is not g and g.normalized() is work
        assert "_contracted" not in g.__dict__
        refs = [weakref.ref(g), weakref.ref(work)]
        del g, work
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()

def test_normalized_matches_contract_then_restrict():
    graphs = [corpus_graph(i) for i in range(200)]
    # a self-loop on a target: contraction must drop it
    graphs += [WeightedGraph([(g.labels[i], g.labels[j], w) for i, j, w in g.edge_list()]
                             + [(t, t, 1.0) for t in g.targets], g.origin, g.targets)
               for g in graphs[:20]]
    assert any(len(g.targets) > 1 for g in graphs)
    assert any(t in g.adjacency[t] for g in graphs for t in g.target_indices)
    for g in graphs:
        w = g.normalized()
        assert g.normalized() is w
        (z,) = w.target_indices
        assert z not in w.adjacency[z]
        assert serialize(w) == serialize(g.contract_targets().restrict_accessible())
