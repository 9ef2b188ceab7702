import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitbounds import corpus, engine, flows
from hitbounds.flows import (
    FlowError,
    LossFlow,
    build_flow,
    cycle_reversibility_gap,
    decompose,
    flow_parameters,
    gamma_chain_bound,
    h_transform,
    node_law_residual,
    path_flow,
    s_value,
    theta,
)
from hitbounds.generators import random_graph, unit_path
from hitbounds.graph import GraphError, WeightedGraph


def test_build_flow_two_path_hand_values():
    fl = build_flow(unit_path(2), 0.5)
    assert fl.value(0, 1) == pytest.approx(4 / 7, rel=1e-14)
    assert fl.value(1, 2) == pytest.approx(1 / 7, rel=1e-14)
    assert fl.value(1, 0) == pytest.approx(1 / 7, rel=1e-14)  # theta = 1/4
    assert fl.value(2, 1) == 0.0
    assert node_law_residual(fl) < 1e-15
    assert s_value(fl, 0, 1) == pytest.approx(2 / 7, rel=1e-14)
    assert theta(fl, 1, 0) == pytest.approx(1 / 4, rel=1e-14)
    assert theta(fl, 2, 1) == 0.0
    assert theta(fl, 1, 2) == math.inf  # nothing flows back out of the target


def test_build_flow_rejects_bad_beta():
    g = unit_path(2)
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(FlowError):
            build_flow(g, bad)


def test_node_law_on_corpus(corpus_sample):
    for g in corpus_sample[:25]:
        for beta in (0.15, 0.6, 0.9):
            fl = build_flow(g, beta)
            assert node_law_residual(fl) < 1e-12


def test_cycle_reversibility_on_corpus(corpus_sample):
    for g in corpus_sample[:25]:
        fl = build_flow(g, 0.7)
        assert cycle_reversibility_gap(fl) < 1e-12


def test_theta_green_identity(corpus_sample):
    """theta(x, y) = G(o, x) w_y / (G(o, y) w_x) on every two-way edge."""
    for g in corpus_sample[:12]:
        fl = build_flow(g, 0.6)
        work = fl.graph
        vals = engine.green_rows(work, (0.6,))[0]
        green = dict(zip(work.component_of(work.origin), vals))
        m = fl.matrix
        for i, j in zip(*np.nonzero(m)):
            i, j = int(i), int(j)
            if m[j, i] <= 0.0:
                continue
            expect = (green[i] * work.vertex_weights[j]
                      / (green[j] * work.vertex_weights[i]))
            got = theta(fl, work.labels[i], work.labels[j])
            assert got == pytest.approx(expect, rel=1e-10)


def test_flow_parameters_match_engine(corpus_sample):
    for g in corpus_sample[:20]:
        for beta in (0.25, 0.75):
            fl = build_flow(g, beta)
            params = flow_parameters(fl)
            work = fl.graph
            assert params.survival == pytest.approx(
                engine.survival_transform(work, beta), rel=1e-10, abs=1e-12)
            assert params.visits == pytest.approx(
                engine.origin_visits(work, beta), rel=1e-10)
            assert params.gamma == pytest.approx(
                engine.gamma(work, beta), rel=1e-10)


def _inflated_target_inflow():
    """A graph flow whose target inflow, and so its Gamma, is 1% too large."""
    fl = build_flow(unit_path(3), 0.5)
    m = fl.matrix.copy()
    m[:, fl.target_index] *= 1.01
    return LossFlow(beta=0.5, labels=fl.labels, origin=fl.origin,
                    target=fl.target, matrix=m, graph=fl.graph)


def _one_way_flow():
    """0 -> 1 -> 2 with no flow back to 0: no potential reaches vertex 1."""
    m = np.zeros((3, 3))
    m[0, 1], m[1, 2] = 0.5, 0.25
    return LossFlow(beta=0.5, labels=(0, 1, 2), origin=0, target=2, matrix=m)


@pytest.mark.parametrize("make, error, message", [
    (lambda: LossFlow(0.5, (0, 1), 0, 1, np.zeros((3, 3))), FlowError,
     "must be 2x2"),
    (lambda: LossFlow(0.5, (0, 1), 0, 2, np.zeros((2, 2))), FlowError,
     "among the labels"),
    (lambda: LossFlow(0.5, (0, 1), 1, 1, np.zeros((2, 2))), FlowError,
     "must differ"),
    (lambda: theta(path_flow([0, 1, 2], [0.25], 0.5), 0, 2), FlowError,
     "no flow on edge"),
    (lambda: flow_parameters(_one_way_flow()), FlowError, "gamma undefined"),
    (lambda: flow_parameters(_inflated_target_inflow()), GraphError,
     "gamma inconsistent"),
    (lambda: path_flow([0], [], 0.5), FlowError, "at least one edge"),
], ids=["shape", "labels", "origin", "theta", "gamma_undefined",
        "gamma_inconsistent", "path_one_vertex"])
def test_flow_rejects_invalid_input(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_path_flow_closed_forms():
    beta = 0.6
    thetas = [0.2, 0.05, 0.4]
    fl = path_flow([0, 1, 2, 3, 4], thetas, beta)
    assert node_law_residual(fl) < 1e-15
    params = flow_parameters(fl)
    s = [(beta - t) / (1.0 - beta * t) for t in thetas]
    assert params.survival == pytest.approx(beta * math.prod(s), rel=1e-12)
    assert params.visits == pytest.approx(
        (1.0 - beta * s[0]) / (1.0 - beta * beta), rel=1e-12)
    assert params.gamma == pytest.approx(
        math.prod(h_transform(x, beta) for x in s), rel=1e-12)


def test_path_flow_single_edge():
    fl = path_flow(["o", "z"], [], 0.5)
    assert fl.value("o", "z") == pytest.approx(0.5)
    assert flow_parameters(fl).survival == pytest.approx(0.5)
    assert flow_parameters(fl).visits == pytest.approx(1.0)


def test_path_flow_validation():
    with pytest.raises(FlowError):
        path_flow([0, 1, 0], [0.1], 0.5)  # repeated vertex
    with pytest.raises(FlowError):
        path_flow([0, 1, 2], [], 0.5)  # wrong ratio count
    with pytest.raises(FlowError):
        path_flow([0, 1, 2], [0.7], 0.5)  # theta >= beta infeasible


def test_s_and_h_values():
    assert h_transform(2 / 7, 0.5) == pytest.approx(8 / 7, rel=1e-14)
    assert h_transform(0.0, 0.5) == 0.0
    with pytest.raises(FlowError):
        h_transform(0.5, 0.5)
    with pytest.raises(FlowError):
        h_transform(-0.01, 0.5)
    fl = build_flow(unit_path(2), 0.5)
    with pytest.raises(FlowError):
        s_value(fl, 2, 1)  # no forward progress out of the target


@given(st.floats(0.05, 0.95), st.lists(st.floats(0.001, 0.95), min_size=0,
                                        max_size=6))
@settings(max_examples=80, deadline=None)
def test_path_flow_parameters_consistent(beta, raw):
    thetas = [t * beta * 0.98 for t in raw]
    fl = path_flow(list(range(len(thetas) + 2)), thetas, beta)
    assert node_law_residual(fl) < 1e-13
    params = flow_parameters(fl)
    assert 0.0 < params.survival <= beta + 1e-12
    assert params.visits >= 1.0 - 1e-12


def test_decompose_two_path_single_component():
    fl = build_flow(unit_path(2), 0.5)
    dec = decompose(fl)
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert comp.path == (0, 1, 2)
    assert comp.alpha == pytest.approx(1.0, abs=1e-12)
    assert dec.dead_alpha == pytest.approx(0.0, abs=1e-12)
    assert dec.reconstruction_error() < 1e-15


def test_decompose_laws_on_corpus(corpus_sample):
    for g in corpus_sample[:25]:
        for beta in (0.3, 0.8):
            fl = build_flow(g, beta)
            dec = decompose(fl)
            laws = dec.laws()
            assert laws["reconstruction_error"] < 1e-12 * max(1.0, laws["scale"])
            assert laws["alpha_within_unit"]
            assert laws["paths_at_least_distance"]
            assert laws["dead_target_inflow"] <= 1e-12


def test_decompose_idempotent(corpus_sample):
    for g in corpus_sample[:8]:
        fl = build_flow(g, 0.7)
        dec = decompose(fl)
        rebuilt = LossFlow(beta=fl.beta, labels=fl.labels, origin=fl.origin,
                           target=fl.target, matrix=dec.reconstruct(),
                           graph=fl.graph)
        dec2 = decompose(rebuilt)
        assert len(dec2.components) == len(dec.components)
        for a, b in zip(dec.components, dec2.components):
            assert a.path == b.path
            assert a.alpha == pytest.approx(b.alpha, abs=1e-10)


def test_decompose_dead_end_mass():
    # a pendant vertex off the route feeds a dead component
    g = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (1, 9, 2.0)],
                      origin=0, targets=[2])
    fl = build_flow(g, 0.8)
    dec = decompose(fl)
    assert dec.dead_alpha > 0.01
    assert dec.reconstruction_error() < 1e-14
    # the pendant pair holds exactly the beta-damped round trip
    i, j = fl.index[1], fl.index[9]
    assert dec.dead_matrix[j, i] == pytest.approx(
        0.8 * dec.dead_matrix[i, j], rel=1e-12)


def test_decompose_rejects_flow_out_of_target():
    fl = build_flow(unit_path(2), 0.5)
    m = fl.matrix.copy()
    m[fl.target_index, fl.index[1]] = 0.2
    bad = LossFlow(beta=0.5, labels=fl.labels, origin=fl.origin,
                   target=fl.target, matrix=m)
    with pytest.raises(FlowError):
        decompose(bad)


def test_tampering_is_detected(corpus_sample):
    g = corpus_sample[4]
    fl = build_flow(g, 0.6)
    m = fl.matrix.copy()
    support = [(int(i), int(j)) for i, j in zip(*np.nonzero(m))]
    i, j = support[len(support) // 2]
    m[i, j] *= 1.0 + 1e-6
    bad = LossFlow(beta=0.6, labels=fl.labels, origin=fl.origin,
                   target=fl.target, matrix=m, graph=fl.graph)
    assert node_law_residual(bad) > 1e-9
    assert node_law_residual(fl) < 1e-13


def test_cycle_gap_detects_skew():
    # triangle + target; skew one direction of a cycle edge
    g = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)],
                      origin=0, targets=[3])
    fl = build_flow(g, 0.7)
    assert cycle_reversibility_gap(fl) < 1e-13
    m = fl.matrix.copy()
    m[fl.index[1], fl.index[2]] *= 1.001
    bad = LossFlow(beta=0.7, labels=fl.labels, origin=fl.origin,
                   target=fl.target, matrix=m)
    assert cycle_reversibility_gap(bad) > 1e-5


def test_cycle_gap_checks_every_edge():
    # K14 has 91 edges and 78 independent cycles; skewing any one edge
    # breaks reversibility on some cycle through it
    edges = [(i, j, 1.0) for i in range(14) for j in range(i + 1, 14)]
    g = WeightedGraph(edges + [(13, 14, 1.0)], origin=0, targets=[14])
    fl = build_flow(g, 0.7)
    assert cycle_reversibility_gap(fl) < 1e-13
    for i, j, _ in edges:
        m = fl.matrix.copy()
        m[fl.index[i], fl.index[j]] *= 1.001
        bad = LossFlow(beta=0.7, labels=fl.labels, origin=fl.origin,
                       target=fl.target, matrix=m)
        assert cycle_reversibility_gap(bad) > 1e-5, (i, j)


def test_cycle_gap_ignores_one_way_bridge():
    # edge 1-2 carries no backward flow: a bridge on no cycle.  Ratios that
    # are powers of two keep the two-way edges exactly symmetric.
    fl = path_flow([0, 1, 2, 3, 4], [0.25, 0.0, 0.5], 0.6)
    assert fl.value(2, 1) == 0.0
    assert cycle_reversibility_gap(fl) == 0.0


def test_array_identities_on_corpus(corpus_sample):
    for g in corpus_sample[:20]:
        for beta in (0.35, 0.85):
            fl = build_flow(g, beta)
            dec = decompose(fl)
            work = fl.graph
            s_exact = engine.survival_transform(work, beta)
            assert dec.survival_value() == pytest.approx(
                s_exact, abs=1e-12, rel=1e-9)
            assert dec.gamma_value() == pytest.approx(
                engine.gamma(work, beta), rel=1e-9)
            r_exact = engine.origin_visits(work, beta)
            assert r_exact <= dec.visits_upper_bound() * (1.0 + 1e-12)


def test_array_rows_exclude_terminal_edge():
    dec = decompose(build_flow(unit_path(3), 0.5))
    assert len(dec.components) == 1
    assert dec.components[0].length == 3
    (s,) = dec.interior_s()
    assert len(s) == 2  # three edges, terminal excluded
    assert all(0.0 <= x < 0.5 for x in s)


def test_array_single_edge_first_s_is_beta():
    dec = decompose(build_flow(unit_path(1), 0.4))
    assert dec.interior_s() == [()]
    # the first s is the terminal beta = 0.4: R = 1 for the single-edge
    # walk, and the bound gives exactly 2
    assert dec.visits_upper_bound() == pytest.approx(2.0, rel=1e-12)
    assert engine.origin_visits(unit_path(1), 0.4) == 1.0


def test_gamma_chain_bound(corpus_sample):
    for g in corpus_sample[:20]:
        for beta in (0.3, 0.8):
            gam, chain = gamma_chain_bound(g, beta)
            assert gam >= chain * (1.0 - 1e-9)
    with pytest.raises(FlowError):
        gamma_chain_bound(unit_path(1), 0.5)


@given(st.floats(0.1, 0.9))
@settings(max_examples=30, deadline=None)
def test_log_h_convex_in_log_s(beta):
    ys = np.linspace(math.log(beta) - 8.0, math.log(beta) - 1e-6, 60)
    vals = [math.log(h_transform(math.exp(y), beta)) for y in ys]
    assert np.diff(vals, 2).min() >= -1e-9


@given(st.floats(0.1, 0.9))
@settings(max_examples=30, deadline=None)
def test_chain_kernel_monotone_in_length(beta):
    # h(y^(1/n))^n nondecreasing in n justifies using n = dist - 1
    for y in np.linspace(1e-6, beta ** 3 * 0.999, 25):
        vals = [h_transform(y ** (1.0 / n), beta) ** n for n in (1, 2, 3)]
        assert all(a <= b + 1e-12 * abs(b) for a, b in zip(vals, vals[1:]))


@given(st.floats(0.1, 0.9), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_chain_kernel_convex_in_y(beta, n):
    ys = np.linspace(1e-6, beta ** n * 0.999, 50)
    vals = [h_transform(y ** (1.0 / n), beta) ** n for y in ys]
    second = np.diff(vals, 2)
    assert second.min() >= -1e-9 * max(1.0, max(map(abs, vals)))


def test_decomposition_serializes_to_json(corpus_sample):
    dec = decompose(build_flow(corpus_sample[7], 0.5))
    text = json.dumps(dec.to_dict())
    back = json.loads(text)
    assert back["laws"]["reconstruction_error"] < 1e-12
    assert len(back["components"]) == len(dec.components)


@given(st.integers(0, 50_000), st.sampled_from([0.2, 0.5, 0.8]))
@settings(max_examples=30, deadline=None)
def test_decompose_random_graphs(seed, beta):
    fl = build_flow(random_graph(seed=seed), beta)
    dec = decompose(fl)
    laws = dec.laws()
    assert laws["reconstruction_error"] < 1e-12 * max(1.0, laws["scale"])
    assert laws["alpha_within_unit"] and laws["paths_at_least_distance"]


def test_flow_report_assembles_one_kernel(count_calls):
    graph = corpus.corpus_graph(7)  # two targets: normalizing builds a new graph
    assert len(graph.targets) == 2
    built = count_calls(engine, "_Kernel")
    assert corpus.flow_report([graph])["all_pass"]
    assert len(built) == 1


def test_flow_report_rejects_beta_outside_open_interval():
    # the flow betas are checked before the report solves its stacked grid
    for beta in (1.0, 1.5):
        with pytest.raises(FlowError, match=r"\(0, 1\)"):
            corpus.flow_report([corpus.corpus_graph(0)], betas=(0.5, beta))


def test_flow_report_runs_one_potential_per_flow(count_calls, corpus_sample):
    built = count_calls(flows, "build_flow")
    searched = count_calls(flows, "_potential")
    assert corpus.flow_report(corpus_sample[:4])["all_pass"]
    assert len(built) == 12
    assert len(searched) == 12
    assert len({id(args[0]) for args in searched}) == 12
    pot = searched[0][0]._pot
    assert not pot.flags.writeable


def test_decompose_unreachable_target_is_all_dead():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[3])
    dec = decompose(build_flow(g, 0.5))
    assert dec.components == [] and dec.dead_alpha == 1.0
