"""Failure paths of the corpus suites: each law, broken on purpose, is reported.

Every test patches one law at a time and checks the exact failure entries,
the worst values and the all_pass flag against an honest run.
"""

import dataclasses
import math
import types

import pytest

from hitbounds import bounds, corpus, engine, flows

GRAPHS = (0, 7)  # graph 7 carries two targets
BETAS = (0.2, 0.8)


@pytest.fixture(scope="module")
def graphs():
    return [corpus.corpus_graph(i) for i in GRAPHS]


@pytest.fixture(scope="module")
def honest(graphs):
    report = corpus.flow_report(graphs, betas=BETAS)
    assert report["all_pass"] and report["failures"] == []
    return report


def _cases(graphs):
    return [(i, graph.normalized(), beta)
            for i, graph in enumerate(graphs) for beta in BETAS]


def _entry(i, beta, kind, value):
    return {"graph": i, "beta": beta, "kind": kind, "value": value}


def _assert_failed(report, honest, entries, **worst):
    assert report["failures"] == entries
    assert report["worst"] == {**honest["worst"], **worst}
    assert report["cases"] == honest["cases"] == len(GRAPHS) * len(BETAS)
    assert report["all_pass"] is False


@pytest.mark.parametrize("name, key, kind", [
    ("node_law_residual", "node_residual", "node_law"),
    ("cycle_reversibility_gap", "cycle_gap", "cycle_reversibility"),
])
def test_flow_report_flags_flow_law(graphs, honest, monkeypatch, name, key, kind):
    monkeypatch.setattr(flows, name, lambda flow: 0.5)
    report = corpus.flow_report(graphs, betas=BETAS)
    entries = [_entry(i, beta, kind, 0.5) for i, _, beta in _cases(graphs)]
    _assert_failed(report, honest, entries, **{key: 0.5})


def test_flow_report_flags_flow_parameters(graphs, honest, monkeypatch):
    def doubled_visits(flow):
        [p] = engine.walk_parameters(flow.graph, (flow.beta,))
        return types.SimpleNamespace(survival=p.survival, visits=2.0 * p.visits,
                                     gamma=p.gamma)

    monkeypatch.setattr(flows, "flow_parameters", doubled_visits)
    report = corpus.flow_report(graphs, betas=BETAS)
    # |2R - R| / max(2R, R, 1) is exactly 1/2, since R >= 1
    entries = [_entry(i, beta, "flow_parameters", 0.5)
               for i, _, beta in _cases(graphs)]
    _assert_failed(report, honest, entries, parameter_gap=0.5)


def test_flow_report_flags_decomposition_laws(graphs, honest, monkeypatch):
    original = flows.FlowDecomposition.laws
    seen = []

    def broken(self):
        laws = original(self)
        seen.append(laws)
        return {**laws, "reconstruction_error": 1.0, "alpha_within_unit": False,
                "paths_at_least_distance": False,
                "dead_target_inflow": 2.0 * max(1.0, laws["scale"])}

    monkeypatch.setattr(flows.FlowDecomposition, "laws", broken)
    report = corpus.flow_report(graphs, betas=BETAS)
    entries = []
    for (i, _, beta), laws in zip(_cases(graphs), seen, strict=True):
        entries += [
            _entry(i, beta, "reconstruction", 1.0),
            _entry(i, beta, "alpha_sum", laws["total_alpha"]),
            _entry(i, beta, "path_length", laws["component_count"]),
            _entry(i, beta, "dead_target_inflow", 2.0 * max(1.0, laws["scale"])),
        ]
    _assert_failed(report, honest, entries, reconstruction=1.0)


def test_flow_report_flags_array_laws(graphs, honest, monkeypatch):
    monkeypatch.setattr(flows.FlowDecomposition, "gamma_value",
                        lambda self: 1e6)
    report = corpus.flow_report(graphs, betas=BETAS)
    entries = []
    for i, work, beta in _cases(graphs):
        # the survival and visit gaps stay below 1e-9, far under this one
        gap = corpus._relative_gap(1e6, engine.gamma(work, beta))
        entries += [_entry(i, beta, "convex_combination", gap),
                    _entry(i, beta, "array_identity", gap)]
    worst = max(entry["value"] for entry in entries)
    _assert_failed(report, honest, entries, convex_gap=worst, array_gap=worst)


def test_flow_report_flags_visits_upper_bound(graphs, honest, monkeypatch):
    monkeypatch.setattr(flows.FlowDecomposition, "visits_upper_bound",
                        lambda self: 0.0)
    report = corpus.flow_report(graphs, betas=BETAS)
    entries = [_entry(i, beta, "visits_upper_bound",
                      engine.origin_visits(work, beta))
               for i, work, beta in _cases(graphs)]
    _assert_failed(report, honest, entries)


def test_flow_report_flags_chain_inequality(graphs, honest, monkeypatch):
    monkeypatch.setattr(flows, "gamma_chain_bound", lambda graph, beta: (1.0, 2.0))
    report = corpus.flow_report(graphs, betas=BETAS)
    entries = [_entry(i, beta, "chain_inequality", 1.0)
               for i, _, beta in _cases(graphs)]
    _assert_failed(report, honest, entries, chain_slack=1.0 - 2.0 + 1e-300)


def test_bound_report_collects_failed_checks(graphs, monkeypatch):
    honest = corpus.bound_report(graphs)
    assert honest["all_pass"] and honest["failures"] == []
    original = bounds.check_theorem1
    broken = []

    def failing_first(graph):
        report = original(graph)
        report.checks[0] = dataclasses.replace(report.checks[0], passed=False)
        broken.append(report.checks[0])
        return report

    monkeypatch.setattr(bounds, "check_theorem1", failing_first)
    report = corpus.bound_report(graphs)
    assert report["failures"] == [{"graph": i, **c.to_dict()}
                                  for i, c in enumerate(broken)]
    assert report["graphs"] == len(GRAPHS)
    assert report["checks"] == honest["checks"]
    assert report["min_margin"] == honest["min_margin"]
    assert report["all_pass"] is False


def test_commute_report_flags_round_trip(graphs, monkeypatch):
    monkeypatch.setattr(engine, "expected_hitting_time", lambda graph: 1e6)
    report = corpus.commute_report(graphs)
    gaps = []
    for graph in graphs:
        work = graph.normalized()
        product = work.total_weight() * engine.effective_resistance(work)
        gaps.append(corpus._relative_gap(2e6, product))
    assert report["failures"] == [{"graph": i, "gap": gap}
                                  for i, gap in enumerate(gaps)]
    assert report["worst_gap"] == max(gaps)
    assert report["graphs"] == len(GRAPHS)
    assert report["all_pass"] is False


def test_estimate_report_flags_domination_and_equation(monkeypatch):
    monkeypatch.setattr(bounds, "drift_upper_estimate", lambda n, ratio: 1.0)
    report = corpus.estimate_report()
    failures = report["failures"]
    assert report["pairs"] == corpus._ESTIMATE_PAIRS
    assert len(failures) == 2 * corpus._ESTIMATE_PAIRS
    for dom, eq in zip(failures[::2], failures[1::2], strict=True):
        n, ratio = dom["n"], dom["ratio"]
        assert dom == {"n": n, "ratio": ratio, "kind": "domination",
                       "g_exact": bounds.solve_drift(n, ratio), "g_rough": 1.0}
        assert eq == {"n": n, "ratio": ratio, "kind": "equation",
                      "lhs": 0.0, "rhs": 2.0 * ratio}
    assert report["all_pass"] is False


def test_run_all_fails_when_one_suite_fails(monkeypatch):
    monkeypatch.setattr(flows, "node_law_residual", lambda flow: math.inf)
    reports = corpus.run_all(count=3, flow_count=1, flow_betas=(0.5,))
    assert [k for k, r in reports.items() if isinstance(r, dict)
            and not r["all_pass"]] == ["flows"]
    assert reports["all_pass"] is False
