"""Every correctness check passes on real output and fails on corrupted output."""

import copy
import json

import numpy as np
import pytest

import hitbounds as hb
import reference as ref
import workloads as wl
from hitbounds import cli, corpus, engine, generators, montecarlo


def failures(check, *args):
    checks = wl.Checks()
    check(*args, checks)
    return checks


def run_cli(argv, out):
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


# -- analyze -----------------------------------------------------------------


@pytest.fixture(scope="module")
def analyze_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyze")
    graph = wl.relabel(generators.unit_path(12), np.random.default_rng(3))
    path = tmp / "g.json"
    hb.write_graph_file(graph, path)
    payload = run_cli(["analyze", str(path)], tmp / "out.json")
    return payload, ref.walk_of(graph), ref.unit_path(12)


def test_analyze_report_passes(analyze_case):
    payload, walk, closed = analyze_case
    checks = failures(wl.verify_analyze_report, "g", payload, walk, closed)
    assert checks.correct, checks.failures
    assert checks.passed > 40


def _rows(payload, kind):
    return [r for r in payload["bounds"]["checks"] if r["kind"] == kind
            and not r["vacuous"] and r["observed"] > 1e-250]


CORRUPTIONS = {
    "E[T]": lambda p: p.__setitem__("expected_time", p["expected_time"] * (1 + 1e-6)),
    "resistance": lambda p: p.__setitem__("resistance", p["resistance"] * 1.001),
    "mean_from_pmf": lambda p: p["pmf"].__setitem__(
        "mean_from_pmf", p["expected_time"] * 1.01),
    "median": lambda p: p["pmf"].__setitem__("median", p["pmf"]["q90"] + 1),
    "drift": lambda p: p["bounds"]["drift"].__setitem__(
        "weight_ratio", p["bounds"]["drift"]["weight_ratio"] * 1.001),
    "mean bound": lambda p: _rows(p, "mean")[0].__setitem__(
        "bound", _rows(p, "mean")[0]["bound"] * 1.001),
    "transform bound": lambda p: _rows(p, "transform")[0].__setitem__(
        "bound", _rows(p, "transform")[0]["bound"] * 1.001),
    "transform observed": lambda p: _rows(p, "transform")[-1].__setitem__(
        "observed", _rows(p, "transform")[-1]["observed"] * 1.001),
}


@pytest.mark.parametrize("field", sorted(CORRUPTIONS))
def test_analyze_corruption_fails(analyze_case, field):
    payload, walk, closed = analyze_case
    bad = copy.deepcopy(payload)
    CORRUPTIONS[field](bad)
    assert not failures(wl.verify_analyze_report, "g", bad, walk, closed).correct


def test_analyze_without_closed_form_still_checks_the_solve(analyze_case):
    payload, walk, _ = analyze_case
    bad = copy.deepcopy(payload)
    bad["expected_time"] *= 1 + 1e-6
    assert not failures(wl.verify_analyze_report, "g", bad, walk, None).correct


# -- corpus ------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "c.json"
    return run_cli(["corpus-check", "--count", "20", "--flow-count", "4"], out)


def _corpus_check(payload, checks):
    wl.verify_corpus_report("c", payload, checks, graphs=20, flow_cases=12)


def test_corpus_report_passes(corpus_payload):
    checks = failures(_corpus_check, corpus_payload)
    assert checks.correct, checks.failures


@pytest.mark.parametrize("corrupt", [
    lambda p: p.__setitem__("all_pass", False),
    lambda p: p["bounds"].__setitem__("checks", p["bounds"]["checks"] - 1),
    lambda p: p["bounds"].__setitem__("graphs", 19),
    lambda p: p["flows"].__setitem__("cases", 11),
    lambda p: p["commute"].__setitem__("all_pass", False),
    lambda p: p["flows"]["failures"].append({"graph": 0}),
])
def test_corpus_corruption_fails(corpus_payload, corrupt):
    bad = copy.deepcopy(corpus_payload)
    corrupt(bad)
    assert not failures(_corpus_check, bad).correct


def test_corpus_timings_are_ignored_only_there(corpus_payload):
    other = copy.deepcopy(corpus_payload)
    other["bounds"]["elapsed_seconds"] += 1.0
    assert wl.strip_elapsed(other) == wl.strip_elapsed(corpus_payload)
    other["bounds"]["min_margin"] += 1.0
    assert wl.strip_elapsed(other) != wl.strip_elapsed(corpus_payload)


# -- small values --------------------------------------------------------------


def test_underflowed_reference_is_skipped_not_passed():
    checks = wl.Checks()
    checks.small_value("S", 0.0, 1e-320, 4.0, 1.0)
    assert checks.passed == 0 and checks.correct
    assert sum(checks.skipped.values()) == 1


def test_zero_against_resolvable_reference_fails():
    checks = wl.Checks()
    checks.small_value("S", 0.0, 1e-3, 4.0, 1.0)
    assert not checks.correct


def test_below_resolution_passes_only_on_relative_match():
    checks = wl.Checks()
    checks.small_value("S", 0.0, 1e-30, 4.0, 1.0)
    assert checks.passed == 0 and checks.correct and checks.skipped
    checks.small_value("S", 1e-30 * (1 + 1e-13), 1e-30, 4.0, 1.0)
    assert checks.passed == 1


# -- simulate ------------------------------------------------------------------


@pytest.fixture(scope="module")
def hitting_digest():
    graph = generators.unit_path(6)
    op = wl._sample_op("h", "simulate_hitting", graph,
                       montecarlo.SimConfig(seed=5, replications=4000,
                                            max_steps=100_000))
    return op.digest(op.run())


def test_hitting_passes(hitting_digest):
    checks = failures(wl.verify_hitting, "h", hitting_digest, 36.0, 6)
    assert checks.correct, checks.failures
    assert hitting_digest["parities"] == [0]


@pytest.mark.parametrize("corrupt", [
    lambda d: d.__setitem__("censored", 1),
    lambda d: d.__setitem__("mean", d["mean"] + 6 * d["se"]),
    lambda d: d.__setitem__("min", 5),
])
def test_hitting_corruption_fails(hitting_digest, corrupt):
    bad = dict(hitting_digest)
    corrupt(bad)
    assert not failures(wl.verify_hitting, "h", bad, 36.0, 6).correct


@pytest.fixture(scope="module")
def escape_digests():
    walk = wl._sample_op("w", "escape_ratios", hb.BiasedWalk(2.0),
                         montecarlo.SimConfig(seed=1, replications=2000,
                                              max_steps=500, record_steps=(50, 500),
                                              estimator="speed"))
    line = wl._sample_op("l", "escape_ratios",
                         generators.biased_line(60, 1.05, tail=60),
                         montecarlo.SimConfig(seed=2, replications=500,
                                              max_steps=60, record_steps=(7, 60),
                                              estimator="single_log"))
    return walk.digest(walk.run()), line.digest(line.run())


def test_escape_checks(escape_digests):
    speed, line = escape_digests
    assert failures(wl.verify_speed, "w", speed, 2.0).correct
    assert not failures(wl.verify_speed, "w", dict(speed, speed=0.4), 2.0).correct
    assert failures(wl.verify_line_distances, "l", line).correct
    assert not failures(wl.verify_line_distances, "l",
                        dict(line, parity_ok=False)).correct
    assert not failures(wl.verify_line_distances, "l",
                        dict(line, range_ok=False)).correct


def test_csv_digest_sees_every_byte():
    graph = generators.unit_path(5)
    config = montecarlo.SimConfig(seed=9, replications=50, max_steps=10_000)
    op = wl._sample_op("h", "simulate_hitting", graph, config)
    sample, text = op.run()
    assert op.digest((sample, text))["sha"] == op.digest(op.run())["sha"]
    assert op.digest((sample, text + " "))["sha"] != op.digest((sample, text))["sha"]


# -- solve ---------------------------------------------------------------------


def test_green_kernel_check():
    graph = wl.relabel(generators.fast_path(30, 1.2), np.random.default_rng(0))
    beta = 0.9
    killed = wl.killed_matrix_of(graph, beta)
    matrix = engine.green_kernel(graph, beta)
    walk = ref.walk_of(graph)
    assert failures(wl.verify_green, wl.green_digest(graph, killed, matrix),
                    walk, beta).correct
    bad = matrix.copy()
    bad[3, 4] *= 1 + 1e-8
    assert not failures(wl.verify_green, wl.green_digest(graph, killed, bad),
                        walk, beta).correct


@pytest.fixture(scope="module")
def decomposition(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flow")
    graph = wl.relabel(generators.tree_line(2, [3, 3, 2], 4), np.random.default_rng(4))
    path = tmp / "t.json"
    hb.write_graph_file(graph, path)
    payload = run_cli(["decompose", str(path), "--beta", "0.9"], tmp / "d.json")
    return payload, ref.walk_of(graph)


def test_decomposition_passes(decomposition):
    payload, walk = decomposition
    checks = failures(wl.verify_decomposition, payload, walk, 0.9)
    assert checks.correct, checks.failures
    assert len(payload["components"]) > 1


@pytest.mark.parametrize("corrupt", [
    lambda p: p["components"][0].__setitem__("alpha", p["components"][0]["alpha"] * 1.01),
    lambda p: p["dead_edges"][0].__setitem__(2, p["dead_edges"][0][2] + 1e-6),
    lambda p: p["laws"].__setitem__("reconstruction_error", 2e-9),
    lambda p: p["components"].append(dict(p["components"][0], alpha=1.0)),
    lambda p: p.__setitem__("components", []),
])
def test_decomposition_corruption_fails(decomposition, corrupt):
    payload, walk = decomposition
    bad = copy.deepcopy(payload)
    corrupt(bad)
    assert not failures(wl.verify_decomposition, bad, walk, 0.9).correct


def test_corpus_graph_values_checked_against_reference():
    graph = corpus.corpus_graph(3)
    walk = ref.walk_of(graph)
    checks = wl.Checks()
    checks.value("E", engine.expected_hitting_time(graph), walk.expected_time(),
                 walk.kappa(1.0), walk.time_scale())
    checks.small_value("S", engine.survival_transform(graph, 0.5),
                       walk.survival(0.5), walk.kappa(0.5), walk.green_scale(0.5))
    assert checks.correct and checks.passed == 2
    checks.value("E", engine.expected_hitting_time(graph) * (1 + 1e-8),
                 walk.expected_time(), walk.kappa(1.0), walk.time_scale())
    assert not checks.correct
