import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hitbounds import bounds, cli, corpus, engine
from hitbounds.graph import (
    WeightedGraph, parse, read_graph_file, serialize, write_graph_file)
from hitbounds.generators import (
    biased_line, fast_path, poly_growth_drift, tree_line, unit_path)


MANIFEST_KEYS = ["command", "parameters", "input_hashes", "seed",
                 "artifact_version", "outputs"]


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def path5(tmp_path):
    p = tmp_path / "path5.json"
    write_graph_file(unit_path(5), p)
    return p


def test_analyze_unit_path(path5, tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", str(path5), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["expected_time"] == 25.0
    assert doc["graph"]["distance"] == 5
    assert doc["bounds"]["all_pass"] is True
    assert doc["pmf"]["median"] >= 5
    man = doc["manifest"]
    assert list(man) == MANIFEST_KEYS
    assert man["command"] == "analyze"
    assert str(path5) in man["input_hashes"]
    assert man["outputs"] == [str(out)]
    assert man["artifact_version"]


def test_analyze_float_roundtrip(tmp_path):
    from hitbounds.corpus import corpus_graph

    p = tmp_path / "g.json"
    g = corpus_graph(5)
    write_graph_file(g, p)
    out = tmp_path / "r.json"
    assert run(["analyze", str(p), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # shortest round-trip printing: the parsed float is bit-identical
    assert doc["expected_time"] == engine.expected_hitting_time(g)


def test_analyze_unreachable_target(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(serialize(parse(
        '{"edges": [["a", "b", 1.0]], "origin": "a", "targets": ["z"],'
        ' "vertices": ["a", "b", "z"]}')))
    out = tmp_path / "r.json"
    assert run(["analyze", str(p), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["expected_time"] == "infinite"
    assert doc["pmf"] == {"skipped": "target not reachable"}


def test_analyze_solves_each_system_once(tmp_path, count_calls):
    path = tmp_path / "path60.json"
    write_graph_file(unit_path(60), path)
    solves = count_calls(engine, "_solve")
    assert run(["analyze", str(path), "--out", str(tmp_path / "out.json")]) == 0
    # 21 systems: E[T], then the resistance row with the 19 transform betas
    assert sum(len(betas) for _, betas, *_ in solves) == 21
    assert len(solves) == 2


def test_analyze_huge_weight_ratio(tmp_path):
    p = tmp_path / "g.json"
    write_graph_file(WeightedGraph(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1e300)],
        origin=0, targets=[4]), p)
    out = tmp_path / "r.json"
    assert run(["analyze", str(p), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bounds"]["drift"]["weight_ratio"] == bounds.solve_drift(3, 1e300)


def test_analyze_weight_near_float_max(tmp_path):
    # w_z r(o, z) = 3e308 overflows; the resistance drift must stay finite
    p = tmp_path / "g.json"
    write_graph_file(WeightedGraph(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1e308)],
        origin=0, targets=[4]), p)
    out = tmp_path / "r.json"
    assert run(["analyze", str(p), "--out", str(out)]) == 0
    drift = json.loads(out.read_text())["bounds"]["drift"]
    assert drift["resistance"] == pytest.approx(1e308 ** (1 / 3) * 3 ** (1 / 3),
                                                rel=1e-12)
    assert drift["rough"] >= drift["weight_ratio"] == bounds.solve_drift(3, 1e308)


# gamma and the analyze JSON of a graph with eight string-labelled targets
_HASH_SEED_SCRIPT = """
import sys
import numpy as np
from hitbounds import cli, engine
from hitbounds.graph import WeightedGraph, write_graph_file
weights = np.random.default_rng(1).uniform(0.1, 10.0, 8)
edges = [("o", "a", 1.0)] + [("a", f"t{i}", float(w)) for i, w in enumerate(weights)]
g = WeightedGraph(edges, origin="o", targets=[f"t{i}" for i in range(8)])
print(engine.gamma(g, 0.5).hex())
write_graph_file(g, sys.argv[1])
cli.main(["analyze", sys.argv[1]])
"""


def test_outputs_independent_of_hash_seed(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, str(tmp_path / "g.json")],
            env=env, capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_analyze_missing_file(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_graph(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert run(["analyze", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_horizon_beyond_cap_exits_one(tmp_path, capsys):
    p = tmp_path / "path2.json"
    write_graph_file(unit_path(2), p)
    horizon = str(engine.PMF_HORIZON_CAP + 1)
    assert run(["analyze", str(p), "--horizon", horizon]) == 1
    assert "horizon must lie in" in capsys.readouterr().err


def test_analyze_reports_falsification(path5, tmp_path, monkeypatch):
    class Failing:
        all_pass = False
        expected = 16.0
        resistance = 5.0

        def to_dict(self):
            return {"all_pass": False}

    monkeypatch.setattr(cli.bounds, "check_theorem1",
                        lambda *a, **k: Failing())
    assert run(["analyze", str(path5), "--out", str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("index", [35, 52])
def test_analyze_prints_each_number_once(index, tmp_path):
    # not normal graphs: before normalizing, E[T] and the resistance differ
    # from the report's in their last bits
    graph = corpus.corpus_graph(index)
    assert graph.normalized() is not graph
    path = tmp_path / "g.json"
    write_graph_file(graph, path)
    out = tmp_path / "r.json"
    assert run(["analyze", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["expected_time"] == doc["bounds"]["expected"]
    assert doc["resistance"] == doc["bounds"]["resistance"]


def test_decompose(path5, tmp_path):
    out = tmp_path / "dec.json"
    assert run(["decompose", str(path5), "--beta", "0.5",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["beta"] == 0.5
    assert len(doc["components"]) >= 1
    assert doc["laws"]["reconstruction_error"] <= 1e-12
    assert doc["manifest"]["parameters"]["beta"] == 0.5


def test_decompose_invalid_beta(path5, capsys):
    assert run(["decompose", str(path5), "--beta", "1.0"]) == 1
    assert "beta" in capsys.readouterr().err


def test_decompose_reports_broken_reconstruction(path5, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.flows.FlowDecomposition, "reconstruction_error",
                        lambda self: 1e-3)
    assert run(["decompose", str(path5), "--beta", "0.5",
                "--out", str(tmp_path / "d.json")]) == 2


@pytest.mark.parametrize("law, value", [
    ("reconstruction_error", 1e-9),  # corpus-check fails a gap at its limit
    ("alpha_within_unit", False),
    ("paths_at_least_distance", False),
    ("dead_target_inflow", 1.0),
])
def test_decompose_exits_two_on_any_broken_law(law, value, tmp_path, monkeypatch):
    # the verdict corpus-check's flow suite gives, on the laws the report shows
    p = tmp_path / "tree.json"
    write_graph_file(tree_line(2, [4] * 5 + [2] * 2, 8), p)
    out = tmp_path / "d.json"
    assert run(["decompose", str(p), "--beta", "0.9", "--out", str(out)]) == 0
    laws = cli.flows.FlowDecomposition.laws
    monkeypatch.setattr(cli.flows.FlowDecomposition, "laws",
                        lambda self: {**laws(self), law: value})
    assert run(["decompose", str(p), "--beta", "0.9", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["laws"][law] == value


def test_decompose_nontermination_exits_two(path5, capsys, monkeypatch):
    class NoEdgePairs:
        """numpy, except that it counts no edges: the peeling loop gets one round."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def count_nonzero(a):
            return 0

    monkeypatch.setattr(cli.flows, "np", NoEdgePairs())
    assert run(["decompose", str(path5), "--beta", "0.5"]) == 2
    assert "failed to terminate" in capsys.readouterr().err


def test_decompose_underflowed_flow_exits_one(tmp_path, capsys):
    # S_0.5 of this path underflows to 0.0, though its target is reachable
    p = tmp_path / "fast.json"
    write_graph_file(fast_path(1000, 1.01), p)
    assert run(["decompose", str(p), "--beta", "0.5"]) == 1
    assert "underflowed to 0.0 at beta=0.5" in capsys.readouterr().err


def test_generate_families(tmp_path):
    cases = [
        (["generate", "unit_path", "--n", "6"], "unit_path"),
        (["generate", "fast_path", "--n", "8", "--g", "2.0"], "fast_path"),
        (["generate", "fast_path", "--n", "30", "--p", "1.0"], "fast_path"),
        (["generate", "biased_line", "--n", "5", "--g", "2.0",
          "--tail", "3"], "biased_line"),
        (["generate", "concatenated_fast", "--cuts", "16,256"],
         "concatenated_fast"),
        (["generate", "tree_line", "--g", "2", "--depths", "0,1",
          "--length", "4"], "tree_line"),
        (["generate", "random", "--seed", "4"], "random_graph"),
    ]
    for i, (argv, name) in enumerate(cases):
        out = tmp_path / f"g{i}.json"
        assert run(argv + ["--out", str(out)]) == 0
        graph = read_graph_file(out)
        assert graph.metadata["generator"] == name
        sidecar = json.loads((tmp_path / f"g{i}.json.manifest.json").read_text())
        assert sidecar["command"] == "generate"
        assert sidecar["outputs"] == [str(out)]


def test_generate_to_stdout(capsys):
    assert run(["generate", "unit_path", "--n", "3"]) == 0
    graph = parse(capsys.readouterr().out)
    assert graph.labels == (0, 1, 2, 3)


def test_generate_missing_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "fast_path"])
    assert exc.value.code == 1
    assert "the following arguments are required: --n" in capsys.readouterr().err


def test_generate_rejects_bad_parameters(capsys):
    assert run(["generate", "fast_path", "--n", "3", "--g", "2.0"]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["generate", "tree_line", "--g", "2.5", "--depths", "1",
             "--length", "3"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["generate", "random", "--n", "50", "--seed", "4"],
    ["generate", "fast_path", "--n", "10", "--g", "2", "--p", "3"],
    ["generate", "concatenated_fast", "--cuts", "16,256", "--max-vertices", "300"],
    ["generate", "tree_line", "--g", "2.0", "--depths", "0,1", "--length", "4"],
    ["simulate", "g.json", "--reference-g", "2"],
    ["sweep", "--family", "unit_path", "--g", "7", "--n-list", "10"],
], ids=["random_n", "fast_path_g_p", "concatenated_cuts_max", "tree_line_float_g",
        "simulate_graph_reference", "sweep_family_flag"])
def test_unread_flag_exits_one(argv, capsys):
    # a flag the command does not read, or a fractional tree_line --g: a usage error
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


_FAMILY_FLAGS = {
    "unit_path": {"--n"},
    "fast_path": {"--n", "--g", "--p"},
    "biased_line": {"--n", "--g", "--tail"},
    "concatenated_fast": {"--cuts", "--max-vertices", "--p"},
    "tree_line": {"--g", "--depths", "--length"},
    "random": {"--seed", "--max-vertices"},
}


@pytest.mark.parametrize("family", sorted(_FAMILY_FLAGS))
def test_family_help_names_only_its_flags(family, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", family, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == _FAMILY_FLAGS[family] | {"--help", "--out"}


def test_unknown_family_or_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "petersen"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "g.json", "--bogus"])
    assert exc.value.code == 1


def test_simulate_deterministic_output(path5, tmp_path):
    argv = ["simulate", str(path5), "--seed", "3", "--reps", "50",
            "--horizon", "5000"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "replication,statistic,k,value,censored"
    assert len(lines) == 51
    sidecar = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert list(sidecar) == MANIFEST_KEYS
    assert sidecar["seed"] == 3
    assert str(path5) in sidecar["input_hashes"]
    # the sidecar is the manifest a JSON report embeds for the same arguments
    args = cli.build_parser().parse_args(argv + ["--out", str(out1)])
    report = tmp_path / "embedded.json"
    cli._emit_json({}, report, cli._manifest(args, "simulate", [path5]))
    assert json.loads(report.read_text())["manifest"] == sidecar


def test_simulate_reference_walk(tmp_path):
    out = tmp_path / "esc.csv"
    assert run(["simulate", "--reference-g", "2.0", "--estimator", "speed",
                "--seed", "1", "--reps", "10", "--horizon", "64",
                "--record", "16,64", "--out", str(out)]) == 0
    stats = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    assert stats == {"distance", "speed_ratio", "single_log_ratio"}


def test_simulate_argument_conflicts(path5, capsys):
    assert run(["simulate", "--estimator", "hitting", "--reference-g",
                "2.0"]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--estimator", "speed", "--reps", "2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "graph" in err


def test_simulate_record_needs_an_escape_estimator(path5, tmp_path, capsys):
    # the hitting estimator's CSV does not read --record: a usage error
    out = tmp_path / "times.csv"
    for estimator in ([], ["--estimator", "hitting"]):
        assert run(["simulate", str(path5), "--reps", "5", "--record", "10,20",
                    *estimator, "--out", str(out)]) == 1
        assert "--record is read by the escape estimators" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_record_step_one_exits_one(capsys):
    # k log k = 0 at k = 1, so the single-log ratio would be inf
    assert run(["simulate", "--reference-g", "2", "--estimator", "speed",
                "--record", "1,10"]) == 1
    assert "record step must be >= 2" in capsys.readouterr().err


def test_simulate_beyond_zero_safe_horizon_exits_one(tmp_path, capsys):
    p = tmp_path / "bl5.json"
    write_graph_file(biased_line(5, 2.0), p)
    assert run(["simulate", str(p), "--estimator", "speed", "--horizon", "50",
                "--record", "10,50"]) == 1
    assert "safety horizon 0" in capsys.readouterr().err


def test_simulate_seed_out_of_range_exits_one(path5, capsys):
    for seed in (2**63, 2**64):
        assert run(["simulate", str(path5), "--seed", str(seed), "--reps", "2"]) == 1
        assert "error: seed must be below 2**63" in capsys.readouterr().err


def test_sweep_table(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "fast_path", "--n-list",
                "100,1000,10000", "--p", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,n,g,closed_form,exact,mean_bound,asymptote,ratio"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["100", "1000", "10000"]
    ratios = [float(r[7]) for r in rows]
    assert ratios == sorted(ratios, reverse=True)
    assert all(r > 1.0 for r in ratios)
    for r in rows:
        closed, exact, bound = float(r[3]), float(r[4]), float(r[5])
        assert bound <= closed * (1 + 1e-9)
        assert abs(exact - closed) < 1e-8 * closed


@pytest.mark.parametrize("family, sizes, graph", [
    ("fast_path", "50,200", lambda n: fast_path(n, poly_growth_drift(n))),
    ("unit_path", "50", unit_path),
], ids=["fast_path", "unit_path"])
def test_sweep_mean_bound_is_the_weight_ratio_bound(family, sizes, graph, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", family, "--n-list", sizes, "--out", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        row = line.split(",")
        [check] = [c for c in bounds.check_theorem1(graph(int(row[1]))).checks
                   if c.kind == "mean" and c.source == "weight_ratio"]
        assert float(row[5]) == pytest.approx(check.bound, rel=1e-12, abs=0.0)


def test_sweep_skips_exact_beyond_cap(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "unit_path", "--n-list", "10,100",
                "--max-vertices", "50", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0][4] != ""
    assert rows[1][4] == ""  # beyond the exact-solve cap


def test_sweep_weight_overflow_exits_one(capsys):
    assert run(["sweep", "fast_path", "--g", "2", "--n-list", "2000"]) == 1
    assert "weights overflow float range" in capsys.readouterr().err


def test_sweep_requires_n_list(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "unit_path"])
    assert exc.value.code == 1
    assert "the following arguments are required: --n-list" in capsys.readouterr().err
    assert run(["sweep", "fast_path", "--n-list", ""]) == 1
    assert "--n-list is required" in capsys.readouterr().err


def test_sweep_unit_path_rejects_g(capsys):
    # --g is fast_path's drift; unit_path has none to set
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "unit_path", "--g", "7", "--n-list", "10"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --g 7" in capsys.readouterr().err


@pytest.mark.parametrize("family, flags", [
    ("fast_path", {"--n-list", "--g", "--p", "--max-vertices"}),
    ("unit_path", {"--n-list", "--p", "--max-vertices"}),
])
def test_sweep_family_help_names_only_its_flags(family, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", family, "--help"])
    assert exc.value.code == 0
    found = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert found == flags | {"--help", "--out"}


def test_sweep_requires_a_family(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--n-list", "10"])
    assert exc.value.code == 1
    assert "usage: hitbounds sweep" in capsys.readouterr().err


def test_corpus_check_small(tmp_path):
    out = tmp_path / "corpus.json"
    assert run(["corpus-check", "--count", "25", "--flow-count", "5",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert doc["bounds"]["graphs"] == 25
    assert doc["manifest"]["parameters"]["count"] == 25


@pytest.mark.parametrize("counts", [["--count", "50", "--flow-count", "-1"],
                                    ["--count", "0"]])
def test_corpus_check_rejects_empty_counts(counts, capsys):
    # either count would check nothing and still report all_pass
    assert run(["corpus-check", *counts]) == 1
    assert "must be >=" in capsys.readouterr().err


def test_analyze_without_out_writes_stdout(path5, capsys):
    assert run(["analyze", str(path5)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected_time"] == 25.0
    assert doc["manifest"]["outputs"] == []


def test_module_runs_as_a_process(path5, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def cli_process(*argv):
        return subprocess.run([sys.executable, "-m", "hitbounds.cli", *argv],
                              env=env, capture_output=True, text=True)

    out = tmp_path / "r.json"
    proc = cli_process("analyze", str(path5), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["expected_time"] == 25.0
    proc = cli_process("generate", "random", "--n", "50")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: hitbounds")
    assert "unrecognized arguments: --n 50" in proc.stderr


def test_console_script_entry_is_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["hitbounds"]
    module, name = entry.split(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_console_script_installed(path5, tmp_path):
    exe = shutil.which("hitbounds")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = tmp_path / "r.json"
    proc = subprocess.run([exe, "analyze", str(path5), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["expected_time"] == 25.0


def _strip_timings(doc):
    if isinstance(doc, dict):
        return {k: _strip_timings(v) for k, v in doc.items()
                if k not in ("elapsed_seconds", "manifest")}
    return doc


def test_analyze_grids_reach_check(path5, tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", str(path5), "--beta-grid", "0.3, 0.7",
                "--a-grid", "1.2,1.5,", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    report = bounds.check_theorem1(unit_path(5), a_grid=(1.2, 1.5),
                                   beta_grid=(0.3, 0.7))
    assert doc["bounds"] == cli._jsonable(report.to_dict())
    assert doc["manifest"]["parameters"]["beta_grid"] == [0.3, 0.7]


def test_corpus_check_beta_grid_reaches_flow_report(tmp_path):
    out = tmp_path / "corpus.json"
    assert run(["corpus-check", "--count", "5", "--flow-count", "2",
                "--beta-grid", "0.3,0.6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    reports = corpus.run_all(count=5, flow_count=2, flow_betas=(0.3, 0.6))
    assert _strip_timings(doc) == _strip_timings(cli._jsonable(reports))
    assert doc["flows"]["cases"] == 4


def test_simulate_speed_records_horizon_by_default(tmp_path):
    args = ["simulate", "--reference-g", "2.0", "--estimator", "speed",
            "--seed", "1", "--reps", "10", "--horizon", "64"]
    implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
    assert run(args + ["--out", str(implicit)]) == 0
    assert run(args + ["--record", "64", "--out", str(explicit)]) == 0
    assert implicit.read_text() == explicit.read_text()
    assert {line.split(",")[2] for line in
            implicit.read_text().splitlines()[1:]} == {"64"}


@pytest.mark.parametrize("text", [
    '{"vertices": [0, 1], "edges": [[[0], 1, 1.0]], "origin": 0, "targets": [1]}',
    '{"vertices": [0, 1], "edges": [[0, 1, 1.0]], "origin": 0, "targets": [7]}',
])
def test_analyze_malformed_document_exits_one(text, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert run(["analyze", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", [4, 251])
def test_analyze_singular_kernel_exits_one(n, tmp_path, capsys):
    edges = [(i, i + 1, 1.0) for i in range(n - 2)] + [(n - 2, n - 1, 1e-30)]
    p = tmp_path / "singular.json"
    write_graph_file(WeightedGraph(edges, origin=0, targets=[n - 1]), p)
    assert run(["analyze", str(p)]) == 1
    assert capsys.readouterr().err == (
        "error: I - beta K_z is singular in floating point\n")
