import json
import shutil
import subprocess

import numpy as np
import pytest

from hitbounds import cli, engine
from hitbounds.graph import parse, read_graph_file, serialize, write_graph_file
from hitbounds.generators import fast_path, unit_path


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
    assert len(solves) == 21


def test_analyze_missing_file(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_malformed_graph(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert run(["analyze", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_reports_falsification(path5, tmp_path, monkeypatch):
    class Failing:
        all_pass = False

        def to_dict(self):
            return {"all_pass": False}

    monkeypatch.setattr(cli.bounds, "check_theorem1",
                        lambda *a, **k: Failing())
    assert run(["analyze", str(path5), "--out", str(tmp_path / "r.json")]) == 2


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
    class Broken:
        def to_dict(self):
            return {"laws": {}}

        def reconstruction_error(self):
            return 1e-3

    monkeypatch.setattr(cli.flows, "decompose", lambda flow: Broken())
    assert run(["decompose", str(path5), "--beta", "0.5",
                "--out", str(tmp_path / "d.json")]) == 2


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
    assert run(["generate", "fast_path"]) == 1
    assert "--n is required here" in capsys.readouterr().err


def test_generate_rejects_bad_parameters(capsys):
    assert run(["generate", "fast_path", "--n", "3", "--g", "2.0"]) == 1
    assert run(["generate", "tree_line", "--g", "2.5", "--depths", "1",
                "--length", "3"]) == 1


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
    assert sidecar["seed"] == 3
    assert str(path5) in sidecar["input_hashes"]


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
    assert run(["simulate", "--estimator", "speed", "--reps", "2"]) == 1
    err = capsys.readouterr().err
    assert "graph" in err


def test_simulate_record_step_one_exits_one(capsys):
    # k log k = 0 at k = 1, so the single-log ratio would be inf
    assert run(["simulate", "--reference-g", "2", "--estimator", "speed",
                "--record", "1,10"]) == 1
    assert "record step must be >= 2" in capsys.readouterr().err


def test_simulate_seed_out_of_range_exits_one(path5, capsys):
    for seed in (2**63, 2**64):
        assert run(["simulate", str(path5), "--seed", str(seed), "--reps", "2"]) == 1
        assert "error: seed must be below 2**63" in capsys.readouterr().err


def test_sweep_table(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--family", "fast_path", "--n-list",
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


def test_sweep_skips_exact_beyond_cap(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--family", "unit_path", "--n-list", "10,100",
                "--max-vertices", "50", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0][4] != ""
    assert rows[1][4] == ""  # beyond the exact-solve cap


def test_sweep_requires_n_list(capsys):
    assert run(["sweep"]) == 1
    assert "--n-list" in capsys.readouterr().err


def test_corpus_check_small(tmp_path):
    out = tmp_path / "corpus.json"
    assert run(["corpus-check", "--count", "25", "--flow-count", "5",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert doc["bounds"]["graphs"] == 25
    assert doc["manifest"]["parameters"]["count"] == 25


def test_console_script_installed(path5, tmp_path):
    exe = shutil.which("hitbounds")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = tmp_path / "r.json"
    proc = subprocess.run([exe, "analyze", str(path5), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["expected_time"] == 25.0
