"""The tracer patches every lookup site, restores it, and adds up spans correctly."""

import json
import os

import hitbounds
import run
import tracer as tracing
import workloads
from hitbounds import cli, corpus, engine, generators, graph

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_install_patches_every_binding_and_uninstall_restores():
    originals = (graph.read_graph_file, cli.read_graph_file,
                 hitbounds.read_graph_file, corpus.random_graph,
                 graph.WeightedGraph.__init__, engine.hitting_time_pmf)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.read_graph_file is graph.read_graph_file
        assert hitbounds.read_graph_file is graph.read_graph_file
        assert cli.read_graph_file is not originals[0]
        assert corpus.random_graph is generators.random_graph
        assert corpus.random_graph is not originals[3]
        assert graph.WeightedGraph.__init__ is not originals[4]
    finally:
        tracer.uninstall()
    assert (graph.read_graph_file, cli.read_graph_file, hitbounds.read_graph_file,
            corpus.random_graph, graph.WeightedGraph.__init__,
            engine.hitting_time_pmf) == originals


def test_spans_nest_and_self_times_add_up(tmp_path):
    path = tmp_path / "g.json"
    hitbounds.write_graph_file(generators.unit_path(10), path)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.current_phase = 1
    try:
        assert cli.main(["analyze", str(path), "--out", str(tmp_path / "o.json")]) == 0
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_id"]]
    assert names[0] == "cli.main" and a["parent"][0] == -1
    assert "graph.read_graph_file" in names and "engine.hitting_time_pmf" in names
    parent_of_read = a["parent"][names.index("graph.read_graph_file")]
    assert names[parent_of_read] == "cli.main"
    assert (a["end_ns"] >= a["start_ns"]).all()
    layers = tracer.layer_metrics(rounds=1)
    assert layers["bounds.check_calls"] == 1
    # analyze runs the pmf twice: once inside the bound check, once for the report
    pmf_counts = a["count"][[n == "engine.hitting_time_pmf" for n in names]]
    assert layers["engine.pmf_steps"] == pmf_counts.sum() > 0
    # self times of all layers never exceed the root span
    root = (a["end_ns"][0] - a["start_ns"][0]) * 1e-9
    selfs = sum(v for k, v in layers.items() if k.endswith("self_s"))
    assert 0 < selfs <= root


def test_setup_spans_count_once_and_rounds_are_averaged():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.current_phase = 0
        generators.unit_path(5)
        for phase in (1, 2):
            tracer.current_phase = phase
            generators.unit_path(5)
            generators.unit_path(5)
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics(rounds=2)["graph.construct_calls"] == 1 + 4 / 2


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = list(tracing.LAYERS) + list(tracing.RATES) + ["trace.overhead_s",
                                                           "trace.spans"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layers)
    for m in spec["per_layer"]:
        unit = "1/s" if m["name"].endswith("_per_s") else (
            "s" if m["name"].endswith("_s") or m["name"] == "refwalk.s" else "count")
        assert m["unit"] == unit, m["name"]


def test_reference_kept_past_uninstall_records_nothing():
    tracer = tracing.Tracer()
    tracer.install()
    kept = generators.unit_path  # what an object built while tracing would hold
    tracer.uninstall()
    kept(3)
    assert len(tracer.arrays()["name_id"]) == 0
