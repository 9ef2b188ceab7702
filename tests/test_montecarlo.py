import math
from collections import deque
from functools import partial

import numpy as np
import pytest

from hitbounds import engine, montecarlo
from hitbounds.corpus import corpus_graph
from hitbounds.generators import (
    biased_line,
    concatenated_fast,
    fast_path_expected,
    poly_growth_drift,
    unit_path,
)
from hitbounds.graph import GraphError, WeightedGraph
from hitbounds.montecarlo import (
    SimConfig,
    escape_ratios,
    estimate_tail,
    simulate_hitting,
    to_csv_text,
)
from hitbounds.refwalk import BiasedWalk, ParameterError


def test_simconfig_validation():
    SimConfig(seed=0, replications=1, max_steps=1)
    with pytest.raises(ParameterError):
        SimConfig(seed=-1, replications=1, max_steps=1)
    with pytest.raises(ParameterError):
        SimConfig(seed=0, replications=0, max_steps=1)
    with pytest.raises(ParameterError):
        SimConfig(seed=0, replications=1, max_steps=0)
    with pytest.raises(ParameterError):
        SimConfig(seed=0, replications=1, max_steps=9, estimator="median")
    with pytest.raises(ParameterError):
        SimConfig(seed=0, replications=1, max_steps=9, record_steps=(3, 2))
    with pytest.raises(ParameterError):
        SimConfig(seed=0, replications=1, max_steps=9, record_steps=(2, 2))
    with pytest.raises(ParameterError):
        SimConfig(seed=0, replications=1, max_steps=9, record_steps=(10,))
    with pytest.raises(ParameterError):
        SimConfig(seed=0, replications=1, max_steps=9, record_steps=(0,))
    with pytest.raises(ParameterError, match="record step must be >= 2"):
        SimConfig(seed=0, replications=1, max_steps=9, record_steps=(1,))


def test_simconfig_seed_range():
    # NumPy passes a Philox key at or above 2**63 through float, so seeds
    # 2**63 and 2**63 + 5 would share one stream; 2**64 would overflow
    cfg = SimConfig(seed=2**63 - 1, replications=2, max_steps=50)
    assert len(simulate_hitting(unit_path(3), cfg).times) == 2
    for seed in (2**63, 2**63 + 5, 2**64):
        with pytest.raises(ParameterError, match="below 2\\*\\*63"):
            SimConfig(seed=seed, replications=1, max_steps=1)


def test_simconfig_frozen():
    cfg = SimConfig(seed=0, replications=1, max_steps=1)
    with pytest.raises(AttributeError):
        cfg.seed = 5


def test_hitting_deterministic():
    cfg = SimConfig(seed=5, replications=40, max_steps=10_000)
    a = simulate_hitting(unit_path(3), cfg)
    b = simulate_hitting(unit_path(3), cfg)
    assert (a.times == b.times).all()
    assert (a.censored == b.censored).all()
    assert to_csv_text(a) == to_csv_text(b)


def test_replications_use_isolated_streams():
    # replication r depends only on (seed, r), not on the batch size
    small = simulate_hitting(unit_path(4),
                             SimConfig(seed=8, replications=2, max_steps=50_000))
    large = simulate_hitting(unit_path(4),
                             SimConfig(seed=8, replications=7, max_steps=50_000))
    assert (large.times[:2] == small.times).all()


def _uniforms(seed, r):
    """Replication r's stream in the documented layout, 256 uniforms a draw."""
    rng = np.random.Generator(np.random.Philox(key=(seed, r)))
    while True:
        yield from rng.random(256)


def _graph_move(graph, pos, u):
    nbrs = graph.adjacency[pos]
    cols = sorted(nbrs)
    cum = np.cumsum([nbrs[j] for j in cols]) / graph.vertex_weights[pos]
    cum[-1] = 1.0
    return cols[int((u >= cum).sum())]


def _reference_times(graph, seed, replications, max_steps):
    """Scalar per-replication walker consuming the documented stream layout."""
    out = []
    for r in range(replications):
        u = _uniforms(seed, r)
        pos = graph.origin_index
        t = max_steps
        for k in range(1, max_steps + 1):
            pos = _graph_move(graph, pos, next(u))
            if pos in graph.target_indices:
                t = k
                break
        out.append(t)
    return np.array(out)


def _reference_distances(target, seed, replications, record_steps):
    """Scalar escape walker: hop distance on a graph, |position| on Z."""
    if isinstance(target, BiasedWalk):
        p_right = target.g / (1.0 + target.g)
        start, distance = 0, abs

        def move(pos, u):
            return pos + (1 if u < p_right else -1)
    else:
        hops = {target.origin_index: 0}
        queue = deque(hops)
        while queue:
            i = queue.popleft()
            for j in target.adjacency[i]:
                if j not in hops:
                    hops[j] = hops[i] + 1
                    queue.append(j)
        start, distance = target.origin_index, hops.__getitem__
        move = partial(_graph_move, target)
    out = []
    for r in range(replications):
        u = _uniforms(seed, r)
        pos, row = start, []
        for k in range(1, record_steps[-1] + 1):
            pos = move(pos, next(u))
            if k in record_steps:
                row.append(distance(pos))
        out.append(row)
    return np.array(out)


def test_matches_scalar_reference_walker():
    # crosses the 256-step buffer boundary (seed chosen so max time > 256)
    g = unit_path(16)
    cfg = SimConfig(seed=1, replications=6, max_steps=40_000)
    sample = simulate_hitting(g, cfg)
    assert sample.times.max() > 256
    ref = _reference_times(g, 1, 6, 40_000)
    assert (sample.times == ref).all()

    mixed = corpus_graph(2)  # branching degrees exercise the padded sampler
    cfg = SimConfig(seed=4, replications=5, max_steps=40_000)
    sample = simulate_hitting(mixed, cfg)
    ref = _reference_times(mixed, 4, 5, 40_000)
    assert (sample.times == ref).all()


def test_escape_matches_scalar_reference_walker():
    # record steps on both sides of the 256-uniform refill
    steps = (5, 255, 256, 257, 600)
    for target, seed in ((corpus_graph(2), 4), (BiasedWalk(2.0), 9)):
        cfg = SimConfig(seed=seed, replications=5, max_steps=600,
                        record_steps=steps)
        ref = _reference_distances(target, seed, 5, steps)
        assert (escape_ratios(target, cfg).distances == ref).all()


def test_stream_edges_match_scalar_reference(monkeypatch):
    # the largest seed, replication ids crossing chunk starts, and walkers
    # that stop mid-block while others draw two more refills
    monkeypatch.setattr(montecarlo, "_CHUNK_REPS", 3)
    seed = 2**63 - 1
    cfg = SimConfig(seed=seed, replications=8, max_steps=600)
    times = simulate_hitting(unit_path(16), cfg).times
    assert times.min() < 256 and 512 < times[times < 600].max()
    assert (times == _reference_times(unit_path(16), seed, 8, 600)).all()
    cfg = SimConfig(seed=seed, replications=7, max_steps=600)
    assert (simulate_hitting(corpus_graph(2), cfg).times
            == _reference_times(corpus_graph(2), seed, 7, 600)).all()
    for steps in ((2, 255, 256, 257, 512, 513), (3, 513)):
        for target in (corpus_graph(2), BiasedWalk(1.5)):
            cfg = SimConfig(seed=seed, replications=7, max_steps=513,
                            record_steps=steps)
            ref = _reference_distances(target, seed, 7, steps)
            assert (escape_ratios(target, cfg).distances == ref).all()



def _hub_graph():
    """Origin 0 joined to 20 spokes, so its search row has 32 entries."""
    edges = [(0, i, float(i)) for i in range(1, 21)]
    edges += [(i, i + 1, 0.5) for i in range(1, 20)]
    edges += [(i, 21, 0.25) for i in range(1, 21, 4)]
    return WeightedGraph(edges, origin=0, targets=[21])


def test_wide_rows_match_scalar_reference():
    # a row of 32 entries takes five halvings of the binary search
    g = _hub_graph()
    assert max(map(len, g.adjacency)) == 20
    assert montecarlo._GraphSampler(g).size == 32
    cfg = SimConfig(seed=11, replications=40, max_steps=600)
    times = simulate_hitting(g, cfg).times
    assert (times == _reference_times(g, 11, 40, 600)).all()
    assert times.max() > 20
    steps = (2, 255, 256, 257, 600)
    cfg = SimConfig(seed=11, replications=6, max_steps=600, record_steps=steps)
    ref = _reference_distances(g, 11, 6, steps)
    assert (escape_ratios(g, cfg).distances == ref).all()


def _padded_tables(graph):
    """The 2-D tables nbr_pad, cum_pad that step once searched by broadcast."""
    width = max(map(len, graph.adjacency)) or 1
    nbr_pad = np.zeros((graph.n, width), dtype=np.int64)
    cum_pad = np.full((graph.n, width), 2.0)
    for i, nbrs in enumerate(graph.adjacency):
        if graph.vertex_weights[i] == 0.0:
            nbr_pad[i, :] = i
            continue
        cols = sorted(nbrs)
        probs = np.array([nbrs[j] for j in cols]) / graph.vertex_weights[i]
        nbr_pad[i] = cols[-1]
        nbr_pad[i, : len(cols)] = cols
        cum_pad[i, : len(cols)] = np.cumsum(probs)
        cum_pad[i, len(cols) - 1] = 1.0
    return nbr_pad, cum_pad


def test_step_matches_broadcast_count_at_ties():
    # u exactly on every cumulative entry and one ulp below it; a tie must
    # still go right.  Vertex 0 of tied has two equal entries (0.5 + 5e-18
    # rounds to 0.5), and the unreachable target's row has width 1.
    tied = WeightedGraph([(0, 1, 1.0), (0, 2, 1e-17), (0, 3, 1.0), (3, 4, 1.0)],
                         origin=0, targets=[4])
    lone = WeightedGraph([(0, 1, 1.0)], origin=0, targets=[5], vertices=[5])
    for g in (corpus_graph(2), _hub_graph(), tied, lone):
        nbr_pad, cum_pad = _padded_tables(g)
        pos, u = [], []
        for i in range(g.n):
            for c in cum_pad[i][cum_pad[i] <= 1.0].tolist():
                pos += [i, i]
                u += [c, np.nextafter(c, 0.0)]
            pos += [i, i]
            u += [0.0, np.nextafter(1.0, 0.0)]
        pos, u = np.array(pos), np.array(u)
        pos, u = pos[u < 1.0], u[u < 1.0]
        choice = (u[:, None] >= cum_pad[pos]).sum(axis=1)
        expected = nbr_pad.ravel().take(pos * cum_pad.shape[1] + choice)
        assert (montecarlo._GraphSampler(g).step(pos, u) == expected).all()
    assert np.cumsum([0.5, 5e-18])[1] == 0.5


def test_output_independent_of_chunk_size(monkeypatch):
    # 10 replications in chunks of 3 leave a final chunk of one
    cases = [
        (simulate_hitting, corpus_graph(2),
         SimConfig(seed=5, replications=10, max_steps=40)),
        (escape_ratios, corpus_graph(2),
         SimConfig(seed=7, replications=10, max_steps=300,
                   record_steps=(5, 256, 257, 300))),
        (escape_ratios, BiasedWalk(2.0),
         SimConfig(seed=3, replications=10, max_steps=300,
                   record_steps=(10, 256, 300))),
    ]
    samples = [sampler(target, cfg) for sampler, target, cfg in cases]
    assert 0 < samples[0].censored_count < 10
    monkeypatch.setattr(montecarlo, "_CHUNK_REPS", 3)
    for (sampler, target, cfg), sample in zip(cases, samples):
        assert to_csv_text(sampler(target, cfg)) == to_csv_text(sample)


def test_censoring_when_horizon_too_short():
    sample = simulate_hitting(unit_path(6),
                              SimConfig(seed=0, replications=10, max_steps=5))
    assert sample.censored.all()
    assert (sample.times == 5).all()
    assert sample.censored_count == 10
    assert sample.cdf_at(100.0) == 0.0
    assert sample.mean() == 5.0


def test_unreachable_target_censors():
    g = WeightedGraph([(0, 1, 1.0)], origin=0, targets=[5], vertices=[5])
    sample = simulate_hitting(g, SimConfig(seed=0, replications=4, max_steps=30))
    assert sample.censored.all()


def test_zero_weight_interior_vertex_rejected():
    g = WeightedGraph([(0, 1, 1.0)], origin=0, targets=[1], vertices=[5])
    with pytest.raises(GraphError):
        simulate_hitting(g, SimConfig(seed=0, replications=1, max_steps=5))


def test_escape_ratios_reject_disconnected_graph():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[1])
    cfg = SimConfig(seed=0, replications=1, max_steps=5, record_steps=(5,))
    with pytest.raises(GraphError, match="connected graph"):
        escape_ratios(g, cfg)


def test_mean_and_cdf_match_exact_law():
    g = unit_path(3)
    stats = engine.hitting_time_pmf(g)
    ks = np.arange(len(stats.pmf))
    var = float(ks**2 @ stats.pmf) - stats.expected**2
    reps = 20_000
    sample = simulate_hitting(g, SimConfig(seed=12, replications=reps,
                                           max_steps=20_000))
    assert sample.censored_count == 0
    se = math.sqrt(var / reps)
    assert abs(sample.mean() - stats.expected) < 4 * se
    for x in (3.0, 9.0, 25.0):
        exact = stats.cdf_at(x)
        half = 4 * math.sqrt(exact * (1 - exact) / reps)
        assert abs(sample.cdf_at(x) - exact) < half


def test_escape_shapes_and_summary():
    cfg = SimConfig(seed=3, replications=50, max_steps=64,
                    record_steps=(4, 16, 64), estimator="speed")
    es = escape_ratios(BiasedWalk(2.0), cfg)
    assert es.distances.shape == (50, 3)
    assert es.speed_ratios().shape == (50, 3)
    run = es.running_max("single_log")
    assert (np.diff(run, axis=1) >= 0).all()
    summary = es.summary()
    assert set(summary) == {"speed", "single_log"}
    assert set(summary["speed"]) == {"mean", "q10", "median", "q90"}
    assert summary["speed"]["q10"] <= summary["speed"]["q90"]
    assert len(list(es.to_rows())) == 50 * 3 * 3
    with pytest.raises(ParameterError):
        es.running_max("nonsense")


def test_escape_biased_parity_and_speed():
    cfg = SimConfig(seed=21, replications=200, max_steps=4096,
                    record_steps=(15, 64, 4096))
    es = escape_ratios(BiasedWalk(2.0), cfg)
    dists = es.distances
    assert ((dists[:, 0] % 2) == 1).all()  # |X_k| has the parity of k
    assert ((dists[:, 1] % 2) == 0).all()
    speed = dists[:, 2] / 4096.0
    assert abs(speed.mean() - BiasedWalk(2.0).speed) < 0.01


def test_escape_on_graph_line():
    g = biased_line(20, 1.0, tail=20)  # safe through 20 steps
    cfg = SimConfig(seed=6, replications=40, max_steps=20, record_steps=(5, 20))
    es = escape_ratios(g, cfg)
    assert (es.distances[:, 0] <= 5).all()
    assert ((es.distances[:, 0] % 2) == 1).all()
    assert (es.distances[:, 1] <= 20).all()


def test_escape_respects_safe_horizon():
    g = biased_line(20, 1.0, tail=20)
    cfg = SimConfig(seed=6, replications=4, max_steps=50, record_steps=(50,))
    with pytest.raises(ParameterError):
        escape_ratios(g, cfg)


def test_escape_respects_zero_safe_horizon():
    # without a tail the origin sits on the boundary: safe_horizon is 0
    g = biased_line(5, 2.0)
    assert g.metadata["safe_horizon"] == 0
    cfg = SimConfig(seed=1, replications=3, max_steps=50, record_steps=(10, 50))
    with pytest.raises(ParameterError, match="safety horizon 0"):
        escape_ratios(g, cfg)


def test_escape_argument_validation():
    cfg = SimConfig(seed=0, replications=2, max_steps=10)
    with pytest.raises(ParameterError):
        escape_ratios(BiasedWalk(2.0), cfg)  # no record steps
    cfg = SimConfig(seed=0, replications=2, max_steps=10, record_steps=(5,))
    with pytest.raises(ParameterError):
        escape_ratios("not a walk", cfg)


def test_csv_format():
    sample = simulate_hitting(unit_path(2),
                              SimConfig(seed=2, replications=3, max_steps=1000))
    text = to_csv_text(sample)
    lines = text.splitlines()
    assert lines[0] == "replication,statistic,k,value,censored"
    assert len(lines) == 4
    for line in lines[1:]:
        rep, stat, k, value, censored = line.split(",")
        assert stat == "hitting_time"
        assert censored in ("true", "false")
        assert float(value) == float(k)
    assert text.endswith("\n")

    cfg = SimConfig(seed=2, replications=2, max_steps=8, record_steps=(2, 8))
    es = escape_ratios(BiasedWalk(3.0), cfg)
    stats = {line.split(",")[1] for line in to_csv_text(es).splitlines()[1:]}
    assert stats == {"distance", "speed_ratio", "single_log_ratio"}



def test_csv_text_formats_every_row():
    # the row-by-row formatter that to_csv_text replaced is the reference
    samples = [
        simulate_hitting(unit_path(6), SimConfig(seed=0, replications=30,
                                                 max_steps=40)),
        escape_ratios(BiasedWalk(1.5), SimConfig(seed=1, replications=20,
                                                 max_steps=300,
                                                 record_steps=(2, 17, 300))),
    ]
    assert 0 < samples[0].censored_count < 30
    for sample in samples:
        lines = ["replication,statistic,k,value,censored"]
        for r, stat, k, value, censored in sample.to_rows():
            lines.append(f"{r},{stat},{k},{value!r},{str(censored).lower()}")
        assert to_csv_text(sample) == "\n".join(lines) + "\n"

def test_estimate_tail_brackets_exact_value():
    # unit path 0..4: P(T <= 4) is exactly 1/8 (straight descent)
    g = unit_path(4)
    exact = engine.hitting_time_pmf(g).cdf_at(4.0)
    assert exact == pytest.approx(0.125, abs=1e-12)
    cfg = SimConfig(seed=9, replications=20_000, max_steps=4)
    est = estimate_tail(g, 1.2, 3, cfg)
    assert est.threshold == 4.0
    assert est.lower <= exact <= est.upper
    assert abs(est.estimate - exact) < 0.01
    assert est.successes == int(est.estimate * est.replications)


def test_estimate_tail_validation():
    g = unit_path(4)
    cfg = SimConfig(seed=0, replications=10, max_steps=4)
    with pytest.raises(ParameterError):
        estimate_tail(g, 0.9, 3, cfg)
    with pytest.raises(ParameterError):
        estimate_tail(g, 3.0, 3, cfg)  # threshold 10 beyond max_steps
    with pytest.raises(ParameterError):
        estimate_tail(g, 1.2, 3, cfg, level=1.0)
    for a in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            estimate_tail(g, a, 3, cfg)


def test_single_log_schedule_trend():
    """Crossing-time schedule of the squared-cut construction.

    Summing the closed-form block crossing times along cuts x, x^2, ... the
    normalized ratio x / sqrt(t log t) rises toward sqrt(2)/2 from below,
    the signature of single-log escape behaviour.
    """
    cuts = [16, 256, 65536, 65536**2]
    total = 0.0
    prev = 0
    ratios = []
    for x in cuts:
        n = x - prev
        total += fast_path_expected(n, poly_growth_drift(n))
        ratios.append(x / math.sqrt(total * math.log(total)))
        prev = x
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < math.sqrt(2) / 2 for r in ratios)
    assert ratios[-1] > 0.6


def test_single_log_sim_band():
    # seeded regression: the sqrt(k log k) normalization keeps the walk at
    # order one on the concatenated construction
    g = concatenated_fast(cuts=[16, 256, 65536])
    cfg = SimConfig(seed=2026, replications=30, max_steps=65536,
                    record_steps=(1024, 4096, 16384, 65536),
                    estimator="single_log")
    final = escape_ratios(g, cfg).running_max("single_log")[:, -1]
    assert 0.25 < final.mean() < 0.45
    assert final.max() < 1.2
    assert final.min() > 0.0
