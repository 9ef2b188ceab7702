"""The benchmark workloads: inputs, timed operations and correctness checks.

A workload builds its inputs from the seed in setup().  ops() lists the
operations of one round; each Op is one CLI command or one library call.
The worker times op.run() only; op.digest() extracts, after the round,
what verify() needs.  verify() compares the digests with the independent
references in reference.py and with properties the method must have, never
with stored copies of earlier output.

The seed changes the inputs without changing their cost: graphs are
relabelled by a seeded permutation (an isomorphic graph, so the same work),
and eight corpus seeds and the Monte Carlo seeds are drawn from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hitbounds as hb
import reference as ref
from hitbounds import cli, corpus, engine, generators, montecarlo


@dataclass
class Op:
    name: str
    run: Callable
    digest: Callable = lambda result: result
    ok: Callable = lambda result: True  # False marks the operation failed


class Checks:
    """Pass/fail tally.  A skipped check is neither a pass nor a failure."""

    def __init__(self):
        self.passed = 0
        self.failures = []
        self.skipped = {}

    def expect(self, name: str, ok, detail="") -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"{name}: {detail}" if detail != "" else name)

    def skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    def value(self, name, value, reference, kappa, scale=0.0) -> None:
        """A computed value against a reference solve or closed form."""
        self.expect(name, ref.agrees(value, reference, kappa, scale),
                    f"{value!r} vs reference {reference!r}")

    def small_value(self, name, value, reference, kappa, scale) -> None:
        """A value that may be far below the scale of its solve (S_beta).

        A reference below the normal float range is skipped: a 0 would
        match it.  A reference the solve can resolve is checked as value()
        does.  Below that resolution a relative match still passes, and
        anything else is skipped, not failed: the solve's error bound allows
        it, but a 0 must not count as a pass.
        """
        if reference < ref.TINY:
            self.skip("reference below the normal float range")
        elif ref.resolvable(reference, kappa, scale):
            self.value(name, value, reference, kappa, scale)
        elif ref.agrees_relative(value, reference, kappa):
            self.passed += 1
        else:
            self.skip("reference below the solve's resolution")

    @property
    def correct(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {"passed": self.passed, "failed": len(self.failures),
                "skipped": sum(self.skipped.values()),
                "skip_reasons": dict(self.skipped),
                "failures": self.failures[:50]}


def relabel(graph, rng):
    """The same graph with vertex labels replaced by a random permutation of 0..n-1."""
    perm = rng.permutation(graph.n)
    new = {x: int(perm[i]) for i, x in enumerate(graph.labels)}
    edges = [(new[graph.labels[i]], new[graph.labels[j]], w)
             for i, j, w in graph.edge_list()]
    return hb.WeightedGraph(edges, new[graph.origin],
                            [new[t] for t in graph.targets],
                            vertices=[new[x] for x in graph.labels],
                            metadata=graph.metadata)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def cli_op(name: str, argv, out: str) -> Op:
    """hitbounds <argv> --out <out>; the digest reads the JSON report back."""

    def digest(code):
        with open(out, "rb") as fh:
            data = fh.read()
        return {"code": code, "sha": sha256(data), "payload": json.loads(data)}

    return Op(name, lambda: cli.main(list(argv) + ["--out", out]), digest,
              ok=lambda code: code == 0)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed & (2**64 - 1), sum(map(ord, self.name))])

    def path(self, filename: str) -> str:
        return os.path.join(self.workdir, filename)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def verify(self, digests: dict, checks: Checks) -> None:
        """digests maps op name to the list of its digests, one per round."""
        raise NotImplementedError


# -- analyze ---------------------------------------------------------------


class Analyze(Workload):
    """hitbounds analyze on five graph files, dense and sparse pmf branches."""

    name = "analyze"

    def setup(self):
        g_fast = generators.poly_growth_drift(120, 1.0)
        specs = [
            ("unit_path_50", generators.unit_path(50), ref.unit_path(50)),
            ("unit_path_60", generators.unit_path(60), ref.unit_path(60)),
            ("fast_path_120", generators.fast_path(120, g_fast),
             ref.fast_path(120, g_fast)),
            ("biased_line_40_tail_40", generators.biased_line(40, 1.1, tail=40),
             ref.biased_line(40, 1.1, tail=40)),
            # 248 vertices, 247 of them live: the sparse pmf branch (> 200)
            ("tree_line_248", generators.tree_line(3, [4, 4], 7), None),
        ]
        # The sparse branch steps ~20x slower per step than the dense one,
        # and its default horizon (4 n^2 = 246k steps) alone would take 7 s.
        # 8000 steps (3 E[T]) keep the operation near 0.25 s and still
        # cover q90 (the survival mass left is about 0.05).
        self.horizons = {"tree_line_248": 8_000}
        self.inputs = {}
        for name, graph, closed in specs:
            graph = relabel(graph, self.rng)
            path = self.path(f"{name}.json")
            hb.write_graph_file(graph, path)
            self.inputs[name] = (graph, path, closed)

    def ops(self):
        return [cli_op(name, ["analyze", path]
                       + (["--horizon", str(self.horizons[name])]
                          if name in self.horizons else []),
                       self.path(f"{name}.out.json"))
                for name, (_, path, _) in self.inputs.items()]

    def verify(self, digests, checks):
        for name, (graph, _, closed) in self.inputs.items():
            rounds = digests[name]
            checks.expect(f"{name}: identical report in every round",
                          len({d["sha"] for d in rounds}) == 1)
            verify_analyze_report(name, rounds[-1]["payload"],
                                  ref.walk_of(graph), closed, checks)


def verify_analyze_report(name, payload, walk, closed, checks):
    """Every check on one analyze report; closed is a reference.Path or None."""
    kappa = walk.kappa(1.0)
    expected = payload["expected_time"]
    checks.value(f"{name}: E[T]", expected, walk.expected_time(), kappa,
                 walk.time_scale())
    checks.value(f"{name}: resistance", payload["resistance"],
                 walk.resistance(), kappa, walk.resistance_scale())
    if closed is not None:
        checks.value(f"{name}: E[T] closed form", expected,
                     closed.expected_time(), kappa, walk.time_scale())
        checks.value(f"{name}: resistance series rule", payload["resistance"],
                     closed.resistance(), kappa, walk.resistance_scale())
    pmf = payload["pmf"]
    checks.expect(f"{name}: mean_from_pmf <= E[T]",
                  pmf["mean_from_pmf"] <= expected * (1.0 + 1e-12),
                  f"{pmf['mean_from_pmf']} > {expected}")
    checks.expect(f"{name}: median <= q90",
                  pmf["median"] is not None and pmf["q90"] is not None
                  and pmf["median"] <= pmf["q90"],
                  f"{pmf['median']} vs {pmf['q90']}")
    report = payload["bounds"]
    n = report["n"]
    checks.expect(f"{name}: weight-ratio drift solves its equation",
                  ref.drift_equation_gap(n, report["ratio"],
                                         report["drift"]["weight_ratio"]) <= 1e-9)
    for row in report["checks"]:
        label = f"{name}: {row['kind']} bound ({row['source']}, {row['param']})"
        if row["vacuous"]:
            checks.skip("bound reported vacuous")
            continue
        g = row["g"]
        if row["kind"] == "mean":
            bound = ref.mean_bound(n, g)
            checks.expect(label + " formula",
                          abs(row["bound"] - bound) <= 1e-9 * bound,
                          f"{row['bound']} vs {bound}")
            checks.value(label + " observed", row["observed"],
                         walk.expected_time(), kappa, walk.time_scale())
            checks.expect(label + " holds", row["observed"] >= bound * (1 - 1e-9))
        elif row["kind"] == "transform":
            beta = row["param"]
            bound = ref.transform_bound(n, g, beta)
            checks.expect(label + " formula",
                          abs(row["bound"] - bound) <= 1e-9 * bound,
                          f"{row['bound']} vs {bound}")
            survival = (closed or walk).survival(beta)
            k_beta, scale = walk.kappa(beta), walk.green_scale(beta)
            checks.small_value(label + " observed", row["observed"], survival,
                               k_beta, scale)
            if row["observed"] < ref.TINY:
                checks.skip("bound on an S_beta that underflowed")
                continue  # an underflowed observation passes any upper bound
            checks.expect(label + " holds",
                          row["observed"] <= bound * (1 + 1e-9) + 1e-300)


# -- corpus ----------------------------------------------------------------


class Corpus(Workload):
    """hitbounds corpus-check on ten corpus seeds, 100 graphs each."""

    name = "corpus"
    FIXED_SEEDS = (corpus.DEFAULT_SEED, 11)
    DRAWN_SEEDS = 8
    COUNT = 100  # graphs per corpus-check: 1000 per round over the ten seeds
    FLOW_COUNT = 20  # flow graphs per corpus-check: 200 per round
    SAMPLE = (0, 3, 7, 18, 62, 99)  # plain, self-loop, extra target, both
    BETAS = (0.2, 0.5, 0.8)

    def setup(self):
        drawn = self.rng.choice(2**31 - 1, size=self.DRAWN_SEEDS, replace=False) + 1
        self.seeds = self.FIXED_SEEDS + tuple(int(s) for s in drawn)

    def ops(self):
        return [cli_op(f"corpus-check:{s}",
                       ["corpus-check", "--seed", str(s), "--count", str(self.COUNT),
                        "--flow-count", str(self.FLOW_COUNT)],
                       self.path(f"corpus-{s}.json")) for s in self.seeds]

    def verify(self, digests, checks):
        for s in self.seeds:
            name = f"corpus-check:{s}"
            rounds = digests[name]
            checks.expect(f"{name}: same report in every round, timings aside",
                          len({sha256(json.dumps(strip_elapsed(d["payload"]),
                                                 sort_keys=True))
                               for d in rounds}) == 1)
            verify_corpus_report(name, rounds[-1]["payload"], checks,
                                 graphs=self.COUNT,
                                 flow_cases=self.FLOW_COUNT * len(self.BETAS))
            for i in self.SAMPLE:
                graph = corpus.corpus_graph(i, seed=s)
                walk = ref.walk_of(graph)
                kappa = walk.kappa(1.0)
                checks.value(f"{name} graph {i}: E[T]",
                             engine.expected_hitting_time(graph),
                             walk.expected_time(), kappa, walk.time_scale())
                for beta in self.BETAS:
                    checks.small_value(f"{name} graph {i}: S_{beta}",
                                       engine.survival_transform(graph, beta),
                                       walk.survival(beta), walk.kappa(beta),
                                       walk.green_scale(beta))


def strip_elapsed(payload):
    """The corpus-check payload without its wall-clock fields."""
    return {k: ({kk: vv for kk, vv in v.items() if kk != "elapsed_seconds"}
                if isinstance(v, dict) else v) for k, v in payload.items()}


def verify_corpus_report(name, payload, checks, graphs=corpus.DEFAULT_COUNT,
                         flow_cases=600):
    checks.expect(f"{name}: all_pass", payload["all_pass"] is True)
    b = payload["bounds"]
    checks.expect(f"{name}: {graphs} graphs checked", b["graphs"] == graphs,
                  b["graphs"])
    checks.expect(f"{name}: 64 bound checks per graph",
                  b["checks"] == 64 * graphs, b["checks"])
    checks.expect(f"{name}: {flow_cases} flow cases",
                  payload["flows"]["cases"] == flow_cases, payload["flows"]["cases"])
    checks.expect(f"{name}: commute identity on every graph",
                  payload["commute"]["graphs"] == graphs
                  and payload["commute"]["all_pass"] is True)
    checks.expect(f"{name}: no failures listed",
                  not any(payload[k]["failures"] for k in
                          ("bounds", "flows", "commute", "drift_estimate")))


# -- simulate --------------------------------------------------------------


def _sample_op(name, sampler, target, config) -> Op:
    """One montecarlo.<sampler> call plus its CSV serialization."""

    def run():
        sample = getattr(montecarlo, sampler)(target, config)
        return sample, montecarlo.to_csv_text(sample)

    def digest(result):
        sample, text = result
        out = {"sha": sha256(text)}
        if hasattr(sample, "times"):
            times = sample.times
            out.update(censored=sample.censored_count, mean=float(times.mean()),
                       se=float(times.std(ddof=1) / math.sqrt(len(times))),
                       min=int(times.min()),
                       parities=np.unique(times % 2).tolist())
        else:
            ks = np.asarray(config.record_steps)
            d = sample.distances
            last = d[:, -1] / ks[-1]
            out.update(speed=float(last.mean()),
                       speed_se=float(last.std(ddof=1) / math.sqrt(len(last))),
                       parity_ok=bool(((d - ks) % 2 == 0).all()),
                       range_ok=bool(((d >= 0) & (d <= ks)).all()))
        return out

    return Op(name, run, digest)


class Simulate(Workload):
    """Monte Carlo hitting times and escape ratios; no exact-engine call."""

    name = "simulate"
    G_WALK = 2.0

    def setup(self):
        seeds = [int(s) for s in self.rng.integers(0, 2**31 - 1, size=4)]
        self.short = relabel(corpus.corpus_graph(0), self.rng)
        self.long = relabel(generators.unit_path(40), self.rng)
        self.line = relabel(generators.biased_line(300, 1.02, tail=300), self.rng)
        cfg = montecarlo.SimConfig
        self.plan = [
            ("hitting:corpus_graph_0", "simulate_hitting", self.short,
             cfg(seed=seeds[0], replications=10_000, max_steps=1_000_000)),
            ("hitting:unit_path_40", "simulate_hitting", self.long,
             cfg(seed=seeds[1], replications=1_000, max_steps=1_000_000)),
            ("escape:biased_walk", "escape_ratios",
             hb.BiasedWalk(self.G_WALK),
             cfg(seed=seeds[2], replications=5_000, max_steps=1000,
                 record_steps=(10, 100, 1000), estimator="speed")),
            ("escape:biased_line", "escape_ratios", self.line,
             cfg(seed=seeds[3], replications=5_000, max_steps=300,
                 record_steps=(10, 30, 100, 300), estimator="single_log")),
        ]

    def ops(self):
        return [_sample_op(*item) for item in self.plan]

    def verify(self, digests, checks):
        for name, _, target, _ in self.plan:
            checks.expect(f"{name}: identical CSV in every round",
                          len({d["sha"] for d in digests[name]}) == 1)
        rerun = _sample_op(*self.plan[-1])
        checks.expect("escape:biased_line: same seed, same CSV bytes",
                      rerun.digest(rerun.run())["sha"]
                      == digests["escape:biased_line"][0]["sha"])
        for name, graph in (("hitting:corpus_graph_0", self.short),
                            ("hitting:unit_path_40", self.long)):
            walk = ref.walk_of(graph)
            verify_hitting(name, digests[name][-1], walk.expected_time(),
                           walk.target_distance(), checks)
        checks.expect("hitting:unit_path_40: every time is even (bipartite, n = 40)",
                      digests["hitting:unit_path_40"][-1]["parities"] == [0])
        verify_speed("escape:biased_walk", digests["escape:biased_walk"][-1],
                     self.G_WALK, checks)
        verify_line_distances("escape:biased_line",
                              digests["escape:biased_line"][-1], checks)


def verify_speed(name, digest, g, checks):
    """The mean of X_k / k is near the speed (g-1)/(g+1) of the biased walk."""
    speed = (g - 1.0) / (g + 1.0)
    checks.expect(f"{name}: speed within 5 standard errors",
                  abs(digest["speed"] - speed) <= 5.0 * digest["speed_se"],
                  f"{digest['speed']} vs {speed}")


def verify_line_distances(name, digest, checks):
    """On a path the distance at step k has the parity of k and lies in [0, k]."""
    checks.expect(f"{name}: distance has the parity of k", digest["parity_ok"])
    checks.expect(f"{name}: 0 <= distance <= k", digest["range_ok"])


def verify_hitting(name, digest, expected, distance, checks):
    checks.expect(f"{name}: no censoring", digest["censored"] == 0,
                  digest["censored"])
    checks.expect(f"{name}: mean within 5 standard errors of E[T]",
                  abs(digest["mean"] - expected) <= 5.0 * digest["se"],
                  f"{digest['mean']} vs {expected} (se {digest['se']})")
    checks.expect(f"{name}: no time below the graph distance",
                  digest["min"] >= distance, digest["min"])


# -- solve -----------------------------------------------------------------


class Solve(Workload):
    """Exact statistics at sizes the corpus never reaches, one graph per solver branch."""

    name = "solve"
    PATH_BETAS = (0.5, 0.999, 0.9999999)
    # bicgstab fails to converge on this tree at 0.9999999 (a program fault,
    # reported separately), so its largest beta is 0.99999.
    TREE_BETAS = (0.5, 0.999, 0.9999, 0.99999)
    GREEN_BETA = 0.9
    FLOW_BETA = 0.9

    def setup(self):
        drift = generators.poly_growth_drift
        self.closed = {}
        graphs = {}
        for label, n in (("dense", 1499), ("banded", 19999)):
            g = drift(n, 1.0)
            graphs[label] = relabel(generators.fast_path(n, g), self.rng)
            self.closed[label] = ref.fast_path(n, g)
        # kept in generator labels: bicgstab's convergence on this tree
        # depends on the vertex order (a program fault, reported separately)
        graphs["bicgstab"] = generators.tree_line(3, [4] * 28, 30)
        self.graphs = graphs
        self.betas = {"dense": self.PATH_BETAS, "banded": self.PATH_BETAS,
                      "bicgstab": self.TREE_BETAS}
        self.green = relabel(generators.fast_path(200, drift(200, 1.0)), self.rng)
        self.flow_graph = relabel(generators.tree_line(2, [4] * 5 + [2] * 2, 8),
                                  self.rng)
        self.flow_path = self.path("tree_line_171.json")
        hb.write_graph_file(self.flow_graph, self.flow_path)
        self._green_matrix = None

    def ops(self):
        ops = []
        for label, graph in self.graphs.items():
            ops.append(Op(f"expected_hitting_time:{label}",
                          lambda g=graph: engine.expected_hitting_time(g)))
            ops.append(Op(f"effective_resistance:{label}",
                          lambda g=graph: engine.effective_resistance(g)))
            for beta in self.betas[label]:
                ops.append(Op(f"survival_transform:{label}:{beta}",
                              lambda g=graph, b=beta: engine.survival_transform(g, b)))
                ops.append(Op(f"origin_visits:{label}:{beta}",
                              lambda g=graph, b=beta: engine.origin_visits(g, b)))
        ops.append(Op("green_kernel", lambda: engine.green_kernel(
            self.green, self.GREEN_BETA), self.green_digest))
        ops.append(cli_op("decompose", ["decompose", self.flow_path, "--beta",
                                         repr(self.FLOW_BETA)],
                          self.path("decompose.out.json")))
        return ops

    def green_digest(self, matrix):
        if self._green_matrix is None:
            self._green_matrix = killed_matrix_of(self.green, self.GREEN_BETA)
        return green_digest(self.green, self._green_matrix, matrix)

    def verify(self, digests, checks):
        for label, graph in self.graphs.items():
            walk = ref.walk_of(graph)
            kappa = walk.kappa(1.0)
            for d in digests[f"expected_hitting_time:{label}"]:
                checks.value(f"{label}: E[T]", d, walk.expected_time(), kappa,
                             walk.time_scale())
            for d in digests[f"effective_resistance:{label}"]:
                checks.value(f"{label}: resistance", d, walk.resistance(), kappa,
                             walk.resistance_scale())
            closed = self.closed.get(label)
            if closed is not None:
                checks.value(f"{label}: E[T] closed form",
                             digests[f"expected_hitting_time:{label}"][-1],
                             closed.expected_time(), kappa, walk.time_scale())
                checks.value(f"{label}: resistance series rule",
                             digests[f"effective_resistance:{label}"][-1],
                             closed.resistance(), kappa, walk.resistance_scale())
            for beta in self.betas[label]:
                k_beta, scale = walk.kappa(beta), walk.green_scale(beta)
                survival = (closed or walk).survival(beta)
                for d in digests[f"survival_transform:{label}:{beta}"]:
                    checks.small_value(f"{label}: S_{beta}", d, survival,
                                       k_beta, scale)
                for d in digests[f"origin_visits:{label}:{beta}"]:
                    checks.value(f"{label}: R_{beta}", d, walk.visits(beta),
                                 k_beta, scale)
        walk = ref.walk_of(self.green)
        for d in digests["green_kernel"]:
            verify_green(d, walk, self.GREEN_BETA, checks)
        rounds = digests["decompose"]
        checks.expect("decompose: identical report in every round",
                      len({d["sha"] for d in rounds}) == 1)
        verify_decomposition(rounds[-1]["payload"], ref.walk_of(self.flow_graph),
                             self.FLOW_BETA, checks)


def killed_matrix_of(graph, beta):
    edges = [(graph.labels[i], graph.labels[j], w) for i, j, w in graph.edge_list()]
    return ref.killed_matrix(graph.labels, edges, graph.targets, beta)


def green_digest(graph, killed, matrix) -> dict:
    """Residual of (I - beta K_z) G = I with its allowance, and G(o, o).

    killed is I - beta K_z built by the benchmark in the graph's label order.
    A backward-stable solve leaves a residual of about n eps ||A|| ||G||.
    """
    residual = float(np.abs(killed @ matrix - np.eye(len(killed))).max())
    allowed = (16.0 * ref.EPS * len(killed)
               * float(np.abs(killed).sum(axis=1).max())
               * float(np.abs(matrix).sum(axis=1).max()))
    oi = graph.labels.index(graph.origin)
    return {"residual": residual, "allowed": allowed,
            "origin": float(matrix[oi, oi])}


def verify_green(digest, walk, beta, checks):
    checks.expect("green_kernel: (I - beta K_z) G = I",
                  digest["residual"] <= digest["allowed"],
                  f"residual {digest['residual']} > {digest['allowed']}")
    checks.value("green_kernel: G(o, o)", digest["origin"], walk.visits(beta),
                 walk.kappa(beta), walk.green_scale(beta))


def verify_decomposition(payload, walk, beta, checks):
    """Reconstruct the flow from the report and compare it with the reference flow.

    The reference flow is f(x, y) = G_beta(o, x) beta w(x, y) / w_x with every
    target merged into the report's target label.
    """
    laws = payload["laws"]
    checks.expect("decompose: reported reconstruction error <= 1e-9",
                  laws["reconstruction_error"] <= 1e-9,
                  laws["reconstruction_error"])
    alphas = [c["alpha"] for c in payload["components"]]
    checks.expect("decompose: at least one component", len(alphas) >= 1)
    checks.expect("decompose: total alpha <= 1",
                  math.fsum(alphas) <= 1.0 + 1e-9, math.fsum(alphas))
    rebuilt = {}
    for c in payload["components"]:
        path = c["path"]
        for k, (u, v) in enumerate(zip(path, path[1:])):
            rebuilt[(u, v)] = rebuilt.get((u, v), 0.0) + c["alpha"] * c["forward"][k]
            rebuilt[(v, u)] = rebuilt.get((v, u), 0.0) + c["alpha"] * c["backward"][k]
    for u, v, value in payload["dead_edges"]:
        rebuilt[(u, v)] = rebuilt.get((u, v), 0.0) + value
    expected = walk.flow(beta, payload["target"])
    kappa, scale = walk.kappa(beta), walk.green_scale(beta)
    allowed = 1e-9 + 16.0 * ref.EPS * kappa * scale
    gap = max(abs(rebuilt.get(key, 0.0) - expected.get(key, 0.0))
              for key in set(rebuilt) | set(expected))
    checks.expect("decompose: components rebuild the reference flow",
                  gap <= allowed, f"gap {gap} > {allowed}")


WORKLOADS = {w.name: w for w in (Analyze, Corpus, Simulate, Solve)}
