"""The seeded random-graph corpus and the property suites run over it.

The standard corpus is 1000 seeded random connected graphs with at most 12
vertices, weights in [0.1, 10] and dist(origin, target) >= 3; every 5th
graph carries a self-loop and every 11th an extra target vertex, so the
checks also cover those shapes.  Construction is deterministic.

Suites (each returns a plain-dict report with an "all_pass" flag):

  * bound_report: every drift bound against exact statistics (mean, tail
    grid and damped-transform grid for both drift calibrations),
  * flow_report: flow laws, decomposition laws, array identities, the
    convex recombination of (S, R, Gamma) and the chain inequality,
  * commute_report: round-trip identity E[T(o->z)] + E[T(z->o)] =
    total_weight * resistance on the target-contracted graphs,
  * estimate_report: the explicit drift estimate dominates the exact drift
    solution on random (n, ratio) pairs.

The command-line `corpus-check` command runs all suites; the exit code is
2 whenever any report fails, which should never happen.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import bounds, engine, flows
from .generators import random_graph
from .refwalk import _as_int

DEFAULT_SEED = 20260823
DEFAULT_COUNT = 1000
FLOW_BETAS = (0.2, 0.5, 0.8)
_ESTIMATE_PAIRS = 100


def corpus_graph(index: int, seed: int = DEFAULT_SEED):
    """The index-th graph of the seeded corpus."""
    return random_graph(
        seed=(seed, index),
        max_vertices=12,
        self_loop_prob=1.0 if index % 5 == 3 else 0.0,
        extra_targets=1 if index % 11 == 7 else 0,
    )


def standard_corpus(count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED):
    return [corpus_graph(i, seed=seed) for i in range(count)]


def bound_report(graphs) -> dict:
    """check_theorem1 at its default grids over a corpus, aggregated."""
    start = time.monotonic()
    failures = []
    count = checks = 0
    min_margin = math.inf
    for i, graph in enumerate(graphs):
        count += 1
        report = bounds.check_theorem1(graph)
        checks += len(report.checks)
        min_margin = min(min_margin, report.min_margin())
        failures.extend(
            {"graph": i, **c.to_dict()} for c in report.failures())
    return {
        "graphs": count,
        "checks": checks,
        "failures": failures,
        "min_margin": min_margin,
        "elapsed_seconds": time.monotonic() - start,
        "all_pass": not failures,
    }


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def flow_report(graphs, betas=FLOW_BETAS) -> dict:
    """Flow laws, decomposition laws and array identities over a corpus.

    Thresholds: node law 1e-10, cycle gap 1e-9, parameter agreement with
    the exact engine 1e-10, reconstruction 1e-9 (sup norm), convex
    recombination and array identities 1e-9, inequalities never violated.
    A gap law fails at or above its threshold; "worst" keeps each gap's
    largest value and the smallest chain slack.
    """
    start = time.monotonic()
    failures = []
    worst = {
        "node_residual": 0.0, "cycle_gap": 0.0, "parameter_gap": 0.0,
        "reconstruction": 0.0, "convex_gap": 0.0, "array_gap": 0.0,
        "chain_slack": math.inf,
    }
    count = 0

    def fail(kind, value):
        failures.append({"graph": i, "beta": beta, "kind": kind, "value": value})

    def gap(key, kind, value, limit):
        """Keep the worst value of a gap law; a value at or above its limit fails."""
        worst[key] = max(worst[key], value)
        if value >= limit:
            fail(kind, value)

    for beta in betas:
        flows._check_beta(beta)
    for i, graph in enumerate(graphs):
        grid = engine.walk_parameters(graph.normalized(), betas)
        for beta, exact in zip(betas, grid):
            count += 1
            flow = flows.build_flow(graph, beta)
            work = flow.graph

            gap("node_residual", "node_law", flows.node_law_residual(flow), 1e-10)
            gap("cycle_gap", "cycle_reversibility",
                flows.cycle_reversibility_gap(flow), 1e-9)

            params = flows.flow_parameters(flow)
            s_exact, r_exact, g_exact = exact.survival, exact.visits, exact.gamma
            gap("parameter_gap", "flow_parameters",
                max(_relative_gap(params.survival, s_exact),
                    _relative_gap(params.visits, r_exact),
                    _relative_gap(params.gamma, g_exact)), 1e-10)

            dec = flows.decompose(flow)
            laws = dec.laws()
            gap("reconstruction", "reconstruction", laws["reconstruction_error"],
                1e-9)
            if not laws["alpha_within_unit"]:
                fail("alpha_sum", laws["total_alpha"])
            if not laws["paths_at_least_distance"]:
                fail("path_length", laws["component_count"])
            if laws["dead_target_inflow"] > 1e-9 * max(1.0, laws["scale"]):
                fail("dead_target_inflow", laws["dead_target_inflow"])

            oi = flow.origin_index
            s_mix = math.fsum(c.alpha * c.survival() for c in dec.components)
            r_mix = (1.0
                     + math.fsum(c.alpha * c.backward[0] for c in dec.components)
                     + float(dec.dead_matrix[:, oi].sum()))
            s_arr = dec.survival_value()
            g_arr = dec.gamma_value()
            gap("convex_gap", "convex_combination",
                max(abs(s_mix - s_exact), _relative_gap(r_mix, r_exact),
                    _relative_gap(g_arr, g_exact)), 1e-9)
            gap("array_gap", "array_identity",
                max(abs(s_arr - s_exact), _relative_gap(g_arr, g_exact)), 1e-9)
            if r_exact > dec.visits_upper_bound() * (1.0 + 1e-12):
                fail("visits_upper_bound", r_exact)

            gam, chain = flows.gamma_chain_bound(work, beta)
            worst["chain_slack"] = min(worst["chain_slack"],
                                       gam - chain + 1e-300)
            if gam < chain * (1.0 - 1e-9):
                fail("chain_inequality", chain - gam)

    return {
        "cases": count,
        "failures": failures,
        "worst": worst,
        "elapsed_seconds": time.monotonic() - start,
        "all_pass": not failures,
    }


def commute_report(graphs) -> dict:
    """E[T there] + E[T back] = total weight * resistance (to 1e-9), once contracted."""
    start = time.monotonic()
    failures = []
    count = 0
    worst = 0.0
    for i, graph in enumerate(graphs):
        count += 1
        work = graph.contract_targets()
        there = engine.expected_hitting_time(work)
        back = engine.expected_hitting_time(
            work.replace(origin=work.targets[0], targets=[work.origin]))
        product = work.total_weight() * engine.effective_resistance(work)
        gap = _relative_gap(there + back, product)
        worst = max(worst, gap)
        if gap >= 1e-9:
            failures.append({"graph": i, "gap": gap})
    return {
        "graphs": count,
        "failures": failures,
        "worst_gap": worst,
        "elapsed_seconds": time.monotonic() - start,
        "all_pass": not failures,
    }


def estimate_report(seed: int = DEFAULT_SEED) -> dict:
    """drift_upper_estimate dominates solve_drift and over-satisfies the equation.

    Checked on _ESTIMATE_PAIRS seeded random (n, ratio) pairs.
    """
    rng = np.random.Generator(np.random.Philox(key=(seed, 0x9E3779B9)))
    failures = []
    for _ in range(_ESTIMATE_PAIRS):
        n = int(rng.integers(3, 41))
        ratio = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))
        g_exact = bounds.solve_drift(n, ratio)
        g_rough = bounds.drift_upper_estimate(n, ratio)
        if g_rough < g_exact * (1.0 - 1e-12):
            failures.append({"n": n, "ratio": ratio, "kind": "domination",
                             "g_exact": g_exact, "g_rough": g_rough})
        lhs = (g_rough - 1.0) ** 2 * g_rough ** (n - 2)
        if lhs < 2.0 * ratio * (1.0 - 1e-12):
            failures.append({"n": n, "ratio": ratio, "kind": "equation",
                             "lhs": lhs, "rhs": 2.0 * ratio})
    return {"pairs": _ESTIMATE_PAIRS, "failures": failures, "all_pass": not failures}


def run_all(count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED,
            flow_count: int = 200, flow_betas=FLOW_BETAS) -> dict:
    """Every suite on the standard corpus; the corpus-check command's payload."""
    count = _as_int(count, "count", 1)
    flow_count = _as_int(flow_count, "flow_count", 0)
    graphs = standard_corpus(count, seed=seed)
    flow_graphs = graphs[:: max(1, len(graphs) // max(flow_count, 1))][:flow_count]
    reports = {
        "bounds": bound_report(graphs),
        "flows": flow_report(flow_graphs, betas=flow_betas),
        "commute": commute_report(graphs),
        "drift_estimate": estimate_report(seed=seed),
    }
    reports["all_pass"] = all(r["all_pass"] for r in reports.values()
                              if isinstance(r, dict))
    return reports
