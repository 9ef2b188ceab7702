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

DEFAULT_SEED = 20260823
DEFAULT_COUNT = 1000


def corpus_graph(index: int, seed: int = DEFAULT_SEED, max_vertices: int = 12):
    """The index-th graph of the seeded corpus."""
    return random_graph(
        seed=(seed, index),
        max_vertices=max_vertices,
        weight_range=(0.1, 10.0),
        min_distance=3,
        self_loop_prob=1.0 if index % 5 == 3 else 0.0,
        extra_targets=1 if index % 11 == 7 else 0,
    )


def standard_corpus(count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED,
                    max_vertices: int = 12):
    return [corpus_graph(i, seed=seed, max_vertices=max_vertices)
            for i in range(count)]


def bound_report(graphs, slack: float = 1e-9, a_grid=None, beta_grid=None) -> dict:
    """check_theorem1 over a corpus, aggregated."""
    start = time.monotonic()
    failures = []
    count = checks = 0
    min_margin = math.inf
    for i, graph in enumerate(graphs):
        count += 1
        report = bounds.check_theorem1(graph, a_grid=a_grid,
                                       beta_grid=beta_grid, slack=slack)
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


def flow_report(graphs, betas=(0.2, 0.5, 0.8)) -> dict:
    """Flow laws, decomposition laws and array identities over a corpus.

    Thresholds: node law 1e-10, cycle gap 1e-9, parameter agreement with
    the exact engine 1e-10, reconstruction 1e-9 (sup norm), convex
    recombination and array identities 1e-9, inequalities never violated.
    """
    start = time.monotonic()
    failures = []
    worst = {
        "node_residual": 0.0, "cycle_gap": 0.0, "parameter_gap": 0.0,
        "reconstruction": 0.0, "convex_gap": 0.0, "array_gap": 0.0,
        "chain_slack": math.inf,
    }
    count = 0

    def fail(i, beta, kind, value):
        failures.append({"graph": i, "beta": beta, "kind": kind, "value": value})

    for i, graph in enumerate(graphs):
        for beta in betas:
            count += 1
            flow = flows.build_flow(graph, beta)
            work = flow.graph

            resid = flows.node_law_residual(flow)
            worst["node_residual"] = max(worst["node_residual"], resid)
            if resid >= 1e-10:
                fail(i, beta, "node_law", resid)

            gap = flows.cycle_reversibility_gap(flow)
            worst["cycle_gap"] = max(worst["cycle_gap"], gap)
            if gap >= 1e-9:
                fail(i, beta, "cycle_reversibility", gap)

            params = flows.flow_parameters(flow)
            exact = engine.WalkParameters.from_graph(work, beta)
            s_exact, r_exact, g_exact = exact.survival, exact.visits, exact.gamma
            pgap = max(_relative_gap(params.survival, s_exact),
                       _relative_gap(params.visits, r_exact),
                       _relative_gap(params.gamma, g_exact))
            worst["parameter_gap"] = max(worst["parameter_gap"], pgap)
            if pgap >= 1e-10:
                fail(i, beta, "flow_parameters", pgap)

            dec = flows.decompose(flow)
            laws = dec.laws()
            worst["reconstruction"] = max(worst["reconstruction"],
                                          laws["reconstruction_error"])
            if laws["reconstruction_error"] >= 1e-9:
                fail(i, beta, "reconstruction", laws["reconstruction_error"])
            if not laws["alpha_within_unit"]:
                fail(i, beta, "alpha_sum", laws["total_alpha"])
            if not laws["paths_at_least_distance"]:
                fail(i, beta, "path_length", laws["component_count"])
            if laws["dead_target_inflow"] > 1e-9 * max(1.0, laws["scale"]):
                fail(i, beta, "dead_target_inflow", laws["dead_target_inflow"])

            oi = flow.origin_index
            s_mix = math.fsum(c.alpha * c.survival() for c in dec.components)
            r_mix = (1.0
                     + math.fsum(c.alpha * c.backward[0] for c in dec.components)
                     + float(dec.dead_matrix[:, oi].sum()))
            arrays = flows.array_representation(dec)
            s_arr = arrays.survival_value()
            g_arr = arrays.gamma_value()
            convex_gap = max(abs(s_mix - s_exact),
                             _relative_gap(r_mix, r_exact),
                             _relative_gap(g_arr, g_exact))
            worst["convex_gap"] = max(worst["convex_gap"], convex_gap)
            if convex_gap >= 1e-9:
                fail(i, beta, "convex_combination", convex_gap)

            array_gap = max(abs(s_arr - s_exact), _relative_gap(g_arr, g_exact))
            worst["array_gap"] = max(worst["array_gap"], array_gap)
            if array_gap >= 1e-9:
                fail(i, beta, "array_identity", array_gap)
            if r_exact > arrays.visits_upper_bound() * (1.0 + 1e-12):
                fail(i, beta, "visits_upper_bound", r_exact)

            gam, chain = flows.gamma_chain_bound(work, beta)
            worst["chain_slack"] = min(worst["chain_slack"],
                                       gam - chain + 1e-300)
            if gam < chain * (1.0 - 1e-9):
                fail(i, beta, "chain_inequality", chain - gam)

    return {
        "cases": count,
        "failures": failures,
        "worst": worst,
        "elapsed_seconds": time.monotonic() - start,
        "all_pass": not failures,
    }


def commute_report(graphs, tol: float = 1e-9) -> dict:
    """E[T there] + E[T back] = total weight * resistance, after contraction."""
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
        if gap >= tol:
            failures.append({"graph": i, "gap": gap})
    return {
        "graphs": count,
        "failures": failures,
        "worst_gap": worst,
        "elapsed_seconds": time.monotonic() - start,
        "all_pass": not failures,
    }


def estimate_report(count: int = 100, seed: int = DEFAULT_SEED) -> dict:
    """drift_upper_estimate dominates solve_drift and over-satisfies the equation."""
    rng = np.random.Generator(np.random.Philox(key=(seed, 0x9E3779B9)))
    failures = []
    for _ in range(count):
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
    return {"pairs": count, "failures": failures, "all_pass": not failures}


def run_all(count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED,
            flow_count: int = 200, flow_betas=(0.2, 0.5, 0.8)) -> dict:
    """Every suite on the standard corpus; the corpus-check command's payload."""
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
