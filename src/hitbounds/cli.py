"""Command-line driver for reproducible analyses, sweeps, and simulations.

Subcommands:
    analyze       exact hitting statistics plus the full bound report (JSON)
    decompose     loss-flow path decomposition with law residuals (JSON)
    generate      write a graph file from a named family
    simulate      Monte Carlo estimates (CSV)
    sweep         per-size closed-form / exact / bound table (CSV)
    corpus-check  the full property suite over the seeded corpus (JSON)

Exit codes: 0 success; 1 invalid input or parameters; 2 a mathematical law
or bound that must always hold was observed violated.

Every run is deterministic given its flags.  JSON reports embed a run
manifest (command, parameters, input hashes, seed, artifact version,
output paths; no timestamps); CSV and graph outputs get a
"<name>.manifest.json" sidecar.  Floats are printed in shortest
round-trip form, which preserves the value to all 17 significant digits.
Files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, bounds, corpus, engine, flows, generators, montecarlo
from .graph import WeightedGraph, read_graph_file, serialize, write_text_atomic
from .refwalk import BiasedWalk, ParameterError


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(obj):
    """JSON-safe copy; non-finite floats become string markers."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "infinite" if obj > 0 else "-infinite"
        if math.isnan(obj):
            return "not-a-number"
        return obj
    if isinstance(obj, np.floating):
        return _jsonable(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _manifest(args, command: str, inputs=()) -> dict:
    """What a command ran with: enough to reproduce its outputs bit for bit."""
    out = getattr(args, "out", None)
    return {
        "command": command,
        "parameters": {k: _jsonable(v) for k, v in sorted(vars(args).items())
                       if k != "func"},
        "input_hashes": {str(p): _sha256_file(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "artifact_version": __version__,
        "outputs": [str(out)] if out else [],
    }


def _emit_json(payload: dict, out, manifest: dict) -> None:
    payload = dict(payload)
    payload["manifest"] = manifest
    text = json.dumps(_jsonable(payload), indent=1, allow_nan=False) + "\n"
    if out:
        write_text_atomic(text, out)
    else:
        sys.stdout.write(text)


def _emit_text(text: str, out, manifest: dict) -> None:
    if out:
        write_text_atomic(text, out)
        sidecar = json.dumps(_jsonable(manifest), indent=1, allow_nan=False) + "\n"
        write_text_atomic(sidecar, str(out) + ".manifest.json")
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-")
            raise ParameterError(f"{flag} is required here")


def _int_drift(g, name: str = "g") -> int:
    if isinstance(g, float):
        if not g.is_integer():
            raise ParameterError(f"{name} must be an integer, got {g!r}")
        return int(g)
    return g


# -- commands --------------------------------------------------------------


def _cmd_analyze(args) -> int:
    graph = read_graph_file(args.graph)
    report = bounds.check_theorem1(graph, a_grid=args.a_grid,
                                   beta_grid=args.beta_grid)
    distance = graph.distance(graph.origin)
    if math.isfinite(report.expected):  # the normalized graph the report read
        stats = engine.hitting_time_pmf(graph.normalized(), horizon=args.horizon)

        def quantile(q):
            idx = int(np.searchsorted(stats.cdf, q))
            return idx if idx <= stats.horizon else None

        pmf_summary = {
            "horizon": stats.horizon,
            "survival_mass": stats.survival_mass,
            "median": quantile(0.5),
            "q90": quantile(0.9),
            "mean_from_pmf": float(np.arange(len(stats.pmf)) @ stats.pmf),
        }
    else:
        pmf_summary = {"skipped": "target not reachable"}
    payload = {
        "graph": {
            "path": str(args.graph),
            "vertices": graph.n,
            "origin": graph.origin,
            "targets": list(graph.targets),
            "distance": distance,
        },
        "expected_time": report.expected,
        "resistance": report.resistance,
        "pmf": pmf_summary,
        "bounds": report.to_dict(),
    }
    _emit_json(payload, args.out, _manifest(args, "analyze", [args.graph]))
    return 0 if report.all_pass else 2


def _cmd_decompose(args) -> int:
    flow = flows.build_flow(read_graph_file(args.graph), args.beta)
    payload = flows.decompose(flow).to_dict()
    _emit_json(payload, args.out, _manifest(args, "decompose", [args.graph]))
    return 2 if flows.law_failures(payload["laws"]) else 0


def _cmd_generate(args) -> int:
    family = args.family
    if family == "unit_path":
        _require(args, "n")
        graph = generators.unit_path(args.n)
    elif family == "fast_path":
        _require(args, "n")
        g = args.g
        if g is None:
            g = generators.poly_growth_drift(args.n, args.p or 0.0)
        graph = generators.fast_path(args.n, g)
    elif family == "biased_line":
        _require(args, "n", "g")
        graph = generators.biased_line(args.n, args.g, tail=args.tail)
    elif family == "concatenated_fast":
        kwargs = {"cuts": args.cuts, "p": args.p or 0.0}
        if args.max_vertices is not None:
            kwargs["max_vertices"] = args.max_vertices
        graph = generators.concatenated_fast(**kwargs)
    elif family == "tree_line":
        _require(args, "g", "depths", "length")
        graph = generators.tree_line(_int_drift(args.g), args.depths,
                                     args.length)
    elif family == "random":
        seed = args.seed if args.seed is not None else corpus.DEFAULT_SEED
        kwargs = {"seed": seed}
        if args.max_vertices is not None:
            kwargs["max_vertices"] = args.max_vertices
        graph = generators.random_graph(**kwargs)
    else:
        raise ParameterError(f"unknown family {family!r}")
    _emit_text(serialize(graph), args.out, _manifest(args, "generate"))
    return 0


def _cmd_simulate(args) -> int:
    if args.reference_g is not None:
        target = BiasedWalk(args.reference_g)
        inputs = []
    else:
        if args.graph is None:
            raise ParameterError("a graph file or --reference-g is required")
        target = read_graph_file(args.graph)
        inputs = [args.graph]
    horizon = args.horizon if args.horizon is not None else 1_000_000
    record = tuple(args.record) if args.record else ()
    if args.estimator != "hitting" and not record:
        record = (horizon,)
    config = montecarlo.SimConfig(seed=args.seed, replications=args.reps,
                                  max_steps=horizon, record_steps=record,
                                  estimator=args.estimator)
    if args.estimator == "hitting":
        if not isinstance(target, WeightedGraph):
            raise ParameterError("the hitting estimator needs a graph file")
        sample = montecarlo.simulate_hitting(target, config)
    else:
        sample = montecarlo.escape_ratios(target, config)
    text = montecarlo.to_csv_text(sample)
    _emit_text(text, args.out, _manifest(args, "simulate", inputs))
    return 0


_SWEEP_HEADER = ("family", "n", "g", "closed_form", "exact", "mean_bound",
                 "asymptote", "ratio")


def _cmd_sweep(args) -> int:
    if not args.n_list:
        raise ParameterError("--n-list is required")
    p = args.p or 0.0
    max_exact = args.max_vertices if args.max_vertices is not None else 20_000
    rows = []
    violation = False
    for n in args.n_list:
        if args.family == "fast_path":
            g = args.g if args.g is not None else generators.poly_growth_drift(n, p)
            closed = generators.fast_path_expected(n, g)
            res = generators.fast_path_resistance(n, g)
            w_last = generators._fast_last_weight(n, g)
            build = lambda: generators.fast_path(n, g)
        elif args.family == "unit_path":
            g = None
            closed = float(n) ** 2
            res = float(n)
            w_last = 1.0
            build = lambda: generators.unit_path(n)
        else:
            raise ParameterError(f"unknown sweep family {args.family!r}")
        steps = n - 1
        ratio_wr = w_last * res
        if steps >= 1 and math.isfinite(ratio_wr):
            mean_bound = bounds.mean_lower_bound(
                steps, bounds.solve_drift(steps, ratio_wr))
        else:
            mean_bound = 1.0
        asym = bounds.poly_mean_asymptote(n, p)
        ratio = closed / asym
        exact = engine.expected_hitting_time(build()) if n + 1 <= max_exact else None
        if mean_bound > closed * (1.0 + 1e-9):
            violation = True
        rows.append((args.family, n, g, closed, exact, mean_bound, asym, ratio))
    text = _csv_text(_SWEEP_HEADER, rows)
    _emit_text(text, args.out, _manifest(args, "sweep"))
    return 2 if violation else 0


def _cmd_corpus_check(args) -> int:
    betas = tuple(args.beta_grid) if args.beta_grid else corpus.FLOW_BETAS
    reports = corpus.run_all(count=args.count, seed=args.seed,
                             flow_count=args.flow_count, flow_betas=betas)
    _emit_json(dict(reports), args.out, _manifest(args, "corpus-check"))
    return 0 if reports["all_pass"] else 2


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_list(text: str):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _int_list(text: str):
    return tuple(int(x) for x in text.split(",") if x.strip())


@functools.cache  # built once per process: it costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hitbounds",
                     description="Exact hitting-time statistics and sharp "
                                 "lower bounds for walks on weighted graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="exact statistics and bound report")
    pa.add_argument("graph", help="graph file (JSON)")
    pa.add_argument("--beta-grid", type=_float_list, default=None,
                    metavar="B1,B2,...")
    pa.add_argument("--a-grid", type=_float_list, default=None,
                    metavar="A1,A2,...")
    pa.add_argument("--horizon", type=int, default=None)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=_cmd_analyze)

    pd = sub.add_parser("decompose", help="loss-flow path decomposition")
    pd.add_argument("graph", help="graph file (JSON)")
    pd.add_argument("--beta", type=float, required=True)
    pd.add_argument("--out", default=None)
    pd.set_defaults(func=_cmd_decompose)

    pg = sub.add_parser("generate", help="write a graph from a named family")
    pg.add_argument("family", choices=("unit_path", "fast_path", "biased_line",
                                       "concatenated_fast", "tree_line",
                                       "random"))
    pg.add_argument("--n", type=int, default=None)
    pg.add_argument("--g", type=float, default=None)
    pg.add_argument("--p", type=float, default=None)
    pg.add_argument("--tail", type=int, default=0)
    pg.add_argument("--cuts", type=_int_list, default=None, metavar="X1,X2,...")
    pg.add_argument("--depths", type=_int_list, default=None,
                    metavar="D1,D2,...")
    pg.add_argument("--length", type=int, default=None)
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--max-vertices", type=int, default=None)
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=_cmd_generate)

    ps = sub.add_parser("simulate", help="Monte Carlo estimates to CSV")
    ps.add_argument("graph", nargs="?", default=None, help="graph file (JSON)")
    ps.add_argument("--estimator", choices=montecarlo.ESTIMATORS,
                    default="hitting")
    ps.add_argument("--reference-g", type=float, default=None,
                    help="simulate the g-biased reference walk instead")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--reps", type=int, default=10_000)
    ps.add_argument("--horizon", type=int, default=None)
    ps.add_argument("--record", type=_int_list, default=None,
                    metavar="K1,K2,...")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=_cmd_simulate)

    pw = sub.add_parser("sweep", help="per-size bound table to CSV")
    pw.add_argument("--family", choices=("fast_path", "unit_path"),
                    default="fast_path")
    pw.add_argument("--n-list", type=_int_list, default=None,
                    metavar="N1,N2,...")
    pw.add_argument("--p", type=float, default=None)
    pw.add_argument("--g", type=float, default=None)
    pw.add_argument("--max-vertices", type=int, default=None,
                    help="largest size solved exactly")
    pw.add_argument("--out", default=None)
    pw.set_defaults(func=_cmd_sweep)

    pc = sub.add_parser("corpus-check", help="full property suite")
    pc.add_argument("--count", type=int, default=corpus.DEFAULT_COUNT)
    pc.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    pc.add_argument("--flow-count", type=int, default=200)
    pc.add_argument("--beta-grid", type=_float_list, default=None,
                    metavar="B1,B2,...")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=_cmd_corpus_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a decomposition that does not terminate is a failed claim, not bad input
        return 2 if isinstance(exc, flows.DecompositionError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
