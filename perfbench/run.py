"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The hitbounds package is imported from
src/ (it need not be installed).  Each workload runs in fresh worker
processes (perfbench/worker.py) with one BLAS thread.  With --trace 0 the
command first starts SETUP_SAMPLES - 1 workers that only set up, then one
that also runs the timed rounds; it reports the end-to-end metrics of
BENCHMARK.json, with times at the reference pace of pace.py.  With
--trace 1 one worker runs untraced and then traced rounds and the command
reports the per-layer metrics, as measured.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when a result was printed; any worker failure prints no result and
exits 1.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
# one BLAS thread, here for the pace loop and inherited by every worker;
# set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
import pace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
SETUP_PACE_SAMPLES = 3
TIME_LIMIT_S = 170.0
END_TO_END = ("setup_s", "wall_s", "op_p50_s", "peak_rss_mib")


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline, extra=()) -> dict:
    """Start one worker, wait for it, and return its JSON line.

    The pace loop is timed right before the worker starts, as the worker
    times it right after its set-up, so that set-up is bracketed as an
    operation is.
    """
    pace_before = pace.median_sample(SETUP_PACE_SAMPLES)
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the time limit")
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return {**json.loads(lines[-1]), "pace_before": pace_before}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze", "corpus", "simulate", "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through run_worker, which then stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        units = metric_units()
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, deadline, ["--setup-only"]))
        result = run_worker(args, deadline)
    except (RuntimeError, ValueError, KeyError, OSError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    if args.trace:
        values = result["layers"]
    else:
        # Times at the reference pace (pace.py): each latency and each set-up
        # is scaled by the mean of the pace loops timed before and after it.
        # An operation's time is its median over the rounds; wall_s is one
        # round of them, op_p50_s the median operation.
        per_op = [statistics.median(map(pace.at_reference, result["latencies"][op],
                                        result["paces"][op]))
                  for op in result["latencies"]]
        values = dict(zip(END_TO_END, (
            statistics.median(pace.at_reference(
                s["setup_s"], (s["pace_before"] + s["setup_pace"]) / 2.0)
                for s in setups),
            math.fsum(per_op), statistics.median(per_op), result["peak_rss_mib"])))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}

    checks = result["checks"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(result['round_walls']) + len(result.get('traced_walls', []))}")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        loops = [x for v in result["paces"].values() for x in v]
        print(f"  as measured: median round {statistics.median(result['round_walls']):.6g} s, "
              f"pace loop {statistics.median(loops):.6g} s "
              f"(reference {pace.REFERENCE_S} s)")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    print(f"  checks passed {checks['passed']}, failed {checks['failed']}, "
          f"skipped {checks['skipped']} {checks['skip_reasons']}")
    for failure in checks["failures"]:
        print(f"  FAILED {failure}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"last-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "setups": setups[:-1], **result}, fh, indent=1)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
