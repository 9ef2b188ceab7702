"""One benchmark process: set up a workload, time its rounds, check the outputs.

Started by run.py with PYTHONPATH naming src/ and perfbench/.  --t0 is the
parent's monotonic clock just before it started this process, so setup_s
covers interpreter start, imports and input generation.  The last line of
standard output is one JSON object for run.py.

A round runs every operation of the workload once, back to back, and times
pace.py's loop before and after each operation, outside its latency.  Rounds
repeat until --seconds have passed since the first one started (at least
one round).  The loop is also timed right after set-up.  With --trace 1
the first half of that time runs untraced and the second half traced, and
the difference of the two median round times is the tracing overhead.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import pace
import tracer as tracing
import workloads

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SETUP_PACE_SAMPLES = 3


class Tally:
    """Operation latencies, failures and digests over every round of a run."""

    def __init__(self, ops):
        self.latencies = {op.name: [] for op in ops}
        self.paces = {op.name: [] for op in ops}
        self.failed = 0
        self.digests = {op.name: [] for op in ops}
        self.peak_rss_mib = None

    def run_rounds(self, ops, seconds, tracer=None):
        """Rounds until seconds have passed; returns each round's wall time.

        A round's results are digested after its timing ends and then
        dropped, so memory holds one round's outputs at a time.
        """
        start = time.perf_counter()
        walls = []
        while not walls or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.current_phase = 1 + len(walls)  # 0 is set-up
            results = []
            loops = [pace.sample()]
            for op in ops:
                t0 = time.perf_counter()
                try:
                    result = op.run()
                    failed = not op.ok(result)
                except Exception:  # a failed operation is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    result, failed = None, True
                results.append((op, result, time.perf_counter() - t0, failed))
                loops.append(pace.sample())
            # a round's time leaves out the pace loops between its operations
            walls.append(math.fsum(r[2] for r in results))
            if self.peak_rss_mib is None:
                # after the first round: later rounds only add allocator
                # fragmentation, which would tie the figure to the round count
                self.peak_rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for i, (op, result, latency, failed) in enumerate(results):
                self.latencies[op.name].append(latency)
                # the pace during an operation: the mean of the loops around it
                self.paces[op.name].append((loops[i] + loops[i + 1]) / 2.0)
                if failed:
                    self.failed += 1
                else:
                    self.digests[op.name].append(op.digest(result))
        return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload.setup()
    setup_s = time.monotonic() - args.t0
    setup_pace = pace.median_sample(SETUP_PACE_SAMPLES)
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_pace": setup_pace}))
        return 0

    ops = workload.ops()
    tally = Tally(ops)
    if tracer is None:
        walls = tally.run_rounds(ops, args.seconds)
        traced_walls = []
    else:
        walls = tally.run_rounds(ops, args.seconds / 2)
        tracer.install()
        traced_walls = tally.run_rounds(ops, args.seconds / 2, tracer)
        tracer.uninstall()

    checks = workloads.Checks()
    try:
        workload.verify(tally.digests, checks)
    except Exception as exc:  # a check that cannot run is a failed check
        traceback.print_exc(file=sys.stderr)
        checks.expect("verification ran to its end", False, repr(exc))

    out = {"setup_s": setup_s, "setup_pace": setup_pace, "round_walls": walls,
           "latencies": tally.latencies, "paces": tally.paces,
           "attempted": sum(map(len, tally.latencies.values())),
           "failed": tally.failed,
           "peak_rss_mib": tally.peak_rss_mib, "checks": checks.summary(),
           "correct": checks.correct}
    if tracer is not None:
        layers = tracer.layer_metrics(rounds=len(traced_walls))
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        out.update(traced_walls=traced_walls, layers=layers)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
