"""Span tracing of the hitbounds modules from outside the program.

Tracer.install() replaces every public function of each hitbounds module,
and a few public methods of its classes, with a wrapper that records one
span per call: name, parent span, start and end (perf_counter_ns), and a
work count for the calls that have one.  A function is replaced under every
name that refers to it, because callers look names up in their own module:
cli binds read_graph_file at import time, and hitbounds/__init__ re-exports
most functions.  Methods are replaced on their class.  uninstall() puts
every original back.

Spans stay in memory (flat integer arrays) until the run ends; write()
stores them as a .npz sidecar.  layer_metrics() turns them into the
per-layer figures listed in LAYERS, plus trace.spans.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time

MODULES = ("graph", "engine", "refwalk", "bounds", "flows", "generators",
           "montecarlo", "corpus", "cli")

METHODS = {
    "graph": {"WeightedGraph": ("__init__", "distance", "component_of",
                                "replace", "contract_targets",
                                "restrict_accessible")},
    "flows": {"FlowDecomposition": ("laws", "reconstruction_error")},
}


def _pmf_steps(stats) -> int:
    """Steps iterated: the horizon, or the last step with mass if it stopped early."""
    if stats.survival_mass > 0.0:
        return stats.horizon
    nonzero = stats.pmf.nonzero()[0]
    return int(nonzero[-1]) if len(nonzero) else 0


def _walk_steps(sample) -> int:
    """Walker steps taken: hitting times summed, or replications x last record."""
    times = getattr(sample, "times", None)
    if times is not None:
        return int(times.sum())
    return int(sample.distances.shape[0]) * int(sample.config.record_steps[-1])


COUNTERS = {
    "engine.hitting_time_pmf": _pmf_steps,
    "montecarlo.simulate_hitting": _walk_steps,
    "montecarlo.escape_ratios": _walk_steps,
    "flows.decompose": lambda dec: len(dec.components),
}

# metric -> (how, span names); how is "incl" (outermost spans of the set),
# "self" (span minus its child spans), "calls" or "count" (COUNTERS total).
_FLOW_LAWS = ("flows.node_law_residual", "flows.cycle_reversibility_gap",
              "flows.flow_parameters", "flows.FlowDecomposition.laws",
              "flows.FlowDecomposition.reconstruction_error",
              "flows.array_representation", "flows.gamma_chain_bound")
_SOLVES = ("engine.expected_hitting_time", "engine.green_row")
_SAMPLERS = ("montecarlo.simulate_hitting", "montecarlo.escape_ratios")
LAYERS = {
    "graph.construct_s": ("incl", ("graph.WeightedGraph.__init__",)),
    "graph.construct_calls": ("calls", ("graph.WeightedGraph.__init__",)),
    "graph.normalize_s": ("incl", ("graph.WeightedGraph.contract_targets",
                                   "graph.WeightedGraph.restrict_accessible")),
    "graph.bfs_s": ("incl", ("graph.WeightedGraph.distance",
                             "graph.WeightedGraph.component_of")),
    "graph.io_s": ("incl", ("graph.parse", "graph.serialize",
                            "graph.read_graph_file", "graph.write_graph_file",
                            "graph.write_text_atomic")),
    "generators.build_s": ("incl", "generators."),
    "engine.pmf_s": ("self", ("engine.hitting_time_pmf",)),
    "engine.pmf_steps": ("count", ("engine.hitting_time_pmf",)),
    "engine.solve_s": ("self", _SOLVES),
    "engine.solve_calls": ("calls", _SOLVES),
    "engine.green_kernel_s": ("incl", ("engine.green_kernel",)),
    "engine.stats_s": ("self", ("engine.survival_transform",
                                "engine.origin_visits", "engine.gamma",
                                "engine.effective_resistance")),
    "bounds.check_self_s": ("self", ("bounds.check_theorem1",)),
    "bounds.check_calls": ("calls", ("bounds.check_theorem1",)),
    "refwalk.s": ("incl", "refwalk."),
    "flows.build_s": ("self", ("flows.build_flow",)),
    "flows.decompose_s": ("self", ("flows.decompose",)),
    "flows.laws_s": ("self", _FLOW_LAWS),
    "flows.components": ("count", ("flows.decompose",)),
    "montecarlo.sample_s": ("self", _SAMPLERS),
    "montecarlo.walk_steps": ("count", _SAMPLERS),
    "montecarlo.csv_s": ("incl", ("montecarlo.to_csv_text",)),
    "corpus.self_s": ("self", "corpus."),
    "cli.self_s": ("self", "cli."),
}
RATES = {
    "engine.pmf_steps_per_s": ("engine.pmf_steps", "engine.pmf_s"),
    "montecarlo.steps_per_s": ("montecarlo.walk_steps", "montecarlo.sample_s"),
}


PACKAGE = "hitbounds"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_of = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.count = array.array("q")
        self.phase = array.array("q")
        self.current_phase = 0
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id.setdefault(name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns
        name_of, parent, start = self.name_of, self.parent, self.start
        end, count, phase = self.end, self.count, self.phase
        patches = self._patches

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not patches:  # a reference kept past uninstall() records nothing
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            count.append(0)
            phase.append(self.current_phase)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                count[idx] = counter(result)
            return result

        return span

    def _targets(self):
        """(span name, original, (class, method) or None) for each target."""
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield f"{short}.{attr}", obj, None
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    yield f"{short}.{cls_name}.{meth}", cls.__dict__[meth], (cls, meth)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for name, fn, owner in list(self._targets()):
            wrapper = self._wrap(name, fn)
            if owner is not None:
                cls, meth = owner
                setattr(cls, meth, wrapper)
                self._patches.append((cls, meth, fn))
                continue
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        """The span columns as int64 arrays."""
        import numpy as np

        cols = {"name_id": self.name_of, "parent": self.parent,
                "start_ns": self.start, "end_ns": self.end,
                "count": self.count, "phase": self.phase}
        return {k: np.frombuffer(v, dtype=np.int64) if len(v) else
                np.zeros(0, dtype=np.int64) for k, v in cols.items()}

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures: set-up spans (phase 0) once, plus traced-round
        spans (phase > 0) divided by rounds, so a figure reads as one set-up
        plus one average round.  Phase -1 spans are ignored."""
        import numpy as np

        a = self.arrays()
        name_id, parent, phase = a["name_id"], a["parent"], a["phase"]
        dur = (a["end_ns"] - a["start_ns"]) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        selfs = dur - child
        weight = np.where(phase == 0, 1.0, 1.0 / max(rounds, 1))
        weight[phase < 0] = 0.0
        safe_parent = np.where(has_parent, parent, 0)
        totals = {}
        for metric, (how, names) in LAYERS.items():
            if isinstance(names, str):
                ids = [i for i, n in enumerate(self.names) if n.startswith(names)]
            else:
                ids = [i for i, n in enumerate(self.names) if n in names]
            member = np.isin(name_id, ids)
            if how == "incl":
                # spans with an ancestor in the set are already covered by it
                covered = np.zeros(len(dur), dtype=bool)
                while True:
                    nxt = has_parent & (member[safe_parent] | covered[safe_parent])
                    if np.array_equal(nxt, covered):
                        break
                    covered = nxt
                values = np.where(covered, 0.0, dur)
            elif how == "self":
                values = selfs
            elif how == "calls":
                values = np.ones(len(dur))
            else:
                values = a["count"].astype(float)
            totals[metric] = float((values * weight)[member].sum())
        for metric, (num, den) in RATES.items():
            totals[metric] = totals[num] / totals[den] if totals[den] > 0 else 0.0
        totals["trace.spans"] = float(weight.sum())
        return totals

    def write(self, path) -> None:
        """Store every span as arrays in a compressed .npz file (nanosecond times)."""
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
