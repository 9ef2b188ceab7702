"""Monte Carlo verification: hitting-time samples and rate-of-escape ratios.

Reproducibility contract: replication r consumes one uniform per step of
the counter-based Philox stream keyed (seed, r) while its walk is alive.
Its uniforms are reached by key and counter, with no generator object per
replication, so results are byte-identical across runs, chunk sizes and
platforms, and any replication can be regenerated in isolation.

Every sampler steps the live walkers of a chunk through one loop, _walk.
A graph step picks each neighbour by binary search over the cumulative
probabilities; the biased reference walk counts its right steps instead.
simulate_hitting drops walkers as they land on the target set, on the steps
where some do, and reports hitting times with a censoring flag at
max_steps.  escape_ratios records distances from the origin at chosen
times without absorption, as the speed ratio |X_k| / k and the single-log
ratio |X_k| / sqrt(k log k): the hop distance on a weighted graph,
|position| for the biased reference walk.
Graphs whose metadata declares a truncation safe_horizon reject recording
times beyond it.

CSV output has columns replication, statistic, k, value, censored with
full-precision (round-trip) floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphError, WeightedGraph, _hops
from .refwalk import BiasedWalk, ParameterError, _as_int

_BUFFER_COLS = 256
_CHUNK_REPS = 25_000
_PAD_CELL_CAP = 50_000_000
ESTIMATORS = ("hitting", "speed", "single_log")


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    estimator picks the headline statistic ("hitting", "speed" or
    "single_log"); record_steps only matters for escape runs.
    """

    seed: int
    replications: int
    max_steps: int
    record_steps: tuple = ()
    estimator: str = "hitting"

    def __post_init__(self):
        # Philox keys at or above 2**63 pass through float inside NumPy, so
        # distinct seeds there share streams (and 2**64 and up overflow)
        if _as_int(self.seed, "seed", 0) >= 2**63:
            raise ParameterError(f"seed must be below 2**63, got {self.seed}")
        _as_int(self.replications, "replications", 1)
        _as_int(self.max_steps, "max_steps", 1)
        if self.estimator not in ESTIMATORS:
            raise ParameterError(
                f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        # the single-log ratio divides by sqrt(k log k), which is 0 at k = 1
        steps = tuple(_as_int(k, "record step", 2) for k in self.record_steps)
        if list(steps) != sorted(set(steps)):
            raise ParameterError("record_steps must be strictly increasing")
        if steps and steps[-1] > self.max_steps:
            raise ParameterError("record step beyond max_steps")
        object.__setattr__(self, "record_steps", steps)


@dataclass(eq=False)
class HittingSample:
    """times[r] = hitting time of replication r (max_steps when censored)."""

    config: SimConfig
    times: np.ndarray = field(repr=False)
    censored: np.ndarray = field(repr=False)

    @property
    def censored_count(self) -> int:
        return int(self.censored.sum())

    def mean(self) -> float:
        """Mean of the recorded times; an underestimate if any are censored."""
        return float(self.times.mean())

    def cdf_at(self, x: float) -> float:
        """Empirical P(T <= x) counting censored replications as above x."""
        return float((self.times[~self.censored] <= x).sum() / len(self.times))

    def to_rows(self):
        for r, (t, cens) in enumerate(zip(self.times.tolist(), self.censored.tolist())):
            yield (r, "hitting_time", t, float(t), cens)

    def _csv_lines(self) -> list:
        return [f"{r},hitting_time,{t},{float(t)!r},{'true' if cens else 'false'}"
                for r, (t, cens) in enumerate(zip(self.times.tolist(),
                                                  self.censored.tolist()))]


@dataclass(eq=False)
class EscapeSample:
    """distances[r, i] = graph distance from the origin at record_steps[i]."""

    config: SimConfig
    distances: np.ndarray = field(repr=False)

    def speed_ratios(self) -> np.ndarray:
        ks = np.asarray(self.config.record_steps, dtype=float)
        return self.distances / ks

    def single_log_ratios(self) -> np.ndarray:
        ks = np.asarray(self.config.record_steps, dtype=float)
        return self.distances / np.sqrt(ks * np.log(ks))

    def running_max(self, kind: str = "single_log") -> np.ndarray:
        """Per-replication running maximum of a ratio along the schedule."""
        if kind == "speed":
            ratios = self.speed_ratios()
        elif kind == "single_log":
            ratios = self.single_log_ratios()
        else:
            raise ParameterError(f"unknown ratio kind {kind!r}")
        return np.maximum.accumulate(ratios, axis=1)

    def summary(self) -> dict:
        """Mean and quantiles across replications of the final running max."""
        out = {}
        for kind in ("speed", "single_log"):
            final = self.running_max(kind)[:, -1]
            out[kind] = {
                "mean": float(final.mean()),
                "q10": float(np.quantile(final, 0.1)),
                "median": float(np.quantile(final, 0.5)),
                "q90": float(np.quantile(final, 0.9)),
            }
        return out

    def to_rows(self):
        rows = zip(self.distances.tolist(), self.speed_ratios().tolist(),
                   self.single_log_ratios().tolist())
        for r, columns in enumerate(rows):
            for k, d, speed, single in zip(self.config.record_steps, *columns):
                yield (r, "distance", k, float(d), False)
                yield (r, "speed_ratio", k, speed, False)
                yield (r, "single_log_ratio", k, single, False)

    def _csv_lines(self) -> list:
        """The rows of to_rows, the three of each (r, k) in one string."""
        rows = zip(self.distances.tolist(), self.speed_ratios().tolist(),
                   self.single_log_ratios().tolist())
        return [f"{r},distance,{k},{float(d)!r},false\n"
                f"{r},speed_ratio,{k},{speed!r},false\n"
                f"{r},single_log_ratio,{k},{single!r},false"
                for r, columns in enumerate(rows)
                for k, d, speed, single in zip(self.config.record_steps, *columns)]


def to_csv_text(sample) -> str:
    """Deterministic CSV (round-trip float formatting) of sample.to_rows()."""
    return "\n".join(["replication,statistic,k,value,censored",
                      *sample._csv_lines()]) + "\n"


class _GraphSampler:
    """Per-vertex search tables of the transition kernel for vector stepping.

    Row i of the flat tables nbr and cum starts at i * size: the neighbours
    of vertex i in canonical order, and the cumulative probabilities of all
    but the last, which is exactly 1.0 and never counts against u < 1.  cum
    is padded with 2.0 to size, the smallest power of two that leaves one
    pad entry, so step counts the entries <= u (ties go right) by a
    branchless binary search, which picks the neighbour.  Targets may have
    zero weight: their row is a self-loop that an absorbed walk never steps.
    """

    def __init__(self, graph: WeightedGraph):
        weights = graph.vertex_weights
        dead = [graph.labels[i] for i in range(graph.n)
                if weights[i] == 0.0 and i not in graph.target_indices]
        if dead:
            raise GraphError(f"zero vertex weight at {dead}; walk undefined")
        width = max(map(len, graph.adjacency), default=0) or 1
        self.size = 1 << (width - 1).bit_length()
        if graph.n * self.size > _PAD_CELL_CAP:
            raise GraphError("graph too dense for the padded sampler")
        nbr = np.zeros((graph.n, self.size), dtype=np.int64)
        cum = np.full((graph.n, self.size), 2.0)
        for i, nbrs in enumerate(graph.adjacency):
            if weights[i] == 0.0:
                nbr[i, 0] = i
                continue
            cols = sorted(nbrs)
            probs = np.array([nbrs[j] for j in cols[:-1]]) / weights[i]
            nbr[i, : len(cols)] = cols
            cum[i, : len(cols) - 1] = np.cumsum(probs)
        self.nbr, self.cum = nbr.ravel(), cum.ravel()
        # halving h compares u with cum[at + h - 1]: a view offset by h - 1
        halves = [self.size >> s for s in range(1, self.size.bit_length())]
        self.levels = [(h, self.cum[h - 1:]) for h in halves]

    def step(self, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
        at = pos * self.size
        for h, cum in self.levels:
            at += h * (u >= cum.take(at))
        return self.nbr.take(at)


def _walk(config: SimConfig, start: int, step, steps, stop=None):
    """Step every replication from start for steps[-1] steps.

    step(pos, u) maps positions and one uniform each to new positions; the
    +-1 walk on Z passes its right-step probability p instead, and its
    position at column c of a block is the block's start plus
    2 * #(u < p in columns 0..c) - (c + 1).  Each block is compared with p in
    place, with no temporary, and its flags are summed only at record steps
    and block ends.  Replication r's step k uses uniform k - 1 of its stream:
    refill j sets the one generator's key to (seed, r) and counter to 64j,
    then draws uniforms 256j..256j+255 into row i of the buffer, i the
    walker's rank among those live, so a step gathers one column.
    Without stop, yields (k, reps, pos) for each k in steps: the replication
    ids and their positions.  With the boolean mask stop, yields (k, reps,
    pos) of the walkers that land on it at step k, on the steps where some
    do, and then drops them.
    """
    bits = np.random.Philox(key=(config.seed, 0))
    draw = np.random.Generator(bits).random
    state = bits.state  # buffer_pos 4: each draw starts at the counter set
    key, counter = state["state"]["key"], state["state"]["counter"]
    for first in range(0, config.replications, _CHUNK_REPS):
        reps = np.arange(first, min(first + _CHUNK_REPS, config.replications))
        pos = np.full(reps.size, start, dtype=np.int64)
        buf = np.empty((reps.size, _BUFFER_COLS))
        for k in range(1, steps[-1] + 1):
            col = (k - 1) % _BUFFER_COLS
            if col == 0:
                counter[0] = 64 * ((k - 1) // _BUFFER_COLS)  # 64 blocks of 4 words
                for i, r in enumerate(reps.tolist()):
                    key[1] = r
                    bits.state = state
                    draw(out=buf[i])
                rows, base = np.arange(reps.size), pos
                if not callable(step):  # 1.0 marks a right step
                    np.less(buf, step, out=buf)
            if callable(step):
                pos = step(pos, buf[:, col][rows])
            elif k in steps or col == _BUFFER_COLS - 1:
                right = buf[:, : col + 1].sum(axis=1).astype(np.int64)
                pos = base + 2 * right - (col + 1)
            if stop is None:
                if k in steps:
                    yield k, reps, pos
                continue
            hit = stop[pos]
            if np.count_nonzero(hit):
                yield k, reps[hit], pos[hit]
                keep = ~hit
                reps, pos, rows = reps[keep], pos[keep], rows[keep]
                if reps.size == 0:
                    break


def simulate_hitting(graph: WeightedGraph, config: SimConfig) -> HittingSample:
    """Sample the hitting time of the target set, one stream per replication."""
    sampler = _GraphSampler(graph)
    target_mask = np.zeros(graph.n, dtype=bool)
    target_mask[list(graph.target_indices)] = True
    times = np.full(config.replications, config.max_steps, dtype=np.int64)
    censored = np.ones(config.replications, dtype=bool)
    for k, arrived, _ in _walk(config, graph.origin_index, sampler.step,
                               (config.max_steps,), stop=target_mask):
        times[arrived] = k
        censored[arrived] = False
    return HittingSample(config=config, times=times, censored=censored)


def escape_ratios(target, config: SimConfig) -> EscapeSample:
    """Distances from the origin at the recorded times, walk not absorbed.

    target is a WeightedGraph (hop distance from the origin) or a
    BiasedWalk (distance |position| on the integers, started at 0).
    """
    if not config.record_steps:
        raise ParameterError("escape_ratios needs record_steps")
    if isinstance(target, BiasedWalk):
        start, step, distance = 0, target.g / (1.0 + target.g), np.abs
    elif isinstance(target, WeightedGraph):
        horizon = target.metadata.get("safe_horizon")
        if horizon is not None and config.record_steps[-1] > horizon:
            raise ParameterError(f"record step {config.record_steps[-1]} beyond "
                                 f"the truncation safety horizon {horizon}")
        start, step = target.origin_index, _GraphSampler(target).step
        distance = _hop_distances(target).take
    else:
        raise ParameterError(f"unsupported walk object {target!r}")
    out = np.zeros((config.replications, len(config.record_steps)), dtype=np.int64)
    for k, reps, pos in _walk(config, start, step, config.record_steps):
        out[reps, config.record_steps.index(k)] = distance(pos)
    return EscapeSample(config=config, distances=out)


def _hop_distances(graph: WeightedGraph) -> np.ndarray:
    dist = np.array(_hops(graph.adjacency, (graph.origin_index,)), dtype=np.int64)
    if (dist < 0).any():
        raise GraphError("escape distances need a connected graph")
    return dist


@dataclass(frozen=True)
class TailEstimate:
    """Binomial estimate of P(T <= threshold) with an exact confidence interval."""

    threshold: float
    successes: int
    replications: int
    estimate: float
    lower: float
    upper: float
    level: float


def estimate_tail(graph: WeightedGraph, a: float, n: int, config: SimConfig,
                  level: float = 0.95) -> TailEstimate:
    """Estimate P(T <= a n + 1) by simulation, Clopper-Pearson interval.

    max_steps must reach the threshold floor(a n + 1) so censoring cannot
    bias the count.
    """
    if not 1.0 <= a < math.inf:
        raise ParameterError(f"a must be finite and at least 1, got {a!r}")
    threshold = math.floor(a * _as_int(n, "n", 1) + 1.0)
    if config.max_steps < threshold:
        raise ParameterError("max_steps must cover the tail threshold")
    if not 0.0 < level < 1.0:
        raise ParameterError(f"confidence level must lie in (0, 1), got {level!r}")
    sample = simulate_hitting(graph, config)
    hits = int(((sample.times <= threshold) & ~sample.censored).sum())
    n = config.replications
    from scipy.stats import beta as beta_dist
    alpha = 1.0 - level
    lower = 0.0 if hits == 0 else float(beta_dist.ppf(alpha / 2, hits, n - hits + 1))
    upper = 1.0 if hits == n else float(beta_dist.ppf(1 - alpha / 2, hits + 1, n - hits))
    return TailEstimate(threshold=float(threshold), successes=hits,
                        replications=n, estimate=hits / n,
                        lower=lower, upper=upper, level=level)
