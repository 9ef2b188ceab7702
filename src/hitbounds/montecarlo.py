"""Monte Carlo verification: hitting-time samples and rate-of-escape ratios.

Reproducibility contract: replication r draws from its own counter-based
stream keyed (seed, r) and consumes exactly one uniform per step while its
walk is alive.  Results are therefore byte-identical across runs, chunk
sizes and platforms, and independent replications can be regenerated in
isolation.

Every sampler steps its walkers through one loop, _walk, which keeps only
the live walkers of a chunk.  simulate_hitting drops walkers as they land
on the target set and reports hitting times with a censoring flag at
max_steps.  escape_ratios runs the walk without absorption and records
distances from the origin at chosen times, turning them into the speed
ratio |X_k| / k and the single-log ratio |X_k| / sqrt(k log k).  On a
weighted graph the distance is the hop distance; on the biased reference
walk it is |position| on the integers.  Graphs whose metadata declares a
truncation safe_horizon reject recording times beyond it.

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
        for r in range(len(self.times)):
            yield (r, "hitting_time", int(self.times[r]),
                   float(self.times[r]), bool(self.censored[r]))


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
        speed = self.speed_ratios()
        single = self.single_log_ratios()
        for r in range(self.distances.shape[0]):
            for i, k in enumerate(self.config.record_steps):
                yield (r, "distance", k, float(self.distances[r, i]), False)
                yield (r, "speed_ratio", k, float(speed[r, i]), False)
                yield (r, "single_log_ratio", k, float(single[r, i]), False)


def to_csv_text(sample) -> str:
    """Deterministic CSV (round-trip float formatting) of a sample."""
    lines = ["replication,statistic,k,value,censored"]
    for r, stat, k, value, censored in sample.to_rows():
        lines.append(f"{r},{stat},{k},{value!r},{str(censored).lower()}")
    return "\n".join(lines) + "\n"


class _GraphSampler:
    """Padded per-vertex alias of the transition kernel for vector stepping.

    nbr_pad[i, c] / cum_pad[i, c]: c-th neighbour of vertex i and the
    cumulative probability of columns <= c; padding columns repeat the last
    neighbour with cumulative 2.0 so they are never selected.  Targets may
    have zero weight: their row is a self-loop that an absorbed walk never
    steps.
    """

    def __init__(self, graph: WeightedGraph):
        weights = graph.vertex_weights
        dead = [graph.labels[i] for i in range(graph.n)
                if weights[i] == 0.0 and i not in graph.target_indices]
        if dead:
            raise GraphError(f"zero vertex weight at {dead}; walk undefined")
        degrees = [len(a) for a in graph.adjacency]
        max_deg = max(degrees) if degrees else 0
        if graph.n * max(max_deg, 1) > _PAD_CELL_CAP:
            raise GraphError("graph too dense for the padded sampler")
        self.nbr_pad = np.zeros((graph.n, max(max_deg, 1)), dtype=np.int64)
        self.cum_pad = np.full((graph.n, max(max_deg, 1)), 2.0)
        for i, nbrs in enumerate(graph.adjacency):
            if weights[i] == 0.0:
                self.nbr_pad[i, :] = i
                continue
            cols = sorted(nbrs)
            probs = np.array([nbrs[j] for j in cols]) / weights[i]
            self.nbr_pad[i, : len(cols)] = cols
            self.cum_pad[i, : len(cols)] = np.cumsum(probs)
            self.cum_pad[i, len(cols) - 1] = 1.0  # exact top despite roundoff
            if len(cols) < self.nbr_pad.shape[1]:
                self.nbr_pad[i, len(cols):] = cols[-1]

    def step(self, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
        cum = self.cum_pad[pos]
        choice = (u[:, None] >= cum).sum(axis=1)
        return self.nbr_pad[pos, choice]


def _stream(seed: int, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed, rep)))


def _walk(config: SimConfig, start: int, step, last: int, stop=None):
    """Step every replication from start, yielding (k, reps, pos) after step k.

    reps are the replication ids still walking and pos their positions;
    step(pos, u) maps positions and one uniform each to new positions.
    Replication r's step k uses uniform k - 1 of its stream, drawn
    _BUFFER_COLS at a time.  Walkers that land on the boolean mask stop are
    yielded at that step and then dropped, so each step costs O(live).
    """
    for first in range(0, config.replications, _CHUNK_REPS):
        reps = np.arange(first, min(first + _CHUNK_REPS, config.replications))
        gens = [_stream(config.seed, r) for r in reps]
        pos = np.full(reps.size, start, dtype=np.int64)
        buf = np.empty((reps.size, _BUFFER_COLS))
        for k in range(1, last + 1):
            rows = reps - first
            col = (k - 1) % _BUFFER_COLS
            if col == 0:
                for r in rows:
                    gens[r].random(out=buf[r])
            pos = step(pos, buf[:, col][rows])
            yield k, reps, pos
            if stop is not None:
                keep = ~stop[pos]
                reps, pos = reps[keep], pos[keep]
                if reps.size == 0:
                    break


def simulate_hitting(graph: WeightedGraph, config: SimConfig) -> HittingSample:
    """Sample the hitting time of the target set, one stream per replication."""
    sampler = _GraphSampler(graph)
    target_mask = np.zeros(graph.n, dtype=bool)
    target_mask[list(graph.target_indices)] = True
    times = np.full(config.replications, config.max_steps, dtype=np.int64)
    censored = np.ones(config.replications, dtype=bool)
    for k, reps, pos in _walk(config, graph.origin_index, sampler.step,
                              config.max_steps, stop=target_mask):
        arrived = reps[target_mask[pos]]
        times[arrived] = k
        censored[arrived] = False
    return HittingSample(config=config, times=times, censored=censored)


def _check_safe_horizon(graph: WeightedGraph, config: SimConfig):
    horizon = graph.metadata.get("safe_horizon")
    if horizon is not None and config.record_steps[-1] > horizon:
        raise ParameterError(
            f"record step {config.record_steps[-1]} beyond the truncation "
            f"safety horizon {horizon}")


def escape_ratios(target, config: SimConfig) -> EscapeSample:
    """Distances from the origin at the recorded times, walk not absorbed.

    target is a WeightedGraph (hop distance from the origin) or a
    BiasedWalk (distance |position| on the integers, started at 0).
    """
    if not config.record_steps:
        raise ParameterError("escape_ratios needs record_steps")
    if isinstance(target, BiasedWalk):
        p_right = target.g / (1.0 + target.g)
        start, distance = 0, np.abs

        def step(pos, u):
            return pos + 2 * (u < p_right) - 1
    elif isinstance(target, WeightedGraph):
        _check_safe_horizon(target, config)
        start, step = target.origin_index, _GraphSampler(target).step
        distance = _hop_distances(target).take
    else:
        raise ParameterError(f"unsupported walk object {target!r}")
    record = {k: i for i, k in enumerate(config.record_steps)}
    out = np.zeros((config.replications, len(record)), dtype=np.int64)
    for k, reps, pos in _walk(config, start, step, config.record_steps[-1]):
        if k in record:
            out[reps, record[k]] = distance(pos)
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
