"""Sharp lower bounds on hitting times and their verification on graphs.

The walk must travel n+1 = dist(o, z) edges to reach the target set, and the
weight landscape limits how fast it can drift there.  Three drift parameters
calibrate the comparison with the biased reference walk:

  * solve_drift(n, ratio): the g > 1 solving (g-1)^2 g^(n-2) = 2 * ratio
    with ratio = w_z / w_o.  The walk cannot beat the (1:g)-biased walk over
    distance n, which yields
      - mean_lower_bound:      E[T] >= (g+1)/(g-1) * n + 1,
      - tail_upper_bound:      P[T <= a n + 1] <= exp(-I_g(a) n),
      - transform_upper_bound: E[beta^T] <= beta * phi(g, beta)^n.
  * drift_upper_estimate(n, ratio): the explicit near-inverse
    (5 alpha / (log alpha)^2)^(1/(n-2)), alpha = max(n^2 ratio, e), which
    upper-bounds solve_drift once alpha is moderately large and is tight up
    to a bounded factor.
  * drift_from_resistance(graph): (w_z * r(o, z))^(1/n) using the effective
    resistance; the same three bounds hold for it.

check_theorem1 evaluates all bounds on a graph against exact quantities from
the linear-algebra engine and returns a BoundReport.  Graphs are first
normalized (targets contracted to one vertex, inaccessible pockets dropped),
which never loosens the bounds.  Bounds that degenerate (g extremely close
to 1, unreachable target, S_beta or a tail probability underflowed to 0, a
bound below the normal float range) are vacuous passes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from . import engine
from .generators import _check_poly
from .graph import WeightedGraph
from .refwalk import ParameterError, _as_int, advance_pgf, rate_function

_A_GRID_COUNT = 12
_SLACK = 1e-9  # relative room granted to roundoff when a bound meets an exact value
_VACUOUS_EXCESS = 1e-12  # g - 1 below this: treat bounds as vacuous
_TAIL_HORIZON_CAP = 2_000_000  # tail checks beyond this many steps are skipped


def _check_ratio(ratio):
    if not (isinstance(ratio, (int, float)) and math.isfinite(ratio) and ratio > 0):
        raise ParameterError(f"weight ratio must be positive and finite, got {ratio!r}")
    return float(ratio)


def _drift_log_excess(n: int, ratio: float) -> float:
    """log(g) for the root of (g-1)^2 g^(n-2) = 2 ratio, by bisection.

    Working in u = log g keeps full relative precision on g - 1 even when
    the root is extremely close to 1 (g - 1 = expm1(u)).  From u = 700 on,
    where expm1 nears overflow, log(expm1(u)) is u to double precision.
    """
    log_rhs = math.log(2.0) + math.log(ratio)

    def value(u):
        log_excess = math.log(math.expm1(u)) if u < 700.0 else u
        return 2.0 * log_excess + (n - 2) * u - log_rhs

    lo = 1e-300
    if value(lo) >= 0.0:
        return lo  # root below representable excess; vacuous regime
    hi = 1.0
    for _ in range(20):
        if value(hi) >= 0.0:
            break
        hi *= 32.0
    else:
        raise ParameterError(f"no bracket for drift equation (ratio={ratio})")
    for _ in range(200):
        if hi - lo <= 1e-13 * lo:
            break
        mid = 0.5 * (lo + hi)
        if value(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_drift(n: int, ratio: float) -> float:
    """The g > 1 with (g-1)^2 g^(n-2) = 2 * ratio (monotone, unique).

    n >= 1 is the number of strictly-before-target levels, ratio = w_z / w_o.
    """
    n = _as_int(n, "n", 1)
    ratio = _check_ratio(ratio)
    return math.exp(_drift_log_excess(n, ratio))


def drift_upper_estimate(n: int, ratio: float) -> float:
    """Explicit estimate (5 alpha / (log alpha)^2)^(1/(n-2)), alpha = max(n^2 ratio, e).

    Upper-bounds solve_drift(n, ratio) whenever alpha is large enough that
    5 alpha / (log alpha)^2 >= alpha^(n/(n-2)) fails to reverse; requires n >= 3.
    """
    n = _as_int(n, "n", 3)
    ratio = _check_ratio(ratio)
    alpha = n * n * ratio  # beyond the float range, sum the logs instead
    log_alpha = max(math.log(alpha) if alpha < math.inf
                    else 2.0 * math.log(n) + math.log(ratio), 1.0)
    return math.exp((math.log(5.0) + log_alpha - 2.0 * math.log(log_alpha)) / (n - 2))


def drift_from_resistance(graph: WeightedGraph) -> float:
    """(w_z * r(o, z))^(1/n) with n = dist(o, z) - 1 >= 1.

    Computed on the graph as given; contract targets first for the tightest
    value.  The product w_z * r(o, z) is at least 1 after contraction.
    """
    d = graph.distance(graph.origin)
    if not math.isfinite(d):
        return math.inf
    if d < 2:
        raise ParameterError("needs dist(origin, targets) >= 2")
    r = engine.effective_resistance(graph)
    if not math.isfinite(r):
        return math.inf
    product = graph.set_weight() * r
    if product < math.inf:
        return product ** (1.0 / (d - 1))
    return math.exp((math.log(graph.set_weight()) + math.log(r)) / (d - 1))


def mean_lower_bound(n: int, g: float) -> float:
    """(g+1)/(g-1) * n + 1: lower bound on the expected hitting time."""
    n = _as_int(n, "n", 0)
    if n == 0:
        return 1.0
    if g <= 1.0:
        return math.inf
    return (g + 1.0) / (g - 1.0) * n + 1.0


def tail_upper_bound(n: int, g: float, a: float) -> float:
    """exp(-I_g(a) n): upper bound on P[T <= a n + 1]."""
    n = _as_int(n, "n", 0)
    return math.exp(-rate_function(g, a) * n)


def transform_upper_bound(n: int, g: float, beta: float) -> float:
    """beta * phi(g, beta)^n: upper bound on E[beta^T]."""
    n = _as_int(n, "n", 0)
    return beta * advance_pgf(g, beta) ** n


def poly_mean_asymptote(n: float, p: float = 0.0) -> float:
    """2 n^2 / ((p+2) log n): the asymptote for polynomially-growing weight."""
    _check_poly(n, p)
    return 2.0 * n * n / ((p + 2.0) * math.log(n))


def default_a_grid(g: float):
    """The _A_GRID_COUNT = 12 points m^(i/13) inside (1, m), m = (g+1)/(g-1)."""
    if g - 1.0 <= _VACUOUS_EXCESS:
        return ()
    m = (g + 1.0) / (g - 1.0)
    return tuple(m ** (i / (_A_GRID_COUNT + 1)) for i in range(1, _A_GRID_COUNT + 1))


def default_beta_grid():
    """0.05, 0.10, ..., 0.95."""
    return tuple(round(0.05 * i, 2) for i in range(1, 20))


# -- verification report ---------------------------------------------------


@dataclass(slots=True)
class BoundCheck:
    """One bound-versus-exact comparison.

    kind is "mean", "tail" or "transform"; source names the drift parameter
    ("weight_ratio" or "resistance", or "trivial" for E[T] >= 1 alone);
    param is the grid value (a or beta).  margin is the relative room to
    spare: positive means strictly inside the bound.  passed allows a
    relative _SLACK of roundoff, so a check within 1e-9 of its bound passes
    with a margin just below 0; no absolute floor applies.  Vacuous checks
    (the trivial check, degenerate drift, underflowed S_beta or tail
    probability, an upper bound below sys.float_info.min) pass with margin inf.
    """

    kind: str
    source: str
    g: float
    param: float | None
    bound: float
    observed: float
    margin: float
    passed: bool
    vacuous: bool = False

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass
class BoundReport:
    """Outcome of checking every bound on one graph."""

    n: int
    ratio: float
    resistance: float
    expected: float
    drift: dict
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def min_margin(self) -> float:
        live = [c.margin for c in self.checks if not c.vacuous]
        return min(live) if live else math.inf

    def to_dict(self):
        return {
            "n": self.n, "ratio": self.ratio, "resistance": self.resistance,
            "expected": self.expected, "drift": dict(self.drift),
            "all_pass": self.all_pass, "min_margin": self.min_margin(),
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }


def _check(report, kind, source, g, param, bound, observed, vacuous=False):
    """Add one check: observed >= bound for a mean, observed <= bound otherwise.

    Pass rule: a check passes within a relative _SLACK of roundoff of its
    bound.  Vacuity rule: a vacuous check passes, and an upper bound below
    the smallest normal float has lost its relative precision, so a live
    check against it becomes vacuous, with a note.  margin is the relative
    room to spare; a vacuous check has none to measure, so inf.
    """
    if kind != "mean" and bound < sys.float_info.min and not vacuous:
        vacuous = True
        name = "a" if kind == "tail" else "beta"
        report.notes.append(f"{source}: {kind} bound at {name}={param:.6g} is "
                            f"{bound:.3g}, below the normal range, check vacuous")
    if vacuous:
        margin, inside = math.inf, True
    elif kind == "mean":
        margin, inside = observed / bound - 1.0, observed >= bound * (1.0 - _SLACK)
    else:
        margin, inside = (bound - observed) / bound, observed <= bound * (1.0 + _SLACK)
    report.checks.append(BoundCheck(
        kind=kind, source=source, g=g, param=param, bound=bound,
        observed=observed, margin=margin, passed=inside,
        vacuous=vacuous))


def check_theorem1(graph: WeightedGraph, a_grid=None, beta_grid=None) -> BoundReport:
    """Evaluate every drift bound on a graph against exact statistics.

    The graph is normalized first (contract targets, drop inaccessible
    pockets); this can only tighten the bounds and never changes the hitting
    law.  A check passes within a relative _SLACK = 1e-9 of its bound, room
    for roundoff in the exact values.  a_grid and beta_grid default to
    default_a_grid(g) per drift and default_beta_grid().  Tail thresholds
    beyond _TAIL_HORIZON_CAP steps are skipped (noted in the report).
    """
    work = graph.normalized()
    d = work.distance(work.origin)
    expected = engine.expected_hitting_time(work)
    report = BoundReport(n=0, ratio=math.nan, resistance=math.inf,
                         expected=math.inf, drift={})
    reachable = math.isfinite(d) and math.isfinite(expected)
    if reachable:
        betas = tuple(beta_grid) if beta_grid is not None else default_beta_grid()
        # every parameter the checks read, resistance's too, in one solve
        params = engine.walk_parameters(work, (1.0, *betas) if d >= 2 else (1.0,))
        report.ratio = ratio = work.set_weight() / work.vertex_weight(work.origin)
        report.resistance = engine.effective_resistance(work)
        report.expected = expected
    if not reachable or d < 2:
        # E[T] >= 1 always holds: expected_hitting_time raises below dist(o, z)
        report.notes.append("origin adjacent to target: only E[T] >= 1 applies"
                            if reachable else
                            "target unreachable: every bound holds vacuously")
        _check(report, "mean", "trivial", math.inf, None, 1.0, report.expected, True)
        return report
    report.n = n = int(d) - 1

    u_a = _drift_log_excess(n, ratio)
    g_a = math.exp(u_a)
    excess_a = math.expm1(u_a)
    g_b = drift_from_resistance(work)
    excess_b = g_b - 1.0
    report.drift = {"weight_ratio": g_a, "resistance": g_b}
    if n >= 3:
        report.drift["rough"] = drift_upper_estimate(n, ratio)
    sources = [("weight_ratio", g_a, excess_a), ("resistance", g_b, excess_b)]

    grids = {}  # the tail grid of each source: its a values in [1, mean time]
    for source, g, excess in sources:
        if excess <= _VACUOUS_EXCESS:
            report.notes.append(f"{source}: drift degenerate, mean bound vacuous")
            _check(report, "mean", source, g, None, math.inf, expected, True)
            grids[source] = ()
            continue
        mean_time = 1.0 + 2.0 / excess  # (g+1)/(g-1) via the excess
        _check(report, "mean", source, g, None, mean_time * n + 1.0, expected)
        candidate = tuple(a_grid) if a_grid is not None else default_a_grid(g)
        grids[source] = tuple(a for a in candidate if 1.0 <= a <= mean_time)
        if len(grids[source]) < len(candidate):
            report.notes.append(
                f"{source}: a values outside [1, {mean_time:.6g}] skipped")
    thresholds = sorted({math.floor(a * n + 1.0)
                         for grid in grids.values() for a in grid})
    horizon = int(min(max(thresholds, default=0), _TAIL_HORIZON_CAP))
    stats = engine.hitting_time_pmf(work, horizon=horizon) if horizon > 0 else None

    for source, g, excess in sources:
        for a in grids[source]:
            threshold = math.floor(a * n + 1.0)
            if threshold > _TAIL_HORIZON_CAP:
                report.notes.append(
                    f"{source}: tail check at a={a:.6g} skipped "
                    f"(threshold {threshold} beyond horizon cap)")
                continue
            bound = tail_upper_bound(n, g, a)
            observed = stats.cdf_at(threshold)
            # threshold >= d, so P(T <= threshold) >= P(T = d) > 0
            underflow = observed == 0.0
            if underflow:
                report.notes.append(
                    f"{source}: tail at a={a:.6g}: P(T <= {threshold}) "
                    "underflowed to 0, check vacuous")
            _check(report, "tail", source, g, float(a), bound, observed, underflow)

    for beta, observed in zip(betas, (p.survival for p in params[1:])):
        underflow = observed == 0.0  # the target is reachable, so S_beta > 0
        if underflow:
            report.notes.append(f"transform at beta={beta:.6g}: S_beta underflowed "
                                "to 0, checks vacuous")
        for source, g, excess in sources:
            _check(report, "transform", source, g, float(beta),
                   transform_upper_bound(n, g, beta), observed, underflow)
    return report
