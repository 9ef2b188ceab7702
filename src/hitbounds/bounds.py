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
to 1, unreachable target, S_beta underflowed to 0) are vacuous passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import engine
from .graph import WeightedGraph
from .refwalk import ParameterError, _as_int, advance_pgf, rate_function

_A_GRID_COUNT = 12
_VACUOUS_EXCESS = 1e-12  # g - 1 below this: treat bounds as vacuous


def _check_ratio(ratio):
    if not (isinstance(ratio, (int, float)) and math.isfinite(ratio) and ratio > 0):
        raise ParameterError(f"weight ratio must be positive and finite, got {ratio!r}")
    return float(ratio)


def _drift_log_excess(n: int, ratio: float) -> float:
    """log(g) for the root of (g-1)^2 g^(n-2) = 2 ratio, by bisection.

    Working in u = log g keeps full relative precision on g - 1 even when
    the root is extremely close to 1 (g - 1 = expm1(u)).
    """
    log_rhs = math.log(2.0) + math.log(ratio)

    def value(u):
        return 2.0 * math.log(math.expm1(u)) + (n - 2) * u - log_rhs

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
    alpha = max(n * n * ratio, math.e)
    log_alpha = math.log(alpha)
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
    return (graph.set_weight() * r) ** (1.0 / (d - 1))


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
    if not n > 1:
        raise ParameterError(f"n must exceed 1, got {n!r}")
    if not p >= 0:
        raise ParameterError(f"p must be nonnegative, got {p!r}")
    return 2.0 * n * n / ((p + 2.0) * math.log(n))


def default_a_grid(g: float, count: int = _A_GRID_COUNT):
    """Geometric grid m^(1/(count+1)), ..., m^(count/(count+1)) inside (1, m)."""
    if g - 1.0 <= _VACUOUS_EXCESS:
        return ()
    m = (g + 1.0) / (g - 1.0)
    return tuple(m ** (i / (count + 1)) for i in range(1, count + 1))


def default_beta_grid():
    """0.05, 0.10, ..., 0.95."""
    return tuple(round(0.05 * i, 2) for i in range(1, 20))


# -- verification report ---------------------------------------------------


@dataclass
class BoundCheck:
    """One bound-versus-exact comparison.

    kind is "mean", "tail" or "transform"; source names the drift parameter
    ("weight_ratio" or "resistance"); param is the grid value (a or beta).
    margin is the relative room to spare: positive means strictly inside the
    bound.  Vacuous checks (degenerate drift, underflowed S_beta) pass.
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
        return {
            "kind": self.kind, "source": self.source, "g": self.g,
            "param": self.param, "bound": self.bound, "observed": self.observed,
            "margin": self.margin, "passed": self.passed, "vacuous": self.vacuous,
        }


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


def _trivial_report(n, ratio, resistance, expected, note):
    report = BoundReport(n=n, ratio=ratio, resistance=resistance,
                         expected=expected, drift={})
    report.checks.append(BoundCheck(
        kind="mean", source="trivial", g=math.inf, param=None,
        bound=1.0, observed=expected, margin=math.inf, passed=expected >= 1.0,
        vacuous=True))
    report.notes.append(note)
    return report


def check_theorem1(graph: WeightedGraph, a_grid=None, beta_grid=None,
                   slack: float = 1e-9, horizon_cap: int = 2_000_000
                   ) -> BoundReport:
    """Evaluate every drift bound on a graph against exact statistics.

    The graph is normalized first (contract targets, drop inaccessible
    pockets); this can only tighten the bounds and never changes the hitting
    law.  slack is the relative tolerance granted to roundoff when comparing
    a bound with an exact value.  Tail thresholds beyond horizon_cap steps
    are skipped (noted in the report).
    """
    work = graph.normalized()
    d = work.distance(work.origin)
    expected = engine.expected_hitting_time(work)
    if not math.isfinite(d) or not math.isfinite(expected):
        return _trivial_report(0, math.nan, math.inf, math.inf,
                               "target unreachable: every bound holds vacuously")
    ratio = work.set_weight() / work.vertex_weight(work.origin)
    resistance = engine.effective_resistance(work)
    if d < 2:
        return _trivial_report(0, ratio, resistance, expected,
                               "origin adjacent to target: only E[T] >= 1 applies")
    n = int(d) - 1

    u_a = _drift_log_excess(n, ratio)
    g_a = math.exp(u_a)
    excess_a = math.expm1(u_a)
    g_b = (work.set_weight() * resistance) ** (1.0 / n)
    excess_b = g_b - 1.0
    drift = {"weight_ratio": g_a, "resistance": g_b}
    if n >= 3:
        drift["rough"] = drift_upper_estimate(n, ratio)

    report = BoundReport(n=n, ratio=ratio, resistance=resistance,
                         expected=expected, drift=drift)
    sources = [("weight_ratio", g_a, excess_a), ("resistance", g_b, excess_b)]

    for source, g, excess in sources:
        vacuous = excess <= _VACUOUS_EXCESS
        if vacuous:
            bound = math.inf
            report.checks.append(BoundCheck(
                kind="mean", source=source, g=g, param=None, bound=bound,
                observed=expected, margin=math.inf, passed=True, vacuous=True))
            report.notes.append(f"{source}: drift degenerate, mean bound vacuous")
            continue
        bound = (1.0 + 2.0 / excess) * n + 1.0  # (g+1)/(g-1) n + 1 via the excess
        passed = expected >= bound * (1.0 - slack)
        report.checks.append(BoundCheck(
            kind="mean", source=source, g=g, param=None, bound=bound,
            observed=expected, margin=expected / bound - 1.0, passed=passed))

    grids = {}
    for source, g, excess in sources:
        if excess <= _VACUOUS_EXCESS:
            grids[source] = ()
            continue
        candidate = tuple(a_grid) if a_grid is not None else default_a_grid(g)
        mean_time = 1.0 + 2.0 / excess
        grids[source] = tuple(a for a in candidate if 1.0 <= a <= mean_time)
        if len(grids[source]) < len(candidate):
            report.notes.append(
                f"{source}: a values outside [1, {mean_time:.6g}] skipped")
    thresholds = sorted({math.floor(a * n + 1.0)
                         for grid in grids.values() for a in grid})
    horizon = int(min(max(thresholds, default=0), horizon_cap))
    cdf = None
    if horizon > 0:
        stats = engine.hitting_time_pmf(work, horizon=horizon)
        cdf = stats.pmf.cumsum()

    for source, g, excess in sources:
        for a in grids[source]:
            threshold = math.floor(a * n + 1.0)
            if threshold > horizon_cap:
                report.notes.append(
                    f"{source}: tail check at a={a:.6g} skipped "
                    f"(threshold {threshold} beyond horizon cap)")
                continue
            bound = tail_upper_bound(n, g, a)
            observed = float(cdf[int(threshold)]) if cdf is not None else 0.0
            passed = observed <= bound * (1.0 + slack) + 1e-300
            margin = (bound - observed) / bound if bound > 0 else math.inf
            report.checks.append(BoundCheck(
                kind="tail", source=source, g=g, param=float(a), bound=bound,
                observed=observed, margin=margin, passed=passed))

    betas = tuple(beta_grid) if beta_grid is not None else default_beta_grid()
    for beta in betas:
        observed = engine.survival_transform(work, beta)
        underflow = observed == 0.0  # the target is reachable, so S_beta > 0
        if underflow:
            report.notes.append(f"transform at beta={beta:.6g}: S_beta underflowed "
                                "to 0, checks vacuous")
        for source, g, excess in sources:
            bound = transform_upper_bound(n, g, beta)
            passed = observed <= bound * (1.0 + slack) + 1e-300
            margin = (bound - observed) / bound if bound > 0 else math.inf
            report.checks.append(BoundCheck(
                kind="transform", source=source, g=g, param=float(beta),
                bound=bound, observed=observed, margin=margin, passed=passed,
                vacuous=underflow))
    return report
