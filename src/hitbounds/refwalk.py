"""The biased nearest-neighbour walk on the integers used as comparison object.

For a drift parameter g > 0 the walk steps right with probability g/(1+g) and
left with probability 1/(1+g) (odds 1:g).  Everything about it is explicit:

  * mean_advance_time: E[time to first reach +1] = (g+1)/(g-1) for g > 1,
  * advance_pgf: E[beta^(time to first reach +1)], the positive root of
    phi = beta (g + phi^2) / (g + 1),
  * rate_function: the large-deviation rate I_g(a) for reaching +n in about
    a*n steps, 1 <= a <= mean_advance_time(g), with I_g(mean) = 0 and
    exp(-I_g(1)) = g/(g+1),
  * advance_time_pmf: exact law of the time to reach +n (dynamic program),
  * position_tail: exact P[X_t >= n] by binomial summation in log space.

BiasedWalk is the walk as an object the Monte Carlo driver can sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp


class ParameterError(ValueError):
    """Parameter outside the supported domain."""


def _as_int(value, name, minimum):
    """Validate an integer-valued argument (python or numpy int)."""
    if type(value) is int and value >= minimum:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_drift(g):
    if not (isinstance(g, (int, float)) and math.isfinite(g) and g > 0):
        raise ParameterError(f"drift parameter g must be positive, got {g!r}")
    return float(g)


def mean_advance_time(g: float) -> float:
    """(g+1)/(g-1): expected steps to gain one position; inf for g <= 1."""
    g = _check_drift(g)
    if g <= 1.0:
        return math.inf
    return (g + 1.0) / (g - 1.0)


def rate_function(g: float, a: float) -> float:
    """Large-deviation rate I_g(a) for hitting +n within about a*n steps.

    Defined for 1 <= a <= mean_advance_time(g); zero at the upper endpoint,
    -log(g/(g+1)) at a = 1 (continuous limit of the closed form).
    """
    g = _check_drift(g)
    if g <= 1.0:
        raise ParameterError("rate function requires g > 1")
    m = (g + 1.0) / (g - 1.0)  # mean_advance_time(g), g already checked
    if not (1.0 <= a <= m):
        raise ParameterError(f"a={a} outside [1, {m}]")
    if a == 1.0:
        return math.log1p(1.0 / g)  # -log(g/(g+1))
    log_value = (
        math.log(g)
        - math.log(a + 1.0)
        + 0.5 * (a - 1.0) * (math.log(g) - math.log(a * a - 1.0))
        + a * (math.log(2.0 * a) - math.log(g + 1.0))
    )
    return -log_value


def advance_pgf(g: float, beta: float) -> float:
    """E[beta^(first passage time to +1)] for the (1:g)-biased walk.

    Uses the cancellation-free form 2 beta g / (g+1 + sqrt((g+1)^2 - 4 beta^2 g));
    satisfies phi = beta (g + phi^2) / (g+1) and phi(1) = min(g, 1).
    """
    g = _check_drift(g)
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"beta must lie in (0, 1], got {beta!r}")
    disc = (g + 1.0) ** 2 - 4.0 * beta * beta * g
    if disc < 0.0:
        disc = 0.0  # roundoff at beta = 1, g = 1
    return 2.0 * beta * g / (g + 1.0 + math.sqrt(disc))


def advance_time_pmf(g: float, n: int, horizon: int) -> np.ndarray:
    """Exact pmf of the first passage time to +n, tabulated up to horizon.

    Dynamic program over positions -horizon..n (the walk cannot drop below
    -horizon within horizon steps).  pmf[k] = P(T = k); the missing mass
    1 - sum(pmf) is the probability of not arriving within the horizon.
    """
    g = _check_drift(g)
    n = _as_int(n, "n", 1)
    horizon = _as_int(horizon, "horizon", 0)
    pr = g / (1.0 + g)
    pl = 1.0 / (1.0 + g)
    off = horizon  # index = position + off, positions -horizon..n
    p = np.zeros(horizon + n + 1)
    p[off] = 1.0
    pmf = np.zeros(horizon + 1)
    idx_n = off + n
    for k in range(1, horizon + 1):
        q = np.zeros_like(p)
        q[1:] += pr * p[:-1]
        q[:-1] += pl * p[1:]
        pmf[k] = q[idx_n]
        q[idx_n] = 0.0
        p = q
        if not p.any():
            break
    return pmf


def position_tail(g: float, t: int, n: int) -> float:
    """Exact P[X_t >= n] for the biased walk, summed in log space.

    P[X_t = m] = C(t, (t+m)/2) g^((t+m)/2) / (1+g)^t for m of the same
    parity as t.  Requires t >= n >= 0.
    """
    g = _check_drift(g)
    t = _as_int(t, "t", 0)
    n = _as_int(n, "n", 0)
    if t < n:
        raise ParameterError(f"need t >= n, got t={t}, n={n}")
    lo = n if (n % 2 == t % 2) else n + 1
    if lo > t:
        return 0.0
    m = np.arange(lo, t + 1, 2)
    k = (t + m) // 2
    log_terms = (
        gammaln(t + 1.0)
        - gammaln(k + 1.0)
        - gammaln(t - k + 1.0)
        + k * math.log(g)
        - t * math.log1p(g)
    )
    return float(math.exp(logsumexp(log_terms)))


@dataclass(frozen=True)
class BiasedWalk:
    """Reference walk handle usable by the Monte Carlo driver."""

    g: float

    def __post_init__(self):
        _check_drift(self.g)

    @property
    def speed(self) -> float:
        """Almost-sure limit of X_k / k: (g-1)/(g+1)."""
        return (self.g - 1.0) / (self.g + 1.0)
