import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.stats import binom

from hitbounds import refwalk
from hitbounds.refwalk import (
    BiasedWalk,
    ParameterError,
    advance_pgf,
    advance_time_pmf,
    mean_advance_time,
    position_tail,
    rate_function,
)

DRIFTS = st.floats(1.0 + 1e-6, 50.0, allow_nan=False)


def test_mean_advance_time():
    assert mean_advance_time(3.0) == 2.0
    assert mean_advance_time(2.0) == 3.0
    assert mean_advance_time(1.0) == math.inf
    assert mean_advance_time(0.5) == math.inf


def test_rate_function_endpoints():
    for g in (1.2, 2.0, 3.0, 10.0):
        m = mean_advance_time(g)
        assert abs(rate_function(g, m)) < 1e-12
        assert abs(math.exp(-rate_function(g, 1.0)) - g / (g + 1.0)) < 1e-12


def test_rate_function_domain():
    with pytest.raises(ParameterError):
        rate_function(2.0, 0.9)
    with pytest.raises(ParameterError):
        rate_function(2.0, 3.0 + 1e-6)  # beyond the mean
    with pytest.raises(ParameterError):
        rate_function(1.0, 1.5)  # driftless walk has no finite mean


@given(st.floats(1.001, 50.0))
@settings(max_examples=40, deadline=None)
def test_rate_function_convex_decreasing(g):
    m = mean_advance_time(g)
    grid = np.linspace(1.0, m, 24)
    vals = [rate_function(g, a) for a in grid]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    second = np.diff(vals, 2)
    # roundoff near a = m, where the rate vanishes, bounds the noise floor
    assert second.min() >= -1e-8
    assert all(v >= -1e-9 for v in vals)


def test_rate_function_near_driftless_stays_in_noise_band():
    # at g = 1 + 1e-6 the whole curve sits near 0; only coarse facts survive
    g = 1.000001
    m = mean_advance_time(g)
    top = rate_function(g, 1.0)
    assert top == pytest.approx(math.log(1.0 + 1.0 / g), abs=1e-12)
    for a in np.linspace(1.0, m, 12):
        v = rate_function(g, a)
        assert -1e-8 <= v <= top + 1e-8


def test_rate_matches_chernoff_dual():
    """I(a) equals the best exponent of P(T <= an) <= phi^n / beta^(an)."""
    for g, a in ((2.0, 1.5), (3.0, 1.2), (5.0, 1.05), (1.5, 3.0)):
        def neg_exponent(logb):
            beta = math.exp(logb)
            return -(a * logb - math.log(advance_pgf(g, beta)))

        best = minimize_scalar(neg_exponent, bounds=(-30.0, -1e-12),
                               method="bounded",
                               options={"xatol": 1e-13})
        assert -best.fun == pytest.approx(rate_function(g, a), abs=1e-8)


def test_rate_matches_finite_n_estimates():
    """Pre-registered oracle: extrapolated -log P(T <= an+1)/n at g=3, a=1.5."""
    g, a = 3.0, 1.5
    estimates = {}
    for n in (200, 400):
        horizon = int(a * n + 1)
        pmf = advance_time_pmf(g, n, horizon)
        estimates[n] = -math.log(pmf.sum()) / n
    # finite-size correction is O(log n / n): extrapolate in that variable
    x1, x2 = math.log(200) / 200, math.log(400) / 400
    y1, y2 = estimates[200], estimates[400]
    extrapolated = y2 + (y1 - y2) * (0.0 - x2) / (x1 - x2)
    assert extrapolated == pytest.approx(rate_function(g, a), rel=0.05)


def test_advance_pgf_fixed_point():
    # phi solves phi = beta (g + phi^2) / (g + 1)
    for g in (1.5, 2.0, 7.0):
        for beta in (0.05, 0.5, 0.95):
            phi = advance_pgf(g, beta)
            assert 0.0 < phi < 1.0
            assert phi == pytest.approx(beta * (g + phi * phi) / (g + 1.0),
                                        rel=1e-12)
    assert advance_pgf(2.0, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, 1.5])
def test_advance_pgf_domain(beta):
    with pytest.raises(ParameterError, match=r"beta must lie in \(0, 1\]"):
        advance_pgf(2.0, beta)


@given(DRIFTS, st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_advance_pgf_monotone_and_stable(g, beta):
    phi = advance_pgf(g, beta)
    assert 0.0 < phi <= 1.0
    assert advance_pgf(g, min(beta + 0.005, 1.0)) >= phi


def test_advance_time_pmf_is_distribution():
    pmf = advance_time_pmf(2.0, 3, 4001)
    assert pmf.min() >= 0.0
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    mean = float(np.arange(len(pmf)) @ pmf)
    assert mean == pytest.approx(3 * mean_advance_time(2.0), rel=1e-6)
    assert pmf[:3].sum() == 0.0  # cannot reach +3 in under 3 steps
    assert pmf[3] == pytest.approx((2 / 3) ** 3, rel=1e-12)
    assert pmf[4] == 0.0  # parity


def test_advance_time_pmf_pgf_consistency():
    g, n = 3.0, 4
    pmf = advance_time_pmf(g, n, 3001)
    for beta in (0.3, 0.7):
        direct = float(np.polynomial.polynomial.polyval(beta, pmf))
        assert direct == pytest.approx(advance_pgf(g, beta) ** n, rel=1e-10)


def test_position_tail_binomial_oracle():
    # P[X_t >= n] with steps +1 w.p. g/(g+1): binomial survival with parity
    for g in (1.5, 2.0, 4.0):
        p = g / (g + 1.0)
        for t, n in ((30, 4), (30, 11), (25, 5), (200, 40)):
            lo = n if (t - n) % 2 == 0 else n + 1
            k_min = (t + lo) // 2
            direct = float(binom.sf(k_min - 1, t, p))
            assert position_tail(g, t, n) == pytest.approx(direct, rel=1e-10)


def test_position_tail_edges():
    # reaching +t in t steps means every step went right
    assert position_tail(2.0, 10, 10) == pytest.approx((2 / 3) ** 10, rel=1e-12)
    with pytest.raises(ParameterError):
        position_tail(2.0, 10, 12)  # beyond reach
    with pytest.raises(ParameterError):
        position_tail(2.0, 10, -1)


@given(DRIFTS, st.integers(5, 60))
@settings(max_examples=40, deadline=None)
def test_position_tail_monotone_in_n(g, t):
    vals = [position_tail(g, t, n) for n in range(0, t + 1)]
    assert all(x >= y - 1e-13 for x, y in zip(vals, vals[1:]))


def test_biased_walk_object():
    w = BiasedWalk(2.0)
    assert w.speed == pytest.approx(1 / 3)
    assert BiasedWalk(2.0) == w  # frozen dataclass equality
    with pytest.raises(ParameterError):
        BiasedWalk(0.0)


def test_integer_validation_accepts_numpy():
    assert advance_time_pmf(2.0, np.int64(3), np.int64(101)).shape == (102,)
    with pytest.raises(ParameterError):
        advance_time_pmf(2.0, True, 100)
    with pytest.raises(ParameterError):
        advance_time_pmf(2.0, 2.5, 100)
