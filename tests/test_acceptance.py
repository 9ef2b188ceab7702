"""Acceptance suite: the nine headline guarantees of the package.

Each test prints one summary line; run with -v (or -s) for per-criterion
pass/fail reporting.  The corpus-wide checks share one session corpus.
"""

import math

import numpy as np
import pytest

from hitbounds import bounds, corpus, engine, flows
from hitbounds.generators import (
    fast_path,
    fast_path_expected,
    fast_path_resistance,
    poly_growth_drift,
    unit_path,
)
from hitbounds.montecarlo import (
    SimConfig,
    escape_ratios,
    simulate_hitting,
    to_csv_text,
)
from hitbounds.refwalk import (
    BiasedWalk,
    advance_pgf,
    mean_advance_time,
    position_tail,
    rate_function,
)


@pytest.fixture(scope="module")
def corpus_bound_report(full_corpus):
    return corpus.bound_report(full_corpus)


def test_criterion_1_bound_soundness(corpus_bound_report):
    """Mean and tail lower bounds hold exactly on 1000 seeded graphs."""
    rep = corpus_bound_report
    assert rep["graphs"] == 1000
    assert rep["checks"] == 64_000  # 2 mean + 24 tail + 38 transform per graph
    assert rep["failures"] == []
    assert rep["all_pass"]
    assert rep["min_margin"] > 0.0
    assert rep["elapsed_seconds"] < 120.0
    print(f"\n[criterion 1] PASS: {rep['checks']} checks on {rep['graphs']} "
          f"graphs, min margin {rep['min_margin']:.3e}, "
          f"{rep['elapsed_seconds']:.1f}s")


def test_criterion_2_transform_domination(full_corpus):
    """survival transform <= beta * phi(g, beta)^n + 1e-9, both drifts."""
    betas = bounds.default_beta_grid()
    assert len(betas) == 19 and betas[0] == 0.05 and betas[-1] == 0.95
    checked = 0
    worst = -math.inf
    for graph in full_corpus:
        work = graph.normalized()  # the graph criterion 1 checked
        n = int(work.distance(work.origin)) - 1
        ratio = work.set_weight() / work.vertex_weight(work.origin)
        drifts = (bounds.solve_drift(n, ratio),
                  bounds.drift_from_resistance(work))
        for beta in betas:
            observed = engine.survival_transform(work, beta)
            for g in drifts:
                bound = beta * advance_pgf(g, beta) ** n
                assert observed <= bound + 1e-9
                worst = max(worst, observed - bound)
                checked += 1
    assert checked == 1000 * 19 * 2
    print(f"\n[criterion 2] PASS: {checked} transform checks, worst "
          f"observed-bound gap {worst:.3e} (tolerance 1e-9)")


def test_criterion_3_flow_laws(full_corpus):
    """Flow laws, decomposition, and array identities at stated tolerances."""
    sample = full_corpus[::5][:200]
    rep = corpus.flow_report(sample, betas=(0.2, 0.5, 0.8))
    assert rep["cases"] == 600
    assert rep["failures"] == []
    assert rep["all_pass"]
    worst = rep["worst"]
    assert worst["node_residual"] < 1e-10
    assert worst["cycle_gap"] < 1e-9
    assert worst["reconstruction"] < 1e-9
    assert worst["convex_gap"] < 1e-9
    assert worst["array_gap"] < 1e-9
    assert worst["chain_slack"] > -1e-9
    print(f"\n[criterion 3] PASS: {rep['cases']} flow cases; worst node "
          f"residual {worst['node_residual']:.1e}, reconstruction "
          f"{worst['reconstruction']:.1e}, array gap {worst['array_gap']:.1e}")


def test_criterion_4_closed_forms(full_corpus):
    """Unit-path, fast-path, series-resistance and commute identities."""
    for n in range(1, 51):
        g = unit_path(n)
        exact = engine.expected_hitting_time(g)
        assert abs(exact - n * n) <= 1e-10 * n * n
        assert abs(engine.effective_resistance(g) - n) <= 1e-12 * n

    grid_points = 0
    for n in (4, 5, 6, 8, 12, 20, 35, 60, 100):
        for drift in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
            graph = fast_path(n, drift)
            closed = fast_path_expected(n, drift)
            exact = engine.expected_hitting_time(graph)
            assert abs(exact - closed) <= 1e-9 * closed
            res_closed = fast_path_resistance(n, drift)
            res_exact = engine.effective_resistance(graph)
            assert abs(res_exact - res_closed) <= 1e-12 * res_closed
            grid_points += 1

    commute = corpus.commute_report(full_corpus)
    assert commute["all_pass"]
    assert commute["graphs"] == 1000
    print(f"\n[criterion 4] PASS: unit paths n<=50, {grid_points} fast-path "
          f"grid points, commute identity worst gap "
          f"{commute['worst_gap']:.3e} on 1000 graphs")


def test_criterion_4_closed_forms_large_n():
    """Unit-path and fast-path means at sizes only the sparse solve reaches."""
    n = 50_000
    assert abs(engine.expected_hitting_time(unit_path(n)) - n * n) <= 1e-10 * n * n
    n, drift = 10_000, 1.01
    closed = fast_path_expected(n, drift)
    exact = engine.expected_hitting_time(fast_path(n, drift))
    assert abs(exact - closed) <= 1e-9 * closed
    print(f"\n[criterion 4, large n] PASS: unit path n=50000, fast path "
          f"n=10000 relative gap {abs(exact - closed) / closed:.1e}")


def test_criterion_5_rate_function_sanity():
    """I_g(m_g) = 0, e^{-I_g(1)} = g/(g+1), convexity of the rate."""
    for g in (1.1, 1.3, 2.0, 3.0, 7.0, 25.0):
        m = mean_advance_time(g)
        assert abs(rate_function(g, m)) <= 1e-12
        assert abs(math.exp(-rate_function(g, 1.0)) - g / (g + 1.0)) <= 1e-12
        grid = np.linspace(1.0, m, 12)
        vals = [rate_function(g, a) for a in grid]
        assert np.diff(vals, 2).min() >= -1e-9
    print("\n[criterion 5] PASS: rate endpoints exact to 1e-12, second "
          "differences >= -1e-9 on 12-point grids for 6 drift values")


# closed-form ratios E T * (p+2) log n / (2 n^2), frozen before the build
_SCALING_GOLDENS = {
    0: (1.7983915822846057, 1.578538139533399,
        1.4564802137559334, 1.3788863649833842),
    2: (1.3763301818821061, 1.2851807875388071,
        1.2307271548622321, 1.1946304833188364),
}


def test_criterion_6_polynomial_scaling_trend():
    """Ratio to the 2n^2/((p+2) log n) asymptote: decreasing, >= 1, bounded."""
    sizes = (10**3, 10**4, 10**5, 10**6)
    for p, goldens in _SCALING_GOLDENS.items():
        ratios = []
        for n, golden in zip(sizes, goldens):
            g = poly_growth_drift(n, p)
            closed = fast_path_expected(n, g)
            ratio = closed / bounds.poly_mean_asymptote(n, p)
            # goldens were frozen from an independently coded evaluation of
            # the same closed form; orderings differ at the rounding floor
            # (up to 6e-12 relative at n = 10^6)
            assert ratio == pytest.approx(golden, rel=1e-9)
            assert ratio >= 1.0
            ratios.append(ratio)

            steps = n - 1
            # the weight-ratio calibration: w_z / w_o, with w_o = 1
            ratio_wr = (g - 1.0) ** 2 * g ** (n - 3)
            mean_bound = bounds.mean_lower_bound(
                steps, bounds.solve_drift(steps, ratio_wr))
            assert mean_bound <= closed * (1.0 + 1e-9)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
    print("\n[criterion 6] PASS: ratios match frozen goldens to 1e-12, "
          "strictly decreasing toward 1 for p in {0, 2}, mean bound below "
          "the closed form at every size")


# (n, t, -log P[X_t >= n] / log n) with g = poly_growth_drift(n, 0),
# alpha = 0.5, t = floor(alpha n^2 / log n) forced to the parity of n;
# frozen before the build from the exact binomial tail
_TAIL_EXPONENT_GOLDENS = (
    (200, 3774, 0.87496251925608889),
    (400, 13352, 0.82013985588249536),
    (800, 47870, 0.77418856350937658),
)


def test_criterion_7_tail_exponent_trend():
    """Exact tail exponent approaches 1/4 from above as n doubles."""
    gaps = []
    for n, t_frozen, exponent_frozen in _TAIL_EXPONENT_GOLDENS:
        t = math.floor(0.5 * n * n / math.log(n))
        if (t - n) % 2:
            t -= 1
        assert t == t_frozen
        g = poly_growth_drift(n, 0)
        tail = position_tail(g, t, n)
        exponent = -math.log(tail) / math.log(n)
        # frozen from an independent binomial evaluation; agreement is at
        # the rounding floor (8e-12 relative at n = 800)
        assert exponent == pytest.approx(exponent_frozen, rel=1e-9)
        gaps.append(abs(exponent - 0.25))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    print(f"\n[criterion 7] PASS: exponent gaps to 1/4 shrink "
          f"{gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}")


def _exact_moments(graph):
    stats = engine.hitting_time_pmf(graph)
    horizon = stats.horizon
    while stats.survival_mass > 1e-10:
        horizon *= 4
        stats = engine.hitting_time_pmf(graph, horizon=horizon)
    ks = np.arange(len(stats.pmf))
    var = float(ks**2 @ stats.pmf) - stats.expected**2
    return stats.expected, var, horizon


def test_criterion_8_monte_carlo_consistency(full_corpus):
    """Sample means track exact values; seeded runs are byte-identical."""
    reps = 100_000
    worst_sigma = 0.0
    for graph in full_corpus[:20]:
        expected, var, horizon = _exact_moments(graph)
        sample = simulate_hitting(
            graph, SimConfig(seed=20260823, replications=reps,
                             max_steps=horizon))
        assert sample.censored_count == 0
        se = math.sqrt(var / reps)
        sigma = abs(sample.mean() - expected) / se
        worst_sigma = max(worst_sigma, sigma)
        assert sigma < 4.0

    k = 100_000
    cfg = SimConfig(seed=7, replications=400, max_steps=k, record_steps=(k,),
                    estimator="speed")
    speed = escape_ratios(BiasedWalk(2.0), cfg).speed_ratios()[:, 0].mean()
    assert abs(speed - 1.0 / 3.0) < 0.01

    cfg = SimConfig(seed=5, replications=200, max_steps=1_000_000)
    first = to_csv_text(simulate_hitting(full_corpus[0], cfg))
    second = to_csv_text(simulate_hitting(full_corpus[0], cfg))
    assert first == second
    print(f"\n[criterion 8] PASS: 20 graphs x {reps} replications, worst "
          f"deviation {worst_sigma:.2f} standard errors; biased speed "
          f"{speed:.5f} vs 1/3; identical seeds gave identical CSV bytes")


def test_criterion_9_drift_estimate_domination():
    """Explicit drift estimate dominates the exact drift on 100 pairs."""
    rep = corpus.estimate_report()
    assert rep["pairs"] == 100
    assert rep["failures"] == []
    assert rep["all_pass"]
    print("\n[criterion 9] PASS: 100 (n, ratio) pairs, estimate >= exact "
          "drift and over-satisfies the defining equation")
