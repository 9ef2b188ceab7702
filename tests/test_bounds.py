import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitbounds import bounds, engine
from hitbounds.generators import fast_path, poly_growth_drift, random_graph, unit_path
from hitbounds.graph import WeightedGraph
from hitbounds.refwalk import (
    ParameterError,
    advance_pgf,
    mean_advance_time,
    rate_function,
)

RATIOS = st.floats(1e-8, 1e8, allow_nan=False)
SIZES = st.integers(1, 200)


@given(SIZES, RATIOS)
@settings(max_examples=150, deadline=None)
def test_solve_drift_satisfies_equation(n, ratio):
    g = bounds.solve_drift(n, ratio)
    assert g > 1.0
    lhs = (g - 1.0) ** 2 * g ** (n - 2)
    if math.isfinite(lhs) and lhs > 0.0:
        assert lhs == pytest.approx(2.0 * ratio, rel=1e-8)


def test_solve_drift_monotone_in_ratio():
    values = [bounds.solve_drift(5, r) for r in (0.1, 1.0, 10.0, 1e4)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_solve_drift_tiny_ratio_degenerates():
    g = bounds.solve_drift(10, 1e-300)
    assert 1.0 <= g <= 1.0 + 1e-10


def test_solve_drift_huge_ratio():
    # the bracket search reaches log g = 1024, where expm1 overflows
    g = bounds.solve_drift(3, 1e300)
    assert (g - 1.0) ** 2 * g == pytest.approx(2e300, rel=1e-9)


def test_drifts_finite_where_products_overflow():
    # n^2 ratio = 9e308 and w_z r(o, z) = 3e308 overflow; their logs do not
    alpha = 9 * mpmath.mpf(1e308)
    g = bounds.drift_upper_estimate(3, 1e308)
    assert g == pytest.approx(float(5 * alpha / mpmath.log(alpha) ** 2), rel=1e-12)
    assert g >= bounds.solve_drift(3, 1e308)
    path = WeightedGraph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1e308)],
                         origin=0, targets=[4])
    exact = mpmath.cbrt(mpmath.mpf(1e308) * (3 + mpmath.mpf(1e-308)))
    assert bounds.drift_from_resistance(path) == pytest.approx(float(exact), rel=1e-12)


@given(st.integers(3, 120), RATIOS)
@settings(max_examples=150, deadline=None)
def test_rough_estimate_dominates(n, ratio):
    g_exact = bounds.solve_drift(n, ratio)
    g_rough = bounds.drift_upper_estimate(n, ratio)
    assert g_rough >= g_exact * (1.0 - 1e-12)
    assert (g_rough - 1.0) ** 2 * g_rough ** (n - 2) >= 2.0 * ratio * (1.0 - 1e-12)


def test_drift_from_resistance_unit_path():
    # w_z = 1, r = n, d = n: g = n^(1/(n-1))
    for n in (3, 5, 12):
        g = bounds.drift_from_resistance(unit_path(n))
        assert g == pytest.approx(n ** (1.0 / (n - 1)), rel=1e-12)


def test_drift_from_resistance_needs_distance():
    with pytest.raises(ParameterError):
        bounds.drift_from_resistance(unit_path(1))
    island = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[3])
    assert bounds.drift_from_resistance(island) == math.inf


def test_bound_formulas():
    assert bounds.mean_lower_bound(5, 3.0) == 11.0  # 2*5 + 1
    assert bounds.mean_lower_bound(0, 3.0) == 1.0
    assert bounds.mean_lower_bound(5, 1.0) == math.inf
    assert bounds.tail_upper_bound(10, 2.0, 1.5) == pytest.approx(
        math.exp(-10 * rate_function(2.0, 1.5)), rel=1e-12)
    assert bounds.transform_upper_bound(4, 2.0, 0.5) == pytest.approx(
        0.5 * advance_pgf(2.0, 0.5) ** 4, rel=1e-12)
    assert bounds.poly_mean_asymptote(100, 0.0) == pytest.approx(
        2 * 100 ** 2 / (2 * math.log(100)), rel=1e-12)


def test_default_grids():
    grid = bounds.default_a_grid(3.0)
    assert len(grid) == 12
    m = mean_advance_time(3.0)
    assert all(1.0 < a < m for a in grid)
    assert all(x < y for x, y in zip(grid, grid[1:]))
    assert bounds.default_a_grid(1.0) == ()

    betas = bounds.default_beta_grid()
    assert len(betas) == 19
    assert betas[0] == 0.05 and betas[-1] == 0.95


def test_check_report_structure(corpus_sample):
    report = bounds.check_theorem1(corpus_sample[0])
    assert set(report.drift) >= {"weight_ratio", "resistance"}
    kinds = {c.kind for c in report.checks}
    assert kinds == {"mean", "tail", "transform"}
    assert report.all_pass
    assert report.min_margin() > 0.0
    d = report.to_dict()
    assert d["expected"] == report.expected
    assert len(d["checks"]) == len(report.checks)


def test_check_counts_default_grids(corpus_sample):
    report = bounds.check_theorem1(corpus_sample[1])
    per_kind = {}
    for c in report.checks:
        per_kind[c.kind] = per_kind.get(c.kind, 0) + 1
    assert per_kind["mean"] == 2
    assert per_kind["tail"] == 2 * 12
    assert per_kind["transform"] == 2 * 19


def test_check_unreachable_is_vacuous():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], origin=0, targets=[3])
    report = bounds.check_theorem1(g)
    assert report.all_pass
    assert report.expected == math.inf
    assert not report.checks or all(c.vacuous for c in report.checks)


def test_check_underflowed_transform_is_vacuous():
    # S_beta of a 300-edge path underflows to 0 at beta = 0.05, 0.10, 0.15
    report = bounds.check_theorem1(fast_path(300, poly_growth_drift(300, 0)))
    under = [c for c in report.checks if c.kind == "transform" and c.observed == 0.0]
    assert len(under) == 6
    assert all(c.vacuous and c.passed for c in under)
    assert all(not c.vacuous for c in report.checks
               if c.kind == "transform" and c.observed > 0.0)
    assert sum("beta=0.05: S_beta underflowed" in note for note in report.notes) == 1


def test_check_underflowed_tail_is_vacuous():
    # P(T <= 1100) = P(T = 1100) = 2**-1099 on a 1100-edge path: below the
    # smallest subnormal, so the CDF reads 0.0 and the tail bound is 0.0 too
    report = bounds.check_theorem1(unit_path(1100), a_grid=(1.0,), beta_grid=(0.5,))
    tails = [c for c in report.checks if c.kind == "tail"]
    assert len(tails) == 2
    assert all(c.observed == 0.0 and c.vacuous and c.passed for c in tails)
    assert sum("tail at a=1: P(T <= 1100) underflowed" in note
               for note in report.notes) == 2


def test_check_skips_tails_beyond_horizon_cap(corpus_sample, monkeypatch):
    graph = corpus_sample[1]
    full = bounds.check_theorem1(graph)
    tails = [c for c in full.checks if c.kind == "tail"]
    cap = full.n + 1  # the threshold at a = 1
    kept = [(c.source, c.param) for c in tails
            if math.floor(c.param * full.n + 1.0) <= cap]
    assert 0 < len(kept) < len(tails)
    monkeypatch.setattr(bounds, "_TAIL_HORIZON_CAP", cap)
    report = bounds.check_theorem1(graph)
    assert [(c.source, c.param) for c in report.checks
            if c.kind == "tail"] == kept
    notes = [note for note in report.notes if "beyond horizon cap" in note]
    assert len(notes) == len(tails) - len(kept)
    assert report.all_pass


def test_check_adjacent_target_is_trivial():
    g = WeightedGraph([(0, 1, 1.0)], origin=0, targets=[1])
    report = bounds.check_theorem1(g)
    assert report.all_pass
    assert report.n == 0


def test_check_filters_user_a_grid(corpus_sample):
    report = bounds.check_theorem1(corpus_sample[2], a_grid=(1.0, 2.0, 1e9))
    assert any("skipped" in note for note in report.notes)
    assert report.all_pass


@pytest.mark.parametrize("kind", ["mean", "tail", "transform"])
def test_check_fails_just_past_its_bound(kind, monkeypatch):
    """A check fails 2 _SLACK past its bound and passes 0.5 _SLACK past it."""
    graph = unit_path(6)
    grids = {"a_grid": (1.5,), "beta_grid": (0.5,)}
    honest = bounds.check_theorem1(graph, **grids)
    assert honest.all_pass
    # the tightest check of this kind; both sources share one observed value
    check = max((c for c in honest.checks if c.kind == kind), key=lambda c: c.bound)
    assert not check.vacuous
    for step, passes in ((2.0 * bounds._SLACK, False), (0.5 * bounds._SLACK, True)):
        if kind == "mean":  # E[T] just below the lower bound
            monkeypatch.setattr(engine, "expected_hitting_time",
                                lambda g: check.bound * (1.0 - step))
        else:  # the upper bound just below the exact value
            monkeypatch.setattr(bounds, f"{kind}_upper_bound",
                                lambda *args: check.observed / (1.0 + step))
        report = bounds.check_theorem1(graph, **grids)
        [seen] = [c for c in report.checks
                  if c.kind == kind and c.source == check.source]
        assert seen.passed is passes
        assert report.all_pass is passes
        assert seen.margin == pytest.approx(-step, rel=1e-3)
        assert report.min_margin() == seen.margin
        assert (seen in report.failures()) is not passes


def test_transform_check_has_no_absolute_floor(monkeypatch):
    """A bound of 1e-305 is live and fails against 2e-305; a bound of 0.0 is vacuous."""
    graph = unit_path(6)
    for bound, observed, live in ((1e-305, 2e-305, True), (0.0, 1e-310, False)):
        monkeypatch.setattr(bounds, "transform_upper_bound", lambda *args: bound)
        monkeypatch.setattr(engine, "survival_transform", lambda *args: observed)
        report = bounds.check_theorem1(graph, a_grid=(), beta_grid=(0.5,))
        checks = [c for c in report.checks if c.kind == "transform"]
        assert [c.source for c in checks] == ["weight_ratio", "resistance"]
        for c in checks:
            assert c.vacuous is not live
            assert c.passed is not live
            note = f"{c.source}: transform bound at beta=0.5 is 0, below"
            assert any(n.startswith(note) for n in report.notes) is not live
        assert report.all_pass is not live


def test_mean_bound_below_exact_on_sample(corpus_sample):
    for g in corpus_sample[:20]:
        report = bounds.check_theorem1(g)
        for c in report.checks:
            if c.kind == "mean" and not c.vacuous:
                assert report.expected >= c.bound * (1.0 - 1e-9)


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_bounds_hold_on_random_graphs(seed):
    report = bounds.check_theorem1(random_graph(seed=seed))
    assert report.all_pass, report.failures()


def test_check_degenerate_drift_is_vacuous(monkeypatch):
    """g - 1 <= _VACUOUS_EXCESS: a vacuous mean check, a note, no tail grid."""
    graph = unit_path(6)
    monkeypatch.setattr(bounds, "_drift_log_excess", lambda n, ratio: 0.0)
    monkeypatch.setattr(bounds, "drift_from_resistance", lambda work: 1.0)
    report = bounds.check_theorem1(graph, a_grid=(1.0, 1.5), beta_grid=())
    assert report.drift["weight_ratio"] == report.drift["resistance"] == 1.0
    means = [c for c in report.checks if c.kind == "mean"]
    assert [c.source for c in means] == ["weight_ratio", "resistance"]
    for c in means:
        assert (c.g, c.param, c.bound, c.margin) == (1.0, None, math.inf, math.inf)
        assert c.observed == report.expected
        assert c.vacuous and c.passed
    assert report.checks == means
    assert report.notes == ["weight_ratio: drift degenerate, mean bound vacuous",
                            "resistance: drift degenerate, mean bound vacuous"]
    assert report.all_pass and report.min_margin() == math.inf


def test_check_notes_follow_source_order(monkeypatch):
    """Each source's mean and grid notes come together, sources in order."""
    graph = unit_path(6)
    monkeypatch.setattr(bounds, "drift_from_resistance", lambda work: 1.0)
    report = bounds.check_theorem1(graph, a_grid=(1.0, 1e9), beta_grid=())
    mean_time = 1.0 + 2.0 / math.expm1(bounds._drift_log_excess(report.n,
                                                                 report.ratio))
    assert report.notes == [
        f"weight_ratio: a values outside [1, {mean_time:.6g}] skipped",
        "resistance: drift degenerate, mean bound vacuous"]
    assert [(c.kind, c.source, c.param) for c in report.checks] == [
        ("mean", "weight_ratio", None), ("mean", "resistance", None),
        ("tail", "weight_ratio", 1.0)]
