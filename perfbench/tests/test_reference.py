"""The reference solver against the closed forms, on plain edge lists."""

import math

import pytest

import reference as ref


def path_walk(weights, origin=0):
    edges = [(k, k + 1, w) for k, w in enumerate(weights)]
    return ref.KilledWalk(edges, origin, [len(weights)])


@pytest.mark.parametrize("n", [1, 5, 40])
def test_unit_path(n):
    walk = path_walk([1.0] * n)
    closed = ref.unit_path(n)
    assert walk.expected_time() == pytest.approx(n * n, rel=1e-12)
    assert closed.expected_time() == n * n
    assert walk.resistance() == pytest.approx(n, rel=1e-12)
    assert closed.resistance() == n


@pytest.mark.parametrize("n, g", [(4, 2.0), (30, 1.3), (300, 1.02)])
def test_fast_path(n, g):
    closed = ref.fast_path(n, g)
    walk = path_walk(closed.weights)
    kappa = walk.kappa(1.0)
    assert ref.agrees(walk.expected_time(), closed.expected_time(), kappa)
    assert ref.agrees(walk.resistance(), closed.resistance(), kappa)
    # the explicit E[T] formula and the general path series agree
    series = ref.Path(closed.weights)
    assert series.expected_time() == pytest.approx(closed.expected_time(), rel=1e-12)


def test_biased_line_with_tail():
    closed = ref.biased_line(12, 1.5, tail=7)
    walk = path_walk(closed.weights, origin=7)
    kappa = walk.kappa(1.0)
    assert ref.agrees(walk.expected_time(), closed.expected_time(), kappa)
    assert ref.agrees(walk.resistance(), closed.resistance(), kappa)


@pytest.mark.parametrize("beta", [0.3, 0.9, 0.999])
def test_path_survival_product_matches_solve(beta):
    for closed in (ref.unit_path(25), ref.fast_path(40, 1.2),
                   ref.biased_line(15, 1.4, tail=10)):
        walk = path_walk(closed.weights, origin=closed.origin)
        assert ref.agrees_relative(walk.survival(beta), closed.survival(beta),
                                   walk.kappa(beta))


def test_survival_product_below_float_range():
    closed = ref.unit_path(2000)
    assert closed.survival(0.5) == 0.0
    assert closed.log_survival(0.5) < math.log(ref.TINY)


def test_labels_do_not_matter():
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (1, 3, 1.5), (3, 4, 1.0)]
    a = ref.KilledWalk(edges, 0, [4])
    relabel = {0: "e", 1: "b", 2: 9, 3: "a", 4: -1}
    b = ref.KilledWalk([(relabel[u], relabel[v], w) for u, v, w in edges],
                       "e", [-1])
    assert a.expected_time() == pytest.approx(b.expected_time(), rel=1e-13)
    assert a.survival(0.7) == pytest.approx(b.survival(0.7), rel=1e-13)
    assert a.resistance() == pytest.approx(b.resistance(), rel=1e-13)


def test_resistance_is_visits_over_weight():
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (2, 3, 1.0), (1, 1, 0.7)]
    walk = ref.KilledWalk(edges, 0, [3])
    assert walk.resistance() == pytest.approx(walk.visits(1.0) / walk.origin_weight,
                                              rel=1e-12)


def test_bound_formulas():
    g, beta, n = 1.7, 0.6, 9
    phi = ref.advance_pgf(g, beta)
    assert beta * (g + phi * phi) / (g + 1.0) == pytest.approx(phi, rel=1e-14)
    assert ref.transform_bound(n, g, beta) == pytest.approx(beta * phi**n)
    assert ref.mean_bound(n, g) == pytest.approx((g + 1) / (g - 1) * n + 1)
