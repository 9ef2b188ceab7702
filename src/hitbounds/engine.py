"""Exact hitting-time statistics via linear solves.

Everything here is derived from the killed transition kernel K_z: the kernel
of the walk with all rows at target vertices zeroed.  For a damping factor
beta in (0, 1], the resolvent-type kernel

    G_beta = sum_k (beta K_z)^k,   solved as (I - beta K_z) X = I,

collects the expected discounted visit counts of the walk absorbed at the
target set.  From it:

  * survival_transform: S_beta = E[beta^T], T the hitting time of the targets
    (equivalently the probability that a walk killed with rate 1-beta per
    step survives to reach them),
  * origin_visits: R_beta = G_beta(o, o), the expected discounted number of
    visits to the origin, initial visit included; R_1 = w_o * r(o, z),
  * gamma: R_beta * w_z / w_o,
  * effective_resistance: r(o, z) = G_1(o, o) / w_o.

K_z is assembled once per graph and kept on the (frozen) graph instance.
Every system is solved directly: by dense LU (LAPACK) up to _DENSE_MAX
unknowns, by sparse LU (SuperLU) above, where the per-call set-up of the
sparse solver no longer dominates.

hitting_time_pmf advances a dense K_z up to 64 steps per NumPy call, from
powers built by repeated squaring: nonnegative arithmetic, so nothing cancels.

Expectations are reported as math.inf when the walk cannot reach the target
set; no exception is raised for that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .graph import GraphError, WeightedGraph

PMF_HORIZON_CAP = 10_000_000
# Largest graph green_kernel returns as a dense matrix.
DENSE_VERTEX_LIMIT = 2000
# Unknowns up to which dense LAPACK beats sparse LU (it wins to about 120
# and loses from about 250), and dense pmf steps beat sparse ones.
_DENSE_MAX = 200


class _Kernel(NamedTuple):
    """K_z as entries K_z(row[k], col[k]) = p[k]; target rows hold none.

    comp is the origin's component (sorted canonical indices) and at_target
    marks its targets.
    """

    row: np.ndarray
    col: np.ndarray
    p: np.ndarray
    comp: np.ndarray
    at_target: np.ndarray


def _kernel(graph: WeightedGraph) -> _Kernel:
    """The killed kernel of graph, assembled on first use and kept on it."""
    kz = graph.__dict__.get("_kz")
    if kz is None:
        adj = graph.adjacency
        row = np.repeat(np.arange(graph.n), [len(nbrs) for nbrs in adj])
        col = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=len(row))
        w = np.fromiter(chain.from_iterable(nbrs.values() for nbrs in adj),
                        dtype=float, count=len(row))
        is_target = np.zeros(graph.n, dtype=bool)
        is_target[list(graph.target_indices)] = True
        live = ~is_target[row]
        row, col, w = row[live], col[live], w[live]
        comp = np.array(graph.component_of(graph.origin))
        kz = _Kernel(row, col, w / graph.vertex_weights[row], comp, is_target[comp])
        graph._kz = kz
    return kz


def _restrict(graph: WeightedGraph, idx):
    """Entries of K_z in rows idx as positions in idx; columns outside idx are -1."""
    kz = _kernel(graph)
    loc = np.full(graph.n, -1)
    loc[idx] = np.arange(len(idx))
    r = loc[kz.row]
    rows = r >= 0
    return r[rows], loc[kz.col[rows]], kz.p[rows]


def _solve(graph: WeightedGraph, beta, idx, rhs, transpose=False):
    """Solve (I - beta K_z)|idx x = rhs (or the transposed system).

    rhs holds one or more columns indexed by position in idx; the solution
    is returned the same way.
    """
    r, c, p = _restrict(graph, idx)
    inner = c >= 0  # absorbed columns outside idx drop out of the system
    r, c, v = r[inner], c[inner], beta * p[inner]
    m = len(idx)
    if m <= _DENSE_MAX:
        a = np.eye(m)
        a[r, c] -= v
        return np.linalg.solve(a.T if transpose else a, rhs)
    from scipy.sparse import csc_matrix, identity
    from scipy.sparse.linalg import splu

    a = identity(m, format="csc") - csc_matrix((v, (r, c)), shape=(m, m))
    return splu(a).solve(rhs, trans="T" if transpose else "N")


def green_row(graph: WeightedGraph, beta: float):
    """G_beta(origin, x) for x in the origin's component.

    Returns (component canonical indices, values).  Requires beta in (0, 1];
    at beta = 1 the component must contain a target (otherwise every entry
    would be infinite).
    """
    _check_beta(beta, allow_one=True)
    kz = _kernel(graph)
    if beta == 1.0 and not kz.at_target.any():
        raise GraphError("targets unreachable from origin: visit counts infinite")
    rhs = (kz.comp == graph.origin_index).astype(float)
    return kz.comp.tolist(), _solve(graph, beta, kz.comp, rhs, transpose=True)


def green_kernel(graph: WeightedGraph, beta: float) -> np.ndarray:
    """Full matrix G_beta = (I - beta K_z)^{-1} in canonical order.

    Components that cannot reach a target are filled with math.inf at
    beta = 1 (infinite expected visits) instead of raising.
    """
    _check_beta(beta, allow_one=True)
    if graph.n > DENSE_VERTEX_LIMIT:
        raise GraphError(
            f"green_kernel returns a dense matrix (<= {DENSE_VERTEX_LIMIT} "
            "vertices); use green_row"
        )
    out = np.zeros((graph.n, graph.n))
    remaining = set(range(graph.n))
    while remaining:
        comp = graph.component_of(graph.labels[min(remaining)])
        remaining -= set(comp)
        has_target = any(i in graph.target_indices for i in comp)
        if beta == 1.0 and not has_target:
            out[np.ix_(comp, comp)] = math.inf
            continue
        out[np.ix_(comp, comp)] = _solve(graph, beta, comp, np.eye(len(comp)))
    return out


def _check_beta(beta, allow_one=False):
    top = 1.0 if allow_one else math.nextafter(1.0, 0.0)
    if not (isinstance(beta, (int, float)) and 0.0 < float(beta) <= top):
        limit = "(0, 1]" if allow_one else "(0, 1)"
        raise GraphError(f"beta must lie in {limit}, got {beta!r}")


# -- scalar statistics ----------------------------------------------------


def expected_hitting_time(graph: WeightedGraph) -> float:
    """E[T], the expected number of steps from the origin to the target set.

    Solves (I - K_z) h = 1 on the origin's component minus the targets.
    Returns math.inf when the targets are unreachable.
    """
    kz = _kernel(graph)
    if not kz.at_target.any():
        return math.inf
    alive = kz.comp[~kz.at_target]
    h = _solve(graph, 1.0, alive, np.ones(len(alive)))
    return float(h[np.searchsorted(alive, graph.origin_index)])


def _transform_and_visits(graph: WeightedGraph, beta: float) -> tuple:
    """(S_beta, R_beta) from one Green-row solve."""
    _check_beta(beta, allow_one=True)
    kz = _kernel(graph)
    if beta == 1.0 and not kz.at_target.any():
        return 0.0, math.inf
    comp, vals = green_row(graph, beta)
    return (float(sum(vals[kz.at_target])),
            float(vals[comp.index(graph.origin_index)]))


def survival_transform(graph: WeightedGraph, beta: float) -> float:
    """S_beta = E[beta^T] (0 when the targets are unreachable)."""
    return _transform_and_visits(graph, beta)[0]


def origin_visits(graph: WeightedGraph, beta: float) -> float:
    """R_beta = G_beta(o, o): expected visits to the origin, initial included.

    At beta = 1 this equals w_o * r(o, z); math.inf when z is unreachable.
    """
    return _transform_and_visits(graph, beta)[1]


def gamma(graph: WeightedGraph, beta: float) -> float:
    """Gamma_beta = R_beta * w_z / w_o."""
    r = origin_visits(graph, beta)
    wo = graph.vertex_weight(graph.origin)
    if wo == 0.0:
        raise GraphError("origin has zero vertex weight")
    return r * graph.set_weight() / wo


def effective_resistance(graph: WeightedGraph) -> float:
    """r(o, z) = G_1(o, o) / w_o for the network with unit conductance = weight."""
    wo = graph.vertex_weight(graph.origin)
    if not _kernel(graph).at_target.any():
        return math.inf
    if wo == 0.0:
        raise GraphError("origin has zero vertex weight")
    return origin_visits(graph, 1.0) / wo


# -- distributions --------------------------------------------------------


@dataclass
class HittingStats:
    """Exact hitting-time distribution summary.

    pmf[k] = P(T = k) for k = 0..horizon; survival_mass = P(T > horizon).
    transform_samples holds (beta, S_beta) pairs when requested.
    """

    expected: float
    pmf: np.ndarray
    survival_mass: float
    transform_samples: tuple = ()

    @property
    def horizon(self) -> int:
        return len(self.pmf) - 1

    def cdf_at(self, x: float) -> float:
        """P(T <= x) from the tabulated pmf (x may be fractional)."""
        k = min(int(math.floor(x)), self.horizon)
        if k < 0:
            return 0.0
        return float(self.pmf[: k + 1].sum())


def default_horizon(graph: WeightedGraph, expected: float) -> int:
    base = 4 * graph.n * graph.n
    if math.isfinite(expected):
        base = max(int(math.ceil(16.0 * expected)), base)
    return min(base, PMF_HORIZON_CAP)


def hitting_time_pmf(graph: WeightedGraph, horizon: int | None = None) -> HittingStats:
    """Exact pmf of T by iterating the killed kernel from the origin.

    The default horizon is max(16 E[T], 4 n^2), capped at 1e7.  Iteration
    stops early once the surviving mass underflows to zero.

    Up to _DENSE_MAX live vertices m, a block of b = 2^L <= 64 steps sets
    pmf[k:k+b] = v A and v = v K^b, A = [a, K a, ..., K^(b-1) a] for the
    arrival vector a, both from L doublings of about m steps each, with
    L m <= horizon / 2.  The rest goes in blocks of b/2, ..., 1.
    """
    expected = expected_hitting_time(graph)
    if horizon is None:
        horizon = default_horizon(graph, expected)
    horizon = int(horizon)
    if horizon < 0:
        raise GraphError("horizon must be nonnegative")
    kz = _kernel(graph)
    alive = kz.comp[~kz.at_target]
    m = len(alive)
    r, c, p = _restrict(graph, alive)
    inner = c >= 0  # from alive rows every other column is a target
    arrive = np.bincount(r[~inner], weights=p[~inner], minlength=m)
    r, c, p = r[inner], c[inner], p[inner]
    # blocks[i] = (b, A^T, (K^b)^T) with b = 2^i
    if m > _DENSE_MAX:
        from scipy.sparse import csr_matrix

        blocks = [(1, arrive, csr_matrix((p, (c, r)), shape=(m, m)))]
    else:
        kz_dense = np.zeros((m, m))
        kz_dense[r, c] = p
        blocks = [(1, arrive, kz_dense.T)]
        while blocks[-1][0] < 64 and len(blocks) * m <= horizon // 2:
            b, a_t, q = blocks[-1]
            blocks.append((2 * b, np.vstack([a_t, a_t @ q]), q @ q))

    pmf = np.zeros(horizon + 1)
    v = np.zeros(m)
    v[np.searchsorted(alive, graph.origin_index)] = 1.0
    k = 1
    for b, a_t, q in reversed(blocks):
        while k + b <= horizon + 1 and v.any():
            pmf[k:k + b] = a_t @ v
            v = q @ v
            k += b
    survival = float(v.sum())
    return HittingStats(expected=expected, pmf=pmf, survival_mass=survival)


@dataclass
class WalkParameters:
    """The (S, R, Gamma) triple of the damped walk at a fixed beta."""

    beta: float
    survival: float
    visits: float
    gamma: float
    graph: WeightedGraph | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_graph(cls, graph: WeightedGraph, beta: float) -> "WalkParameters":
        s, r = _transform_and_visits(graph, beta)
        wo = graph.vertex_weight(graph.origin)
        g = r * graph.set_weight() / wo if wo else math.inf
        p = cls(beta=float(beta), survival=s, visits=r, gamma=g, graph=graph)
        p.validate()
        return p

    def validate(self, tol: float = 1e-9) -> None:
        if not -tol <= self.survival <= 1.0 + tol:
            raise GraphError(f"survival {self.survival} outside [0, 1]")
        if self.visits < 1.0 - tol:
            raise GraphError(f"visit count {self.visits} below 1")
        if self.graph is not None and math.isfinite(self.visits):
            wo = self.graph.vertex_weight(self.graph.origin)
            expect = self.visits * self.graph.set_weight() / wo
            if abs(self.gamma - expect) > 1e-12 * max(1.0, abs(expect)):
                raise GraphError("gamma inconsistent with visits * w_z / w_o")
