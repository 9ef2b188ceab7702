"""Independent reference values for the benchmark's correctness checks.

Nothing here imports hitbounds.  Every value comes from a plain edge list,
solved with SciPy's sparse direct solver (SuperLU), or from a closed form
coded below.  The program's solvers (dense, banded, BiCGSTAB) are not used,
so a fault in one of them cannot also be in its reference.

Tolerances follow the backward-error bound of a direct solve: the relative
error of a solution is at most about eps * cond.  For the killed walk the
infinity-norm condition number of I - beta K_z is at most 2 * max_x y(x),
where y solves (I - beta K_z) y = 1 (the discounted expected lifetime from
x), so every comparison carries that kappa with it (see tolerance()).
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import splu

EPS = float(np.finfo(float).eps)
TINY = sys.float_info.min  # smallest normal float


def tolerance(ref: float, kappa: float, scale: float = 0.0) -> float:
    """Allowed |value - ref| for one entry of a direct solve.

    A backward-stable solve of a system with condition kappa errs by about
    eps * kappa * ||x||, where x is the whole solution vector: scale is its
    largest entry (the entry itself when 0).  The 1e-10 relative floor covers
    well-conditioned systems.
    """
    return 16.0 * EPS * kappa * max(abs(ref), scale) + 1e-10 * abs(ref)


def agrees(value, ref: float, kappa: float, scale: float = 0.0) -> bool:
    """value is a finite number within tolerance() of ref."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    if not (math.isfinite(value) and math.isfinite(ref)):
        return False
    return abs(value - ref) <= tolerance(ref, kappa, scale)


def agrees_relative(value, ref: float, kappa: float) -> bool:
    """value matches ref to 1e-10 + 16 eps kappa, relative to |ref|."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return abs(value - ref) <= (1e-10 + 16.0 * EPS * kappa) * abs(ref)


def resolvable(ref: float, kappa: float, scale: float) -> bool:
    """ref is a normal float that a solve at this kappa and scale can tell from 0."""
    return ref >= TINY and ref > 16.0 * EPS * kappa * scale


class KilledWalk:
    """The walk on an edge list, absorbed at a target set.

    edges are (u, v, w) triples with arbitrary hashable labels; a self-loop
    counts once in its vertex's weight.  All systems live on A, the
    origin's connected component minus the targets.
    """

    def __init__(self, edges, origin, targets):
        index = {}
        for u, v, _ in edges:
            index.setdefault(u, len(index))
            index.setdefault(v, len(index))
        index.setdefault(origin, len(index))
        for t in targets:
            index.setdefault(t, len(index))
        n = len(index)
        rows, cols, vals = [], [], []
        for u, v, w in edges:
            i, j = index[u], index[v]
            rows.append(i)
            cols.append(j)
            vals.append(float(w))
            if i != j:
                rows.append(j)
                cols.append(i)
                vals.append(float(w))
        weights = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        degree = np.asarray(weights.sum(axis=1)).ravel()
        _, comp = connected_components(weights, directed=False)
        o = index[origin]
        target_idx = {index[t] for t in targets}
        if o in target_idx:
            raise ValueError("origin must not be a target")
        alive = [i for i in range(n)
                 if comp[i] == comp[o] and i not in target_idx]
        hit = sorted(i for i in target_idx if comp[i] == comp[o])
        if not hit:
            raise ValueError("targets unreachable from the origin")
        self.index = index
        self.labels = {i: x for x, i in index.items()}
        self.origin = origin
        self.weights = weights
        self.hit = hit
        self.alive = alive
        self.o = alive.index(o)
        self.degree = degree
        self.origin_weight = float(degree[o])
        scale = 1.0 / degree[alive]
        w_aa = weights[alive][:, alive]
        self.w_aa = w_aa
        self.k_aa = (w_aa.multiply(scale[:, None])).tocsc()
        to_target = np.asarray(weights[alive][:, hit].sum(axis=1)).ravel()
        self.arrive = to_target * scale  # P(step from x into the targets)
        self._lu = {}

    @property
    def size(self) -> int:
        return len(self.alive)

    def _factor(self, beta: float):
        if beta not in self._lu:
            a = identity(self.size, format="csc") - beta * self.k_aa
            lu = splu(a.tocsc())
            lifetime = lu.solve(np.ones(self.size))
            self._lu[beta] = (lu, 2.0 * float(lifetime.max()))
        return self._lu[beta]

    def kappa(self, beta: float = 1.0) -> float:
        """Infinity-norm condition bound of I - beta K_z on A."""
        return self._factor(beta)[1]

    def expected_time(self) -> float:
        """E[T] from the origin: (I - K) h = 1."""
        lu, _ = self._factor(1.0)
        return float(lu.solve(np.ones(self.size))[self.o])

    def time_scale(self) -> float:
        """max_x E_x[T], the largest entry of h."""
        return self.kappa(1.0) / 2.0

    def survival(self, beta: float) -> float:
        """S_beta = E[beta^T]: (I - beta K) u = beta * P(step into targets)."""
        lu, _ = self._factor(beta)
        return float(lu.solve(beta * self.arrive)[self.o])

    def visits(self, beta: float) -> float:
        """R_beta = G_beta(o, o): (I - beta K) x = e_o."""
        lu, _ = self._factor(beta)
        e = np.zeros(self.size)
        e[self.o] = 1.0
        return float(lu.solve(e)[self.o])

    def green_row(self, beta: float) -> np.ndarray:
        """G_beta(o, x) for x in A: the transposed system (I - beta K)^T y = e_o."""
        lu, _ = self._factor(beta)
        e = np.zeros(self.size)
        e[self.o] = 1.0
        return lu.solve(e, trans="T")

    def green_scale(self, beta: float) -> float:
        """Largest entry of the Green row G_beta(o, .)."""
        return float(np.abs(self.green_row(beta)).max())

    def flow(self, beta: float, target) -> dict:
        """Loss flow {(x, y): G_beta(o, x) beta K(x, y)}, targets merged into target."""
        row = self.green_row(beta)
        label = [self.labels[i] for i in self.alive]
        out = {}
        k = self.k_aa.tocoo()
        for r, c, p in zip(k.row, k.col, k.data):
            out[(label[r], label[c])] = row[r] * beta * p
        for r, p in enumerate(self.arrive):
            if p > 0.0:
                out[(label[r], target)] = row[r] * beta * p
        return out

    def target_distance(self) -> int:
        """Hop distance from the origin to the nearest target."""
        hops = shortest_path(self.weights, unweighted=True, directed=False,
                             indices=self.index[self.origin])
        return int(min(hops[i] for i in self.hit))

    def resistance_scale(self) -> float:
        """Largest entry of G_1(o, .) / w_o, the vector behind r(o, z)."""
        return self.green_scale(1.0) / self.origin_weight

    def resistance(self) -> float:
        """r(o, z) from the grounded Laplacian: (D - W)|_A x = e_o."""
        lap = (identity(self.size, format="csc").multiply(self.degree[self.alive])
               - self.w_aa).tocsc()
        e = np.zeros(self.size)
        e[self.o] = 1.0
        return float(splu(lap).solve(e)[self.o])


def walk_of(graph) -> KilledWalk:
    """KilledWalk of a program graph, read only through its public fields."""
    edges = [(graph.labels[i], graph.labels[j], w) for i, j, w in graph.edge_list()]
    return KilledWalk(edges, graph.origin, graph.targets)


def killed_matrix(labels, edges, targets, beta: float) -> np.ndarray:
    """Dense I - beta K_z in the given label order (target rows are e_i)."""
    index = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    w = np.zeros((n, n))
    for u, v, wt in edges:
        i, j = index[u], index[v]
        w[i, j] += wt
        if i != j:
            w[j, i] += wt
    k = w / w.sum(axis=1)[:, None]
    for t in targets:
        k[index[t]] = 0.0
    return np.eye(n) - beta * k


# -- closed forms ----------------------------------------------------------


class Path:
    """Closed forms for a path 0..m, conductance weights[k] on edge (k, k+1).

    The walk starts at position origin and is absorbed at m.  E[T] and the
    resistance are sums of positive terms; S_beta is the product of the
    one-step-ahead transforms phi_k = E_k[beta^T_(k+1)], which satisfy
    phi_k = beta p_k / (1 - beta q_k phi_(k-1)) from the reflecting end.
    All three keep full relative precision, far below where a linear solve
    can resolve S_beta.
    """

    def __init__(self, weights, origin: int = 0, expected=None):
        self.weights = [float(w) for w in weights]
        self.origin = origin
        self._expected = expected

    def expected_time(self) -> float:
        """E[T]: the given closed form, else sum_k (1 + 2 sum_(i<k) c_i / c_k)."""
        if self._expected is not None:
            return self._expected
        below = 0.0
        terms = []
        for k, c in enumerate(self.weights):
            if k >= self.origin:
                terms.append(1.0 + 2.0 * below / c)
            below += c
        return math.fsum(terms)

    def resistance(self) -> float:
        """Series rule over the edges between origin and target."""
        return math.fsum(1.0 / w for w in self.weights[self.origin:])

    def log_survival(self, beta: float) -> float:
        log_s = 0.0
        phi = 0.0
        left = 0.0
        for k, right in enumerate(self.weights):
            p, q = right / (left + right), left / (left + right)
            phi = beta * p / (1.0 - beta * q * phi)
            if k >= self.origin:
                log_s += math.log(phi)
            left = right
        return log_s

    def survival(self, beta: float) -> float:
        """S_beta, 0.0 when it underflows."""
        return math.exp(self.log_survival(beta))


def unit_path(n: int) -> Path:
    """Unit path 0..n: E[T] = n^2, resistance n."""
    return Path([1.0] * n, expected=float(n) * float(n))


def fast_path(n: int, g: float) -> Path:
    """Fast path: weights 1, (g-1) g^(i-2) for 2 <= i < n, (g-1)^2 g^(n-3);
    E[T] = 2(n-2)/(g-1) + 2g/(g-1)^2 + n."""
    weights = ([1.0] + [(g - 1.0) * g ** (i - 2) for i in range(2, n)]
               + [(g - 1.0) ** 2 * g ** (n - 3)])
    expected = 2.0 * (n - 2) / (g - 1.0) + 2.0 * g / (g - 1.0) ** 2 + float(n)
    return Path(weights, expected=expected)


def biased_line(n: int, g: float, tail: int) -> Path:
    """Segment -tail..n with w(i-1, i) = g^(i-1), origin 0, target n."""
    return Path([g ** (i - 1) for i in range(1 - tail, n + 1)], origin=tail)


def mean_bound(n: int, g: float) -> float:
    """(g+1)/(g-1) * n + 1, the mean lower bound at drift g."""
    return (g + 1.0) / (g - 1.0) * n + 1.0


def advance_pgf(g: float, beta: float) -> float:
    """Smaller root of beta phi^2 - (g+1) phi + beta g = 0, cancellation free."""
    disc = max((g + 1.0) ** 2 - 4.0 * beta * beta * g, 0.0)
    return 2.0 * beta * g / (g + 1.0 + math.sqrt(disc))


def transform_bound(n: int, g: float, beta: float) -> float:
    """beta * phi(g, beta)^n, the transform upper bound at drift g."""
    return beta * advance_pgf(g, beta) ** n


def drift_equation_gap(n: int, ratio: float, g: float) -> float:
    """Relative gap of (g-1)^2 g^(n-2) = 2 ratio, in log space."""
    lhs = 2.0 * math.log(g - 1.0) + (n - 2) * math.log(g)
    return abs(lhs - math.log(2.0 * ratio)) / max(1.0, abs(math.log(2.0 * ratio)))
