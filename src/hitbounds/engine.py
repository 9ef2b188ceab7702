"""Exact hitting-time statistics via linear solves.

Everything here is derived from the killed transition kernel K_z: the kernel
of the walk with all rows at target vertices zeroed.  For a damping factor
beta in (0, 1], the resolvent-type kernel

    G_beta = sum_k (beta K_z)^k,   solved as (I - beta K_z) X = I,

collects the expected discounted visit counts of the walk absorbed at the
target set.  walk_parameters reads off its row at the origin:

  * survival_transform: S_beta = E[beta^T], T the hitting time of the targets
    (equivalently the probability that a walk killed with rate 1-beta per
    step survives to reach them),
  * origin_visits: R_beta = G_beta(o, o), the expected discounted number of
    visits to the origin, initial visit included; R_1 = w_o * r(o, z),
  * gamma: R_beta * w_z / w_o (math.inf for a zero-weight origin),
  * effective_resistance: r(o, z) = G_1(o, o) / w_o.

Each graph keeps one walk record (_Kernel) on its frozen instance: K_z, E[T]
and the Green row per beta with its S, R and Gamma, each solved once, on
first use.  The pmf is not kept: its last bits depend on the horizon.
Every system is solved directly: by dense LU (LAPACK) up to _DENSE_MAX
unknowns, by sparse LU (SuperLU) above, where the per-call set-up of the
sparse solver no longer dominates.  green_rows takes every beta a caller
needs at once: the dense systems of one graph go to LAPACK as one stack,
each solved exactly as it would be alone.

hitting_time_pmf either advances a dense K_z 2^L steps per NumPy call, from
powers built by L repeated squarings (nonnegative arithmetic, so nothing
cancels), or steps a CSR K_z singly: a cost model picks L, or CSR where no L
is predicted cheaper.

Expectations are reported as math.inf when the walk cannot reach the target
set; no exception is raised for that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .graph import GraphError, WeightedGraph

PMF_HORIZON_CAP = 10_000_000
# Largest graph green_kernel returns as a dense matrix, and most live
# vertices the pmf steps densely.
DENSE_VERTEX_LIMIT = 2000
# Most bytes the dense pmf's kept powers of K_z (and their arrival blocks)
# may hold at once: 7 powers at m = DENSE_VERTEX_LIMIT, 224 MB.
_PMF_BYTES = 7 * 8 * DENSE_VERTEX_LIMIT**2
# Unknowns up to which dense LAPACK beats sparse LU in a solve (it wins to
# about 120 and loses from about 250).  The pmf chooses by _pmf_doublings.
_DENSE_MAX = 200


@dataclass(eq=False)
class _Kernel:
    """The walk record of one graph: K_z and every solution found on it.

    K_z(row[k], col[k]) = p[k]; target rows hold none.  comp is the origin's
    component (sorted canonical indices), origin the origin's position in it,
    at_target marks its targets and targets holds their positions, so that
    a cached read touches no more of a row than it needs.  expected is E[T],
    rows[beta] the read-only Green row G_beta(o, comp) and params[beta] its
    checked floats (S, R, Gamma); (0, inf, inf) at beta = 1 with no target.
    """

    row: np.ndarray
    col: np.ndarray
    p: np.ndarray
    comp: np.ndarray
    origin: int
    at_target: np.ndarray
    targets: np.ndarray
    expected: float | None = None
    rows: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def _kernel(graph: WeightedGraph) -> _Kernel:
    """The walk record of graph, assembled on first use and kept on it."""
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
        comp = graph.component_of(graph.origin)
        at_target = is_target[comp]
        kz = _Kernel(row, col, w / graph.vertex_weights[row], np.array(comp),
                     comp.index(graph.origin_index), at_target,
                     np.flatnonzero(at_target))
        if not len(kz.targets):  # at beta = 1 every visit count is infinite
            kz.params[1.0] = (0.0, math.inf, math.inf)
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


def _solve(graph: WeightedGraph, betas, idx, rhs, transpose=False):
    """Solve (I - beta K_z)|idx x = rhs (or the transposed system) for each beta.

    rhs holds one or more columns indexed by position in idx; the solutions
    come back the same way, stacked along a first axis with one per beta.
    Up to _DENSE_MAX unknowns the systems go to LAPACK as (k, m, m) stacks
    of at most (_DENSE_MAX // m)^2 systems, no more entries than one
    _DENSE_MAX-sized solve; above it SuperLU factors one beta at a time.
    A system singular in floating point (an edge weight lost beside its
    neighbours' in a vertex weight) raises GraphError on either branch.
    """
    r, c, p = _restrict(graph, idx)
    inner = c >= 0  # absorbed columns outside idx drop out of the system
    r, c, p = r[inner], c[inner], p[inner]
    m = len(idx)
    try:
        if m <= _DENSE_MAX:
            flat = c * m + r if transpose else r * m + c  # in a raveled m x m system
            b = rhs.reshape(1, m, -1)  # one right-hand side, broadcast over a stack
            step = max(1, (_DENSE_MAX // m) ** 2)
            x = []
            for i in range(0, len(betas), step):
                chunk = np.asarray(betas[i:i + step], dtype=float)[:, None]
                a = np.zeros((len(chunk), m * m))
                a[:, ::m + 1] = 1.0
                a[:, flat] -= chunk * p
                x.append(np.linalg.solve(a.reshape(-1, m, m), b))
            return np.concatenate(x).reshape(len(betas), *rhs.shape)
        from scipy.sparse import csc_matrix, identity
        from scipy.sparse.linalg import splu

        eye = identity(m, format="csc")
        return np.stack([
            splu(eye - csc_matrix((beta * p, (r, c)), shape=(m, m)))
            .solve(rhs, trans="T" if transpose else "N") for beta in betas])
    except (np.linalg.LinAlgError, RuntimeError):  # SuperLU raises RuntimeError
        raise GraphError("I - beta K_z is singular in floating point") from None


def green_rows(graph: WeightedGraph, betas) -> list:
    """Read-only rows G_beta(origin, comp), one per beta in the sequence betas.

    comp is graph.component_of(graph.origin), the origin's component in
    canonical order.  Betas the walk record lacks are solved together in
    one _solve; each row's S, R and Gamma are checked (0 <= S <= 1 and
    R >= 1, to 1e-9) before row and numbers are kept.  Requires each beta
    in (0, 1]; at beta = 1 the component must contain a target.
    """
    for beta in betas:
        _check_beta(beta)
    kz = _kernel(graph)
    todo = [beta for beta in dict.fromkeys(betas) if beta not in kz.rows]
    if todo:
        if 1.0 in todo and not len(kz.targets):
            raise GraphError("targets unreachable from origin: visit counts infinite")
        rhs = (kz.comp == graph.origin_index).astype(float)
        vals = _solve(graph, todo, kz.comp, rhs, transpose=True)
        # S: each row's target entries added left to right in one NumPy call,
        # the bits of sum() over them (0.0 + makes an all -0.0 total +0.0)
        survival = (0.0 + np.add.accumulate(vals[:, kz.targets], axis=1)[:, -1]
                    if len(kz.targets) else np.zeros(len(todo)))
        params = [(s, r, _gamma(graph, r)) for s, r
                  in zip(survival.tolist(), vals[:, kz.origin].tolist())]
        for s, r, _ in params:
            _check_walk(s, r)
        vals.flags.writeable = False
        kz.rows.update(zip(todo, vals))
        kz.params.update(zip(todo, params))
    return [kz.rows[beta] for beta in betas]


def green_kernel(graph: WeightedGraph, beta: float) -> np.ndarray:
    """Full matrix G_beta = (I - beta K_z)^{-1} in canonical order.

    Components that cannot reach a target are filled with math.inf at
    beta = 1 (infinite expected visits) instead of raising.
    """
    _check_beta(beta)
    if graph.n > DENSE_VERTEX_LIMIT:
        raise GraphError(
            f"green_kernel returns a dense matrix (<= {DENSE_VERTEX_LIMIT} "
            "vertices); use green_rows"
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
        out[np.ix_(comp, comp)] = _solve(graph, (beta,), comp, np.eye(len(comp)))[0]
    return out


def _check_beta(beta):
    if not (isinstance(beta, (int, float)) and 0.0 < float(beta) <= 1.0):
        raise GraphError(f"beta must lie in (0, 1], got {beta!r}")


# -- scalar statistics ----------------------------------------------------


def expected_hitting_time(graph: WeightedGraph) -> float:
    """E[T], the expected number of steps from the origin to the target set.

    Solves (I - K_z) h = 1 on the origin's component minus the targets.
    Returns math.inf when the targets are unreachable.  A walk needs at
    least dist(o, z) steps, so a solve below that, beyond a relative 1e-9
    of roundoff, has lost the small weights and raises GraphError.
    """
    kz = _kernel(graph)
    if kz.expected is None:
        expected = math.inf
        if kz.at_target.any():
            alive = kz.comp[~kz.at_target]
            h = _solve(graph, (1.0,), alive, np.ones(len(alive)))[0]
            expected = float(h[np.searchsorted(alive, graph.origin_index)])
            d = graph.distance(graph.origin)
            if not expected >= d * (1.0 - 1e-9):
                raise GraphError(f"expected hitting time {expected:.6g} below the "
                                 f"distance {d}: the solve lost precision")
        kz.expected = expected  # kept only once the solve has succeeded
    return kz.expected


def walk_parameters(graph: WeightedGraph, betas) -> list:
    """One fresh WalkParameters per beta in the sequence betas.

    Reads the (S, R, Gamma) green_rows keeps; betas the walk record lacks
    are solved in one green_rows call.  At beta = 1 with the targets
    unreachable, S = 0 and R = Gamma = inf, without a solve.
    """
    kz = _kernel(graph)
    todo = [beta for beta in betas if beta not in kz.params]
    if todo:
        green_rows(graph, todo)
    return [WalkParameters(float(beta), *kz.params[beta]) for beta in betas]


def survival_transform(graph: WeightedGraph, beta: float) -> float:
    """S_beta = E[beta^T] (0 when the targets are unreachable)."""
    return walk_parameters(graph, (beta,))[0].survival


def origin_visits(graph: WeightedGraph, beta: float) -> float:
    """R_beta = G_beta(o, o): expected visits to the origin, initial included.

    At beta = 1 this equals w_o * r(o, z); math.inf when z is unreachable.
    """
    return walk_parameters(graph, (beta,))[0].visits


def gamma(graph: WeightedGraph, beta: float) -> float:
    """Gamma_beta = R_beta * w_z / w_o; math.inf when w_o = 0 or R_beta = inf."""
    return walk_parameters(graph, (beta,))[0].gamma


def effective_resistance(graph: WeightedGraph) -> float:
    """r(o, z) = G_1(o, o) / w_o for the network with unit conductance = weight."""
    r = walk_parameters(graph, (1.0,))[0].visits
    return r / graph.vertex_weight(graph.origin) if math.isfinite(r) else math.inf


# -- distributions --------------------------------------------------------


@dataclass
class HittingStats:
    """Exact hitting-time distribution summary.

    pmf[k] = P(T = k) for k < len(pmf), and 0 from there to horizon: the pmf
    stops where the walk is surely absorbed.  survival_mass = P(T > horizon).
    """

    expected: float
    pmf: np.ndarray
    survival_mass: float
    horizon: int

    @cached_property
    def cdf(self) -> np.ndarray:
        """Read-only cdf[k] = P(T <= k) for k < len(pmf): the pmf's running sum."""
        cdf = self.pmf.cumsum()
        cdf.flags.writeable = False
        return cdf

    def cdf_at(self, x: float) -> float:
        """P(T <= x) from the tabulated pmf (x may be fractional or infinite)."""
        if math.isnan(x):
            raise GraphError("cdf_at needs a number, got nan")
        if x < 0:
            return 0.0
        return float(self.cdf[int(min(x, len(self.cdf) - 1))])


def default_horizon(graph: WeightedGraph, expected: float) -> int:
    base = 4 * graph.n * graph.n
    if math.isfinite(expected):
        base = max(int(math.ceil(16.0 * expected)), base)
    return min(base, PMF_HORIZON_CAP)


def _pmf_cost(m: int, horizon: int, levels: int) -> float:
    """Predicted ns of the dense pmf over m live vertices with L = levels doublings.

    Doubling i < L, from 2^i to 2^(i+1) steps, costs 4500 + 0.035 m^3 (the
    product K^(2^i) K^(2^i)) + 0.12 2^i m^2 (a_t @ q over 2^i rows, and its
    copy): L (4500 + 0.035 m^3) + 0.12 (b - 1) m^2 for b = 2^L.  A block of
    b steps costs 3000 + 0.3 (b m + m^2), and the horizon takes horizon // b
    of them plus one per set bit below b.  Fitted to timings at m = 10 to
    1500 and horizons 200 to 311,480 on a 2-core x86-64 host (2 MiB L2 per
    core) with one OpenBLAS thread.  0.3 is the block rate once the block
    outgrows the cache; within it, about 0.12.
    """
    b = 1 << levels
    blocks = horizon // b + (horizon % b).bit_count()
    return (levels * (4500 + 0.035 * m**3) + 0.12 * (b - 1) * m * m
            + blocks * (3000 + 0.3 * (b * m + m * m)))


def _pmf_bytes(m: int, horizon: int, levels: int) -> int:
    """Most bytes the powers of K and arrival blocks of L doublings hold at once.

    That is during the last doubling, b = 2^L: the kept powers for the set
    bits of low = horizon mod b/2, K^(b/2) and K^b, and arrival blocks of
    low + 2 b rows (the kept ones, A for b/2 steps, its product and A for b).
    """
    if not levels:
        return 8 * m * (m + 1)
    low = horizon & ((1 << levels - 1) - 1)
    return 8 * m * (m * (low.bit_count() + 2) + low + (2 << levels))


def _pmf_doublings(m: int, nnz: int, horizon: int) -> int | None:
    """Doublings L for the dense blocked pmf, or None where CSR steps are cheaper.

    m live vertices, nnz entries of K_z among them.  L is the argmin of
    _pmf_cost over L m <= horizon / 2 with _pmf_bytes within _PMF_BYTES
    (2^L beyond the horizon only adds cost); dense only up to
    DENSE_VERTEX_LIMIT, and only where that cost is no more than the
    predicted horizon (6000 + nnz) ns of single CSR steps.
    """
    if m > DENSE_VERTEX_LIMIT:
        return None
    top = min(horizon // 2 // m, max(horizon.bit_length() - 1, 0))
    costs = {levels: _pmf_cost(m, horizon, levels) for levels in range(top + 1)
             if _pmf_bytes(m, horizon, levels) <= _PMF_BYTES}
    levels = min(costs, key=costs.get)
    return None if costs[levels] > horizon * (6000 + nnz) else levels


def hitting_time_pmf(graph: WeightedGraph, horizon: int | None = None) -> HittingStats:
    """Exact pmf of T by iterating the killed kernel from the origin.

    The default horizon is max(16 E[T], 4 n^2), capped at PMF_HORIZON_CAP
    = 1e7; a larger or non-integer horizon raises GraphError.  Iteration
    stops early once the surviving mass underflows to zero, and the pmf is
    stored only up to there: beyond the default horizon its array grows
    with the steps taken.

    Over m live vertices, a dense block of b = 2^L steps sets
    pmf[k:k+b] = v A and v = v K^b, A = [a, K a, ..., K^(b-1) a] for the
    arrival vector a, both from L doublings, with L m <= horizon / 2 and L
    chosen by _pmf_doublings' cost model.  The rest goes in blocks of b/2,
    ..., 1, one for each set bit of horizon below b; only those blocks are
    kept.  Where the model predicts every L to cost more than single CSR
    steps, K is kept sparse and stepped singly.
    """
    if horizon is not None and (
            isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer))
            or not 0 <= horizon <= PMF_HORIZON_CAP):
        raise GraphError(f"horizon must lie in [0, {PMF_HORIZON_CAP}] and be an "
                         f"integer, got {horizon!r}")
    expected = expected_hitting_time(graph)
    horizon = default_horizon(graph, expected) if horizon is None else int(horizon)
    kz = _kernel(graph)
    alive = kz.comp[~kz.at_target]
    m = len(alive)
    r, c, p = _restrict(graph, alive)
    inner = c >= 0  # from alive rows every other column is a target
    arrive = np.bincount(r[~inner], weights=p[~inner], minlength=m)
    r, c, p = r[inner], c[inner], p[inner]
    # blocks hold (b, A^T, (K^b)^T), b = 2^i increasing
    levels = _pmf_doublings(m, len(p), horizon)
    if levels is None:
        from scipy.sparse import csr_matrix

        blocks = [(1, arrive, csr_matrix((p, (c, r)), shape=(m, m)))]
    else:
        q = np.zeros((m, m))
        q[r, c] = p
        blocks = [(1, arrive, q.T)]
        for i in range(levels):
            b, a_t, q = blocks[-1]
            if not horizon >> i & 1:  # block b never runs: drop its power
                blocks.pop()
            blocks.append((2 * b, np.vstack([a_t, a_t @ q]), q @ q))

    # up to the default horizon at once; past it, grown as the walk survives
    pmf = np.zeros(min(horizon, default_horizon(graph, expected)) + 1)
    v = np.zeros(m)
    v[np.searchsorted(alive, graph.origin_index)] = 1.0
    k = 1
    for b, a_t, q in reversed(blocks):
        while k + b <= horizon + 1 and v.any():
            if k + b > len(pmf):
                pmf = np.concatenate(
                    [pmf, np.zeros(min(horizon + 1, max(2 * len(pmf), k + b)) - len(pmf))])
            pmf[k:k + b] = a_t @ v
            v = q @ v
            k += b
    survival = float(v.sum())
    return HittingStats(expected=expected, pmf=pmf[:k].copy() if k < len(pmf) else pmf,
                        survival_mass=survival, horizon=horizon)


@dataclass(slots=True)
class WalkParameters:
    """The (S, R, Gamma) triple of the damped walk at a fixed beta."""

    beta: float
    survival: float
    visits: float
    gamma: float

    def validate(self) -> None:
        _check_walk(self.survival, self.visits)


def _check_walk(survival: float, visits: float) -> None:
    """Raise GraphError unless 0 <= S <= 1 and R >= 1, each to 1e-9."""
    if not -1e-9 <= survival <= 1.0 + 1e-9:
        raise GraphError(f"survival {survival} outside [0, 1]")
    if visits < 1.0 - 1e-9:
        raise GraphError(f"visit count {visits} below 1")


def _gamma(graph: WeightedGraph, visits: float) -> float:
    """Gamma = R * w_z / w_o; math.inf when w_o = 0, and for R = inf."""
    wo = graph.vertex_weight(graph.origin)
    return visits * graph.set_weight() / wo if wo and visits != math.inf else math.inf
