"""Loss flows: the network-flow picture of the damped absorbed walk.

For beta in (0, 1) the expected discounted edge traversals

    f(x, y) = G_beta(o, x) * beta * K_z(x, y)

form a nonnegative flow with source at the origin and sink at the target:
at every non-target vertex the outflow equals beta times (inflow plus the
unit source at the origin), and nothing flows out of the target.  The walk
statistics are linear functionals of f: survival S = total flow into the
target, visit count R = 1 + flow into the origin, and Gamma = R w_z / w_o
is recovered from flow ratios alone.

The edge ratio theta(x, y) = f(x, y) / f(y, x) is the ratio of a vertex
potential, so its product around any cycle is 1 (reversibility).  One
breadth-first search builds that potential; Gamma is read from it, and
reversibility is checked on every support edge against it.  The
directed quantity s(x, y) = (beta f(x,y) - f(y,x)) / (f(x,y) - beta f(y,x))
is the natural per-edge progress variable, with h(s) = s (1 - s beta) /
(beta - s) its multiplicative transform.

decompose peels the flow into weighted self-avoiding origin-to-target path
flows plus a dead-end remainder that never reaches the target.  Each path
component is determined by its backtracking ratios; its survival and Gamma
factor over edges through s and h(s), which gives the FlowDecomposition
identities used for extremal reasoning: survival is exactly beta * sum of
alpha * prod(s), and R is bounded by 2/(1-beta^2) * (1 - beta * sum of
alpha * s_first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import engine
from .graph import GraphError, WeightedGraph, _hops, _label_key


class FlowError(ValueError):
    """Invalid flow, infeasible parameters, or undefined flow quantity."""


class DecompositionError(FlowError):
    """A valid flow whose decomposition did not terminate."""


_ADMISSIBLE_SLACK = 1e-12


def _check_beta(beta) -> None:
    if not 0.0 < beta < 1.0:
        raise FlowError(f"beta must lie in (0, 1), got {beta!r}")


@dataclass(eq=False)
class LossFlow:
    """A damped origin-to-target flow on a labelled vertex set.

    matrix[i, j] is the flow on the directed edge i -> j in the canonical
    order of labels.  graph is set when the flow came from a weighted graph
    (after target contraction); synthetic path flows carry graph=None.
    The flow keeps its vertex potential after first use, so matrix is not
    to be mutated afterwards.
    """

    beta: float
    labels: tuple
    origin: object
    target: object
    matrix: np.ndarray = field(repr=False)
    graph: WeightedGraph | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_beta(self.beta)
        self.labels = tuple(self.labels)
        self.index = {x: i for i, x in enumerate(self.labels)}
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = len(self.labels)
        if self.matrix.shape != (n, n):
            raise FlowError(f"flow matrix must be {n}x{n}")
        if self.origin not in self.index or self.target not in self.index:
            raise FlowError("origin and target must be among the labels")
        if self.origin == self.target:
            raise FlowError("origin must differ from the target")
        self.origin_index = self.index[self.origin]
        self.target_index = self.index[self.target]

    def value(self, x, y) -> float:
        """Flow on the directed edge x -> y."""
        return float(self.matrix[self.index[x], self.index[y]])

    @cached_property
    def _pot(self) -> np.ndarray:
        return _potential(self)


def build_flow(graph: WeightedGraph, beta: float) -> LossFlow:
    """The canonical flow of the damped absorbed walk on a graph.

    The graph is normalized first: targets contracted to a single vertex and
    inaccessible pockets dropped (neither changes the hitting law).  The
    returned flow lives on the normalized graph.
    """
    _check_beta(beta)
    work = graph.normalized()
    kz = engine._kernel(work)
    green = np.zeros(work.n)
    green[kz.comp] = engine.green_rows(work, (beta,))[0]
    live = green[kz.row] != 0.0
    row, col = kz.row[live], kz.col[live]
    m = np.zeros((work.n, work.n))
    m[row, col] = green[row] * beta * kz.p[live]
    return LossFlow(beta=beta, labels=work.labels, origin=work.origin,
                    target=work.targets[0], matrix=m, graph=work)


def node_law_residual(flow: LossFlow) -> float:
    """Largest violation of the conservation law, in absolute flow units.

    At non-target x: outflow = beta * (inflow + 1 if x is the origin).
    At the target: outflow = 0.
    """
    m = flow.matrix
    inflow = m.sum(axis=0)
    outflow = m.sum(axis=1)
    lhs = flow.beta * inflow
    lhs[flow.origin_index] += flow.beta
    resid = np.abs(lhs - outflow)
    resid[flow.target_index] = abs(outflow[flow.target_index])
    return float(resid.max())


def theta(flow: LossFlow, x, y) -> float:
    """Backtracking ratio f(x, y) / f(y, x); the target end is always 0."""
    fxy = flow.value(x, y)
    fyx = flow.value(y, x)
    if fyx == 0.0:
        if fxy == 0.0:
            raise FlowError(f"no flow on edge {x!r}-{y!r}")
        return math.inf
    return fxy / fyx


def _potential(flow: LossFlow) -> np.ndarray:
    """Vertex potential pot with f(x, y) / f(y, x) = pot[y] / pot[x].

    A breadth-first search from the origin (pot = 1) over the two-way
    support edges off the target sets pot[j] = pot[i] f(i, j) / f(j, i).
    Vertices it does not reach get NaN.  Read it as flow._pot, which runs
    this once per flow and keeps the read-only result.
    """
    m = flow.matrix
    two_way = (m > 0.0) & (m.T > 0.0)
    two_way[:, flow.target_index] = False
    oi = flow.origin_index
    pot = [math.nan] * len(m)
    pot[oi] = 1.0
    queue = [oi]
    for i in queue:
        for j in np.flatnonzero(two_way[i]).tolist():
            if math.isnan(pot[j]):
                pot[j] = pot[i] * (m[i, j] / m[j, i])
                queue.append(j)
    pot = np.array(pot)
    pot.flags.writeable = False
    return pot


def cycle_reversibility_gap(flow: LossFlow) -> float:
    """Largest relative mismatch of flow products around cycles.

    Reversibility of the underlying walk makes the product of f along any
    cycle avoiding the target equal the product along its reversal, that
    is, a(x, y) = f(x, y) pot[x] is symmetric.  The check runs on every
    support edge between vertices the potential reaches, so it covers
    every such cycle: a cycle's relative mismatch is |a - a^T| / max(a, a^T)
    on the one edge that closes it over the search tree.  Returns 0.0 when
    there are no such edges.
    """
    a = flow.matrix * flow._pot[:, None]
    hi = np.maximum(a, a.T)
    edge = hi > 0.0  # False where either end is unreached (NaN)
    if not edge.any():
        return 0.0
    return float((np.abs(a - a.T)[edge] / hi[edge]).max())


def flow_parameters(flow: LossFlow) -> engine.WalkParameters:
    """(S, R, Gamma) read off the flow alone.

    S = flow into the target, R = 1 + flow into the origin, and Gamma sums
    theta-path products (the potential) times terminal flows: path
    independence of the theta products makes any origin-to-x support path
    usable.  A flow built from a graph must also give a valid (S, R) and
    Gamma = R w_z / w_o, to a relative 1e-12; otherwise GraphError.
    """
    m = flow.matrix
    zi = flow.target_index
    s = float(m[:, zi].sum())
    r = 1.0 + float(m[:, flow.origin_index].sum())
    pot = flow._pot
    gam = 0.0
    for i in np.flatnonzero(m[:, zi]):
        if math.isnan(pot[i]):
            raise FlowError(
                "gamma undefined: no two-way support path from the origin "
                f"to terminal vertex {flow.labels[i]!r}")
        gam += pot[i] * float(m[i, zi]) / flow.beta
    params = engine.WalkParameters(beta=flow.beta, survival=s, visits=r, gamma=gam)
    if flow.graph is not None:
        params.validate()
        expect = engine._gamma(flow.graph, r)
        if math.isfinite(expect) and abs(gam - expect) > 1e-12 * max(1.0, expect):
            raise GraphError("gamma inconsistent with visits * w_z / w_o")
    return params


# -- path flows ------------------------------------------------------------


def _path_flow_values(thetas, beta):
    """Forward/backward flows of the path flow with the given interior ratios.

    thetas are the ratios on edges 1..l-1; the last edge has ratio 0.  The
    flow on edge i is the running product of (beta - theta_{i-1}) /
    (1 - beta theta_i) with theta_0 = 0.
    """
    full = list(thetas) + [0.0]
    forward = []
    prev_theta = 0.0
    acc = 1.0
    for th in full:
        if not 0.0 <= th < beta:
            raise FlowError(f"infeasible ratio {th}: needs 0 <= theta < beta")
        acc *= (beta - prev_theta) / (1.0 - beta * th)
        forward.append(acc)
        prev_theta = th
    backward = [th * f for th, f in zip(full, forward)]
    return forward, backward


def path_flow(path, thetas, beta: float) -> LossFlow:
    """Standalone path flow on the given vertices with interior ratios thetas.

    path lists l+1 distinct labels from origin to target; thetas gives the
    l-1 interior backtracking ratios (the terminal edge always has ratio 0).
    Feasibility requires 0 <= theta < beta on every edge.
    """
    path = list(path)
    if len(path) < 2:
        raise FlowError("path needs at least one edge")
    if len(set(path)) != len(path):
        raise FlowError("path vertices must be distinct")
    thetas = [float(t) for t in thetas]
    if len(thetas) != len(path) - 2:
        raise FlowError(
            f"expected {len(path) - 2} interior ratios, got {len(thetas)}")
    _check_beta(beta)
    forward, backward = _path_flow_values(thetas, beta)
    labels = tuple(sorted(path, key=_label_key))
    index = {x: i for i, x in enumerate(labels)}
    m = np.zeros((len(labels), len(labels)))
    for k, (u, v) in enumerate(zip(path, path[1:])):
        m[index[u], index[v]] = forward[k]
        m[index[v], index[u]] = backward[k]
    return LossFlow(beta=beta, labels=labels, origin=path[0], target=path[-1],
                    matrix=m)


def s_value(flow: LossFlow, x, y) -> float:
    """Progress variable s(x, y) = (beta f(x,y) - f(y,x)) / (f(x,y) - beta f(y,x)).

    Defined for edges whose net progress points from x to y; raises
    FlowError when the denominator is not positive.
    """
    fxy = flow.value(x, y)
    fyx = flow.value(y, x)
    denom = fxy - flow.beta * fyx
    if denom <= 0.0:
        raise FlowError(f"s undefined on {x!r}->{y!r} (no forward progress)")
    return (flow.beta * fxy - fyx) / denom


def h_transform(s: float, beta: float) -> float:
    """h(s) = s (1 - s beta) / (beta - s), increasing on 0 <= s < beta."""
    _check_beta(beta)
    if not 0.0 <= s < beta:
        raise FlowError(f"s must lie in [0, beta), got {s!r}")
    return s * (1.0 - s * beta) / (beta - s)


# -- decomposition ---------------------------------------------------------


@dataclass(frozen=True)
class PathComponent:
    """One peeled origin-to-target path flow with weight alpha.

    path lists the vertex labels; forward/backward are the flows of the
    unit-strength path flow (multiply by alpha for the peeled amount).
    """

    alpha: float
    path: tuple
    forward: tuple
    backward: tuple

    @property
    def length(self) -> int:
        return len(self.path) - 1

    @property
    def thetas(self) -> tuple:
        return tuple(b / f for b, f in zip(self.backward, self.forward))

    def survival(self) -> float:
        """Flow delivered to the target by the unit-strength component."""
        return self.forward[-1]


@dataclass(eq=False)
class FlowDecomposition:
    """Path components plus the dead-end remainder of a flow."""

    flow: LossFlow
    components: list
    dead_matrix: np.ndarray = field(repr=False)

    @property
    def total_alpha(self) -> float:
        return float(sum(c.alpha for c in self.components))

    @property
    def dead_alpha(self) -> float:
        """Weight of the dead-end remainder: 1 - total_alpha, at least 0."""
        return max(0.0, 1.0 - self.total_alpha)

    def interior_s(self) -> list:
        """Each component's s values on its interior edges, in component order.

        s = (beta - theta) / (1 - beta theta) per edge; the terminal edge is
        left out, as its s is always beta for a feasible path flow.
        """
        beta = self.flow.beta
        return [tuple((beta - th) / (1.0 - beta * th) for th in c.thetas[:-1])
                for c in self.components]

    def survival_value(self) -> float:
        """Exact identity: S_beta = beta * sum of alpha * prod(s)."""
        return self.flow.beta * math.fsum(
            c.alpha * math.prod(s, start=1.0)
            for c, s in zip(self.components, self.interior_s()))

    def visits_upper_bound(self) -> float:
        """2/(1-beta^2) * (1 - beta * sum of alpha * s_first), which dominates R_beta.

        The factor 2 absorbs the dead-end contribution; a single-edge
        component's first s is its terminal beta.
        """
        beta = self.flow.beta
        mix = math.fsum(c.alpha * (s[0] if s else beta)
                        for c, s in zip(self.components, self.interior_s()))
        return 2.0 / (1.0 - beta ** 2) * (1.0 - beta * mix)

    def gamma_value(self) -> float:
        """Whole-flow Gamma: sum of alpha * prod h(s) over path components.

        prod h(s) is the Gamma of one path flow taken on its own.  A component
        with some s >= beta (a degenerate edge, which no graph flow has) adds
        alpha * inf.
        """
        beta = self.flow.beta
        return float(math.fsum(
            c.alpha * math.inf if any(x >= beta for x in s)
            else c.alpha * math.prod((h_transform(x, beta) for x in s), start=1.0)
            for c, s in zip(self.components, self.interior_s())))

    def reconstruct(self) -> np.ndarray:
        m = self.dead_matrix.copy()
        index = self.flow.index
        for comp in self.components:
            for k, (u, v) in enumerate(zip(comp.path, comp.path[1:])):
                m[index[u], index[v]] += comp.alpha * comp.forward[k]
                m[index[v], index[u]] += comp.alpha * comp.backward[k]
        return m

    def reconstruction_error(self) -> float:
        """Largest absolute difference from the original flow matrix."""
        return float(np.abs(self.reconstruct() - self.flow.matrix).max())

    def laws(self) -> dict:
        """Numerical summary of everything the decomposition must satisfy."""
        zi = self.flow.target_index
        scale = float(self.flow.matrix.max()) or 1.0
        graph = self.flow.graph
        d = 0 if graph is None else graph.distance(graph.origin)
        return {
            "reconstruction_error": self.reconstruction_error(),
            "total_alpha": self.total_alpha,
            "alpha_within_unit": self.total_alpha <= 1.0 + 1e-9,
            "dead_alpha": self.dead_alpha,
            "dead_target_inflow": float(self.dead_matrix[:, zi].sum()),
            "scale": scale,
            "component_count": len(self.components),
            "paths_at_least_distance": all(c.length >= d for c in self.components),
        }

    def to_dict(self) -> dict:
        """JSON-ready serialization (paths, weights, flow tables, law checks)."""
        labels = self.flow.labels
        dead_edges = [
            [labels[i], labels[j], float(self.dead_matrix[i, j])]
            for i, j in zip(*np.nonzero(self.dead_matrix))
        ]
        return {
            "beta": self.flow.beta,
            "origin": self.flow.origin,
            "target": self.flow.target,
            "components": [
                {
                    "alpha": c.alpha,
                    "path": list(c.path),
                    "forward": list(c.forward),
                    "backward": list(c.backward),
                    "thetas": list(c.thetas),
                }
                for c in self.components
            ],
            "dead_alpha": self.dead_alpha,
            "dead_edges": dead_edges,
            "laws": self.laws(),
        }


def decompose(flow: LossFlow) -> FlowDecomposition:
    """Peel the flow into path components plus a dead-end remainder.

    Repeatedly: take the admissible directed edges (those with
    f(y, x) < beta f(x, y), strictly, with relative slack 1e-12), follow the
    lexicographically smallest shortest admissible path from origin to
    target, and subtract the largest multiple of its path flow that keeps
    the remainder nonnegative.  Each round zeroes at least one edge pair,
    so the loop terminates; what remains never reaches the target.  A loop
    that outlasts the edge pairs raises DecompositionError.  A graph flow
    with no flow into a reachable target has underflowed, and raises
    FlowError.
    """
    beta = flow.beta
    w = flow.matrix.copy()
    oi, zi = flow.origin_index, flow.target_index
    scale = float(w.max())
    if scale > 0.0 and float(w[zi].max()) > 1e-12 * scale:
        raise FlowError("flow out of the target: not an absorbed-walk flow")
    if (flow.graph is not None and not w[:, zi].any()
            and math.isfinite(flow.graph.distance(flow.graph.origin))):
        raise FlowError(f"flow into the target underflowed to 0.0 at beta={beta}")
    w[zi, :] = 0.0
    components = []
    edge_pairs = int(np.count_nonzero(w + w.T) // 2)
    tiny = 1e-17 * (scale if scale > 0.0 else 1.0)

    for _ in range(edge_pairs + 1):
        admissible = (w > 0.0) & (w.T < beta * w * (1.0 - _ADMISSIBLE_SLACK))
        # hops to the target along admissible edges, searched backwards
        back = [[] for _ in w]
        for j, i in np.argwhere(admissible.T).tolist():
            back[j].append(i)
        dist = _hops(back, (zi,))
        if dist[oi] < 0:
            break
        path = [oi]
        cur = oi
        while cur != zi:
            nxt = [int(j) for j in np.flatnonzero(admissible[cur])
                   if dist[j] == dist[cur] - 1]
            cur = min(nxt)
            path.append(cur)
        thetas = [w[path[k + 1], path[k]] / w[path[k], path[k + 1]]
                  for k in range(len(path) - 2)]
        forward, backward = _path_flow_values(thetas, beta)
        ratios = [w[path[k], path[k + 1]] / forward[k]
                  for k in range(len(path) - 1)]
        alpha = min(ratios)
        tight = ratios.index(alpha)
        for k in range(len(path) - 1):
            a, b = path[k], path[k + 1]
            if k == tight:
                w[a, b] = 0.0
                w[b, a] = 0.0
            else:
                w[a, b] = max(w[a, b] - alpha * forward[k], 0.0)
                w[b, a] = max(w[b, a] - alpha * backward[k], 0.0)
                # peeling preserves the pair ratio exactly; if cancellation
                # leaves one direction at roundoff scale, drop the pair
                if w[a, b] <= tiny or (backward[k] > 0.0 and w[b, a] <= tiny):
                    w[a, b] = 0.0
                    w[b, a] = 0.0
        components.append(PathComponent(
            alpha=float(alpha),
            path=tuple(flow.labels[i] for i in path),
            forward=tuple(map(float, forward)),
            backward=tuple(map(float, backward))))
    else:
        raise DecompositionError("decomposition failed to terminate")
    return FlowDecomposition(flow=flow, components=components, dead_matrix=w)


def gamma_chain_bound(graph: WeightedGraph, beta: float) -> tuple:
    """(Gamma_beta, its chain lower bound h((S/beta)^(1/n))^n), n = dist - 1.

    The bound follows from the per-edge h factorization: spreading the
    total progress evenly over n edges minimizes the product.
    """
    _check_beta(beta)
    work = graph.normalized()
    d = work.distance(work.origin)
    if not math.isfinite(d) or d < 2:
        raise FlowError("needs dist(origin, target) >= 2")
    n = int(d) - 1
    exact = engine.walk_parameters(work, (beta,))[0]
    s_total, gam = exact.survival, exact.gamma
    sbar = (s_total / beta) ** (1.0 / n)
    if sbar >= beta:
        raise FlowError("survival too large for the chain bound")
    return gam, h_transform(sbar, beta) ** n
