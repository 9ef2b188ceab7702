"""Exact hitting statistics by rational elimination, sharing no code with engine.

Every weight is read from graph.adjacency and converted to a Fraction, so
each result is the exact value for the float weights given.  The walk
lives on the non-target vertices the origin reaches without passing a
target; from them every other neighbour is a target.
"""

from fractions import Fraction


def _live(graph):
    """Non-target vertices the origin reaches before the targets, origin first."""
    live, seen = [graph.origin_index], {graph.origin_index}
    for i in live:
        for j in graph.adjacency[i]:
            if j not in seen and j not in graph.target_indices:
                seen.add(j)
                live.append(j)
    return live


def _solve(graph, beta, rhs):
    """x[0], the origin's entry of (I - beta P) x = b on the live vertices.

    P is the walk restricted to them, P(i, j) = w(i, j) / w_i, and
    rhs(i, w_i, beta) gives b(i).  Gauss-Jordan elimination in Fractions.
    """
    beta = Fraction(beta)
    live = _live(graph)
    pos = {i: k for k, i in enumerate(live)}
    m = len(live)
    rows = []
    for i in live:
        nbrs = graph.adjacency[i]
        wi = sum(map(Fraction, nbrs.values()))
        row = [Fraction(0)] * m + [rhs(i, wi, beta)]
        row[pos[i]] += 1
        for j, w in nbrs.items():
            if j in pos:
                row[pos[j]] -= beta * Fraction(w) / wi
        rows.append(row)
    for k in range(m):
        pivot = next(r for r in range(k, m) if rows[r][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for r in range(m):
            f = rows[r][k] / top[k] if r != k else 0
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], top)]
    return rows[0][m] / rows[0][0]


def expected_hitting_time(graph):
    """E[T] from (I - P) h = 1; the targets must be reachable."""
    return _solve(graph, 1, lambda i, wi, beta: Fraction(1))


def survival_transform(graph, beta):
    """S_beta = E[beta^T] from (I - beta P) h = beta P 1_z."""
    return _solve(graph, beta, lambda i, wi, beta: beta * sum(
        Fraction(w) for j, w in graph.adjacency[i].items()
        if j in graph.target_indices) / wi)


def origin_visits(graph, beta):
    """R_beta = G_beta(o, o), the origin's entry of (I - beta P) x = e_o."""
    origin = graph.origin_index
    return _solve(graph, beta, lambda i, wi, beta: Fraction(int(i == origin)))


def hitting_pmf(graph, horizon):
    """P(T = k) for k = 0..horizon, by stepping the walk's law on the live vertices.

    The law v starts at the origin; each step adds its mass on arrival at
    the targets to the pmf and moves the rest one step along P.
    """
    live = _live(graph)
    pos = {i: k for k, i in enumerate(live)}
    moves, arrive = [], []  # per live vertex: live steps, and P(step to a target)
    for i in live:
        nbrs = graph.adjacency[i]
        wi = sum(map(Fraction, nbrs.values()))
        moves.append([(pos[j], Fraction(w) / wi) for j, w in nbrs.items() if j in pos])
        arrive.append(sum(Fraction(w) for j, w in nbrs.items() if j not in pos) / wi)
    v = [Fraction(1)] + [Fraction(0)] * (len(live) - 1)
    pmf = [Fraction(0)]
    for _ in range(horizon):
        pmf.append(sum(x * a for x, a in zip(v, arrive)))
        step = [Fraction(0)] * len(live)
        for x, out in zip(v, moves):
            for k, p in out:
                step[k] += x * p
        v = step
    return pmf
