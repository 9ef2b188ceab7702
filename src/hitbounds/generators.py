"""Builders for the weighted-graph families used in experiments and tests.

All builders return WeightedGraph instances with origin/targets set and a
metadata block recording the construction parameters, so serialized files
are self-describing.  Families:

  * unit_path: path 0..n with unit weights (expected hitting time n^2),
  * biased_line: segment of the geometric line w(i-1, i) = g^(i-1),
  * fast_path: the near-extremal path whose expected hitting time has the
    closed form 2(n-2)/(g-1) + 2g/(g-1)^2 + n,
  * poly_growth_drift: the drift value g(n, p) that makes fast_path weights
    grow like i^p along the path,
  * concatenated_fast: fast paths with per-block drifts joined end to start,
  * tree_line: a unit-weight line with complete g-ary trees hanging off it,
    absorbed at graph distance >= length (rate-of-escape experiments),
  * random_graph: seeded random connected test graphs.

Generators whose geometry truncates an infinite object record a
"safe_horizon" in metadata: walk statistics at times up to that horizon are
unaffected by the truncation.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import GraphError, WeightedGraph, _hops, _label_key
from .refwalk import ParameterError, _as_int

_MAX_VERTICES = 2_000_000


_check_int = _as_int


def unit_path(n: int) -> WeightedGraph:
    """Path 0 - 1 - ... - n with unit weights, origin 0, target n."""
    _check_int(n, "n", 1)
    edges = [(i - 1, i, 1.0) for i in range(1, n + 1)]
    return WeightedGraph(edges, origin=0, targets=[n],
                         metadata={"generator": "unit_path", "n": n})


def biased_line(n: int, g: float, tail: int = 0) -> WeightedGraph:
    """Geometric line segment -tail..n with w(i-1, i) = g^(i-1).

    Origin 0, target n.  A walk moves at most one vertex per step, so for
    k <= min(tail, n) the segment is indistinguishable from the infinite
    line; that horizon is recorded as safe_horizon (0 when tail = 0, where
    the origin sits on the boundary).
    """
    _check_int(n, "n", 1)
    _check_int(tail, "tail", 0)
    if not (isinstance(g, (int, float)) and math.isfinite(g) and g > 0):
        raise ParameterError(f"g must be positive, got {g!r}")
    g = float(g)
    log_g = math.log(g) if g != 1.0 else 0.0
    worst = max(abs((n - 1) * log_g), abs(tail * log_g))
    if worst > 700.0:
        raise GraphError(
            f"weights g^k overflow float range for g={g}, span {tail + n}")
    edges = [(i - 1, i, g ** (i - 1)) for i in range(1 - tail, n + 1)]
    return WeightedGraph(
        edges, origin=0, targets=[n],
        metadata={"generator": "biased_line", "n": n, "g": g, "tail": tail,
                  "safe_horizon": min(tail, n) if tail > 0 else 0})


def fast_path(n: int, g: float) -> WeightedGraph:
    """Path 0..n with weights 1, (g-1) g^(i-2) for 2 <= i <= n-1, (g-1)^2 g^(n-3).

    The family that makes the weight-ratio drift estimate asymptotically
    sharp; requires n >= 4 and g > 1.
    """
    _check_int(n, "n", 4)
    if not (isinstance(g, (int, float)) and math.isfinite(g) and g > 1):
        raise ParameterError(f"g must exceed 1, got {g!r}")
    g = float(g)
    if (n - 3) * math.log(g) + 2.0 * math.log(g - 1.0) > 700.0:
        raise GraphError(f"weights overflow float range for n={n}, g={g}")
    edges = [(0, 1, 1.0)]
    for i in range(2, n):
        edges.append((i - 1, i, (g - 1.0) * g ** (i - 2)))
    edges.append((n - 1, n, (g - 1.0) ** 2 * g ** (n - 3)))
    return WeightedGraph(edges, origin=0, targets=[n],
                         metadata={"generator": "fast_path", "n": n, "g": g})


def fast_path_expected(n: int, g: float) -> float:
    """Closed-form expected hitting time of fast_path(n, g)."""
    _check_int(n, "n", 4)
    if not g > 1:
        raise ParameterError(f"g must exceed 1, got {g!r}")
    g = float(g)
    return 2.0 * (n - 2) / (g - 1.0) + 2.0 * g / (g - 1.0) ** 2 + float(n)


def fast_path_resistance(n: int, g: float) -> float:
    """Closed-form effective resistance of fast_path(n, g), by the series rule.

    Sum of reciprocal edge weights: 1 + g (1 - g^(2-n)) / (g-1)^2
    + g^(3-n) / (g-1)^2.
    """
    _check_int(n, "n", 4)
    if not g > 1:
        raise ParameterError(f"g must exceed 1, got {g!r}")
    g = float(g)
    mid = g * (1.0 - g ** (2 - n)) / (g - 1.0) ** 2
    return 1.0 + mid + g ** (3 - n) / (g - 1.0) ** 2


def poly_growth_drift(n: float, p: float = 0.0) -> float:
    """Drift g(n, p) = exp[((p+2) log n - 2 log((p+2) log n)) / n].

    Tunes fast_path so the total weight grows polynomially, n^(p+2) up to
    logarithms; for this drift the expected hitting time is asymptotically
    2 n^2 / ((p+2) log n).  Requires (p+2) log n > 1.
    """
    if not (isinstance(p, (int, float)) and p >= 0):
        raise ParameterError(f"p must be nonnegative, got {p!r}")
    if not (isinstance(n, (int, float)) and n > 1):
        raise ParameterError(f"n must exceed 1, got {n!r}")
    level = (p + 2.0) * math.log(n)
    if level <= 1.0:
        raise ParameterError(f"(p+2) log n must exceed 1, got {level}")
    return math.exp((level - 2.0 * math.log(level)) / n)


def concatenated_fast(cuts=None, p: float = 0.0, max_vertices: int = 70_000
                      ) -> WeightedGraph:
    """Fast paths joined end to start at cut points 0 < x_1 < ... < x_m.

    Block i spans x_{i-1}..x_i and carries fast_path weights for its own
    length n_i = x_i - x_{i-1} with drift poly_growth_drift(n_i, p); blocks
    share the cut vertices.  With cuts omitted, the doubling schedule
    x_1 = 16, x_{i+1} = x_i^2 is used up to max_vertices.  Origin 0, target
    x_m; safe_horizon = x_m.
    """
    if cuts is None:
        cuts = []
        x = 16
        while x <= max_vertices:
            cuts.append(x)
            x = x * x
        if not cuts:
            raise ParameterError(f"max_vertices={max_vertices} below first cut 16")
    cuts = [int(c) for c in cuts]
    if not cuts or cuts != sorted(cuts) or len(set(cuts)) != len(cuts):
        raise ParameterError(f"cut points must be strictly increasing, got {cuts!r}")
    if cuts[0] < 4:
        raise ParameterError("first cut must be at least 4")
    if cuts[-1] > _MAX_VERTICES:
        raise GraphError(f"{cuts[-1]} vertices exceeds the {_MAX_VERTICES} cap")
    edges = []
    prev = 0
    for x in cuts:
        block_n = x - prev
        if block_n < 4:
            raise ParameterError(f"block {prev}..{x} shorter than 4 edges")
        block = fast_path(block_n, poly_growth_drift(block_n, p))
        for i, j, w in block.edge_list():
            edges.append((prev + i, prev + j, w))
        prev = x
    return WeightedGraph(
        edges, origin=0, targets=[cuts[-1]],
        metadata={"generator": "concatenated_fast", "cuts": cuts, "p": p,
                  "safe_horizon": cuts[-1]})


def tree_line(g: int, depths, length: int) -> WeightedGraph:
    """Unit-weight line 0..length with a complete g-ary tree at each listed vertex.

    depths[i-1] is the tree depth attached at line vertex i (0 = no tree).
    Absorption happens at graph distance >= length from the origin: the line
    endpoint plus every tree vertex at at least that distance.  Line vertices
    are integers, tree vertices strings "t<anchor>/<level>/<ordinal>".
    """
    _check_int(g, "g", 2)
    _check_int(length, "length", 1)
    depths = list(depths)
    if len(depths) > length:
        raise ParameterError("more tree anchors than interior line vertices")
    for d in depths:
        _check_int(d, "tree depth", 0)
    count = length + 1 + sum(g * (g**d - 1) // (g - 1) for d in depths)
    if count > _MAX_VERTICES:
        raise GraphError(f"{count} vertices exceeds the {_MAX_VERTICES} cap")

    edges = [(i - 1, i, 1.0) for i in range(1, length + 1)]
    dist = {i: i for i in range(length + 1)}
    for anchor, depth in enumerate(depths, start=1):
        parents = [anchor]
        ordinal = 0
        for level in range(1, depth + 1):
            children = []
            for parent in parents:
                for _ in range(g):
                    child = f"t{anchor}/{level}/{ordinal}"
                    ordinal += 1
                    edges.append((parent, child, 1.0))
                    dist[child] = anchor + level
                    children.append(child)
            parents = children
    targets = sorted((v for v, d in dist.items() if d >= length), key=_label_key)
    return WeightedGraph(
        edges, origin=0, targets=targets,
        metadata={"generator": "tree_line", "g": g, "depths": depths,
                  "length": length, "safe_horizon": length})


def random_graph(seed, max_vertices: int = 12, weight_range=(0.1, 10.0),
                 min_distance: int = 3, extra_targets: int = 0,
                 self_loop_prob: float = 0.0) -> WeightedGraph:
    """Seeded random connected graph with dist(origin, targets) >= min_distance.

    Construction: a uniform random recursive tree plus a few random chords,
    log-uniform weights in weight_range, optionally one self-loop; the
    origin/target pair is drawn uniformly from all pairs far enough apart.
    The same seed always yields the same graph (counter-based generator).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    _check_int(max_vertices, "max_vertices", 2)
    _check_int(min_distance, "min_distance", 1)
    _check_int(extra_targets, "extra_targets", 0)
    lo, hi = float(weight_range[0]), float(weight_range[1])
    if not 0.0 < lo <= hi:
        raise ParameterError(f"bad weight range {weight_range!r}")
    low_n = min(max(min_distance + 1, 5), max_vertices)

    for _ in range(400):
        n = int(rng.integers(low_n, max_vertices + 1))
        pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        for _ in range(int(rng.integers(0, n // 3 + 1))):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u != v:
                pairs.append((min(u, v), max(u, v)))
        if self_loop_prob > 0.0 and rng.random() < self_loop_prob:
            v = int(rng.integers(0, n))
            pairs.append((v, v))
        pairs = sorted(set(pairs))
        weights = np.exp(rng.uniform(math.log(lo), math.log(hi), size=len(pairs)))
        edges = [(u, v, float(w)) for (u, v), w in zip(pairs, weights)]

        graph = WeightedGraph(edges, origin=0, targets=[n - 1])
        all_dists = [_hops(graph.adjacency, (o,)) for o in range(n)]
        if -1 in all_dists[0]:
            continue  # chords plus tree should connect everything; be safe
        far_pairs = []
        for o in range(n):
            far_pairs.extend((o, v) for v in range(n)
                             if v != o and all_dists[o][v] >= min_distance)
        if not far_pairs:
            continue
        o, z = far_pairs[int(rng.integers(0, len(far_pairs)))]
        targets = [z]
        if extra_targets:
            pool = [v for v in range(n)
                    if v not in (o, z) and all_dists[o][v] >= min_distance]
            rng.shuffle(pool)
            targets.extend(pool[:extra_targets])
        return graph.replace(
            origin=o, targets=targets,
            metadata={"generator": "random_graph",
                      "seed": list(seed) if isinstance(seed, (tuple, list)) else seed,
                      "max_vertices": max_vertices,
                      "min_distance": min_distance})
    raise GraphError("could not generate a graph meeting the distance constraint")
