"""Finite weighted graphs with a marked origin and absorbing target set.

A graph is a finite vertex set with a symmetric nonnegative weight function on
vertex pairs (self-loops allowed), a distinguished origin vertex and a
non-empty set of target vertices not containing the origin.  The random walk
driven by these weights steps from x to y with probability w(x,y)/w_x, where
w_x is the total weight at x (a self-loop counts once).

Vertex labels are opaque (ints or strings).  A canonical integer indexing is
fixed at construction: integer labels first in numeric order, then string
labels in lexicographic order.  All matrix-valued quantities elsewhere in the
package are aligned to this indexing.

The on-disk format is JSON with fields ``vertices``, ``edges`` (triples
``[u, v, w]``), ``origin``, ``targets`` and optional ``metadata``.
Serialization emits a normal form (sorted vertices and edges, float weights)
that round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np


class GraphError(ValueError):
    """Invalid graph structure or invalid operation on a graph."""


class ParseError(GraphError):
    """Malformed graph file."""


def _label_key(label):
    if isinstance(label, bool) or not isinstance(label, (int, str)):
        raise GraphError(f"vertex label must be int or str, got {label!r}")
    return (0, label, "") if isinstance(label, int) else (1, 0, label)


def _keyed(keys, label):
    """label's sort key, looked up in keys and validated and stored on first sight."""
    key = keys.get(label) if type(label) in (int, str) else None  # True == 1
    return key if key is not None else keys.setdefault(label, _label_key(label))


def _hops(adjacency, sources, blocked=()):
    """Breadth-first hop distances from a source set; -1 marks the unreachable.

    adjacency[i] iterates the neighbours of vertex i.  Blocked vertices get a
    distance but are not expanded from, so no counted path passes through one.
    """
    dist = [-1] * len(adjacency)
    queue = list(sources)
    for i in queue:
        dist[i] = 0
    for i in queue:
        if i in blocked:
            continue
        for j in adjacency[i]:
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


class WeightedGraph:
    """Immutable weighted graph with origin and targets.

    Treat instances as frozen: all derived data (canonical indexing, vertex
    weights, adjacency, the target weight w_z) is computed once at
    construction, and replace shares it.  Kept on the instance on first use:
    the hop distances to the targets (_target_hops), the contracted and the
    normalized graph (_contracted, _normalized) and the engine's walk record
    (_kz: K_z, E[T] and the Green row per beta).  No pmf is kept (see engine).
    """

    def __init__(self, edges, origin, targets, vertices=(), metadata=None):
        keys = {}  # each label's sort key, computed once
        pair_weights = {}
        for item in edges:
            try:
                u, v, w = item
            except (TypeError, ValueError):
                raise GraphError(f"edge must be a (u, v, weight) triple, got {item!r}")
            ku, kv = _keyed(keys, u), _keyed(keys, v)
            w = self._check_weight(u, v, w)
            key = (u, v) if ku <= kv else (v, u)
            if key in pair_weights:
                if pair_weights[key] != w:
                    raise GraphError(
                        f"conflicting duplicate edge {u!r}-{v!r}: "
                        f"{pair_weights[key]} vs {w}"
                    )
            else:
                pair_weights[key] = w
        for x in vertices:
            _keyed(keys, x)
        _keyed(keys, origin)
        targets = tuple(targets)
        for t in targets:
            _keyed(keys, t)

        self.labels = tuple(sorted(keys, key=keys.__getitem__))
        del keys  # a 20k-vertex graph's keys would outlive their use
        self.index = {x: i for i, x in enumerate(self.labels)}
        self.n = len(self.labels)
        self.metadata = dict(metadata) if metadata else {}

        adj = [dict() for _ in range(self.n)]
        for (u, v), w in pair_weights.items():
            if w == 0.0:
                continue  # zero weight == absent edge
            i, j = self.index[u], self.index[v]
            adj[i][j] = w
            adj[j][i] = w
        self.adjacency = tuple(adj)
        self.vertex_weights = np.array(
            [math.fsum(nbrs.values()) for nbrs in adj], dtype=float
        )
        self._mark(origin, targets)

    def _mark(self, origin, targets):
        """Set origin, targets and w_z on labels that are validated and indexed."""
        if not targets:
            raise GraphError("target set must be non-empty")
        if origin in targets:
            raise GraphError(f"origin {origin!r} must not be a target")
        self.origin = origin
        self.origin_index = self.index[origin]
        tset = sorted({self.index[t] for t in targets})  # canonical order
        self.targets = tuple(self.labels[i] for i in tset)
        self.target_indices = frozenset(tset)
        self._set_weight = math.fsum(self.vertex_weights[i] for i in tset)

    @staticmethod
    def _check_weight(u, v, w):
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise GraphError(f"weight of edge {u!r}-{v!r} must be a number, got {w!r}")
        w = float(w)
        if not math.isfinite(w):
            raise GraphError(f"weight of edge {u!r}-{v!r} must be finite")
        if w < 0.0:
            raise GraphError(f"negative weight {w} on edge {u!r}-{v!r}")
        return w

    # -- basic queries ----------------------------------------------------

    def weight(self, x, y) -> float:
        """Weight of the edge x-y (0.0 if absent)."""
        return self.adjacency[self.index[x]].get(self.index[y], 0.0)

    def vertex_weight(self, x) -> float:
        """Total weight w_x incident to x; a self-loop counts once."""
        return float(self.vertex_weights[self.index[x]])

    def set_weight(self) -> float:
        """w_z, the vertex weights of the targets summed (math.fsum) at construction.

        The sum is correctly rounded, so it does not depend on target order.
        """
        return self._set_weight

    def total_weight(self) -> float:
        """w_V = sum of all vertex weights."""
        return float(self.vertex_weights.sum())

    def edge_list(self):
        """Sorted list of (i, j, w) index triples with i <= j."""
        out = []
        for i, nbrs in enumerate(self.adjacency):
            for j, w in nbrs.items():
                if i <= j:
                    out.append((i, j, w))
        out.sort()
        return out

    def distance(self, x):
        """BFS hop distance from x to the target set.

        Returns math.inf when unreachable.  Self-loops do not shorten paths.
        """
        if "_target_hops" not in self.__dict__:
            self._target_hops = _hops(self.adjacency, self.target_indices)
        d = self._target_hops[self.index[x]]
        return math.inf if d < 0 else d

    def component_of(self, x):
        """Canonical indices of the connected component containing x (sorted)."""
        dist = _hops(self.adjacency, (self.index[x],))
        return [i for i, d in enumerate(dist) if d >= 0]

    # -- derived graphs ---------------------------------------------------

    def replace(self, origin=None, targets=None, metadata=None) -> "WeightedGraph":
        """Copy with a different origin/target marking on the same weights.

        Shares the frozen labels, index, adjacency and vertex weights, but no
        cached data.  An origin or target not in the graph raises GraphError.
        """
        origin = self.origin if origin is None else origin
        targets = self.targets if targets is None else tuple(targets)
        for x in (origin, *targets):
            _label_key(x)  # True == 1, but True is no label
            if x not in self.index:
                raise GraphError(f"unknown vertex {x!r}")
        new = object.__new__(WeightedGraph)
        new.labels, new.index, new.n = self.labels, self.index, self.n
        new.adjacency, new.vertex_weights = self.adjacency, self.vertex_weights
        new.metadata = dict(self.metadata if metadata is None else metadata)
        new._mark(origin, targets)
        return new

    def contract_targets(self) -> "WeightedGraph":
        """Merge all targets into one vertex, dropping target-internal weight.

        Parallel edges produced by the merge are aggregated by summing.  The
        hitting time of the target set from the origin has the same law before
        and after.  The merged vertex keeps the canonically smallest target
        label.  A graph with one target and no self-loop on it is returned
        as is.  The result is kept on the graph (as True when it is the graph).
        """
        work = self.__dict__.get("_contracted")
        if work is None:
            work = self._contract()
            self._contracted = True if work is self else work
        return self if work is True else work

    def _contract(self) -> "WeightedGraph":
        merged = self.targets[0]
        tset = self.target_indices
        zi = self.index[merged]
        if len(tset) == 1 and zi not in self.adjacency[zi]:
            return self
        acc = {}
        for i, j, w in self.edge_list():
            if i in tset and j in tset:
                continue
            key = tuple(sorted(zi if k in tset else k for k in (i, j)))  # canonical
            acc[key] = acc.get(key, 0.0) + w
        keep = [x for x in self.labels if self.index[x] not in tset] + [merged]
        return WeightedGraph(
            [(self.labels[i], self.labels[j], w) for (i, j), w in acc.items()],
            self.origin,
            (merged,),
            vertices=keep,
            metadata=self.metadata,
        )

    def restrict_accessible(self) -> "WeightedGraph":
        """Drop non-target vertices unreachable from the origin with targets deleted.

        Target vertices are always kept.  The result satisfies the standing
        assumption that every surviving non-target vertex is accessible from
        the origin without first entering the target set; the hitting law from
        the origin is unchanged.  A graph that loses no vertex is returned as is.
        """
        tset = self.target_indices
        dist = _hops(self.adjacency, (self.origin_index,), blocked=tset)
        keep = {i for i, d in enumerate(dist) if d >= 0} | tset
        if len(keep) == self.n:
            return self
        edges = [
            (self.labels[i], self.labels[j], w)
            for i, j, w in self.edge_list()
            if i in keep and j in keep
        ]
        return WeightedGraph(
            edges,
            self.origin,
            self.targets,
            vertices=[self.labels[i] for i in sorted(keep)],
            metadata=self.metadata,
        )

    def normalized(self) -> "WeightedGraph":
        """Targets contracted, then inaccessible pockets dropped; kept on the graph.

        Neither step changes the hitting law from the origin.  A normal graph
        is its own normalization, so it also shares its cached killed kernel.
        It records that as True, not as itself: a reference to itself would
        be a cycle, which only the cyclic garbage collector frees.
        """
        work = self.__dict__.get("_normalized")
        if work is None:
            work = self.contract_targets().restrict_accessible()
            self._normalized = True if work is self else work
        return self if work is True else work


# -- file format ----------------------------------------------------------

_REQUIRED_FIELDS = ("vertices", "edges", "origin", "targets")


def parse(text: str) -> WeightedGraph:
    """Parse the JSON graph format into a WeightedGraph.

    A malformed document raises ParseError, whatever part of it is wrong.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(doc) - set(_REQUIRED_FIELDS) - {"metadata"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    for field in _REQUIRED_FIELDS:
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    known = set()

    def is_known(x):
        _label_key(x)  # a list or an object is no label, and has no hash
        return x in known

    try:
        vertices = doc["vertices"]
        if not isinstance(vertices, list):
            raise ParseError("'vertices' must be a list")
        for x in vertices:
            if is_known(x):
                raise ParseError(f"duplicate vertex {x!r}")
            known.add(x)
        edges = doc["edges"]
        if not isinstance(edges, list):
            raise ParseError("'edges' must be a list")
        for item in edges:
            if not isinstance(item, list) or len(item) != 3:
                raise ParseError(f"edge must be a [u, v, w] triple, got {item!r}")
            if not is_known(item[0]) or not is_known(item[1]):
                raise ParseError(f"edge {item!r} references an unknown vertex")
        if not is_known(doc["origin"]):
            raise ParseError(f"unknown origin {doc['origin']!r}")
        targets = doc["targets"]
        if not isinstance(targets, list) or not targets:
            raise ParseError("'targets' must be a non-empty list")
        for t in targets:
            if not is_known(t):
                raise ParseError(f"unknown target {t!r}")
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ParseError("'metadata' must be an object")
        return WeightedGraph(
            [(u, v, w) for u, v, w in edges],
            doc["origin"],
            targets,
            vertices=vertices,
            metadata=metadata,
        )
    except ParseError:
        raise
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def serialize(graph: WeightedGraph) -> str:
    """Emit the normal-form JSON text (bit-exact round-trip)."""
    doc = {
        "vertices": list(graph.labels),
        "edges": [
            [graph.labels[i], graph.labels[j], float(w)]
            for i, j, w in graph.edge_list()
        ],
        "origin": graph.origin,
        "targets": list(graph.targets),
        "metadata": graph.metadata,
    }
    return json.dumps(doc, indent=1) + "\n"


def read_graph_file(path) -> WeightedGraph:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def write_graph_file(graph: WeightedGraph, path) -> None:
    """Atomic write (temp file + rename) of the normal form."""
    write_text_atomic(serialize(graph), path)


def write_text_atomic(text: str, path) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
