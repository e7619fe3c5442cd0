"""Finite simple graphs and the defining-graph operations everything else consumes.

A vertex is identified by its (non-empty, printable) string label.  Graphs are
immutable; all operations below are pure functions, so values can be shared
freely between concurrent tasks.  Orderings are deterministic everywhere:
whenever a collection of vertices or components is returned as a sequence, it
is sorted by label (components by their smallest label).
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import InputError, echo, require, require_iterable


class SimpleGraph:
    """A finite simple graph: no loop edges, no multiple edges.

    >>> g = SimpleGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    >>> g.has_edge("a", "c")
    False
    """

    __slots__ = ("_adj", "_hash")

    def __init__(self, vertices, edges=()):
        adj = {}
        for v in require_iterable(vertices, "vertices"):
            if not isinstance(v, str) or not v:
                raise InputError(f"vertex label must be a non-empty string, got {echo(v)}")
            if v in adj:
                raise InputError(f"duplicate vertex {echo(v)}")
            adj[v] = set()
        for e in require_iterable(edges, "edges"):
            try:
                u, w = e
            except (TypeError, ValueError):
                raise InputError(f"edge must be a pair of vertices, got {echo(e)}") from None
            # every vertex is a string, so a non-string end (even an
            # unhashable one) is unknown
            if not isinstance(u, str) or u not in adj:
                raise InputError(f"unknown vertex {echo(u)} in edge {echo(e)}")
            if not isinstance(w, str) or w not in adj:
                raise InputError(f"unknown vertex {echo(w)} in edge {echo(e)}")
            if u == w:
                raise InputError(f"loop edge at {echo(u)} not allowed in a simple graph")
            adj[u].add(w)
            adj[w].add(u)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._hash = None

    @property
    def vertices(self):
        return frozenset(self._adj)

    @property
    def adjacency(self):
        """Read-only mapping from each vertex to the frozenset of its neighbors."""
        return MappingProxyType(self._adj)

    def sorted_vertices(self):
        return sorted(self._adj)

    def neighbors(self, v):
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {echo(v)}") from None
        except TypeError:
            raise _unhashable(v) from None

    def has_vertex(self, v):
        try:
            return v in self._adj
        except TypeError:
            raise _unhashable(v) from None

    def has_edge(self, u, w):
        nbrs = self.neighbors(u)
        return self.has_vertex(w) and w in nbrs

    def edges(self):
        """Sorted list of edges, each as a sorted pair."""
        out = []
        for v in sorted(self._adj):
            for w in self._adj[v]:
                if v < w:
                    out.append((v, w))
        return sorted(out)

    def degree_sequence(self):
        """Sorted tuple of the vertex degrees, an isomorphism invariant."""
        return tuple(sorted(len(ns) for ns in self._adj.values()))

    @property
    def n_vertices(self):
        return len(self._adj)

    @property
    def n_edges(self):
        return sum(len(ns) for ns in self._adj.values()) // 2

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._adj.items()))
        return self._hash

    def __repr__(self):
        return f"SimpleGraph({self.n_vertices} vertices, {self.n_edges} edges)"


def _unhashable(v):
    """The error for an id that a vertex lookup rejected: no vertex can equal it."""
    return InputError(f"vertex id must be hashable, got {echo(v)}")


def _check_subset(g, s):
    require(g, SimpleGraph, "a graph")
    s = require_iterable(s, "a vertex set")
    for v in s:
        if not g.has_vertex(v):
            raise InputError(f"unknown vertex {echo(v)}")
    return frozenset(s)


def full_subgraph(g, s):
    """The full (induced) subgraph of g spanned by the vertex set s.

    Two vertices of the result are adjacent exactly when they are adjacent
    in g; only the adjacency of the members of s is read.
    """
    s = _check_subset(g, s)
    edges = sorted((u, w) for u in s for w in g._adj[u] & s if u < w)
    return SimpleGraph(sorted(s), edges)


def link(g, v):
    """All vertices adjacent to v."""
    require(g, SimpleGraph, "a graph")
    return g.neighbors(v)


def star(g, v):
    """v together with all vertices adjacent to it."""
    require(g, SimpleGraph, "a graph")
    return g.neighbors(v) | {v}


def perp(g, s):
    """Vertices outside s that are adjacent to every vertex of s.

    For a singleton {v} this is exactly the link of v.  Equals the
    intersection of the links of the members of s, minus s itself.
    """
    s = _check_subset(g, s)
    out = set(g.vertices) - s
    for v in s:
        out &= g.neighbors(v)
    return frozenset(out)


def opposite_graph(g):
    """The complement graph on the same vertex set (an involution)."""
    require(g, SimpleGraph, "a graph")
    verts = g.sorted_vertices()
    edges = []
    for i, u in enumerate(verts):
        nbrs = g.neighbors(u)
        for w in verts[i + 1:]:
            if w not in nbrs:
                edges.append((u, w))
    return SimpleGraph(verts, edges)


def connected_components(g, without=frozenset()):
    """Components as a list of frozensets, ordered by smallest label.

    The vertices in ``without`` count as removed: the result is the
    components of the full subgraph spanned by the other vertices.  A label
    in ``without`` that is not a vertex of g removes nothing.
    """
    require(g, SimpleGraph, "a graph")
    try:
        seen = set(without)
    except TypeError:
        raise InputError("vertices to remove must be an iterable of hashable ids, "
                         f"got {echo(without)}") from None
    comps = []
    for root in g.sorted_vertices():
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        stack = [root]
        while stack:
            for w in g._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


# -- small constructors, mostly for tests and fixtures ------------------------

def path_graph(labels):
    labels = require_iterable(labels, "vertices")
    return SimpleGraph(labels, list(zip(labels, labels[1:])))


def cycle_graph(labels):
    labels = require_iterable(labels, "vertices")
    if len(labels) < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return SimpleGraph(labels, list(zip(labels, labels[1:])) + [(labels[-1], labels[0])])


def complete_graph(labels):
    labels = require_iterable(labels, "vertices")
    return SimpleGraph(labels, [(u, w) for i, u in enumerate(labels) for w in labels[i + 1:]])


def edgeless_graph(labels):
    return SimpleGraph(labels)
