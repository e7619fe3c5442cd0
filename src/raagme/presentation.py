"""Graph products of free abelian groups: presentations, clique reduction, expansion.

A presentation is a finite simple graph together with a positive rank per
vertex; the group it presents is the graph product whose vertex groups are
free abelian of those ranks.  Rank 1 everywhere is a plain right-angled Artin
group.  Clique reduction rewrites a presentation over a graph with no
collapsible clique on two or more vertices without changing the group;
expansion goes the other way, back to a defining graph with unit ranks.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import SimpleGraph, star

MAX_RANK = 1 << 16


class GraphProductPresentation:
    """A finite simple graph plus a rank >= 1 for every vertex."""

    __slots__ = ("graph", "_ranks")

    def __init__(self, graph, ranks=None):
        if not isinstance(graph, SimpleGraph):
            raise InputError("presentation needs a SimpleGraph")
        self.graph = graph
        if ranks is None:
            self._ranks = {v: 1 for v in graph.vertices}
        else:
            self._ranks = {}
            for v in graph.sorted_vertices():
                if v not in ranks:
                    raise InputError(f"missing rank for vertex {v!r}")
                r = ranks[v]
                if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                    raise InputError(f"rank of {v!r} must be a positive integer, got {r!r}")
                if r > MAX_RANK:
                    raise InputError(f"rank of {v!r} exceeds the supported bound {MAX_RANK}")
                self._ranks[v] = r
            extra = set(ranks) - set(self._ranks)
            if extra:
                raise InputError(f"rank given for unknown vertex {sorted(extra)[0]!r}")

    def rank(self, v):
        try:
            return self._ranks[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    @property
    def ranks(self):
        return dict(self._ranks)

    def is_unit_rank(self):
        return all(r == 1 for r in self._ranks.values())

    def __eq__(self, other):
        if not isinstance(other, GraphProductPresentation):
            return NotImplemented
        return self.graph == other.graph and self._ranks == other._ranks

    def __hash__(self):
        return hash((self.graph, frozenset(self._ranks.items())))

    def __repr__(self):
        return f"GraphProductPresentation({self.graph!r}, ranks={self._ranks})"


def raag(graph):
    """The right-angled Artin presentation over a graph (all ranks 1)."""
    return GraphProductPresentation(graph)


def clique_reduce(p):
    """Canonical clique-reduced form of a presentation.

    Vertices with equal closed stars are merged (they necessarily span a
    collapsible clique), the merged vertex keeping the smallest member label
    and the sum of the member ranks.  The quotient contains no collapsible
    complete subgraph on two or more vertices, and the underlying group is
    unchanged.  The construction is order-free, hence idempotent.

    >>> from .graphs import SimpleGraph
    >>> p = clique_reduce(raag(SimpleGraph(["a", "b"], [("a", "b")])))
    >>> p.graph.sorted_vertices(), p.rank("a")
    (['a'], 2)
    """
    g = p.graph
    classes = {}
    for v in g.sorted_vertices():
        classes.setdefault(star(g, v), []).append(v)
    rep = {}
    rank = {}
    for members in classes.values():
        label = min(members)
        total = sum(p.rank(v) for v in members)
        if total > MAX_RANK:
            raise InputError(
                f"merged rank {total} at {label!r} exceeds the supported bound {MAX_RANK}")
        rank[label] = total
        for v in members:
            rep[v] = label
    edges = set()
    for u, w in g.edges():
        ru, rw = rep[u], rep[w]
        if ru != rw:
            edges.add((min(ru, rw), max(ru, rw)))
    quotient = SimpleGraph(sorted(rank), sorted(edges))
    return GraphProductPresentation(quotient, rank)


def expansion_label(v, i, taken):
    """Deterministic label for the i-th clique vertex expanding v, not in taken."""
    sep = "#"
    while f"{v}{sep}{i}" in taken:
        sep += "#"
    return f"{v}{sep}{i}"


def expand_to_raag(p):
    """Defining graph of the presented group: each vertex becomes a clique.

    A vertex of rank r is replaced by a clique on r fresh vertices, each
    joined to the expansions of all former neighbors.  Rank-1 vertices keep
    their labels, so unit-rank presentations expand to their own graph.
    """
    g = p.graph
    taken = set(g.vertices)
    names = {}
    for v in g.sorted_vertices():
        r = p.rank(v)
        if r == 1:
            names[v] = [v]
        else:
            names[v] = [expansion_label(v, i, taken) for i in range(1, r + 1)]
            taken.update(names[v])
    verts = [x for v in g.sorted_vertices() for x in names[v]]
    edges = []
    for v in g.sorted_vertices():
        group = names[v]
        edges.extend((group[i], group[j]) for i in range(len(group)) for j in range(i + 1, len(group)))
    for u, w in g.edges():
        edges.extend((x, y) for x in names[u] for y in names[w])
    return SimpleGraph(verts, edges)
