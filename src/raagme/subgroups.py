"""Finite-index RAAG subgroups obtained by gluing copies of the graph along a star.

Sending one vertex generator to 1 in Z/k and every other generator to 0
defines a surjection whose kernel is again a right-angled Artin group, of
index k; its defining graph consists of k copies of the original graph glued
along the closed star of the chosen vertex.  Closing under this construction
(up to composition depth and vertex budget) enumerates a family of
finite-index subgroups; the search makes no completeness claim, so consumers
must treat exhaustion as "unknown", never as "no".  Each class found is a
GluingClass: its first witness and its degree sequence, with the canonical
form computed only when the search or the caller needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError, echo
from .graphs import SimpleGraph, star
from .combinatorics import has_finite_out
from .isomorphism import canonical_form


def star_gluing_kernel(g, v, k):
    """Defining graph of the index-k kernel at vertex v.

    k disjoint copies of g are identified along st(v).  Copy 1 keeps its
    labels; the unshared vertex x of copy i >= 2 becomes "c<i>.<x>", the "."
    doubled until the label is neither a vertex of g nor a label issued
    earlier in this gluing (copies in increasing i, vertices in sorted
    order), so gluings compose.  The vertex count is
    k * |V| - (k-1) * |st(v)|.
    """
    if not g.has_vertex(v):
        raise InputError(f"unknown vertex {echo(v)}")
    if not isinstance(k, int) or k < 2:
        raise InputError(f"gluing multiplicity must be an integer >= 2, got {echo(k)}")
    shared = star(g, v)
    verts = g.sorted_vertices()
    edges = g.edges()
    taken = set(verts)
    new_vertices = list(verts)
    new_edges = set(edges)
    for i in range(2, k + 1):
        name = {}
        for x in verts:
            if x not in shared:
                sep = "."
                while f"c{i}{sep}{x}" in taken:
                    sep += "."
                name[x] = f"c{i}{sep}{x}"
                taken.add(name[x])
                new_vertices.append(name[x])
        for x, y in edges:
            nx, ny = name.get(x, x), name.get(y, y)
            new_edges.add((min(nx, ny), max(nx, ny)))
    return SimpleGraph(new_vertices, sorted(new_edges))


@dataclass(frozen=True)
class FiniteIndexWitness:
    """A chain of star gluings from the base graph, with its total index."""

    chain: tuple          # ((vertex, k), ...) applied left to right
    index: int            # product of the k's
    graph: SimpleGraph

    def replay(self, base):
        """Re-apply the chain from the base graph; must reproduce graph."""
        g = base
        for v, k in self.chain:
            g = star_gluing_kernel(g, v, k)
        return g

    def chain_json(self):
        return [{"vertex": v, "k": k} for v, k in self.chain]


@dataclass(frozen=True)
class EnumerationResult:
    witnesses: tuple
    truncated: bool


def _multiplicities(n, st_size, max_vertices):
    """The k of the gluings along a star of st_size vertices that stay within budget."""
    if st_size == n:
        # gluing along the whole graph returns the same graph for every k;
        # a single k is enough for iso classes
        return range(2, 3) if n <= max_vertices else range(0)
    # k * n - (k - 1) * st_size <= max_vertices
    return range(2, (max_vertices - st_size) // (n - st_size) + 1)


class GluingClass:
    """An isomorphism class met by the gluing search, canonized on first use.

    Carries the first witness found for the class and the sorted degree
    sequence of its graph, an isomorphism invariant that separates most
    classes without a canonical form.
    """

    __slots__ = ("witness", "degrees", "_form")

    def __init__(self, witness):
        self.witness = witness
        self.degrees = witness.graph.degree_sequence()
        self._form = None

    @property
    def form(self):
        if self._form is None:
            self._form = canonical_form(self.witness.graph)
        return self._form

    def expandable(self, max_vertices):
        """Whether some gluing of this graph stays within max_vertices."""
        n = len(self.degrees)
        return any(_multiplicities(n, d + 1, max_vertices) for d in set(self.degrees))


def check_search_bounds(max_vertices, max_steps):
    """Raise InputError unless both bounds of the gluing search are integers >= 0."""
    for bound in (max_vertices, max_steps):
        if isinstance(bound, bool) or not isinstance(bound, int):
            raise InputError(f"enumeration bounds must be integers, got {echo(bound)}")
    if max_vertices < 0 or max_steps < 0:
        raise InputError("enumeration bounds must be >= 0")


def gluing_classes(g, max_vertices, max_steps, target=None):
    """Check the bounds, then search; a target caps max_vertices at its length."""
    check_search_bounds(max_vertices, max_steps)
    if target is not None:
        max_vertices = min(max_vertices, len(target))
    return _gluing_classes(g, max_vertices, max_steps, target)


def _gluing_classes(g, max_vertices, max_steps, target):
    """Breadth-first star-gluing search behind enumerate_findex_graphs.

    Yields a GluingClass for each new isomorphism class, in discovery order,
    and returns ``truncated``.  Given a ``target`` degree sequence, it yields
    only the new classes with that sequence.  A frontier graph is glued only
    at the least vertex of each automorphism orbit: gluing at v and at its
    image under an automorphism gives isomorphic children, and the class
    found first always comes from the least vertex of its orbit.  Callers
    check that Out of g is finite.

    A class is canonized only when the search glues it (the orbits need its
    form), or when an earlier class has the same degree sequence (then keys
    decide newness; a new sequence is a new class), or by the caller.  A
    child the search will not glue and will not yield needs no newness
    test, except until the last level's first new class, which sets
    ``truncated``; it is still recorded, so later newness tests stay exact.
    """
    base = GluingClass(FiniteIndexWitness((), 1, g))
    met = {base.degrees: [base]}     # every class met, by degree sequence
    if target in (None, base.degrees):
        yield base
    frontier = [base]
    # Size-pruned gluings only ever lead to graphs above the vertex budget
    # (the vertex count never shrinks along a chain), so the search is only
    # genuinely cut short when the depth limit leaves a frontier unexplored.
    truncated = g.n_vertices > max_vertices
    for step in range(max_steps):
        if not frontier:
            break
        last = step == max_steps - 1
        nxt = []
        for cls in frontier:
            if not cls.expandable(max_vertices):
                continue
            w = cls.witness
            cur = w.graph
            for v in cls.form.orbit_representatives():
                for k in _multiplicities(cur.n_vertices, len(cur.neighbors(v)) + 1,
                                         max_vertices):
                    child = GluingClass(FiniteIndexWitness(
                        w.chain + ((v, k),), w.index * k, star_gluing_kernel(cur, v, k)))
                    wanted = target in (None, child.degrees)
                    decide = wanted or (child.expandable(max_vertices) if not last else not nxt)
                    peers = met.setdefault(child.degrees, [])
                    if decide and any(p.form.key == child.form.key for p in peers):
                        continue
                    peers.append(child)
                    if decide:
                        nxt.append(child)
                    if wanted:
                        yield child
        frontier = nxt
    return truncated or bool(frontier)


def enumerate_findex_graphs(g, max_vertices, max_steps):
    """Isomorphism classes of graphs reachable by composed star gluings.

    Requires the base group to have finite outer automorphism group.
    Breadth-first closure of {g} under star_gluing_kernel at every vertex
    and every multiplicity whose result stays within ``max_vertices``, to
    composition depth ``max_steps``; de-duplicated up to isomorphism, each
    class keeping the first witness found (smallest depth, deterministic
    order).  ``truncated`` is set when either bound cut the search, so an
    unmatched target means "not found within budget", not "does not exist".
    """
    if not isinstance(g, SimpleGraph):
        raise InputError("first argument must be a SimpleGraph")
    classes = gluing_classes(g, max_vertices, max_steps)
    if not has_finite_out(g):
        raise DomainError(
            "hypothesis violated: Out of the base group must be finite "
            "(the defining graph admits a transvection or a partial conjugation)")
    witnesses = []
    while True:
        try:
            witnesses.append(next(classes).witness)
        except StopIteration as done:
            return EnumerationResult(tuple(witnesses), done.value)
