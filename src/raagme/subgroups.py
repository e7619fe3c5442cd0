"""Finite-index RAAG subgroups obtained by gluing copies of the graph along a star.

Sending one vertex generator to 1 in Z/k and every other generator to 0
defines a surjection whose kernel is again a right-angled Artin group, of
index k; its defining graph consists of k copies of the original graph glued
along the closed star of the chosen vertex.  Closing under this construction
(up to composition depth and vertex budget) enumerates a family of
finite-index subgroups; the search makes no completeness claim, so consumers
must treat exhaustion as "unknown", never as "no".  Each class found is a
GluingClass.  Its children are built lazily: a child's degree sequence is
read off its parent's graph, and its graph is glued only when it is
matched against an earlier class, glued further or handed to the caller.
Newness is decided by matching graphs, not by canonical forms; a class's
canonical form is computed, from the index adjacency the matcher uses,
only when the search glues it or the caller needs it, seeded with the
automorphisms the gluing shows: the swaps of adjacent copies and the
parent's recorded automorphisms that fix the glued vertex, lifted to
every copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError, echo, require, require_integer
from .graphs import SimpleGraph, star
from .combinatorics import has_finite_out
from .isomorphism import BUDGET, canonical_form_indexed, indexed_graph, match_indexed


def _copy_names(verts, shared, k):
    """The labels of the unshared vertices in copies 2..k, one dict per copy.

    The unshared vertex x of copy i becomes "c<i>.<x>", the "." doubled
    until the label is neither a vertex nor a label issued earlier (copies
    in increasing i, vertices in the order of ``verts``).
    """
    taken = set(verts)
    copies = []
    for i in range(2, k + 1):
        name = {}
        for x in verts:
            if x not in shared:
                sep = "."
                while f"c{i}{sep}{x}" in taken:
                    sep += "."
                name[x] = f"c{i}{sep}{x}"
                taken.add(name[x])
        copies.append(name)
    return copies


def star_gluing_kernel(g, v, k):
    """Defining graph of the index-k kernel at vertex v.

    k disjoint copies of g are identified along st(v).  Copy 1 keeps its
    labels; the unshared vertex x of copy i >= 2 becomes "c<i>.<x>", the "."
    doubled until the label is neither a vertex of g nor a label issued
    earlier in this gluing (copies in increasing i, vertices in sorted
    order), so gluings compose.  The vertex count is
    k * |V| - (k-1) * |st(v)|.
    """
    require(g, SimpleGraph, "a graph")
    if not g.has_vertex(v):
        raise InputError(f"unknown vertex {echo(v)}")
    if require_integer(k, "gluing multiplicity") < 2:
        raise InputError(f"gluing multiplicity must be >= 2, got {echo(k)}")
    verts = g.sorted_vertices()
    edges = g.edges()
    new_vertices = list(verts)
    new_edges = set(edges)
    for name in _copy_names(verts, star(g, v), k):
        new_vertices += name.values()
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
    """An isomorphism class met by the gluing search, built and canonized on first use.

    Carries the sorted degree sequence of its graph, an isomorphism
    invariant that separates most classes without a graph.  The base class
    carries its witness; a child carries its parent class and the gluing
    ``step`` (v, k) that makes it, and builds its witness with
    ``star_gluing_kernel`` only when the witness or the form is asked for.
    A class keeps its graph's index adjacency once it is matched, since the
    search matches one class against many.
    """

    __slots__ = ("parent", "step", "degrees", "_witness", "_form", "_indexed")

    def __init__(self, parent, step, degrees, witness=None):
        self.parent = parent
        self.step = step
        self.degrees = degrees
        self._witness = witness
        self._form = None
        self._indexed = None

    @classmethod
    def base(cls, g):
        """The class of the base graph g, the root of the search."""
        return cls(None, None, g.degree_sequence(), FiniteIndexWitness((), 1, g))

    @property
    def witness(self):
        if self._witness is None:
            w = self.parent.witness
            v, k = self.step
            self._witness = FiniteIndexWitness(
                w.chain + (self.step,), w.index * k, star_gluing_kernel(w.graph, v, k))
        return self._witness

    @property
    def indexed(self):
        """The graph of the witness as an ``indexed_graph``, for the matcher and form."""
        if self._indexed is None:
            self._indexed = indexed_graph(self.witness.graph)
        return self._indexed

    @property
    def form(self):
        if self._form is None:
            seeds = () if self.parent is None else self._seeds()
            self._form = canonical_form_indexed(self.indexed, automorphisms=seeds)
        return self._form

    def _seeds(self):
        """Automorphisms of a child's graph that its gluing shows.

        Swapping two copies fixes st(v) and maps the rest of each copy onto
        the other; the swaps of adjacent copies are listed.  An automorphism
        of the parent that fixes v maps st(v) onto itself, so it lifts to the
        child by acting alike on every copy; the lifts of those the parent's
        search recorded follow.
        """
        g = self.parent.witness.graph
        v, k = self.step
        verts = g.sorted_vertices()
        shared = star(g, v)
        copies = [{x: x for x in verts if x not in shared}] + _copy_names(verts, shared, k)
        seeds = []
        for a, b in zip(copies, copies[1:]):
            # every copy names the unshared vertices in the order of verts
            swap = dict(zip(a.values(), b.values()))
            swap.update(zip(b.values(), a.values()))
            seeds.append(swap)
        for sigma in self.parent.form.automorphisms():
            if v not in sigma:
                lift = {x: y for x, y in sigma.items() if x in shared}
                for name in copies:
                    lift.update((name[x], name[y]) for x, y in sigma.items() if x not in shared)
                seeds.append(lift)
        return seeds

    def children(self, v, max_vertices):
        """The gluings of this class at v within max_vertices, unbuilt, in increasing k.

        A child's degrees are read off this graph: a vertex x of st(v) keeps
        its neighbours in st(v) and meets those outside it in each of the k
        copies, so has degree d(x) + (k - 1) |N(x) - st(v)|; every other
        vertex has its own degree in each copy.
        """
        g = self.witness.graph
        adj = g.adjacency
        shared = star(g, v)
        ks = _multiplicities(len(adj), len(shared), max_vertices)
        inner = [(len(adj[x]), len(adj[x] - shared)) for x in shared]
        outer = [len(nbrs) for x, nbrs in adj.items() if x not in shared]
        return [GluingClass(self, (v, k), tuple(sorted(
                    [d + (k - 1) * e for d, e in inner] + outer * k)))
                for k in ks]

    def expandable(self, max_vertices):
        """Whether some gluing of this graph stays within max_vertices."""
        n = len(self.degrees)
        return any(_multiplicities(n, d + 1, max_vertices) for d in set(self.degrees))


def check_search_bounds(max_vertices, max_steps):
    """Raise InputError unless both bounds of the gluing search are integers >= 0."""
    for bound in (max_vertices, max_steps):
        require_integer(bound, "enumeration bound")
    if max_vertices < 0 or max_steps < 0:
        raise InputError("enumeration bounds must be >= 0")


def gluing_classes(g, max_vertices, max_steps, target=None):
    """Check the bounds, then search; a target caps max_vertices at its length."""
    check_search_bounds(max_vertices, max_steps)
    if target is not None:
        max_vertices = min(max_vertices, len(target))
    return _gluing_classes(g, max_vertices, max_steps, target)


def _same_class(a, b):
    """Whether two classes of one degree sequence are isomorphic.

    The matcher answers from the two graphs; only when it runs out of
    budget are both canonized and their keys compared.
    """
    iso = match_indexed(a.indexed, b.indexed)
    if iso is BUDGET:
        return a.form.key == b.form.key
    return iso is not None


def _gluing_classes(g, max_vertices, max_steps, target):
    """Breadth-first star-gluing search behind enumerate_findex_graphs.

    Yields a GluingClass for each new isomorphism class, in discovery order,
    and returns ``truncated``.  Given a ``target`` degree sequence, it yields
    only the new classes with that sequence.  A frontier graph is glued only
    at the least vertex of each automorphism orbit: gluing at v and at its
    image under an automorphism gives isomorphic children, and the class
    found first always comes from the least vertex of its orbit.  Callers
    check that Out of g is finite.

    A child is new unless it is isomorphic to an earlier class of its
    degree sequence (a new sequence is a new class).  ``_same_class`` tests
    each such class in turn with the matcher, whose isomorphism or proof of
    none answers exactly, so classes, their order and their witnesses are
    those of a test by canonical keys.  A class is canonized only when the
    search glues it (the orbits need its form), when the matcher runs out
    of budget on it, or by the caller; its graph is built only when it is
    matched or canonized, or when the caller asks for its witness.  A
    child the search will not glue and will not yield needs no newness
    test, except until the last level's first new class, which sets
    ``truncated``; it is still recorded, so later newness tests stay exact.
    """
    # The vertex count never shrinks along a chain: no budget reaches a
    # target smaller than g, and size-pruned gluings only ever lead to
    # graphs above the vertex budget, so the search is only genuinely cut
    # short when the depth limit leaves a frontier unexplored.
    if target is not None and len(target) < g.n_vertices:
        return False
    base = GluingClass.base(g)
    met = {base.degrees: [base]}     # every class met, by degree sequence
    if target in (None, base.degrees):
        yield base
    frontier = [base]
    truncated = g.n_vertices > max_vertices
    for step in range(max_steps):
        if not frontier:
            break
        last = step == max_steps - 1
        nxt = []
        for cls in frontier:
            if not cls.expandable(max_vertices):
                continue
            for v in cls.form.orbit_representatives():
                for child in cls.children(v, max_vertices):
                    wanted = target in (None, child.degrees)
                    decide = wanted or (child.expandable(max_vertices) if not last else not nxt)
                    peers = met.setdefault(child.degrees, [])
                    if decide and any(_same_class(p, child) for p in peers):
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
    require(g, SimpleGraph, "a graph")
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
