"""Finite-index RAAG subgroups obtained by gluing copies of the graph along a star.

Sending one vertex generator to 1 in Z/k and every other generator to 0
defines a surjection whose kernel is again a right-angled Artin group, of
index k; its defining graph consists of k copies of the original graph glued
along the closed star of the chosen vertex.  Closing under this construction
(up to composition depth and vertex budget) enumerates a family of
finite-index subgroups; the search makes no completeness claim, so consumers
must treat exhaustion as "unknown", never as "no".

Each class found is a GluingClass, held as the index adjacency of its graph
(``isomorphism.indexed_graph``'s pair).  ``_glue`` is the one gluing core: it
builds a child's pair straight from its parent's, and ``star_gluing_kernel``
is its labelled front end.  A child's degree sequence is read off its
parent's pair, its own pair is glued only when it is matched against an
earlier class, glued further or canonized, and a ``SimpleGraph`` is built
only when the caller reads its witness.  Newness is decided by matching
graphs, not by canonical forms; a class's canonical form is computed only
when the search glues it or the caller needs it, seeded with the
automorphisms the gluing shows: the swaps of adjacent copies and the
parent's recorded automorphisms that fix the glued vertex, lifted to every
copy.

The search skips the gluings its own algebra proves duplicate.  Let P be a
class with parent B and last step (u, k1), so that A_P is the kernel of the
map A_B -> Z/k1 sending u to 1.  P's generators are u^k1, the vertices of
st(u), which P shares with B, and the copies u^i x u^-i of the others.

- Same orbit.  glue(P, u, k2) is k1 * k2 copies of B glued along st(u), as
  st_P(u) = st_B(u): it is glue(B, u, k1 * k2), the kernel of u -> 1 mod
  k1 * k2, of which P's vertex u stands for u^k1.  That sibling of P has as
  many vertices as the gluing of P, so it is met at P's own level, before
  any child of P; and a gluing of P at a vertex in u's Aut(P)-orbit is
  isomorphic to the gluing at u.  So P skips them all.
- Commuting.  Let w be adjacent to u in B.  On P's generators the map
  A_B -> Z/k2 sending w to 1 sends only w to 1, so glue(P, w, k2) has the
  group ker(A_B -> Z/k1 x Z/k2), u -> (1, 0), w -> (0, 1), and so has
  glue(glue(B, w, k2), u, k1).  Isomorphic RAAGs have isomorphic defining
  graphs (Droms 1987), so the two graphs are isomorphic, and so are those
  with w replaced by the least label w' of its Aut(B)-orbit.  B glues in
  (label, k) order, so when (w', k2) < (u, k1) the class of glue(B, w', k2)
  is met before P; it has a gluing within budget, at k1, so it is expanded
  before P, and that gluing is met before P's children.  So P skips its
  gluing at (v, k2) when v's Aut(P)-orbit holds such a w.

By induction on the order in which the search meets them, every skipped
child is isomorphic to a class met before it: a skipped child of that
earlier class is itself isomorphic to one met earlier still.  So the
classes, their witnesses, their order and ``truncated`` are those of the
search that skips nothing; each class's orbits are computed once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import inf

from .errors import DomainError, InputError, echo, require, require_integer
from .graphs import SimpleGraph
from .combinatorics import has_finite_out
from .isomorphism import BUDGET, canonical_form_indexed, indexed_graph, match_indexed


def _copy_names(verts, unshared, k):
    """The labels of the unshared vertices in copies 2..k, one list per copy.

    ``unshared`` lists the positions in ``verts`` of the vertices outside
    the star, in increasing order, and each list follows it.  The unshared
    vertex x of copy i becomes "c<i>.<x>", the "." doubled until the label
    is neither a vertex nor a label issued earlier (copies in increasing i,
    vertices in the order of ``verts``).
    """
    taken = set(verts)
    copies = []
    for i in range(2, k + 1):
        names = []
        for x in unshared:
            sep = "."
            while f"c{i}{sep}{verts[x]}" in taken:
                sep += "."
            names.append(f"c{i}{sep}{verts[x]}")
            taken.add(names[-1])
        copies.append(names)
    return copies


def _glue(verts, adj, v, k):
    """The index-k star gluing of a graph given as sorted vertices and index adjacency.

    ``v`` is the position of the glued vertex.  Returns the child's sorted
    vertices, its index adjacency and its ``slots``: ``slots[c][x]`` is the
    position in the child of vertex x of copy c + 1, the same in every copy
    for a vertex of st(v).
    """
    shared = {v, *adj[v]}
    n = len(verts)
    unshared = [x for x in range(n) if x not in shared]
    labels = list(verts)
    for names in _copy_names(verts, unshared, k):
        labels += names
    order = sorted(range(len(labels)), key=labels.__getitem__)
    pos = [0] * len(labels)
    for p, i in enumerate(order):
        pos[i] = p
    slots = [pos[:n]]
    for c in range(1, k):
        slot = list(slots[0])
        for j, x in enumerate(unshared, n + (c - 1) * len(unshared)):
            slot[x] = pos[j]
        slots.append(slot)
    child = [None] * len(labels)
    for x, nbrs in enumerate(adj):
        if x in shared:
            row = [pos[y] for y in nbrs if y in shared]
            outside = [y for y in nbrs if y not in shared]
            for slot in slots:
                row += [slot[y] for y in outside]
            child[pos[x]] = row
        else:
            for slot in slots:
                child[slot[x]] = [slot[y] for y in nbrs]
    return [labels[i] for i in order], child, slots


def _graph(verts, adj):
    """The SimpleGraph of an indexed pair."""
    return SimpleGraph(verts, [(verts[i], verts[j]) for i, nbrs in enumerate(adj)
                               for j in nbrs if i < j])


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
    verts, adj = indexed_graph(g)
    verts, adj, _ = _glue(verts, adj, bisect_left(verts, v), k)
    return _graph(verts, adj)


def chain_json(chain):
    """A chain of gluings ((vertex, k), ...) as JSON."""
    return [{"vertex": v, "k": k} for v, k in chain]


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
        return chain_json(self.chain)


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
    """An isomorphism class met by the gluing search, glued and canonized on first use.

    Carries the sorted degree sequence of its graph, an isomorphism
    invariant that separates most classes without a graph, and the gluing
    ``chain`` from the base graph with its ``index``.  A child carries its
    parent class and the gluing ``step`` (v, k) that makes it, and glues its
    ``indexed`` pair from its parent's only when it is matched, glued
    further or canonized; its witness graph is built only when asked for.
    """

    __slots__ = ("parent", "step", "degrees", "chain", "index",
                 "_indexed", "_slots", "_form", "_orbits", "_skips", "_witness")

    def __init__(self, parent, step, degrees):
        self.parent = parent
        self.step = step
        self.degrees = degrees
        self.chain = () if parent is None else parent.chain + (step,)
        self.index = 1 if parent is None else parent.index * step[1]
        self._indexed = self._slots = self._form = self._orbits = self._skips = None
        self._witness = None

    @classmethod
    def base(cls, g):
        """The class of the base graph g, the root of the search."""
        base = cls(None, None, g.degree_sequence())
        base._indexed = indexed_graph(g)
        base._witness = FiniteIndexWitness((), 1, g)
        return base

    @property
    def witness(self):
        if self._witness is None:
            self._witness = FiniteIndexWitness(self.chain, self.index, _graph(*self.indexed))
        return self._witness

    @property
    def indexed(self):
        """The graph as an ``indexed_graph`` pair, glued from the parent's."""
        if self._indexed is None:
            v, k = self.step
            verts, adj = self.parent.indexed
            verts, adj, self._slots = _glue(verts, adj, bisect_left(verts, v), k)
            self._indexed = verts, adj
        return self._indexed

    @property
    def form(self):
        if self._form is None:
            seeds = () if self.parent is None else self._seeds()
            self._form = canonical_form_indexed(self.indexed, automorphisms=seeds)
        return self._form

    @property
    def orbits(self):
        """The form's ``orbit_map``: each vertex to the least label of its orbit."""
        if self._orbits is None:
            self._orbits = self.form.orbit_map()
        return self._orbits

    def _seeds(self):
        """Automorphisms of a child's graph that its gluing shows.

        Swapping two copies fixes st(v) and maps the rest of each copy onto
        the other; the swaps of adjacent copies are listed.  An automorphism
        of the parent that fixes v maps st(v) onto itself, so it lifts to the
        child by acting alike on every copy; the lifts of those the parent's
        search recorded follow.
        """
        parent_verts, parent_adj = self.parent.indexed
        verts, slots = self.indexed[0], self._slots
        v = self.step[0]
        i = bisect_left(parent_verts, v)
        shared = {i, *parent_adj[i]}
        unshared = [x for x in range(len(parent_verts)) if x not in shared]
        seeds = []
        for a, b in zip(slots, slots[1:]):
            swap = {verts[a[x]]: verts[b[x]] for x in unshared}
            swap.update((verts[b[x]], verts[a[x]]) for x in unshared)
            seeds.append(swap)
        index = {x: j for j, x in enumerate(parent_verts)}
        for sigma in self.parent.form.automorphisms():
            if v not in sigma:
                moved = [(index[x], index[y]) for x, y in sigma.items()]
                lift = {verts[slots[0][x]]: verts[slots[0][y]] for x, y in moved if x in shared}
                for slot in slots:
                    lift.update((verts[slot[x]], verts[slot[y]]) for x, y in moved
                                if x not in shared)
                seeds.append(lift)
        return seeds

    def children(self, v, max_vertices):
        """The gluings of this class at v within max_vertices, unbuilt, in increasing k.

        A child's degrees are read off this graph: a vertex x of st(v) keeps
        its neighbours in st(v) and meets those outside it in each of the k
        copies, so has degree d(x) + (k - 1) |N(x) - st(v)|; every other
        vertex has its own degree in each copy.
        """
        verts, adj = self.indexed
        i = bisect_left(verts, v)
        shared = {i, *adj[i]}
        ks = _multiplicities(len(adj), len(shared), max_vertices)
        inner = [(len(adj[x]), len(adj[x]) - len(shared.intersection(adj[x]))) for x in shared]
        outer = [len(nbrs) for x, nbrs in enumerate(adj) if x not in shared]
        return [GluingClass(self, (v, k), tuple(sorted(
                    [d + (k - 1) * e for d, e in inner] + outer * k)))
                for k in ks]

    def expandable(self, max_vertices):
        """Whether some gluing of this graph stays within max_vertices."""
        n = len(self.degrees)
        return any(_multiplicities(n, d + 1, max_vertices) for d in set(self.degrees))

    def skips_below(self, v):
        """The k below which the search skips this class's gluing at v, an orbit's least label.

        See the module docstring: with step (u, k1) from parent B, every
        gluing at u's orbit is skipped, and the gluing at (v, k2) when v's
        orbit holds a neighbour w of u in B whose Aut(B)-orbit's least label
        w' has (w', k2) < (u, k1).  The bounds are found once per class.
        """
        if self._skips is None:
            self._skips = {}
            if self.parent is not None:
                u, k1 = self.step
                orbit, parent_orbit = self.orbits, self.parent.orbits
                parent_verts, parent_adj = self.parent.indexed
                for y in parent_adj[bisect_left(parent_verts, u)]:
                    w = parent_verts[y]
                    first = parent_orbit[w]
                    bound = inf if first < u else k1 if first == u else 0
                    if bound > self._skips.get(orbit[w], 0):
                        self._skips[orbit[w]] = bound
                self._skips[orbit[u]] = inf
        return self._skips.get(v, 0)


def _skipped(cls, v, k):
    """Whether the search skips the gluing of cls at (v, k) as a proven duplicate."""
    return k < cls.skips_below(v)


def check_search_bounds(max_vertices, max_steps):
    """Raise InputError unless both bounds of the gluing search are integers >= 0."""
    for bound in (max_vertices, max_steps):
        require_integer(bound, "enumeration bound")
    if max_vertices < 0 or max_steps < 0:
        raise InputError("enumeration bounds must be >= 0")


def gluing_classes(g, max_vertices, max_steps):
    """Check the bounds, then search."""
    check_search_bounds(max_vertices, max_steps)
    return _gluing_classes(g, max_vertices, max_steps)


def _same_class(a, b):
    """Whether two classes of one degree sequence are isomorphic.

    The matcher answers from the two graphs; only when it runs out of
    budget are both canonized and their keys compared.
    """
    iso = match_indexed(a.indexed, b.indexed)
    if iso is BUDGET:
        return a.form.key == b.form.key
    return iso is not None


def _gluing_classes(g, max_vertices, max_steps):
    """Breadth-first star-gluing search behind enumerate_findex_graphs.

    Yields a GluingClass for each new isomorphism class, in discovery order,
    and returns ``truncated``.  A frontier graph is glued only at the least
    vertex of each automorphism orbit: gluing at v and at its image under an
    automorphism gives isomorphic children, and the class found first always
    comes from the least vertex of its orbit.  Callers check that Out of g
    is finite.

    A child is new unless it is isomorphic to an earlier class of its
    degree sequence (a new sequence is a new class).  ``_same_class`` tests
    each such class in turn with the matcher, whose isomorphism or proof of
    none answers exactly, so classes, their order and their witnesses are
    those of a test by canonical keys.  A class is canonized only when the
    search glues it (the orbits need its form), when the matcher runs out
    of budget on it, or by the caller; its pair is glued only when it is
    matched or canonized, and its graph built only when the caller asks
    for its witness.  A gluing ``_skipped`` names is isomorphic to a class
    met before it (see the module docstring), so it is neither tested nor
    recorded.
    """
    base = GluingClass.base(g)
    met = {base.degrees: [base]}     # every class met, by degree sequence
    yield base
    frontier = [base]
    for _ in range(max_steps):
        nxt = []
        for cls in frontier:
            if not cls.expandable(max_vertices):
                continue
            for v, first in cls.orbits.items():
                if v != first:
                    continue
                for child in cls.children(v, max_vertices):
                    if _skipped(cls, v, child.step[1]):
                        continue
                    peers = met.setdefault(child.degrees, [])
                    if any(_same_class(p, child) for p in peers):
                        continue
                    peers.append(child)
                    nxt.append(child)
                    yield child
        frontier = nxt
    return g.n_vertices > max_vertices or bool(frontier)


def enumerate_findex_graphs(g, max_vertices, max_steps):
    """Isomorphism classes of graphs reachable by composed star gluings.

    Requires the base group to have finite outer automorphism group.
    Breadth-first closure of {g} under star_gluing_kernel at every vertex
    and every multiplicity whose result stays within ``max_vertices``, to
    composition depth ``max_steps``; de-duplicated up to isomorphism, each
    class keeping the first witness found (smallest depth, deterministic
    order).  ``truncated`` is set when the depth cut the search, or when g
    itself has more than ``max_vertices`` vertices.  A gluing past
    ``max_vertices`` is outside the question and never sets it.  Either
    way an unmatched target means "not found within budget", not "does not
    exist".
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
