"""Graph isomorphism via canonical labeling.

Canonical forms of plain (uncolored) graphs are computed by color
refinement plus individualization with backtracking, so repeated calls agree
and isomorphism answers are reproducible byte for byte.  The search starts
from the unit partition.  After an individualization, refinement re-keys
only the neighbours of the cells that changed, and the search keeps its own
stack, so its depth is not bounded by Python recursion.  A leaf whose
trace ties the best leaf's is first tested as an automorphism image of it,
in one pass over the edges.  The search is exponential in the worst case:
on a 2-core Xeon with CPython 3.11 the 885-node radius-3 untransvectable
extension-graph ball of the 5-cycle canonizes in about 1.05 s, and the
5,779-node one of ``tests/fixtures/c5double.json`` in about 130 s.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict


def _individualize(label, cells, u, fresh):
    """Copies of (label, cells) with u split off its cell under the label fresh."""
    label = list(label)
    cells = dict(cells)
    cells[label[u]] = [v for v in cells[label[u]] if v != u]
    cells[fresh] = [u]
    label[u] = fresh
    return label, cells


def _refine(adj, label, cells, changed):
    """Split cells until the partition is equitable; return the labels written.

    ``changed`` holds the vertices whose cell changed since the partition was
    last equitable (every vertex for a first round).  A round keys each
    neighbour of a changed vertex by the sorted labels of its changed
    neighbours and splits its cell by those keys, pieces in key order; a
    vertex alone in its cell never splits, so it is never keyed.
    Members of one cell have equal neighbour counts in every cell that did
    not change, so the keys order them as their full sorted neighbour labels
    would, and a cell is touched in all its members or in none.  Only a first
    round leaves some members of a cell untouched: those have no neighbours,
    the least key.  ``label`` and ``cells`` are updated in place.
    """
    written = set()
    while changed:
        keys = defaultdict(list)
        for w in changed:
            c = label[w]
            for v in adj[w]:
                if len(cells[label[v]]) > 1:
                    keys[v].append(c)
        by_cell = defaultdict(list)
        for v, key in keys.items():
            key.sort()
            by_cell[label[v]].append((key, v))
        changed = []
        for start, keyed in by_cell.items():
            cell = cells[start]
            keyed.sort()
            if len(keyed) < len(cell):
                keyed[:0] = [([], v) for v in cell if v not in keys]
            if keyed[0][0] == keyed[-1][0]:
                continue
            at, piece, last = start, [], keyed[0][0]
            for key, v in keyed:
                if key != last:
                    cells[at] = piece
                    written.add(at)
                    at, piece, last = at + len(piece), [], key
                piece.append(v)
                label[v] = at
            cells[at] = piece
            written.add(at)
            changed.extend(cell)
    return written


class _Orbits:
    """Union-find of points under a growing set of permutations."""

    __slots__ = ("parent",)

    def __init__(self, points):
        self.parent = {u: u for u in points}

    def find(self, u):
        parent = self.parent
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def join(self, sigma):
        parent = self.parent
        for u in parent:
            v = sigma[u]
            if v != u and v in parent:
                ru, rv = self.find(u), self.find(v)
                if ru != rv:
                    parent[ru] = rv


def _orbit(point, perms):
    """The orbit of a point under the group the permutations generate."""
    seen = {point}
    todo = [point]
    for x in todo:
        for sigma in perms:
            y = sigma[x]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


class _Node:
    """An interior search node: its equitable partition and branching state.

    ``entry`` is the node's trace entry, ``eq`` whether the trace up to here
    equals the best leaf's, ``auts`` the recorded automorphisms fixing
    ``prefix`` pointwise, and ``orbits`` their orbits on the target cell,
    joined up to ``merged`` of them.
    """

    __slots__ = ("label", "cells", "prefix", "entry", "eq", "target", "cell",
                 "auts", "explored", "orbits", "merged")


class _Canonizer:
    """Individualization-refinement search for the minimal labeling.

    The canonical key of a graph is the minimum, over all leaves of the
    search tree, of (refinement trace, leaf encoding).  A node's trace entry
    lists the cells its refinement wrote, as (-label, -size) in label order.
    Entries are only compared between nodes whose parents have equal traces,
    hence the same cell labels and sizes; there they order as the sorted
    colour tuples of the two partitions would.  Each node knows whether its
    trace equals the best leaf's so far, so pruning looks at the newest entry
    only.  At every node the target-cell vertices are explored one per orbit
    of the automorphisms discovered so far that fix the individualized prefix
    pointwise (equivalent vertices span identical subtrees).  A leaf equal to
    the best one yields an automorphism that fixes the prefix the two paths
    share and maps the current branch there onto the explored best branch,
    so the search returns to that branching node at once.  ``nodes`` counts
    the nodes refined, pruned ones and leaves included.
    """

    def __init__(self, verts, adj):
        self.n = len(verts)
        self.verts = verts
        self.adj = adj
        self.best = None          # (key, order)
        self.best_trace = None    # trace entries on the path to best
        self.best_prefix = None   # individualized vertices on the path to best
        self.automorphisms = []   # permutations as vertex->vertex lists
        self.nodes = 0
        self.adjsets = None       # neighbour frozensets, built on the first tie

    def run(self):
        """Search the whole tree with an explicit stack; return best."""
        n, adj = self.n, self.adj
        label, cells = [0] * n, {0: list(range(n))}
        _refine(adj, label, cells, range(n))
        stack = []
        self._visit(stack, label, cells, (), (), [], False)
        while stack:
            node = stack[-1]
            u = self._next_vertex(node)
            if u is None:
                stack.pop()
                continue
            # individualized vertices are labelled above every position, in
            # the order of their depths
            label, cells = _individualize(node.label, node.cells, u, n + len(stack) - 1)
            written = _refine(adj, label, cells, node.cell)
            entry = tuple((-q, -len(cells[q])) for q in sorted(written))
            auts = [sigma for sigma in node.auts if sigma[u] == u]
            self._visit(stack, label, cells, node.prefix + (u,), entry, auts, node.eq)
        return self.best

    def _visit(self, stack, label, cells, prefix, entry, auts, parent_eq):
        """Prune a refined node, score it as a leaf, or push it."""
        self.nodes += 1
        depth = len(prefix)
        eq = False
        if parent_eq:
            best = self.best_trace
            if depth == len(best) or entry > best[depth]:
                return
            eq = entry == best[depth]
        if len(cells) == self.n:
            self._leaf(stack, label, prefix, entry, eq)
            return
        # smallest label with a non-singleton cell; every cell below the
        # parent's target is a singleton
        target = stack[-1].target if stack else 0
        while len(cells.get(target, ())) < 2:
            target += 1
        node = _Node()
        node.label, node.cells, node.prefix = label, cells, prefix
        node.entry, node.eq, node.auts = entry, eq, auts
        node.target, node.cell = target, cells[target]
        node.explored, node.orbits, node.merged = set(), None, 0
        stack.append(node)

    def _leaf(self, stack, label, prefix, entry, eq):
        """Compare a leaf with the best; on a tie, return to the shared prefix.

        On a tied trace the leaf's key equals the best one exactly when the
        map sigma from this labeling onto the best one is an automorphism,
        which one pass over the edges tells.  Otherwise the rows are compared
        in order and the leaf is dropped at its first larger row.
        """
        n, adj = self.n, self.adj
        order = sorted(range(n), key=label.__getitem__)
        pos = [0] * n
        for p, v in enumerate(order):
            pos[v] = p
        rank = pos.__getitem__
        start, key = 0, ()
        if eq and len(self.best_trace) == len(prefix) + 1:
            best_key, best_order = self.best
            sigma = [0] * n
            for a, b in zip(order, best_order):
                sigma[a] = b
            if self.adjsets is None:
                self.adjsets = [frozenset(a) for a in adj]
            adjsets, image = self.adjsets, sigma.__getitem__
            # sigma is a bijection, so mapping every edge onto an edge is enough
            if all(adjsets[sigma[v]].issuperset(map(image, adj[v])) for v in range(n)):
                self.automorphisms.append(sigma)
                shared = 0
                while prefix[shared] == self.best_prefix[shared]:
                    shared += 1
                del stack[shared + 1:]
                for node in stack:
                    node.auts.append(sigma)
                return
            for start, v in enumerate(order):
                row = tuple(sorted(map(rank, adj[v])))
                if row != best_key[start]:
                    break
            if row > best_key[start]:
                return
            key = best_key[:start]
        key += tuple(tuple(sorted(map(rank, adj[v]))) for v in order[start:])
        self.best = (key, order)
        self.best_trace = [node.entry for node in stack] + [entry]
        self.best_prefix = prefix
        for node in stack:
            node.eq = True

    @staticmethod
    def _next_vertex(node):
        """The first target-cell vertex in no explored vertex's orbit, or None."""
        cell, explored = node.cell, node.explored
        if node.merged < len(node.auts) and explored:
            if node.orbits is None:
                node.orbits = _Orbits(cell)
            for sigma in node.auts[node.merged:]:
                node.orbits.join(sigma)
            node.merged = len(node.auts)
        if node.orbits is None:
            u = next((v for v in cell if v not in explored), None)
        else:
            find = node.orbits.find
            done = {find(e) for e in explored}
            u = next((v for v in cell if find(v) not in done), None)
        if u is not None:
            explored.add(u)
        return u

    def group_order(self):
        """Order of the automorphism group, by orbit-stabilizer along best_prefix.

        Call after run().  A tie never replaces best, so best_prefix leads to
        the first minimal leaf found.  Every sibling of that path in the orbit
        of its vertex under the prefix stabilizer is either explored after it
        (and reaches a minimal leaf, recording an automorphism that maps it
        onto the path) or pruned as the image of an explored sibling, so the
        recorded automorphisms give each stabilizer orbit exactly.
        """
        order = 1
        auts = self.automorphisms
        for b in self.best_prefix:
            order *= len(_orbit(b, auts))
            auts = [sigma for sigma in auts if sigma[b] == b]
        return order


class CanonicalForm:
    """Canonical key plus the vertex ordering that realizes it.

    The key is the adjacency rows of the graph relabelled by canonical
    position: row p lists the sorted positions of the neighbours of the
    vertex at position p.
    """

    __slots__ = ("key", "order", "_canonizer")

    def __init__(self, key, order, canonizer=None):
        self.key = key
        self.order = order  # tuple of vertex labels, canonical positions 0..n-1
        self._canonizer = canonizer

    def orbit_representatives(self):
        """Least label of each automorphism orbit, sorted.

        Read off the automorphisms recorded by the search that produced this
        form: they generate the whole group (``group_order`` multiplies
        their orbit sizes), so no second search runs.
        """
        c = self._canonizer
        if c is None:
            return []
        orbits = _Orbits(range(c.n))
        for sigma in c.automorphisms:
            orbits.join(sigma)
        least = {}
        for i, v in enumerate(c.verts):
            least.setdefault(orbits.find(i), v)
        return list(least.values())

    def group_order(self):
        """Order of the automorphism group, from the same search."""
        return 1 if self._canonizer is None else self._canonizer.group_order()

    def hexdigest(self):
        # hashed in the format of the former colored key (no palette, every
        # vertex color 0), so that digests recorded by earlier versions stay valid
        legacy = ((), (0,) * len(self.key), self.key)
        return hashlib.sha256(repr(legacy).encode("ascii")).hexdigest()


def canonical_form(g):
    """Canonical form of a graph.

    Two graphs have equal canonical keys if and only if they are isomorphic.
    """
    verts = g.sorted_vertices()
    if not verts:
        return CanonicalForm((), ())
    index = {v: i for i, v in enumerate(verts)}
    adj = [sorted(index[w] for w in g.neighbors(v)) for v in verts]
    canonizer = _Canonizer(verts, adj)
    key, order = canonizer.run()
    return CanonicalForm(key, tuple(verts[i] for i in order), canonizer)


def canonical_hash(g):
    """Deterministic hex digest of the canonical form."""
    return canonical_form(g).hexdigest()


def find_isomorphism(g, h):
    """An isomorphism g -> h as a dict, or None.

    Deterministic: the map is read off the two canonical labelings, so
    repeated calls agree, and the maps found for (g, h) and (h, g) are
    mutually inverse.
    """
    cg = canonical_form(g)
    ch = canonical_form(h)
    if cg.key != ch.key:
        return None
    iso = dict(zip(cg.order, ch.order))
    for u, w in g.edges():
        if not h.has_edge(iso[u], iso[w]):  # pragma: no cover - sanity guard
            raise AssertionError("canonical forms agreed but edge map failed")
    return iso


def automorphism_count(g):
    """Order of the automorphism group.

    Shares the canonizer's search: the order is read off the automorphisms
    it records, so it costs one canonical labeling.
    """
    return canonical_form(g).group_order()
