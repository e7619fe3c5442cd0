"""Graph isomorphism via canonical labeling.

Canonical forms are computed by iterated color refinement plus
individualization with backtracking, so repeated calls agree and isomorphism
answers are reproducible byte for byte.  Vertices may carry arbitrary
mutually-comparable color tags (rank-colored presentations reuse this).  The
search is exponential in the worst case; the intended scale is defining
graphs and extension-graph balls of at most a few dozen vertices.
"""

from __future__ import annotations

import hashlib

from .errors import InputError


def _refine(n, adj, colors):
    """Stable 1-dimensional color refinement, canonically re-indexed."""
    while True:
        sigs = []
        for i in range(n):
            sigs.append((colors[i], tuple(sorted(colors[j] for j in adj[i]))))
        palette = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


class _Canonizer:
    """Individualization-refinement search for the minimal labeling.

    The canonical key of a graph is the minimum, over all leaves of the
    search tree, of (refinement trace, leaf encoding).  Branches whose
    partial trace already exceeds the best known trace are pruned, and at
    every node the target-cell vertices are explored one per orbit of the
    automorphisms discovered so far that fix the individualized prefix
    pointwise (equivalent vertices span identical subtrees).  A leaf equal
    to the best one yields an automorphism that fixes the prefix the two
    paths share and maps the current branch there onto the explored best
    branch, so the search returns to that branching node at once.
    """

    def __init__(self, verts, adj, init_colors):
        self.n = len(verts)
        self.verts = verts
        self.adj = adj
        self.init_colors = init_colors
        self.best = None          # (trace, key, order)
        self.best_prefix = None   # individualized vertices on the path to best
        self.automorphisms = []   # permutations as vertex->vertex lists

    def _leaf(self, colors, trace, prefix):
        """Compare a leaf with the best; on a tie, return the shared prefix length."""
        order = sorted(range(self.n), key=lambda i: colors[i])
        pos = {v: p for p, v in enumerate(order)}
        rows = tuple(tuple(sorted(pos[j] for j in self.adj[v])) for v in order)
        key = (tuple(self.init_colors[v] for v in order), rows)
        if self.best is None or (trace, key) < (self.best[0], self.best[1]):
            self.best = (trace, key, order)
            self.best_prefix = prefix
        elif (trace, key) == (self.best[0], self.best[1]):
            # two labelings with the same key differ by an automorphism
            other = self.best[2]
            sigma = [0] * self.n
            for a, b in zip(order, other):
                sigma[a] = b
            self.automorphisms.append(sigma)
            shared = 0
            while prefix[shared] == self.best_prefix[shared]:
                shared += 1
            return shared
        return None

    def _cell_orbits(self, cell, prefix):
        """Union-find roots of the cell under prefix-fixing automorphisms."""
        parent = {u: u for u in cell}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for sigma in self.automorphisms:
            if any(sigma[p] != p for p in prefix):
                continue
            for u in cell:
                v = sigma[u]
                if v in parent:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
        return find

    def _search(self, colors, trace, depth, prefix):
        """Explore one node; a depth returned means return to that node."""
        colors = _refine(self.n, self.adj, colors)
        trace = trace + (tuple(sorted(colors)),)
        if self.best is not None:
            bt = self.best[0]
            k = len(trace)
            if trace[:k] > bt[:k]:
                return None
        if len(set(colors)) == self.n:
            return self._leaf(colors, trace, prefix)
        # smallest color value with a non-singleton cell
        counts = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = min(c for c, k in counts.items() if k > 1)
        cell = [i for i in range(self.n) if colors[i] == target]
        fresh = self.n + depth
        explored = []
        find = None
        known_auts = -1
        while True:
            # recompute orbits only when automorphisms found in an earlier
            # branch of this very node can prune the remaining candidates
            if len(self.automorphisms) != known_auts:
                known_auts = len(self.automorphisms)
                find = self._cell_orbits(cell, prefix) if known_auts else None
            if find is None:
                candidates = [u for u in cell if u not in explored]
            else:
                done = {find(e) for e in explored}
                candidates = [u for u in cell if find(u) not in done]
            if not candidates:
                return None
            u = candidates[0]
            explored.append(u)
            child = list(colors)
            child[u] = fresh
            back = self._search(child, trace, depth + 1, prefix + (u,))
            if back is not None and back < depth:
                return back

    def run(self):
        self._search(list(self.init_colors), (), 0, ())
        return self.best

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
        prefix = self.best_prefix
        for d, b in enumerate(prefix):
            find = self._cell_orbits(range(self.n), prefix[:d])
            root = find(b)
            order *= sum(1 for u in range(self.n) if find(u) == root)
        return order


def _prepare(g, colors):
    verts = g.sorted_vertices()
    index = {v: i for i, v in enumerate(verts)}
    adj = [sorted(index[w] for w in g.neighbors(v)) for v in verts]
    if colors is None:
        init = [0] * len(verts)
        palette_tags = ()
    else:
        tags = []
        for v in verts:
            if v not in colors:
                raise InputError(f"vertex {v!r} missing from the coloring")
            tags.append(colors[v])
        try:
            distinct = sorted(set(tags))
        except TypeError:
            raise InputError("color tags must be mutually comparable") from None
        palette = {t: c for c, t in enumerate(distinct)}
        init = [palette[t] for t in tags]
        palette_tags = tuple(distinct)
    return verts, adj, init, palette_tags


class CanonicalForm:
    """Canonical key plus the vertex ordering that realizes it."""

    __slots__ = ("key", "order", "_canonizer")

    def __init__(self, key, order, canonizer=None):
        self.key = key
        self.order = order  # tuple of vertex labels, canonical positions 0..n-1
        self._canonizer = canonizer

    def mapping(self):
        return {v: p for p, v in enumerate(self.order)}

    def orbit_representatives(self):
        """Least label of each (color-preserving) automorphism orbit, sorted.

        Read off the automorphisms recorded by the search that produced this
        form: they generate the whole group (``group_order`` multiplies
        their orbit sizes), so no second search runs.
        """
        c = self._canonizer
        if c is None:
            return []
        find = c._cell_orbits(range(c.n), ())
        least = {}
        for i, v in enumerate(c.verts):
            least.setdefault(find(i), v)
        return list(least.values())

    def hexdigest(self):
        return hashlib.sha256(repr(self.key).encode("ascii")).hexdigest()


def canonical_form(g, colors=None):
    """Canonical form of a (possibly vertex-colored) graph.

    Two graphs have equal canonical keys if and only if there is a
    color-preserving isomorphism between them.
    """
    verts, adj, init, palette_tags = _prepare(g, colors)
    if not verts:
        return CanonicalForm((palette_tags, (), ()), ())
    canonizer = _Canonizer(verts, adj, init)
    _, key, order = canonizer.run()
    return CanonicalForm((palette_tags,) + key, tuple(verts[i] for i in order), canonizer)


def canonical_hash(g, colors=None):
    """Deterministic hex digest of the canonical form."""
    return canonical_form(g, colors).hexdigest()


def find_isomorphism(g, h, colors_g=None, colors_h=None):
    """A color-preserving isomorphism g -> h as a dict, or None.

    Deterministic: the map is read off the two canonical labelings, so
    repeated calls agree, and the maps found for (g, h) and (h, g) are
    mutually inverse.
    """
    cg = canonical_form(g, colors_g)
    ch = canonical_form(h, colors_h)
    if cg.key != ch.key:
        return None
    iso = dict(zip(cg.order, ch.order))
    for u, w in g.edges():
        if not h.has_edge(iso[u], iso[w]):  # pragma: no cover - sanity guard
            raise AssertionError("canonical forms agreed but edge map failed")
    return iso


def automorphism_count(g, colors=None):
    """Order of the (color-preserving) automorphism group.

    Shares the canonizer's search: the order is read off the automorphisms
    it records, so it costs one canonical labeling.
    """
    verts, adj, init, _ = _prepare(g, colors)
    if not verts:
        return 1
    canonizer = _Canonizer(verts, adj, init)
    canonizer.run()
    return canonizer.group_order()
