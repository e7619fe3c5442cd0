"""Shared fixtures-adjacent tools: small-graph atlas and independent oracles.

Everything here is deliberately naive: these are the brute-force reference
implementations the library is checked against, written straight from the
definitions (the word-level strong untransvectability search, the
subgroup-closure form of collapsibility), and the slower paths the library
replaced (products of normal forms, the restart loop of coset stripping, the
normalizer test on every pair of ball nodes, the commutation test on every
pair of nodes of adjacent types, one ball per radius, the full ball cut down
to its untransvectable nodes, full-round refinement with a recursive search,
refinement keyed by whole changed cells, the canonizer's stabilizer lists
filtered down its stack, one validated canonical_parabolic per
star-separation translate, the separation candidates found by a scan of
every node, the components of a punctured ball found edge by edge, strong
untransvectability read off the opposite graph of a link built as a graph,
star gluings copied label by label, the document parsers that make one
match object per DOT token and test JSON types with isinstance), kept as
oracles for the faster ones.  The
handle oracles, like the words layer, know only cyclic parabolic subgroups
g<v>g^-1, the nodes of extension balls.
Rank-preserving isomorphism of presentations, which the library never needs,
is checked with networkx.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections import defaultdict
from dataclasses import dataclass

import networkx as nx

from raagme.combinatorics import cv_classification, is_collapsible, untransvectable_vertices
from raagme.errors import DomainError, InputError, ParseError, echo
from raagme.extension import (ExtBall, SeparationEntry, SeparationReport, _components,
                              ball_graph, build_ext_ball, ue_restriction)
from raagme.formats import _presentation_from_parts
from raagme.graphs import (SimpleGraph, connected_components, full_subgraph, link,
                           opposite_graph, perp, star)
from raagme.isomorphism import (_Canonizer, _moved_points, _Node, _Orbits, canonical_form,
                                 canonical_hash, component_classes)
from raagme.presentation import MAX_RANK, GraphProductPresentation, raag
from raagme.words import (NormalFormWord, _coerce, _inverse, _lex_order, _reduce,
                          _strip_to_coset_rep, canonical_parabolic, enumerate_cyclic_handles,
                          leading_letters, translate_conjugators, word)


def graph_atlas(max_n):
    """One representative per isomorphism class, for 1..max_n vertices.

    Built by extending each (n-1)-vertex representative with a new vertex
    attached to every subset of the old ones, deduplicating canonically.
    """
    atlas = {1: [SimpleGraph(["v1"])]}
    for n in range(2, max_n + 1):
        out = {}
        new = f"v{n}"
        for g in atlas[n - 1]:
            verts = g.sorted_vertices()
            edges = g.edges()
            for mask in range(1 << (n - 1)):
                extra = [(verts[i], new) for i in range(n - 1) if mask >> i & 1]
                h = SimpleGraph(verts + [new], edges + extra)
                key = canonical_form(h).key
                if key not in out:
                    out[key] = h
        atlas[n] = list(out.values())
    return atlas


# known counts of simple graphs up to isomorphism on 1..7 vertices
ATLAS_SIZES = [1, 2, 4, 11, 34, 156, 1044]


def prism():
    """Two triangles joined by a perfect matching: transvection-free, finite Out."""
    return SimpleGraph(
        ["a1", "a2", "a3", "b1", "b2", "b3"],
        [("a1", "a2"), ("a2", "a3"), ("a1", "a3"),
         ("b1", "b2"), ("b2", "b3"), ("b1", "b3"),
         ("a1", "b1"), ("a2", "b2"), ("a3", "b3")])


# -- full-round recursive canonizer oracle ---------------------------------------
# The canonizer before refinement became incremental: every round re-sorts
# every vertex's neighbour colours, the trace keeps whole sorted colourings,
# and each node rescans all recorded automorphisms against its prefix.

def refine_by_rounds(n, adj, colors):
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


def twin_transpositions_by_pairs(adj):
    """Adjacent transpositions of each twin class, by comparing every pair.

    u and v are twins when N(u) = N(v) or N(u) + u = N(v) + v.  Each class
    is the least vertex not yet placed with its twins, members in vertex
    order; each transposition is a vertex->vertex list.
    """
    n = len(adj)
    nbrs = [set(a) for a in adj]
    placed, seeds = set(), []
    for u in range(n):
        if u in placed:
            continue
        members = [u] + [v for v in range(u + 1, n)
                         if nbrs[u] == nbrs[v] or nbrs[u] | {u} == nbrs[v] | {v}]
        placed.update(members)
        for a, b in zip(members, members[1:]):
            sigma = list(range(n))
            sigma[a], sigma[b] = b, a
            seeds.append(sigma)
    return seeds


class CanonizerByRounds:
    """Individualization-refinement search for the minimal labeling.

    The canonical key of a graph is the minimum, over all leaves of the
    search tree, of (refinement trace, leaf encoding).  Branches whose
    partial trace already exceeds the best known trace are pruned, and at
    every node the target-cell vertices are explored one per orbit of the
    automorphisms discovered so far that fix the individualized prefix
    pointwise (equivalent vertices span identical subtrees).  The search
    starts from the twin transpositions, as the canonizer does, unless
    ``seeded`` is false.  A leaf equal to the best one yields an
    automorphism that fixes the prefix the two paths share and maps the
    current branch there onto the explored best branch, so the search
    returns to that branching node at once.
    """

    def __init__(self, verts, adj, seeded=True):
        self.n = len(verts)
        self.verts = verts
        self.adj = adj
        self.best = None          # (trace, key, order)
        self.best_prefix = None   # individualized vertices on the path to best
        # permutations as vertex->vertex lists
        self.automorphisms = twin_transpositions_by_pairs(adj) if seeded else []

    def _leaf(self, colors, trace, prefix):
        """Compare a leaf with the best; on a tie, return the shared prefix length."""
        order = sorted(range(self.n), key=lambda i: colors[i])
        pos = {v: p for p, v in enumerate(order)}
        key = tuple(tuple(sorted(pos[j] for j in self.adj[v])) for v in order)
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
        colors = refine_by_rounds(self.n, self.adj, colors)
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
        self._search([0] * self.n, (), 0, ())
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


class _ListNode(_Node):
    __slots__ = ("auts",)


class CanonizerByLists(_Canonizer):
    """The canonizer with the stabilizer lists it replaced.

    Each node keeps the list of recorded automorphisms that fix its prefix
    pointwise: the root's is every one, and a child's is filtered from its
    parent's, down the stack, when the child first needs orbits.  A recorded
    automorphism is appended to the list of every node left on the stack
    whose list is resolved, and a node joins every map on its list.  It must
    search the same tree as ``_Canonizer``, which looks the maps up by the
    points they move.
    """

    def _visit(self, stack, label, cells, prefix, entry, parent_eq, mark):
        self.nodes += 1
        depth = len(prefix)
        eq = False
        if parent_eq:
            best = self.best_trace
            if depth == len(best) or entry > best[depth]:
                return
            eq = entry == best[depth]
        if not cells:
            self._leaf(stack, label, prefix, entry, eq)
            return
        target = stack[-1].target if stack else 0
        while target not in cells:
            target += 1
        node = _ListNode()
        node.mark, node.prefix = mark, prefix
        node.entry, node.eq = entry, eq
        node.auts = None if stack else list(self.automorphisms)
        node.target, node.cell = target, cells[target]
        node.explored, node.orbits, node.merged, node.scan = set(), None, 0, 0
        stack.append(node)

    def _leaf(self, stack, label, prefix, entry, eq):
        recorded = len(self.automorphisms)
        super()._leaf(stack, label, prefix, entry, eq)
        if len(self.automorphisms) > recorded:
            sigma = self.automorphisms[-1]
            for node in stack:
                if node.auts is None:
                    break
                node.auts.append(sigma)

    def _next_vertex(self, stack):
        node = stack[-1]
        cell, explored = node.cell, node.explored
        if explored:
            if node.auts is None:
                top = len(stack) - 1
                while stack[top].auts is None:
                    top -= 1
                for parent, child in zip(stack[top:], stack[top + 1:]):
                    u = child.prefix[-1]
                    child.auts = [sigma for sigma in parent.auts if u not in sigma]
            if node.merged < len(node.auts):
                if node.orbits is None:
                    node.orbits = _Orbits(cell)
                for sigma in node.auts[node.merged:]:
                    node.orbits.join(sigma)
                    if node.orbits.count == 1:
                        return None
                node.merged = len(node.auts)
        rest = range(node.scan, len(cell))
        if node.orbits is None:
            i = node.scan if rest else None
        else:
            find = node.orbits.find
            done = {find(e) for e in explored}
            i = next((i for i in rest if find(cell[i]) not in done), None)
        if i is None:
            return None
        u = cell[i]
        node.scan = i + 1
        explored.add(u)
        return u


def canonize_with(canonizer_class, verts, adj, automorphisms=()):
    """A finished search of the given class on index adjacency, seeded as
    ``canonical_form_indexed`` seeds it."""
    c = canonizer_class(verts, adj)
    index = {v: i for i, v in enumerate(verts)}
    c.automorphisms += _moved_points(automorphisms, index, c.adjsets)
    c.run()
    return c


def individualize_keeping_singletons(label, cells, u, fresh):
    """Copies of (label, cells) with u split off its cell under the label fresh.

    ``cells`` maps every cell's label to its members, singletons included,
    as ``refine_by_whole_cells`` reads it.
    """
    label = list(label)
    cells = dict(cells)
    cells[label[u]] = [v for v in cells[label[u]] if v != u]
    cells[fresh] = [u]
    label[u] = fresh
    return label, cells


def refine_by_whole_cells(adj, label, cells, changed):
    """Split cells until the partition is equitable; return the labels written.

    The refinement the canonizer used before it keyed by fewer vertices:
    after an individualization ``changed`` is the individualized vertex's
    whole old cell, every piece of a split cell changes, and each key is the
    sorted labels of all changed neighbours.  Members of one cell have equal
    neighbour counts in every cell that did not change, so a cell is touched
    in all its members or in none, except in a first round, where untouched
    members have no neighbours, the least key.  ``label`` and ``cells`` are
    updated in place; ``cells`` holds every cell, singletons included.
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


def orbit_representatives_by_rounds(canonizer):
    """Least vertex label of each orbit of a finished CanonizerByRounds."""
    find = canonizer._cell_orbits(range(canonizer.n), ())
    least = {}
    for i, v in enumerate(canonizer.verts):
        least.setdefault(find(i), v)
    return list(least.values())


# -- brute-force automorphism-inventory oracle --------------------------------

def strongly_untransvectable_by_opposite_graph(g, v, untrans):
    """Every component of the opposite graph of lk(v), built as a graph, meets untrans."""
    return all(not comp.isdisjoint(untrans) for comp in
               connected_components(opposite_graph(full_subgraph(g, link(g, v)))))


def brute_link(g, v):
    return set(g.neighbors(v))


def brute_star(g, v):
    return set(g.neighbors(v)) | {v}


def brute_dominates(g, w, v):
    """v <= w in the CV preorder: lk(v) is contained in st(w)."""
    return brute_link(g, v) <= brute_star(g, w)


def brute_untransvectable(g):
    """Vertices dominated by no other vertex, in label order."""
    verts = g.sorted_vertices()
    return [v for v in verts
            if not any(w != v and brute_dominates(g, w, v) for w in verts)]


def brute_transvectable_subgraph(g, s):
    """Some vertex outside s dominates every vertex of s."""
    return any(all(brute_dominates(g, w, v) for v in s) for w in g.vertices - set(s))


def brute_transvections(g):
    verts = g.sorted_vertices()
    out = []
    for v in verts:
        for w in verts:
            if v != w and brute_dominates(g, w, v):
                out.append((v, w))
    return out


def brute_components(g, keep):
    keep = set(keep)
    comps = []
    while keep:
        root = min(keep)
        comp = {root}
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for y in g.neighbors(x):
                if y in keep and y not in comp:
                    comp.add(y)
                    frontier.append(y)
        keep -= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def brute_pc_sites(g):
    out = []
    for v in g.sorted_vertices():
        rest = set(g.vertices) - brute_star(g, v)
        comps = brute_components(g, rest)
        if len(comps) >= 2:
            out.extend((v, c) for c in comps)
    return out


def brute_automorphism_count(g):
    verts = g.sorted_vertices()
    count = 0
    for perm in itertools.permutations(verts):
        img = dict(zip(verts, perm))
        if all((img[u] in g.neighbors(img[w])) == (u in g.neighbors(w))
               for u in verts for w in verts if u != w):
            count += 1
    return count


# -- shuffle-closure word oracle ----------------------------------------------

def shuffle_oracle_nf(adjacency, syllables):
    """Canonical form by exhaustive search over shuffle and merge moves.

    States are syllable tuples; moves swap adjacent commuting syllables or
    merge adjacent same-vertex syllables (dropping zero exponents).  The
    result is the lexicographically least state of minimal length.
    """
    start = tuple(syllables)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            (v1, e1), (v2, e2) = w[i], w[i + 1]
            if v1 == v2:
                m = e1 + e2
                mid = ((v1, m),) if m != 0 else ()
                nxt = w[:i] + mid + w[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            elif v2 in adjacency[v1]:
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    best_len = min(len(w) for w in seen)
    return min(w for w in seen if len(w) == best_len)


def leading_letters_by_shuffles(adjacency, reduced):
    """The (vertex, sign) of the first syllable of every shuffle of a reduced
    word, found by swapping adjacent commuting syllables until no new
    shuffle appears."""
    start = tuple(reduced)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            if w[i + 1][0] in adjacency[w[i][0]]:
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return {(w[0][0], 1 if w[0][1] > 0 else -1) for w in seen if w}


# -- facts read off a normal-form word --------------------------------------------

def is_identity(w):
    """A normal-form word is the identity exactly when it has no syllables."""
    return not w.syllables


def support(w):
    """The vertices whose letters occur in a normal-form word."""
    return frozenset(v for v, _ in w.syllables)


# -- four-fold commutator oracle -----------------------------------------------

def generators_commute(a, b):
    """Whether two normal-form words commute: a b a^-1 b^-1 is the identity."""
    return is_identity(a * b * a.inverse() * b.inverse())


def commutator_adjacent(ball, i, j):
    """Edge test for an extension ball by multiplying out the commutator of
    the generators of nodes i and j."""
    gens = _ball_generators(ball)
    return generators_commute(gens[i], gens[j])


@functools.lru_cache(maxsize=4)
def _ball_generators(ball):
    return tuple(n.generator_word() for n in ball.nodes)


# -- normal-form product oracles for the words layer -----------------------------

def normalizes_by_products(h, x):
    """Whether x normalizes the cyclic handle h: c^-1 x c, multiplied out as
    normal-form words, is supported in st(v)."""
    p = h.presentation
    c = NormalFormWord(p, h.conjugator)
    if not isinstance(x, NormalFormWord):
        x = word(p, x)
    return support(c.inverse() * x * c) <= star(p.graph, h.vertex)


def strip_by_restart(adj, reduced, members):
    """Coset representative by repeated deletion: delete the rightmost syllable
    in members commuting with everything after it, re-reduce, rescan."""
    syls = list(reduced)
    changed = True
    while changed:
        changed = False
        for i in range(len(syls) - 1, -1, -1):
            v = syls[i][0]
            if v in members and all(u in adj[v] for u, _ in syls[i + 1:]):
                del syls[i]
                syls = _reduce(adj, syls)
                changed = True
                break
    return _lex_order(adj, syls)


# -- handle arithmetic on top of the normalizer test ----------------------------

def normalizes(h, x):
    """Whether the element x normalizes the cyclic parabolic subgroup of h.

    Decided by membership: x g <v> g^-1 x^-1 = g <v> g^-1 exactly when
    g^-1 x g lies in the standard normalizer G_st(v).
    """
    p = h.presentation
    st = star(p.graph, h.vertex)
    c = h.conjugator
    # a reduced word's support is that of the element, whatever its shuffle
    return all(u in st for u, _ in
               _reduce(p.graph.adjacency, _inverse(c) + _coerce(p, x) + c))


def parabolics_commute(h1, h2):
    """Whether two cyclic parabolic subgroups commute elementwise.

    The generator of h2 commutes with h1 exactly when it normalizes h1: the
    centralizer and the normalizer of a vertex subgroup are both G_st(v).
    """
    if h1.presentation != h2.presentation:
        raise InputError("handles belong to different presentations")
    return normalizes(h1, h2.generator_word())


def conjugate_handle(h, x):
    """Canonical handle of x (h subgroup) x^-1."""
    p = h.presentation
    return canonical_parabolic(p, _coerce(p, x) + h.conjugator, h.vertex)


def _translate(b, gv, w_index):
    """Index of the node g_v (w subgroup) g_v^-1, or None outside the ball:
    one validated canonical_parabolic, with no length bound.

    gv is the generator word of the cyclic subgroup at some node v.
    """
    w = b.nodes[w_index]
    h = canonical_parabolic(b.presentation, gv.syllables + w.conjugator, w.vertex)
    return b._index.get(h.key())


def translate_index(b, v_index, w_index):
    """Index of the conjugate of node w by the generator of node v, or None
    when it falls outside the ball."""
    return _translate(b, b.nodes[v_index].generator_word(), w_index)


def components_by_stack(b, removed):
    """extension._components by a depth-first search that takes one edge per
    step: the component labels, in the order of least members, and the count."""
    comp = {}
    label = 0
    for root in range(b.n_nodes):
        if root in removed or root in comp:
            continue
        stack = [root]
        comp[root] = label
        while stack:
            i = stack.pop()
            for j in b.adjacency[i]:
                if j not in removed and j not in comp:
                    comp[j] = label
                    stack.append(j)
        label += 1
    return comp, label


def star_separation_by_nodes(b, v_index):
    """star_separation_check translating one node at a time: the path the
    batch translation (words.translate_conjugators) replaced, with the
    components found edge by edge."""
    removed = b.star_of(v_index)
    comp, count = components_by_stack(b, removed)
    interior = b.interior()
    gv = b.nodes[v_index].generator_word()
    entries = []
    skipped = 0
    for w in range(b.n_nodes):
        if w in removed:
            continue
        t = _translate(b, gv, w)
        if t is None:
            skipped += 1
            continue
        entries.append(SeparationEntry(w, t, comp[w] == comp[t],
                                       w in interior and t in interior))
    return SeparationReport(v_index, count, tuple(entries), skipped)


def star_separation_by_scan(b, v_index):
    """star_separation_check with its candidates found by a scan of every
    node of the ball, the path the ball's candidate lists replaced."""
    removed = b.star_of(v_index)
    comps = _components(b, removed)
    comp = {i: k for k, c in enumerate(comps) for i in c}
    interior = b.interior()
    nodes = b.nodes
    longest = max((n.length for n in nodes), default=0)
    leading = leading_letters(nodes)
    centre = nodes[v_index]
    inverse_leads = set(leading[v_index]) if centre.conjugator else {(centre.vertex, -1)}
    candidates = [w for w in range(b.n_nodes) if w not in removed and (
        nodes[w].length < longest or not inverse_leads.isdisjoint(leading[w]))]
    skipped = b.n_nodes - len(removed) - len(candidates)
    conjugators = translate_conjugators(centre, [nodes[w].key() for w in candidates], longest)
    entries = []
    for w, c in zip(candidates, conjugators):
        t = None if c is None else b._index.get((c, nodes[w].vertex))
        if t is None:
            skipped += 1
            continue
        entries.append(SeparationEntry(w, t, comp[w] == comp[t],
                                       w in interior and t in interior))
    return SeparationReport(v_index, len(comps), tuple(entries), skipped)


# -- word-level strong untransvectability oracle ---------------------------------

def strong_untransvectability_oracle(g, v, conj_len_bound=4):
    """Bounded word-level test for strong untransvectability of <v>.

    Enumerates the untransvectable cyclic parabolic subgroups commuting with
    <v> whose canonical conjugator has length at most the bound (they all
    have a conjugator in the star subgroup of v, so letters are drawn from
    lk(v)), then asks whether some generator indexed by lk(v) normalizes all
    of them.  If none does the answer True is definitive; an answer False
    only certifies that the enumerated sub-collection has a common
    normalizer bigger than <v>, so it is relative to the bound.
    """
    if not g.has_vertex(v):
        raise InputError(f"unknown vertex {v!r}")
    untrans = set(brute_untransvectable(g))
    if v not in untrans:
        raise DomainError(
            "strong untransvectability defined only for untransvectable vertices")
    if conj_len_bound < 0:
        raise InputError("conjugator length bound must be >= 0")
    p = GraphProductPresentation(g)
    lk = sorted(link(g, v))
    stv = star(g, v)
    types = sorted(w for w in stv if w in untrans)
    collection = enumerate_cyclic_handles(p, types, lk, conj_len_bound)
    for x in lk:
        witness = NormalFormWord(p, ((x, 1),))
        if all(normalizes(h, witness) for h in collection):
            return False
    return True


# -- subgroup-closure collapsibility oracle --------------------------------------

@dataclass(frozen=True)
class CollapsibilityReport:
    """Both sides of the collapsibility equivalence, with a failure witness.

    ``by_definition`` is the outside-star test; ``by_closure`` quantifies
    over all non-empty subsets T of the support, checking
    T u perp(T) <= s u perp(s).  The two must agree; ``witness`` is the
    first T (smallest size, then lexicographic) violating the closure.
    """

    support: frozenset
    by_definition: bool
    by_closure: bool
    witness: frozenset | None = None

    @property
    def agree(self):
        return self.by_definition == self.by_closure


def subsets_by_size(items):
    items = sorted(items)
    for k in range(1, len(items) + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)


def check_collapsibility_equivalence(g, s):
    s = frozenset(s)
    if not s:
        raise InputError("collapsibility is undefined for the empty subgraph")
    cond1 = is_collapsible(g, s)
    closure = s | perp(g, s)
    witness = None
    for theta in subsets_by_size(s):
        if not (theta | perp(g, theta)) <= closure:
            witness = theta
            break
    return CollapsibilityReport(s, cond1, witness is None, witness)


# -- all-pairs extension-ball oracle ---------------------------------------------

def build_ext_ball_by_pairs(p, L, ue=False):
    """build_ext_ball with every pair of nodes put to the normalizer test:
    nodes i < j are joined when the generator of j normalizes handle i."""
    if L < 0:
        raise InputError("ball radius must be >= 0")
    if not p.is_unit_rank():
        raise InputError("extension graph defined for RAAG presentations (all ranks 1)")
    g = p.graph
    types = untransvectable_vertices(g) if ue else g.vertices
    nodes = sorted(enumerate_cyclic_handles(p, types, g.vertices, L), key=lambda h: h.sort_key())
    classification = cv_classification(g) if g.n_vertices else None
    gens = [h.generator_word() for h in nodes]
    adjacency = [set() for _ in nodes]
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if normalizes(nodes[i], gens[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return ExtBall(p, L, nodes, adjacency, classification)


def _conjugates_commute(adj, g_inv, h, st_v, st_w):
    """Whether g<v>g^-1 and h<w>h^-1 commute, for canonical conjugators g, h
    and adjacent types v, w; g_inv is the (reduced) inverse of g.

    Let r' be the reduction of g^-1 h stripped of its right factor in
    G_st(w).  That factor commutes with w, so g^-1 h w h^-1 g = r' w r'^-1,
    and that word is reduced: a cancellation, or a merge with w, would need
    a syllable of r' that lies in st(w) and can be moved to its right end,
    and the strip removed all of those.  So its support is supp(r') plus w,
    and w lies in st(v).
    """
    return {u for u, _ in _strip_to_coset_rep(adj, _reduce(adj, g_inv + h), st_w)} <= st_v


def commutation_adjacency_by_pairs(handles):
    """words.commutation_adjacency by one commutation test per pair of nodes
    whose types are adjacent in the defining graph."""
    adjacency = [set() for _ in handles]
    if not handles:
        return adjacency
    graph = handles[0].presentation.graph
    adj = graph.adjacency
    by_type = {}
    for j, h in enumerate(handles):
        by_type.setdefault(h.vertex, []).append(j)
    stars = {v: star(graph, v) for v in by_type}
    later = {v: [w for w in adj[v] if w > v and w in by_type] for v in by_type}
    for i, hi in enumerate(handles):
        v = hi.vertex
        st_v = stars[v]
        g_inv = _inverse(hi.conjugator)
        for w in later[v]:
            st_w = stars[w]
            for j in by_type[w]:
                if _conjugates_commute(adj, g_inv, handles[j].conjugator, st_v, st_w):
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    return adjacency


# -- every-star component-class oracle ---------------------------------------------

def star_classes_at_every_star(b):
    """extension._star_classes with the classes searched at every interior
    node, none carried along the ball's symmetries."""
    adjacency = b.adjacency
    out = {}
    for i in sorted(b.interior()):
        removed = b.star_of(i)
        attached = sorted(set().union(*[adjacency[s] for s in removed]) - removed)
        comps = _components(b, removed, attached, (b.n_nodes - len(removed)) // 2)
        out[i] = component_classes(adjacency, [sorted(c) for c in comps], removed)
    return out


# -- per-radius ball fingerprint oracle ------------------------------------------

def ue_ball_fingerprint(graph, L):
    """Canonical hash of the untransvectable ball of radius L over the graph,
    built at radius L itself rather than sliced from a larger ball."""
    return canonical_hash(ball_graph(ue_restriction(build_ext_ball(raag(graph), L))))


# -- rank-preserving isomorphism oracle ----------------------------------------

def rank_isomorphic(g, ranks_g, h, ranks_h):
    """Whether some isomorphism g -> h maps each vertex to one of equal rank.

    The library compares plain graphs only; this networkx check is the
    test-only reference for presentations with ranks.
    """
    def nx_graph(graph, ranks):
        out = nx.Graph()
        out.add_nodes_from((v, {"rank": ranks[v]}) for v in graph.sorted_vertices())
        out.add_edges_from(graph.edges())
        return out

    return nx.is_isomorphic(nx_graph(g, ranks_g), nx_graph(h, ranks_h),
                            node_match=lambda a, b: a["rank"] == b["rank"])


# -- stepwise clique-reduction oracle ------------------------------------------

def merge_pair(graph, ranks, x, y):
    """Merge two adjacent vertices with equal closed stars into min(x, y)."""
    keep, drop = min(x, y), max(x, y)
    verts = [v for v in graph.sorted_vertices() if v != drop]
    edges = set()
    for u, w in graph.edges():
        u2 = keep if u == drop else u
        w2 = keep if w == drop else w
        if u2 != w2:
            edges.add((min(u2, w2), max(u2, w2)))
    new_ranks = {v: r for v, r in ranks.items() if v != drop}
    new_ranks[keep] = ranks[x] + ranks[y]
    return SimpleGraph(verts, sorted(edges)), new_ranks


def mergeable_pairs(graph):
    verts = graph.sorted_vertices()
    out = []
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            if y in graph.neighbors(x) and \
                    brute_star(graph, x) == brute_star(graph, y):
                out.append((x, y))
    return out


def all_merge_results(graph, ranks):
    """Every fully-merged (graph, ranks) reachable by stepwise pair merges."""
    results = []

    def rec(g, r):
        pairs = mergeable_pairs(g)
        if not pairs:
            if not any(rank_isomorphic(g, r, h, s) for h, s in results):
                results.append((g, r))
            return
        for x, y in pairs:
            rec(*merge_pair(g, r, x, y))

    rec(graph, dict(ranks))
    return results


# -- unpruned star-gluing search oracle ----------------------------------------

def star_gluing_by_labels(g, v, k):
    """``star_gluing_kernel`` on labels, as it was before the index gluing core.

    Copy i >= 2 of each vertex x outside st(v) is named "c<i>.<x>", the "."
    doubled past every vertex and every label issued earlier (copies in
    increasing i, vertices in sorted order), and every edge is copied.
    """
    verts = g.sorted_vertices()
    shared = brute_star(g, v)
    taken = set(verts)
    new_vertices, new_edges = list(verts), set(g.edges())
    for i in range(2, k + 1):
        name = {}
        for x in verts:
            if x not in shared:
                sep = "."
                while f"c{i}{sep}{x}" in taken:
                    sep += "."
                name[x] = f"c{i}{sep}{x}"
                taken.add(name[x])
        new_vertices += name.values()
        for x, y in g.edges():
            a, b = name.get(x, x), name.get(y, y)
            new_edges.add((min(a, b), max(a, b)))
    return SimpleGraph(new_vertices, sorted(new_edges))


def unpruned_gluing_search(g, max_vertices, max_steps, same_class=None):
    """Breadth-first star-gluing closure that glues at every vertex.

    The reference for the orbit-pruned search: every vertex of every
    frontier graph, every multiplicity within the vertex budget, glued on
    labels by ``star_gluing_by_labels``.  Classes are
    de-duplicated by canonical key, or by ``same_class(a, b)`` against every
    class found so far when it is given.  Returns the list of
    (chain, index, graph) and the truncation flag, which
    ``enumerate_findex_graphs`` must reproduce exactly.
    """
    found = [((), 1, g)]
    keys = {canonical_form(g).key}

    def is_new(child):
        if same_class is not None:
            return not any(same_class(child, other) for _, _, other in found)
        key = canonical_form(child).key
        if key in keys:
            return False
        keys.add(key)
        return True

    def multiplicities(cur, v):
        n, st = cur.n_vertices, len(brute_star(cur, v))
        if st == n:
            return [2] if n <= max_vertices else []
        return [k for k in range(2, max_vertices + 2) if k * n - (k - 1) * st <= max_vertices]

    frontier = list(found)
    for _ in range(max_steps):
        nxt = []
        for chain, index, cur in frontier:
            for v in cur.sorted_vertices():
                for k in multiplicities(cur, v):
                    child = star_gluing_by_labels(cur, v, k)
                    if is_new(child):
                        found.append((chain + ((v, k),), index * k, child))
                        nxt.append(found[-1])
        frontier = nxt
    # truncated when a graph of the last level has a gluing within the budget
    truncated = any(multiplicities(cur, v) for _, _, cur in frontier for v in cur.vertices)
    return found, g.n_vertices > max_vertices or truncated


def parse_json_by_isinstance(text):
    """The JSON parser with isinstance tests and a set of fields per vertex."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer past the int-to-str digit limit
        raise ParseError("invalid JSON: number too long") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ParseError('missing or invalid "vertices" list')
    names, ranks = [], {}
    for item in raw_vertices:
        if isinstance(item, str):
            vid, rank = item, 1
        elif isinstance(item, dict):
            vid = item.get("id")
            rank = item.get("rank", 1)
            unknown = set(item) - {"id", "rank"}
            if unknown:
                raise ParseError(f"unknown vertex field {echo(sorted(unknown)[0])}")
        else:
            raise ParseError(f"vertex entries must be objects or strings, got {echo(item)}")
        if not isinstance(vid, str) or not vid:
            raise ParseError(f"vertex id must be a non-empty string, got {echo(vid)}")
        if vid in ranks:
            raise ParseError(f"duplicate vertex id {echo(vid)}")
        names.append(vid)
        ranks[vid] = rank
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list of pairs')
    edges = []
    for e in raw_edges:
        if not (isinstance(e, list) and len(e) == 2
                and all(isinstance(x, str) for x in e)):
            raise ParseError(f"edges must be pairs of vertex ids, got {echo(e)}")
        edges.append((min(e), max(e)))
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise ParseError(f"unknown top-level field {echo(sorted(unknown)[0])}")
    return _presentation_from_parts(names, ranks, edges)


REFERENCE_DOT_TOKEN = re.compile(
    r'\s+|//[^\n]*|\#[^\n]*|/\*.*?\*/'
    r'|(?P<name>(?:[A-Za-z_][A-Za-z0-9_.]*|[0-9]+|"(?:[^"\\]|\\.)*"))'
    r'|(?P<op>--|\{|\}|\[|\]|=|;|,)'
    r'|(?P<bad>.)',
    re.DOTALL,
)


def parse_dot_by_match_objects(text):
    """The DOT parser that keeps a (text, kind, offset) triple per token,
    made from one match object per token and per whitespace run, and takes
    the tokens through a closure.  A quoted name is unescaped when it is
    scanned, so it compares equal to a keyword or an operator of its text."""
    def fail(message, offset):
        return ParseError(message, line=text.count("\n", 0, offset) + 1)

    # every token is scanned before parsing, so a bad character anywhere wins
    # over an earlier syntax error; the end of input is a token of its own,
    # at the offset of the last token
    tokens = []
    for m in REFERENCE_DOT_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok = m.group()
        if kind == "bad":
            raise fail(f"unexpected character {echo(tok)}", m.start())
        if tok[0] == '"':
            tok = re.sub(r'\\(.)', r'\1', tok[1:-1])
        tokens.append((tok, kind, m.start()))
    tokens.append((None, "eof", tokens[-1][2] if tokens else 0))
    i = 0

    def take(expect=None):
        nonlocal i
        tok, kind, offset = tokens[i]
        if tok is None:
            raise fail("unexpected end of input", offset)
        if expect is not None and tok != expect:
            raise fail(f"expected {echo(expect)}, got {echo(tok)}", offset)
        i += 1
        return tok, kind, offset

    # [strict] graph [NAME] {
    if tokens[0][:2] == ("strict", "name"):
        i = 1
    tok, kind, offset = tokens[i]
    if tok == "digraph":
        raise fail("directed graphs are not supported", offset)
    if i:
        take("graph")
    elif (tok, kind) == ("graph", "name"):
        i = 1
    if i and tokens[i][1] == "name":    # an optional graph name
        i += 1
    take("{")

    names, ranks, edges = [], {}, []
    while tokens[i][0] != "}":
        tok, kind, start = tokens[i]
        if kind != "name":
            raise fail(f"expected a node or edge statement, got {echo(tok)}", start)
        # the names of a node statement, or of an edge chain joined by '--'
        prev = None
        while True:
            v, kind, offset = take()
            if kind != "name":
                raise fail(f"expected a vertex name after '--', got {echo(v)}", offset)
            if v in ("graph", "node", "edge", "digraph", "subgraph", "strict"):
                raise fail(f"unsupported DOT keyword {echo(v)}; only node and edge "
                           "statements are accepted", offset)
            if v not in ranks:
                names.append(v)
                ranks[v] = 1
            if prev is not None:
                if v == prev:
                    raise fail(f"loop edge at {echo(v)} not allowed", offset)
                edges.append((min(prev, v), max(prev, v)))
            if tokens[i][0] != "--":
                break
            i += 1
            prev = v
        tok = tokens[i][0]
        if tok == "[":
            if prev is not None:
                raise fail("edge attributes are not supported", start)
            i += 1
            while True:
                key, kind, offset = take()
                if key == "]":
                    break
                if kind != "name":
                    raise fail(f"expected attribute name, got {echo(key)}", offset)
                if key != "rank":
                    raise fail(f"unsupported attribute {echo(key)}; only rank=n is "
                               "accepted", offset)
                take("=")
                val, _, offset = take()
                digits = val.lstrip("0")
                if not (val.isascii() and val.isdigit()) or not digits:
                    raise fail(f"rank of {echo(v)} must be an integer >= 1, got {echo(val)}",
                               offset)
                # the length test keeps int() from reading an over-long rank
                if len(digits) > len(str(MAX_RANK)) or int(digits) > MAX_RANK:
                    raise fail(f"rank of {echo(v)} exceeds the supported bound {MAX_RANK}",
                               offset)
                ranks[v] = int(val)
                if tokens[i][0] == ",":
                    i += 1
            tok = tokens[i][0]
        if tok == ";":
            i += 1
        elif tok != "}":
            raise fail(f"expected ';' or '}}', got {echo(tok)}", start)
    tok, _, offset = tokens[i + 1]
    if tok is not None:
        raise fail(f"trailing content {echo(tok)} after closing brace", offset)
    return _presentation_from_parts(names, ranks, edges)
