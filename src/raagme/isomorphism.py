"""Graph isomorphism via canonical labeling.

Canonical forms of plain (uncolored) graphs are computed by color
refinement plus individualization with backtracking, so repeated calls agree
and isomorphism answers are reproducible byte for byte.  The search starts
from the unit partition with seeds already among its automorphisms, so it
prunes by their orbits from the root on: the orbit pruning of McKay and
Piperno (*Practical graph isomorphism II*, 2014).  The seeds are the swaps
of twins (vertices of equal open or closed neighbourhoods), read straight
off the graph, and any automorphisms the caller already knows, such as the
copy swaps of a star gluing.  The seeds change only which nodes the search
visits and which automorphisms it records, never the canonical form, the
group order or the orbits.  Each automorphism is kept as the map of the
points it moves, and orbits are joined and searched along moved points
only; a node stops joining once its target cell is one orbit.  After an
individualization, refinement keys only the neighbours of the
individualized vertex, then those of the pieces that split, leaving out
the last piece of each split cell (Hopcroft's trick, as in the same
paper).  A node filters the automorphisms that fix its prefix
only once it needs their orbits.  The search keeps its own stack, so its
depth is not bounded by Python recursion, and one partition for the whole
search: a child is split off and refined in place, every cell that splits
goes on a trail with its old members, and a node keeps only the trail's
length, so its partition comes back by undoing the trail to it
(``_undo``).  No node copies the partition, so memory grows with the cells
split along the current path, not with the path times the graph, and the
cyclic garbage collector runs as usual.  A leaf whose trace ties the best
leaf's is first tested as an automorphism image of it, in one pass over
the edges.  The search is exponential in the worst case: on a 2-core Xeon
with CPython 3.11 the 885-node radius-3 untransvectable extension-graph
ball of the 5-cycle, which has no twins, canonizes in about 0.3 s (14,528
search nodes), and the 5,779-node one of ``tests/fixtures/c5double.json``
in about 11.5 s with a peak RSS of 35 MB (342,218 nodes; 20.5 s and 89 MB
when each node copied its partition).  Seeded with their 175 and 840 star
swaps (``extension.star_swaps``), the searches make 436 and 6,299 nodes,
in about 0.03 s and 0.4 s; with the balls' symmetries too (generator
inversions and lifts of the automorphisms of the defining graph, as
``classify.invariant_report`` seeds every ball it fingerprints), 146 and
5,546 nodes, in about 0.02 s and 0.3 s (0.6 s copying).  So seeded, the
5,485-node radius-4 ball of the 5-cycle canonizes in 886 nodes and about
0.25 s, in a process that peaks at 43 MB of RSS, ball included (110 MB
copying).  The 5-cycle with one vertex expanded to a 400-clique (404
vertices, 80,603 edges) canonizes in about 0.23 s: its 400 twins give 399
seeds, and the search makes 801 nodes.
``indexed_graph`` is the one place a graph becomes positions; ``canonical_form``
canonizes its pair with ``canonical_form_indexed``, which the ball
fingerprints and the gluing search call on the index adjacency they hold.

The matcher ``_match`` tells two graphs apart with no canonical form.  It
is no second canonizer: the pair is refined by the same ``_refine``, side by
side, with a bounded backtrack over pairs of vertices split off together by
the same ``_individualize``, and each branch starts from the one partition
undone to its trail mark.
Its answer is complete within its budget: an isomorphism checked on every
edge, None once the backtrack has run out of images (a proof that there is
none), or ``BUDGET`` after ``MATCH_STEPS`` refined partitions.
``match_indexed`` runs it on two graphs from degree colours, given as the
index adjacency that a caller keeps; the star-gluing search decides newness
with it and canonizes only on ``BUDGET``.
``component_classes`` runs it on the components of a graph less a
separator, from colours that fix the separator, and sorts them into classes
up to isomorphisms that fix it, the swaps behind the seeds above; there
``BUDGET`` means no swap.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import defaultdict

from .errors import InputError, echo, require, require_iterable
from .graphs import SimpleGraph


def _individualize(label, cells, split, fresh, trail):
    """Split the vertices of ``split`` off their cell in place, under the label fresh.

    ``split`` is one vertex (the canonizer) or a pair of one cell (the
    matcher), which keeps a cell of its own.  ``cells`` keeps only cells of
    two or more members, so a vertex split off alone gets no entry, and
    neither does its old cell when one member is left.  The old cell goes on
    the trail, as each cell ``_refine`` splits does.
    """
    q = label[split[0]]
    cell = cells.pop(q)
    trail.append((q, cell))
    rest = [v for v in cell if v not in split]
    if len(rest) > 1:
        cells[q] = rest
    if len(split) > 1:
        cells[fresh] = list(split)
    for v in split:
        label[v] = fresh


def _undo(label, cells, trail, mark):
    """Put back the cells split since the trail was ``mark`` entries long.

    Each entry is a cell's label and its member list before it split.  They
    are restored newest first, so the pieces of a cell are whole again, as
    they were when it split, by the time the cell itself is.  This relies on
    cell lists being replaced, never changed in place: an old list still
    holds the cell's members; and on each label naming one cell, so the
    labels individualization gives leave room for every piece of the cell.
    """
    while len(trail) > mark:
        q, cell = trail.pop()
        for v in cell:
            cells.pop(label[v], None)
            label[v] = q
        cells[q] = cell


def _refine(adj, label, cells, changed, trail):
    """Split cells until the partition is equitable; return the cells written.

    ``label`` maps each vertex to the label of its cell, the cell's first
    position; ``cells`` maps the label of each cell of two or more members to
    its members in vertex order, and a vertex alone in its cell is in
    ``label`` only.  Both are updated in place, and each cell that splits
    goes on the trail as (label, members) for ``_undo``.  The result maps
    each label written to the size of its cell.

    ``changed`` holds the vertices whose cells changed since the partition
    was last equitable: every vertex, in label order, of a first partition
    (the unit partition in the canonizer), or just what ``_individualize``
    split off: the vertex u, or the pair ``_match`` splits off together,
    which no vertex is adjacent to both of.  A round keys each
    neighbour of a changed vertex by the labels of its changed neighbours
    and splits its cell by those keys, pieces in key order; a vertex alone
    in its cell never splits, so it is never keyed.  The next ``changed``
    lists the new pieces cell by cell in label order, so every key comes
    out sorted.

    The keys order each cell as whole-cell keys would: the sorted labels of
    a vertex's neighbours in every cell that changed, the old cell of u
    included.

    - After ``_individualize`` the parent partition is equitable, so the
      members of a cell have one count c of neighbours in u's old cell C.
      Their whole-cell keys are ``[start] * (c - x) + [fresh] * x``, where
      start is C's label, fresh > start is u's and x is 1 if the member is
      adjacent to u, else 0.  The key ``[fresh] * x`` orders the cell the
      same way, and members not adjacent to u keep the least key ``[]``.
      From a first partition the first round keys each vertex by the
      sorted labels of all its neighbours: by degree from the unit one.
    - A round leaves the last piece (the highest label) of each cell it
      splits out of the next ``changed``.  From the second round on, the
      members of a cell have equal neighbour counts in every cell that split
      in the previous round: by induction from the equitable parent, or from
      the first round.  So their whole-cell keys have equal lengths, and
      the count in a last piece is that total minus the counts in the kept
      pieces.  At the least label where two members' whole-cell keys hold
      different counts, the member with more of that label has the smaller
      key.  That label is not a last piece, since a lower piece of the same
      cell would differ too.  From the second round on, every key ends with
      one ``END = 2 * n``, above every label, and a member with no neighbour
      in the kept pieces has the key ``[END]``.  So the member with more of
      that label holds it where the other holds a larger label or ``END``,
      and its key is smaller here too; equal kept counts mean equal keys.
    """
    written = {}
    end = []  # no marker in the first round
    while changed:
        keys = defaultdict(list)
        for w in changed:
            c = label[w]
            for v in adj[w]:
                if label[v] in cells:
                    keys[v].append(c)
        by_cell = defaultdict(list)
        for v, key in keys.items():
            key += end
            by_cell[label[v]].append((key, v))
        changed = []
        for start in sorted(by_cell):
            keyed = by_cell[start]
            cell = cells[start]
            keyed.sort()
            if len(keyed) < len(cell):
                untouched = [(end, v) for v in cell if v not in keys]
                keyed = keyed + untouched if end else untouched + keyed
            if keyed[0][0] == keyed[-1][0]:
                continue
            del cells[start]
            trail.append((start, cell))
            at, piece, last = start, [], keyed[0][0]
            for key, v in keyed:
                if key != last:
                    written[at] = len(piece)
                    if len(piece) > 1:
                        cells[at] = piece
                    changed += piece
                    at, piece, last = at + len(piece), [], key
                piece.append(v)
                label[v] = at
            written[at] = len(piece)
            if len(piece) > 1:
                cells[at] = piece
        end = [2 * len(adj)]
    return written


def _twin_transpositions(adjsets):
    """The adjacent transpositions of each twin class, as maps of moved points.

    Two vertices are twins when they have the same open neighbourhood or the
    same closed one, and swapping them is an automorphism.  Twin classes are
    disjoint.  A vertex u never has twins of both kinds: with N(u) = N(v) and
    N[u] = N[w], w in N(v) puts v in N[w] = N[u], so u and v are adjacent,
    which open twins never are.  And an open neighbourhood is never another
    vertex's closed one: N(u) = N[w] puts w in N(u), so u in N[w] = N(u).
    So both kinds share one dict.  Classes come in the order of their least
    members, members in vertex order.
    """
    classes = defaultdict(list)
    for v, nbrs in enumerate(adjsets):
        classes[nbrs].append(v)
        classes[nbrs | {v}].append(v)
    return [{a: b, b: a}
            for members in sorted(c for c in classes.values() if len(c) > 1)
            for a, b in zip(members, members[1:])]


def _moved_points(maps, index, adjsets):
    """Label maps of automorphisms as maps of moved vertex indices.

    Each map lists the labels it moves; a label it does not list is fixed,
    and identity maps are dropped.  Raises InputError unless every map is a
    dict from vertices to vertices that permutes them and maps each edge at
    a moved vertex onto an edge, which, for a permutation, is every edge,
    or when maps is not iterable.
    """
    out = []
    for m in require_iterable(maps, "automorphisms"):
        sigma = {}
        for x, y in require(m, dict, "an automorphism").items():
            try:
                i, j = index[x], index[y]
            except (KeyError, TypeError):
                raise InputError(
                    f"automorphism maps {echo(x)} to {echo(y)}, which are not both vertices"
                ) from None
            if i != j:
                sigma[i] = j
        if sigma.keys() != set(sigma.values()):
            raise InputError(f"automorphism {echo(m)} is not a bijection")
        get = sigma.get
        for u, image in sigma.items():
            if not adjsets[image].issuperset(map(get, adjsets[u], adjsets[u])):
                raise InputError(f"automorphism {echo(m)} maps an edge onto a non-edge")
        if sigma:
            out.append(sigma)
    return out


class _Orbits:
    """Union-find of points under a growing set of permutations, with its class count."""

    __slots__ = ("parent", "count")

    def __init__(self, points):
        self.parent = {u: u for u in points}
        self.count = len(self.parent)

    def find(self, u):
        parent = self.parent
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def join(self, sigma):
        """Join the orbits of each point and its image under sigma, a map of moved points."""
        parent = self.parent
        if parent.keys().isdisjoint(sigma):
            return
        for u, v in sigma.items():
            if u in parent and v in parent:
                ru, rv = self.find(u), self.find(v)
                if ru != rv:
                    parent[ru] = rv
                    self.count -= 1


class _Node:
    """An interior search node: where its partition is, and its branching state.

    ``mark`` is the length of the search's trail when the node was refined,
    so undoing the trail to it gives back its equitable partition.
    ``entry`` is the node's trace entry, ``eq`` whether the trace up to here
    equals the best leaf's, ``auts`` the recorded automorphisms fixing
    ``prefix`` pointwise, or None until ``_next_vertex`` first needs them,
    and ``orbits`` their orbits on the target cell, joined up to ``merged``
    of them.  ``scan`` is the position in ``cell`` after the vertex
    explored last.
    """

    __slots__ = ("mark", "prefix", "entry", "eq", "target", "cell",
                 "auts", "explored", "orbits", "merged", "scan")


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
    of the automorphisms known so far that fix the individualized prefix
    pointwise (equivalent vertices span identical subtrees): the twin swaps
    and the caller's seeds, recorded before the search starts, and those the
    search records.  A leaf equal to the best one yields an automorphism that
    fixes the prefix the two paths share and maps the current branch there
    onto the explored best branch, so the search returns to that branching
    node at once.  ``nodes`` counts the nodes refined, pruned ones and leaves
    included.
    """

    def __init__(self, verts, adj):
        self.n = len(verts)
        self.verts = verts
        self.adj = adj
        self.best = None          # (key, order)
        self.best_trace = None    # trace entries on the path to best
        self.best_prefix = None   # individualized vertices on the path to best
        self.adjsets = [frozenset(a) for a in adj]
        # automorphisms as maps of moved points, the twin swaps first
        self.automorphisms = _twin_transpositions(self.adjsets)
        self.nodes = 0
        self.higher = None        # each vertex's neighbours above it, built on the first tie

    def run(self):
        """Search the whole tree with an explicit stack; return best.

        The search holds one partition.  A child is split off and refined
        from its parent's partition in place, after the trail is undone to
        the parent's mark.
        """
        n, adj = self.n, self.adj
        label, cells, trail = [0] * n, {0: list(range(n))} if n > 1 else {}, []
        _refine(adj, label, cells, range(n), trail)
        stack = []
        self._visit(stack, label, cells, (), (), False, len(trail))
        while stack:
            node = stack[-1]
            u = self._next_vertex(stack)
            if u is None:
                stack.pop()
                continue
            _undo(label, cells, trail, node.mark)
            # individualized vertices are labelled above every position, in
            # the order of their depths
            _individualize(label, cells, (u,), n + len(stack) - 1, trail)
            written = _refine(adj, label, cells, (u,), trail)
            entry = tuple((-q, -written[q]) for q in sorted(written))
            self._visit(stack, label, cells, node.prefix + (u,), entry, node.eq, len(trail))
        return self.best

    def _visit(self, stack, label, cells, prefix, entry, parent_eq, mark):
        """Prune a refined node, score it as a leaf, or push it."""
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
        # smallest label with a non-singleton cell; every cell below the
        # parent's target is a singleton
        target = stack[-1].target if stack else 0
        while target not in cells:
            target += 1
        node = _Node()
        node.mark, node.prefix = mark, prefix
        # the root's stabilizer list is every automorphism, the twin swaps
        # and the seeds to begin with; a child's is filtered from its
        # parent's when _next_vertex first needs it
        node.entry, node.eq = entry, eq
        node.auts = None if stack else list(self.automorphisms)
        node.target, node.cell = target, cells[target]
        node.explored, node.orbits, node.merged, node.scan = set(), None, 0, 0
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
            if self.higher is None:
                self.higher = [[w for w in a if w > v] for v, a in enumerate(adj)]
            adjsets, higher, image = self.adjsets, self.higher, sigma.__getitem__
            # sigma is a bijection, so mapping every edge onto an edge is
            # enough; each edge is mapped from its lower end
            if all(adjsets[sigma[v]].issuperset(map(image, higher[v])) for v in range(n)):
                sigma = {v: w for v, w in enumerate(sigma) if v != w}
                self.automorphisms.append(sigma)
                shared = 0
                while prefix[shared] == self.best_prefix[shared]:
                    shared += 1
                del stack[shared + 1:]
                # sigma fixes every prefix on the stack; an unresolved list
                # picks it up from its parent's when it is resolved
                for node in stack:
                    if node.auts is None:
                        break
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
    def _next_vertex(stack):
        """The top node's first target-cell vertex in no explored orbit, or None.

        The scan resumes after the vertex returned last: every earlier vertex
        is explored or in an explored vertex's orbit, and orbits only grow.
        Orbits matter once a vertex is explored; the node's stabilizer list is
        then resolved, with those of its unresolved ancestors, by filtering
        each parent's list down the stack.  These lists equal the ones a
        child would filter when it is pushed: an automorphism recorded later
        fixes the prefix of every node still on the stack.
        """
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
                        # the whole cell is the orbit of an explored vertex
                        return None
                node.merged = len(node.auts)
        rest = range(node.scan, len(cell))
        if node.orbits is None:
            # nothing at or after the scan position is explored yet
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

    def group_order(self):
        """Order of the automorphism group, by orbit-stabilizer along best_prefix.

        Call after run().  A tie never replaces best, so best_prefix leads to
        the first minimal leaf found.  The search tree is equivariant under
        Aut, and the search drops a subtree only by its trace, or as the
        image of an earlier, explored one under a recorded automorphism that
        fixes their shared prefix; so every dropped leaf has an image, with
        the same trace and key, earlier in depth-first order.  Hence the
        first minimal leaf in depth-first order of the whole tree is never
        dropped, and the key, the order and best_prefix do not depend on
        which genuine automorphisms, the twin swaps and the caller's seeds
        here, the search starts with.  Every sibling of that path in the
        orbit of its vertex under the prefix stabilizer is either explored
        after it (and reaches a minimal leaf, recording an automorphism that
        maps it onto the path) or pruned as the image of an explored sibling,
        so the recorded automorphisms, seeds included, give each stabilizer
        orbit exactly.  The orbit of each prefix vertex is searched along,
        from each point, only the automorphisms that move it, and those that
        move a prefix vertex leave the stabilizer once its orbit is taken.
        """
        auts = self.automorphisms
        moving = defaultdict(list)      # point -> indices of the automorphisms moving it
        for j, sigma in enumerate(auts):
            for u in sigma:
                moving[u].append(j)
        fixing = [True] * len(auts)     # whether each fixes the prefix so far
        order = 1
        for b in self.best_prefix:
            seen = {b}
            todo = [b]
            for x in todo:
                for j in moving[x]:
                    if fixing[j]:
                        y = auts[j][x]
                        if y not in seen:
                            seen.add(y)
                            todo.append(y)
            order *= len(seen)
            for j in moving[b]:
                fixing[j] = False
        return order


class CanonicalForm:
    """Canonical key plus the vertex ordering that realizes it.

    The key is the adjacency rows of the graph relabelled by canonical
    position: row p lists the sorted positions of the neighbours of the
    vertex at position p.
    """

    __slots__ = ("key", "order", "_canonizer")

    def __init__(self, key, order, canonizer):
        self.key = key
        self.order = order  # tuple of vertex labels, canonical positions 0..n-1
        self._canonizer = canonizer

    def orbit_map(self):
        """A dict from each vertex to the first vertex of its automorphism orbit.

        Vertices come in the order of the canonized pair, which is label
        order for a graph, so each vertex maps to the least label of its
        orbit.  Read off the automorphisms recorded by the search that
        produced this form: they generate the whole group (``group_order``
        multiplies their orbit sizes), so no second search runs.
        """
        c = self._canonizer
        orbits = _Orbits(range(c.n))
        for sigma in c.automorphisms:
            orbits.join(sigma)
        first = {}
        return {v: first.setdefault(orbits.find(i), v) for i, v in enumerate(c.verts)}

    def orbit_representatives(self):
        """Least label of each automorphism orbit, sorted (see ``orbit_map``)."""
        return [v for v, r in self.orbit_map().items() if v == r]

    def automorphisms(self):
        """The automorphisms the search recorded, as label maps of their moved points.

        The twin swaps come first, then the seeds, then those found by the
        search; together they generate the group.
        """
        c = self._canonizer
        verts = c.verts
        return [{verts[u]: verts[w] for u, w in sigma.items()} for sigma in c.automorphisms]

    def group_order(self):
        """Order of the automorphism group, from the same search."""
        return self._canonizer.group_order()

    def hexdigest(self):
        # hashed in the format of the former colored key (no palette, every
        # vertex color 0), so that digests recorded by earlier versions stay valid
        legacy = ((), (0,) * len(self.key), self.key)
        return hashlib.sha256(repr(legacy).encode("ascii")).hexdigest()


def canonical_form_indexed(indexed, automorphisms=()):
    """``canonical_form`` of an ``indexed_graph`` pair, or of index adjacency a
    caller holds, such as a ball's ``(range(n_nodes), adjacency)``."""
    verts, adj = indexed
    canonizer = _Canonizer(verts, adj)
    if automorphisms:
        index = {v: i for i, v in enumerate(verts)}
        canonizer.automorphisms += _moved_points(automorphisms, index, canonizer.adjsets)
    key, order = canonizer.run()
    return CanonicalForm(key, tuple(verts[i] for i in order), canonizer)


def canonical_form(g, automorphisms=()):
    """Canonical form of a graph.

    Two graphs have equal canonical keys if and only if they are isomorphic.
    ``automorphisms`` are automorphisms of g the caller already knows, as
    dicts that map each label they move to its image.  They seed the search
    after the twin swaps, so it need not find them again; the form, its
    group order and its orbits do not depend on them.  Raises InputError
    unless g is a SimpleGraph and each seed is an automorphism of it.
    """
    return canonical_form_indexed(indexed_graph(g), automorphisms)


def canonical_hash(g):
    """Deterministic hex digest of the canonical form."""
    return canonical_form(g).hexdigest()


def find_isomorphism(g, h):
    """An isomorphism g -> h as a dict, or None.

    Deterministic: the map is read off the two canonical labelings, so
    repeated calls agree, and the maps found for (g, h) and (h, g) are
    mutually inverse.  Graphs of different degree sequences are told apart
    before either is canonized.
    """
    require(g, SimpleGraph, "a graph")
    require(h, SimpleGraph, "a graph")
    if g.degree_sequence() != h.degree_sequence():
        return None
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


# partitions refined per pair of graphs or components before the matcher
# answers BUDGET; the largest pair in the balls of the tests, two components
# of 2,354 nodes in the c5double radius-3 ball, needs 335, about one per
# symmetric piece
MATCH_STEPS = 1024
# the matcher's answer when it refined MATCH_STEPS partitions without one
BUDGET = "budget"


def _match(adj, half, label, cells):
    """An isomorphism from the vertices below half onto those above, None or BUDGET.

    ``adj`` lists the neighbours of 2 * half vertices, with no edge across
    half, and (label, cells) is a partition of them in ``_refine``'s form
    whose every cell holds as many vertices on each side.  Refinement must
    keep that, and only the cells it writes can break it or come to hold
    more than two members.  When every cell is a pair, the map across the
    pairs is the answer, once it is checked on the edges.  Otherwise the
    least vertex of a least cell is tried against each vertex of that cell
    above half, the two split off together into a cell of their own: no
    vertex is adjacent to both, so ``_refine``'s keys order the cells as
    after ``_individualize``.  The search runs depth first on its own stack.

    Every isomorphism that keeps the start partition keeps each refinement
    of it, and maps the least vertex tried at a level to one of the images
    tried there; so once the backtrack has run out of images at every
    level, None proves that there is none.  The search answers BUDGET
    instead once it has refined ``MATCH_STEPS`` partitions.
    """
    # every vertex changed, in label order so that each key comes out sorted
    changed = sorted(range(len(adj)), key=label.__getitem__)
    wide = [q for q, members in cells.items() if len(members) > 2]
    trail = []
    stack = []      # per branching: its trail mark and wide cells, the vertex tried, images left
    for _ in range(MATCH_STEPS):
        written = _refine(adj, label, cells, changed, trail)
        if all(q in cells and 2 * bisect_left(cells[q], half) == len(cells[q]) for q in written):
            wide = [q for q in wide if q not in written and len(cells[q]) > 2]
            wide += [q for q in written if len(cells[q]) > 2]
            if wide:
                q = min(wide, key=lambda q: (len(cells[q]), q))
                members = cells[q]
                stack.append((len(trail), wide, members[0],
                              iter(members[bisect_left(members, half):])))
            else:
                iso = dict(cells.values())
                if all({iso[w] for w in adj[v]} == set(adj[iso[v]]) for v in iso):
                    return iso
        while stack:
            mark, wide, u, images = stack[-1]
            w = next(images, None)
            if w is not None:
                break
            stack.pop()
        else:
            return None
        _undo(label, cells, trail, mark)
        # individualized pairs are labelled above every position, by depth,
        # two apart: a pair that refinement splits keeps a label per piece
        _individualize(label, cells, (u, w), len(adj) + 2 * (len(stack) - 1), trail)
        changed = (u, w)
    return BUDGET


def _match_sides(verts, adj, half, colour):
    """``_match`` from the partition of the vertices by colour, with labels for indices.

    ``verts`` names the vertices that ``adj`` indexes, and the start
    partition puts the colour classes in colour order.  Answers None at
    once when a colour has more vertices on one side of half than on the
    other; an isomorphism comes back as a dict of labels.
    """
    groups = defaultdict(list)
    for i, c in enumerate(colour):
        groups[c].append(i)
    label, cells, at = [0] * len(adj), {}, 0
    for key in sorted(groups):
        members = groups[key]
        if 2 * bisect_left(members, half) != len(members):
            return None
        for i in members:
            label[i] = at
        cells[at] = members
        at += len(members)
    iso = _match(adj, half, label, cells)
    if iso is None or iso is BUDGET:
        return iso
    return {verts[i]: verts[j] for i, j in iso.items()}


def indexed_graph(g):
    """The sorted vertices of g and the positions of each one's neighbours in that order."""
    require(g, SimpleGraph, "a graph")
    verts = g.sorted_vertices()
    index = {v: i for i, v in enumerate(verts)}
    return verts, [[index[w] for w in g.neighbors(v)] for v in verts]


def match_indexed(a, b):
    """An isomorphism between two graphs given as ``indexed_graph`` pairs, as a
    dict, None when there is none, or BUDGET.

    The two graphs are matched side by side from the partition of their
    vertices by degree, with no canonical form: an isomorphism is checked
    on every edge, and None means the backtrack ran out of images (see
    ``_match``).  BUDGET means it refined ``MATCH_STEPS`` partitions first;
    then only canonical forms can tell.  A caller that matches one graph
    many times keeps its pair.
    """
    (verts_g, adj_g), (verts_h, adj_h) = a, b
    half = len(verts_g)
    adj = adj_g + [[half + w for w in nbrs] for nbrs in adj_h]
    return _match_sides((*verts_g, *verts_h), adj, half, [len(nbrs) for nbrs in adj])


def component_classes(adjsets, components, separator):
    """Components of a graph less a separator, in classes up to maps that fix it.

    ``adjsets[v]`` is the set of neighbours of vertex v, ``separator`` a set
    of vertices and ``components`` lists components of the graph less the
    separator, as vertex lists.  Two components share a class when an
    isomorphism between them keeps each vertex's neighbours in the
    separator; then swapping the two, with every other vertex fixed, is an
    automorphism of the graph, since no edge joins two components.

    Components are bucketed by size, attachment set (their neighbours in
    the separator) and degree multiset.  Within a bucket each component is
    matched against the first member of each class so far: colour
    refinement starts from each vertex's neighbours in the separator and its
    degree, and backtracks over the vertices of a least class.  A pair whose
    search refines more than ``MATCH_STEPS`` partitions is taken as not
    isomorphic, so a class may come out split, but never holds two
    components that are not isomorphic.

    Returns the classes of two or more members, in the order of their first
    members in ``components``.  Each class is a list of dicts, one per
    member in that order: the k-th maps the vertices of the first member
    onto those of the k-th, and the first is the identity.
    """
    by_size = defaultdict(list)
    for k, comp in enumerate(components):
        by_size[len(comp)].append(k)
    buckets = defaultdict(list)
    for group in by_size.values():
        if len(group) > 1:
            for k in group:
                comp = components[k]
                attach = frozenset().union(*[adjsets[v] & separator for v in comp])
                buckets[attach, tuple(sorted(len(adjsets[v]) for v in comp))].append(k)
    classes = []
    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        start = {v: (tuple(sorted(adjsets[v] & separator)), len(adjsets[v]))
                 for k in bucket for v in components[k]}
        firsts = []     # (index of the first member, maps) per class
        for k in bucket:
            for first, maps in firsts:
                verts = (*components[first], *components[k])
                index = {v: i for i, v in enumerate(verts)}
                adj = [[index[w] for w in adjsets[v] if w not in separator] for v in verts]
                iso = _match_sides(verts, adj, len(components[first]),
                                   [start[v] for v in verts])
                if isinstance(iso, dict):
                    maps.append(iso)
                    break
            else:
                firsts.append((k, [{v: v for v in components[k]}]))
        classes += [(first, maps) for first, maps in firsts if len(maps) > 1]
    return [maps for _, maps in sorted(classes, key=lambda c: c[0])]
