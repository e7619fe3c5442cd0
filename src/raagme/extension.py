"""Finite balls of the extension graph of a right-angled Artin group.

The extension graph has one vertex per cyclic parabolic subgroup (all
conjugates of the vertex subgroups), with edges between commuting ones.  A
ball of radius L collects the canonical handles (``words.ParabolicHandle``,
the ball's nodes) whose conjugator has word length at most L; the radius-0
slice is a copy of the defining graph.  The untransvectable ball keeps the
nodes whose vertex is untransvectable; ``build_ext_ball(p, L, ue=True)``
builds it directly.  Every ball is built by ``build_ext_ball``, which
classifies the defining graph once and hands that CV classification to the
ball; a ball cut out of another (``ue_restriction``, ``ball_prefix``) keeps
the classification of the ball it is cut from.

A ball carries its symmetries (``symmetries``, from
``words.handle_symmetries``): the inversion of each generator and the lift
of each automorphism of the defining graph that its canonical form
records, as maps of moved node indices.  Both keep every conjugator
length, so a ball cut out of another keeps them, renumbered.  A ball built
with no conjugator, such as every ball of radius 0, has none: its nodes
are the types, and the maps would cost more than they save.

Edges come from ``words.commutation_adjacency``, which reads them off the
link of one node per orbit of the symmetries and carries it along the
orbit.  By Servatius the centralizer of v is G_st(v), and the retraction
onto G_st(v) shows that the link of g<v>g^-1 is
g {x<w>x^-1 : w in lk(v), x in G_lk(v)} (Kim-Koberda).  So the conjugators
x are listed once per pair of adjacent types v, w, and a node g<v>g^-1
looks up the canonical handle of g x<w>x^-1 g^-1 for those x short enough
to land in the ball.

Structural facts about the infinite graph are exposed as finite-scale
checks: removing the star of a node separates each remaining node from its
translate under the node's subgroup, and (for groups with finite outer
automorphism group) removing a proper subset of a star that is not exactly
the link leaves everything connected.  Assertions are made on interior nodes
(conjugator length at most L-1) only; boundary observations are reported but
are not violations.  A separation check makes one batch translation
(``words.translate_conjugators``) of the nodes outside the star whose
translates can land: a node of the ball's longest conjugator length
translates into the ball only if its conjugator shares a leading letter
with the inverse of the centre's generator.  The ball holds every node's
leading letters (``words.leading_letters``) with its node keys, and lists
its nodes shorter than the longest and its longest nodes under each of
their leading letters, so a check looks its candidates up under the
leading letters of that inverse instead of scanning the ball.  The
translation is bounded by that longest length; the translates that still
leave the ball stop their strip at the bound and are never lex ordered.
Both checks find the components of the punctured ball by a breadth-first
search that takes a whole level per step, as set algebra on the nodes'
neighbour sets.

The same search gives ``star_swaps``: the automorphisms of a ball that swap
two components of it less the star of an interior node, matched by
``isomorphism.component_classes`` at one interior node per orbit of the
symmetries and carried to the others.  ``classify.invariant_report`` seeds
the canonization of every ball it fingerprints with them and with the
symmetries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .errors import DomainError, InputError, echo, require, require_integer, require_iterable
from .combinatorics import cv_classification
from .isomorphism import canonical_form, component_classes
from .presentation import GraphProductPresentation
from .words import (commutation_adjacency, enumerate_cyclic_handles, handle_symmetries,
                    leading_letters, translate_conjugators)


class ExtBall:
    """Radius-L truncation of the extension graph; the nodes are canonical handles."""

    def __init__(self, presentation, L, nodes, adjacency, classification, symmetries=()):
        self.presentation = presentation
        self.L = L
        self.classification = classification    # of the defining graph; None if it is empty
        self.untransvectable = frozenset(classification.untransvectable if classification else ())
        self.nodes = tuple(nodes)
        self.adjacency = tuple(frozenset(a) for a in adjacency)
        # automorphisms of the ball as dicts of the node indices they move
        self.symmetries = tuple(symmetries)
        self._keys = tuple(node.key() for node in self.nodes)
        self._index = {key: i for i, key in enumerate(self._keys)}
        # a built ball's longest conjugator has L letters, a hand-built one's need not
        self._longest = max((node.length for node in self.nodes), default=0)
        # each node's leading letters, which tell a separation check the
        # translates that cannot land; none where no node has a conjugator
        self._leading = (tuple(leading_letters(self.nodes)) if self._longest
                         else ((),) * len(self.nodes))
        # a separation check's candidates: the nodes shorter than the
        # longest, and the longest ones under each of their leading letters
        self._short = []
        self._longest_by_lead = defaultdict(list)
        for i, node in enumerate(self.nodes):
            if node.length < self._longest:
                self._short.append(i)
            else:
                for letter in self._leading[i]:
                    self._longest_by_lead[letter].append(i)
        self._interior = frozenset(i for i, n in enumerate(self.nodes) if n.length <= L - 1)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self):
        return sorted((i, j) for i in range(self.n_nodes)
                      for j in self.adjacency[i] if i < j)

    def node_index(self, conjugator, vertex):
        """Index of the node conjugator . <vertex>; a syllable may be any pair,
        such as the [vertex, exponent] lists that ``ball_json`` prints."""
        try:
            return self._index[(tuple(tuple(s) for s in conjugator), vertex)]
        except (KeyError, TypeError):
            # an unhashable vertex id gets the graph's own message
            self.presentation.graph.has_vertex(vertex)
            raise InputError(
                f"no node {echo(conjugator)} . <{echo(vertex)}> in this ball") from None

    def standard_node(self, vertex):
        return self.node_index((), vertex)

    def star_of(self, i):
        return self.adjacency[i] | {i}

    def interior(self):
        """Indices of nodes with conjugator length at most L-1."""
        return self._interior


def build_ext_ball(p, L, ue=False):
    """All canonical cyclic handles of conjugator length <= L, with commutation edges.

    Nodes g<v>g^-1 and h<w>h^-1 are joined when the two subgroups commute.
    The neighbours of g<v>g^-1 are the g x<w>x^-1 g^-1 with w in lk(v) and
    x in G_lk(v), so ``commutation_adjacency`` lists the x once per pair of
    adjacent types and looks the candidates of one node per orbit of the
    ball's symmetries up among the handles.  The symmetries are the
    generator inversions and the lifts of the automorphisms that
    ``canonical_form`` records for the defining graph, or none when no
    node has a conjugator.  The defining graph
    is classified once, here, and the ball holds that classification.
    With ue=True only handles of the untransvectable types it names are
    built (conjugator letters still range over every vertex): the ball
    ue_restriction cuts out of the full one.  Automorphisms of the defining
    graph keep those types.
    """
    require(p, GraphProductPresentation, "a presentation")
    if require_integer(L, "ball radius") < 0:
        raise InputError("ball radius must be >= 0")
    if not p.is_unit_rank():
        raise InputError("extension graph defined for RAAG presentations (all ranks 1)")
    g = p.graph
    cv = cv_classification(g) if g.n_vertices else None
    types = cv.untransvectable if ue and cv else g.vertices    # no cv: no vertices either
    nodes = enumerate_cyclic_handles(p, types, g.vertices, L)
    # nodes come by conjugator length, so the last one's is the longest
    symmetries = (handle_symmetries(nodes, canonical_form(g).automorphisms())
                  if nodes and nodes[-1].length else ())
    return ExtBall(p, L, nodes, commutation_adjacency(nodes, symmetries), cv, symmetries)


def _restrict(b, keep, L):
    """Full subgraph of the ball on the ascending node indices keep, as radius L."""
    renum = {old: new for new, old in enumerate(keep)}
    nodes = [b.nodes[i] for i in keep]
    adjacency = [frozenset(renum[j] for j in b.adjacency[i] if j in renum) for i in keep]
    # every caller keeps a set of nodes that the symmetries map onto itself
    symmetries = [{renum[i]: renum[j] for i, j in sigma.items() if i in renum}
                  for sigma in b.symmetries]
    return ExtBall(b.presentation, L, nodes, adjacency, b.classification,
                   [sigma for sigma in symmetries if sigma])


def ue_restriction(b):
    """Full subgraph of the ball on the untransvectable nodes."""
    require(b, ExtBall, "an extension ball")
    untrans = b.untransvectable
    return _restrict(b, [i for i, n in enumerate(b.nodes) if n.vertex in untrans], b.L)


def ball_prefix(b, L):
    """The radius-L ball inside b (untransvectable if b is); b itself at its own radius."""
    require(b, ExtBall, "an extension ball")
    if not 0 <= require_integer(L, "ball radius") <= b.L:
        raise InputError(f"radius {L} outside 0..{b.L}")
    if b._longest <= L == b.L:
        return b
    return _restrict(b, [i for i, n in enumerate(b.nodes) if n.length <= L], L)


def ball_graph(b):
    """The ball as a plain SimpleGraph with synthetic deterministic labels."""
    require(b, ExtBall, "an extension ball")
    from .graphs import SimpleGraph
    width = len(str(max(b.n_nodes - 1, 0)))
    labels = [f"n{i:0{width}d}" for i in range(b.n_nodes)]
    edges = [(labels[i], labels[j]) for i, j in b.edges()]
    return SimpleGraph(labels, edges)


def star_swaps(b):
    """Automorphisms of the ball that swap two components of it less a star.

    For each interior node i, in index order, the components of the ball
    less st(i) that touch st(i) fall into classes under isomorphisms that
    keep each node's neighbours in st(i) (``component_classes``); each swap
    of adjacent members of a class, st(i) and the other components fixed,
    is an automorphism, as no edge joins two components and every edge into
    st(i) keeps its endpoint there.  Returns them as maps of moved node
    indices.

    Two components of one size hold at most half of the nodes outside
    st(i) each, so the search drops a component once it passes that half.
    A component away from st(i) is a component of the whole ball and would
    give the same swaps at every star, so it is left out.

    ``_star_classes`` searches the classes at one interior node per orbit
    of the ball's symmetries.
    """
    require(b, ExtBall, "an extension ball")
    swaps = []
    for _, classes in _star_classes(b):
        for cls in classes:
            for m, n in zip(cls, cls[1:]):
                swap = {}
                for x in cls[0]:
                    swap[m[x]], swap[n[x]] = n[x], m[x]
                swaps.append(swap)
    return swaps


def _star_classes(b):
    """Each interior node i, in index order, with the classes of components
    of the ball less st(i) that touch st(i), as ``component_classes`` gives
    them.

    The classes are searched at one interior node per orbit of the ball's
    symmetries; a symmetry that maps st(i) onto st(j) maps the classes at i
    onto those at j, and the others of the orbit take them from there
    (``_carry``).
    """
    adjacency = b.adjacency
    classes = {}    # interior node -> its classes, until they are yielded
    for i in sorted(b.interior()):
        if i not in classes:
            removed = b.star_of(i)
            attached = sorted(set().union(*[adjacency[s] for s in removed]) - removed)
            comps = _components(b, removed, attached, (b.n_nodes - len(removed)) // 2)
            classes[i] = component_classes(adjacency, [sorted(c) for c in comps], removed)
            orbit = [i]
            for y in orbit:
                for sigma in b.symmetries:
                    x = sigma.get(y, y)
                    if x not in classes:
                        classes[x] = _carry(classes[y], sigma)
                        orbit.append(x)
        yield i, classes.pop(i)


def _carry(classes, sigma):
    """The images of classes of components under a symmetry sigma of the ball.

    Each class is a list of maps from its first member, the first one the
    identity, as ``component_classes`` returns them.  The image members are
    sorted by their least nodes, and so are the classes by their first
    members; the maps are taken again from the new first member.
    """
    image = sigma.get
    carried = []
    for cls in classes:
        rows = sorted(([image(m[x], m[x]) for x in cls[0]] for m in cls), key=min)
        carried.append([dict(zip(rows[0], row)) for row in rows])
    carried.sort(key=lambda cls: min(cls[0]))
    return carried


def _components(b, removed, roots=None, limit=None):
    """Connected components of the ball minus a set of node indices, as node sets.

    Components grow from the roots in order, every remaining node by
    default, so in the order of their least members.  A component grows one
    breadth-first level at a time: the next level is the union of the
    level's neighbour sets less every node seen or removed.  With a limit, a
    component that passes limit nodes stops growing and is left out, and so
    is every later one that reaches a node it holds.
    """
    adjacency = b.adjacency
    seen = set(removed)
    dropped = set()
    comps = []
    for root in range(b.n_nodes) if roots is None else roots:
        if root in seen:
            continue
        comp = {root}
        level = {root}
        seen.add(root)
        while level:
            level = set().union(*[adjacency[i] for i in level])
            if not level.isdisjoint(dropped):
                break
            level -= seen
            seen |= level
            comp |= level
            if limit is not None and len(comp) > limit:
                break
        else:
            comps.append(comp)
            continue
        dropped |= comp
    return comps


def _labels(comps):
    """Each node of the components mapped to the index of its component."""
    label = {}
    for k, comp in enumerate(comps):
        label.update(dict.fromkeys(comp, k))
    return label


@dataclass(frozen=True)
class SeparationEntry:
    node: int
    translate: int
    same_component: bool
    interior: bool


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of the star-removal separation check at one node.

    For every node outside the closed star of v whose translate under the
    subgroup at v also lies in the ball (and outside the star), the entry
    records whether node and translate fall in the same component of the
    ball minus the star.  Entries with both endpoints interior and
    same_component True are violations; there must be none.
    """

    center: int
    component_count: int
    entries: tuple
    skipped_outside_ball: int

    @property
    def violations(self):
        return tuple(e for e in self.entries if e.same_component and e.interior)


def star_separation_check(b, v_index):
    """The separation check at node v_index = g<v>g^-1: a SeparationReport.

    Each node c<t> outside the closed star has a translate by the generator
    x = g v g^-1; the translates that land in the ball are compared with
    their nodes component by component, and only those that can land are
    computed.  If c and x^-1 share no leading letter, x c keeps all
    |x| + |c| letters (``words.leading_letters``).  Its strip modulo G_st(t)
    deletes nothing of c, which is canonical, and of x only a right factor
    that commutes with c; all of x goes only when x commutes with the node,
    which then lies in the star.  So the translate is longer than c, and a
    node of the ball's longest conjugator length is translated only when it
    shares a leading letter with x^-1.  Those of x^-1 = g v^-1 g^-1 are g's
    when g is not 1, since g is the shortest word in g G_st(v), and v^-1
    when it is.  The other nodes count as outside the ball without a strip.
    The candidates are the ball's short nodes and its longest nodes under
    those letters, less the star, in index order.
    """
    require(b, ExtBall, "an extension ball")
    if not 0 <= require_integer(v_index, "node index") < b.n_nodes:
        raise InputError(f"node index {v_index} not in the ball")
    if b.presentation.graph.n_vertices <= 1:
        raise DomainError("star separation requires a non-cyclic ambient group")
    removed = b.star_of(v_index)
    comps = _components(b, removed)
    comp = _labels(comps)
    interior = b.interior()
    keys, longest, by_lead = b._keys, b._longest, b._longest_by_lead
    centre = b.nodes[v_index]
    inverse_leads = b._leading[v_index] if centre.conjugator else ((centre.vertex, -1),)
    candidates = set(b._short)
    for letter in inverse_leads:
        candidates.update(by_lead.get(letter, ()))
    candidates = sorted(candidates - removed)
    skipped = b.n_nodes - len(removed) - len(candidates)
    # a translate longer than every node's conjugator is not in the ball
    conjugators = translate_conjugators(centre, [keys[w] for w in candidates], longest)
    entries = []
    for w, c in zip(candidates, conjugators):
        t = None if c is None else b._index.get((c, keys[w][1]))
        # conjugating by g_v preserves commuting with <g_v>, so a node
        # outside the star never translates into it
        if t is None:
            skipped += 1
            continue
        entries.append(SeparationEntry(
            node=w,
            translate=t,
            same_component=comp[w] == comp[t],
            interior=w in interior and t in interior,
        ))
    return SeparationReport(v_index, len(comps), tuple(entries), skipped)


@dataclass(frozen=True)
class ConnectivityReport:
    """Outcome of the star-complement connectivity check.

    ``interior_connected`` states that all interior nodes outside the
    removed set lie in a single component of the punctured ball; components
    made of boundary nodes only are counted separately and are not
    violations.
    """

    center: int
    removed: tuple
    interior_connected: bool
    component_count: int
    boundary_only_components: int


def star_complement_connectivity_check(b, v_index, x_indices):
    require(b, ExtBall, "an extension ball")
    if not 0 <= require_integer(v_index, "node index") < b.n_nodes:
        raise InputError(f"node index {v_index} not in the ball")
    x = frozenset(require_integer(i, "node index")
                  for i in require_iterable(x_indices, "removed node indices"))
    cv = b.classification
    if cv is not None and not cv.out_finite:
        raise DomainError(
            "hypothesis violated: Out of the ambient group must be finite "
            "(the defining graph admits a transvection or a partial conjugation)")
    stv = b.star_of(v_index)
    lkv = b.adjacency[v_index]
    if not x <= stv or x == stv:
        raise DomainError("hypothesis violated: the removed set must be a proper subset "
                          "of the star of the node")
    if x == lkv:
        raise DomainError("hypothesis violated: the removed set must differ from the link "
                          "of the node")
    comps = _components(b, x)
    comp = _labels(comps)
    interior_labels = {comp[i] for i in b.interior() - x}
    boundary_only = len(comps) - len(interior_labels)
    return ConnectivityReport(
        center=v_index,
        removed=tuple(sorted(x)),
        interior_connected=len(interior_labels) <= 1,
        component_count=len(comps),
        boundary_only_components=boundary_only,
    )


def ball_json(b):
    """Node/edge document for export; deterministic ordering."""
    require(b, ExtBall, "an extension ball")
    untrans = b.untransvectable
    nodes = []
    for i, n in enumerate(b.nodes):
        nodes.append({
            "id": i,
            "conjugator": [[v, e] for v, e in n.conjugator],
            "type": n.vertex,
            "length": n.length,
            "untransvectable": n.vertex in untrans,
        })
    return {
        "L": b.L,
        "node_count": b.n_nodes,
        "edge_count": b.n_edges,
        "nodes": nodes,
        "edges": [[i, j] for i, j in b.edges()],
    }
