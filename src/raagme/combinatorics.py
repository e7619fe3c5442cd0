"""Defining-graph combinatorics for right-angled Artin groups.

This module gathers the vertex-level predicates the classification rests on:
the Charney-Vogtmann domination preorder and its equivalence classes, the
transvection / partial-conjugation inventory of the outer automorphism group,
collapsibility, untransvectability, and the derived test for strong
untransvectability of a cyclic parabolic subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError
from .graphs import connected_components, full_subgraph, link, opposite_graph, star
from .isomorphism import automorphism_count


def _dominators(g):
    """v -> frozenset of the w with lk(v) <= st(w), v included, in label order.

    The one evaluation of the CV preorder: every vertex predicate reads it.
    """
    stars = {w: star(g, w) for w in g.sorted_vertices()}
    leq = {}
    for v in stars:
        lk = link(g, v)
        leq[v] = frozenset(w for w, st in stars.items() if lk <= st)
    return leq


def is_transvectable_vertex(g, v):
    """Some vertex w distinct from v satisfies lk(v) <= st(w)."""
    if not g.has_vertex(v):
        raise InputError(f"unknown vertex {v!r}")
    return len(_dominators(g)[v]) > 1


def untransvectable_vertices(g):
    return [v for v, up in _dominators(g).items() if len(up) == 1]


def is_transvectable_subgraph(g, s):
    """A vertex outside s dominates every vertex of s.

    For a singleton this is vertex transvectability.
    """
    s = frozenset(s)
    if not s:
        raise InputError("transvectability is undefined for the empty subgraph")
    for v in s:
        if not g.has_vertex(v):
            raise InputError(f"unknown vertex {v!r}")
    leq = _dominators(g)
    return bool(frozenset.intersection(*(leq[v] for v in s)) - s)


@dataclass(frozen=True)
class CvClassification:
    """CV preorder data: relation, classes, their kinds, the maximal classes.

    ``leq`` maps each vertex to the frozenset of vertices dominating it (the
    reflexive relation).  ``class_kind`` assigns "singleton", "abelian"
    (all members pairwise adjacent) or "non-abelian" (no two adjacent).  A
    class is untransvectable exactly when it is maximal for the induced
    partial order on classes.  The untransvectable vertices (label order) and
    the two rigidity predicates below them are read off the same relation.
    """

    leq: dict
    classes: tuple
    class_kind: dict
    untransvectable_classes: tuple
    untransvectable: tuple
    nonabelian_untransvectable_class: bool
    all_untransvectable_strongly: bool


def cv_classification(g):
    if g.n_vertices == 0:
        raise InputError("CV classification is undefined for the empty graph")
    leq = _dominators(g)
    seen = set()
    classes = []
    for v in leq:
        if v in seen:
            continue
        cls = frozenset(w for w in leq[v] if v in leq[w])
        seen |= cls
        classes.append(cls)
    classes.sort(key=min)
    kind = {}
    for cls in classes:
        if len(cls) == 1:
            kind[cls] = "singleton"
        else:
            members = sorted(cls)
            adjacent = g.has_edge(members[0], members[1])
            kind[cls] = "abelian" if adjacent else "non-abelian"
    maximal = [cls for cls in classes if leq[min(cls)] <= cls]
    untrans = tuple(v for v, up in leq.items() if len(up) == 1)
    return CvClassification(
        leq, tuple(classes), kind, tuple(maximal), untrans,
        any(kind[cls] == "non-abelian" for cls in maximal),
        all(_strongly_untransvectable(g, v, untrans) for v in untrans))


@dataclass(frozen=True)
class OutInventory:
    """Laurence-Servatius generator inventory of Out of a RAAG.

    Transvections are the ordered pairs (v1, v2) with v1 != v2 and
    lk(v1) <= st(v2); a partial-conjugation site is a pair (v, C) where the
    star of v disconnects the graph and C is one of the resulting
    components.  Out is finite exactly when both lists are empty.
    """

    transvections: tuple
    partial_conjugation_sites: tuple
    inversions: tuple
    graph_automorphism_count: int

    @property
    def out_finite(self):
        return not self.transvections and not self.partial_conjugation_sites


def _transvections(g):
    """Ordered pairs (v, w), v != w, with lk(v) <= st(w), in label order."""
    leq = _dominators(g)
    return ((v, w) for v in leq for w in leq if w != v and w in leq[v])


def _star_cuts(g):
    """(v, components of g minus st(v)) for every star that disconnects g."""
    for v in g.sorted_vertices():
        rest = g.vertices - star(g, v)
        if rest:
            comps = connected_components(full_subgraph(g, rest))
            if len(comps) >= 2:
                yield v, comps


def out_inventory(g):
    if g.n_vertices == 0:
        raise InputError("automorphism inventory is undefined for the empty graph")
    return OutInventory(
        transvections=tuple(_transvections(g)),
        partial_conjugation_sites=tuple((v, comp) for v, comps in _star_cuts(g)
                                        for comp in comps),
        inversions=tuple(g.sorted_vertices()),
        graph_automorphism_count=automorphism_count(g),
    )


def has_finite_out(g):
    """No transvections and no partial conjugations, without counting Aut."""
    return is_transvection_free(g) and next(_star_cuts(g), None) is None


def is_transvection_free(g):
    return next(_transvections(g), None) is None


def is_collapsible(g, s):
    """All vertices of s see the same neighbors outside s."""
    s = frozenset(s)
    if not s:
        raise InputError("collapsibility is undefined for the empty subgraph")
    outside = None
    for v in sorted(s):
        cur = (star(g, v)) - s
        if outside is None:
            outside = cur
        elif cur != outside:
            return False
    return True


def is_strongly_untransvectable(g, v):
    """Derived test: the subgroup generated by v is strongly untransvectable.

    Requires v untransvectable.  True exactly when every connected component
    of the opposite graph of lk(v) contains a vertex that is untransvectable
    in the whole graph (vacuously true for an empty link).  Equivalently, no
    generator outside <v> normalizes every untransvectable cyclic parabolic
    subgroup commuting with <v>; the tests check the criterion against a
    bounded word-level search for such a generator.
    """
    if not g.has_vertex(v):
        raise InputError(f"unknown vertex {v!r}")
    untrans = set(untransvectable_vertices(g))
    if v not in untrans:
        raise DomainError(
            "strong untransvectability defined only for untransvectable vertices")
    return _strongly_untransvectable(g, v, untrans)


def _strongly_untransvectable(g, v, untrans):
    """Every component of the opposite graph of lk(v) meets the vertices untrans."""
    return all(not comp.isdisjoint(untrans) for comp in
               connected_components(opposite_graph(full_subgraph(g, link(g, v)))))


def all_untransvectable_strongly(g):
    """Every untransvectable vertex passes the strong untransvectability test."""
    return g.n_vertices == 0 or cv_classification(g).all_untransvectable_strongly


def has_untransvectable_nonabelian_class(g):
    """Some maximal CV class is non-abelian with at least two vertices."""
    return cv_classification(g).nonabelian_untransvectable_class


def is_free_product_of_free_abelians(g):
    """Every connected component is complete (no induced path on 3 vertices)."""
    for comp in connected_components(g):
        members = sorted(comp)
        for i, u in enumerate(members):
            for w in members[i + 1:]:
                if not g.has_edge(u, w):
                    return False
    return True
