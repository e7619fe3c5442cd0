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


def dominates(g, w, v):
    """True when lk(v) is contained in st(w), i.e. v <= w in the CV preorder."""
    return link(g, v) <= star(g, w)


def is_transvectable_vertex(g, v):
    """Some vertex w distinct from v satisfies lk(v) <= st(w)."""
    lk = link(g, v)
    return any(w != v and lk <= star(g, w) for w in g.sorted_vertices())


def untransvectable_vertices(g):
    return [v for v in g.sorted_vertices() if not is_transvectable_vertex(g, v)]


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
    outside = sorted(g.vertices - s)
    return any(all(dominates(g, w, v) for v in s) for w in outside)


@dataclass(frozen=True)
class CvClassification:
    """CV preorder data: relation, classes, their kinds, the maximal classes.

    ``leq`` maps each vertex to the frozenset of vertices dominating it (the
    reflexive relation).  ``class_kind`` assigns "singleton", "abelian"
    (all members pairwise adjacent) or "non-abelian" (no two adjacent).  A
    class is untransvectable exactly when it is maximal for the induced
    partial order on classes.
    """

    leq: dict
    classes: tuple
    class_kind: dict
    untransvectable_classes: tuple


def cv_classification(g):
    if g.n_vertices == 0:
        raise InputError("CV classification is undefined for the empty graph")
    verts = g.sorted_vertices()
    leq = {v: frozenset(w for w in verts if dominates(g, w, v)) for v in verts}
    seen = set()
    classes = []
    for v in verts:
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
    maximal = []
    for cls in classes:
        v = min(cls)
        if all(w in cls for w in leq[v]):
            maximal.append(cls)
    return CvClassification(leq, tuple(classes), kind, tuple(maximal))


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
    verts = g.sorted_vertices()
    return ((v, w) for v in verts for w in verts if v != w and dominates(g, w, v))


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
    if is_transvectable_vertex(g, v):
        raise DomainError(
            "strong untransvectability defined only for untransvectable vertices")
    lk = link(g, v)
    if not lk:
        return True
    untrans = set(untransvectable_vertices(g))
    for comp in connected_components(opposite_graph(full_subgraph(g, lk))):
        if not comp & untrans:
            return False
    return True


def all_untransvectable_strongly(g):
    """Every untransvectable vertex passes the strong untransvectability test."""
    return all(is_strongly_untransvectable(g, v) for v in untransvectable_vertices(g))


def has_untransvectable_nonabelian_class(g):
    """Some maximal CV class is non-abelian with at least two vertices."""
    if g.n_vertices == 0:
        raise InputError("CV classification is undefined for the empty graph")
    cv = cv_classification(g)
    return any(cv.class_kind[cls] == "non-abelian" for cls in cv.untransvectable_classes)


def is_free_product_of_free_abelians(g):
    """Every connected component is complete (no induced path on 3 vertices)."""
    for comp in connected_components(g):
        members = sorted(comp)
        for i, u in enumerate(members):
            for w in members[i + 1:]:
                if not g.has_edge(u, w):
                    return False
    return True
