"""Defining-graph combinatorics for right-angled Artin groups.

This module gathers the vertex-level predicates the classification rests on:
the Charney-Vogtmann domination preorder and its equivalence classes, the
transvection / partial-conjugation inventory of the outer automorphism group,
collapsibility, untransvectability, and the derived test for strong
untransvectability of a cyclic parabolic subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, InputError, echo, require, require_iterable
from .graphs import SimpleGraph, connected_components, star
from .isomorphism import automorphism_count


def _dominators(g):
    """v -> frozenset of the w with lk(v) <= st(w), v included, in label order.

    The one evaluation of the CV preorder: every vertex predicate reads it.
    """
    stars = {w: g.neighbors(w) | {w} for w in g.sorted_vertices()}
    leq = {}
    for v in stars:
        lk = g.neighbors(v)
        leq[v] = frozenset(w for w, st in stars.items() if lk <= st)
    return leq


def is_transvectable_vertex(g, v):
    """Some vertex w distinct from v satisfies lk(v) <= st(w)."""
    require(g, SimpleGraph, "a graph")
    if not g.has_vertex(v):
        raise InputError(f"unknown vertex {echo(v)}")
    return len(_dominators(g)[v]) > 1


def untransvectable_vertices(g):
    require(g, SimpleGraph, "a graph")
    return [v for v, up in _dominators(g).items() if len(up) == 1]


@dataclass(frozen=True)
class CvClassification:
    """CV preorder data: relation, classes, their kinds, the maximal classes.

    ``leq`` maps each vertex to the frozenset of vertices dominating it (the
    reflexive relation).  ``class_kind`` assigns "singleton", "abelian"
    (all members pairwise adjacent) or "non-abelian" (no two adjacent).  A
    class is untransvectable exactly when it is maximal for the induced
    partial order on classes.  The untransvectable vertices (label order) and
    the two rigidity predicates below them are read off the same relation, as
    is the transvection half of ``out_finite``.
    """

    leq: dict
    classes: tuple
    class_kind: dict
    untransvectable_classes: tuple
    untransvectable: tuple
    nonabelian_untransvectable_class: bool
    all_untransvectable_strongly: bool
    graph: object = field(repr=False, compare=False)

    @cached_property
    def out_finite(self):
        """``has_finite_out`` of the classified graph, without a second pass."""
        return _out_finite(self.graph, self.leq)


def cv_classification(g):
    require(g, SimpleGraph, "a graph")
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
    untrans_set = frozenset(untrans)
    return CvClassification(
        leq, tuple(classes), kind, tuple(maximal), untrans,
        any(kind[cls] == "non-abelian" for cls in maximal),
        all(_strongly_untransvectable(g, v, untrans_set) for v in untrans), g)


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


def _transvections(leq):
    """Ordered pairs (v, w), v != w, with lk(v) <= st(w), in label order."""
    return ((v, w) for v in leq for w in leq if w != v and w in leq[v])


def _star_cuts(g):
    """(v, components of g minus st(v)) for every star that disconnects g."""
    for v in g.sorted_vertices():
        comps = connected_components(g, without=g.neighbors(v) | {v})
        if len(comps) >= 2:
            yield v, comps


def out_inventory(g):
    require(g, SimpleGraph, "a graph")
    if g.n_vertices == 0:
        raise InputError("automorphism inventory is undefined for the empty graph")
    return OutInventory(
        transvections=tuple(_transvections(_dominators(g))),
        partial_conjugation_sites=tuple((v, comp) for v, comps in _star_cuts(g)
                                        for comp in comps),
        inversions=tuple(g.sorted_vertices()),
        graph_automorphism_count=automorphism_count(g),
    )


def _out_finite(g, leq):
    """No transvections (read off g's domination relation) and no partial conjugations."""
    return next(_transvections(leq), None) is None and next(_star_cuts(g), None) is None


def has_finite_out(g):
    """No transvections and no partial conjugations, without counting Aut."""
    require(g, SimpleGraph, "a graph")
    return _out_finite(g, _dominators(g))


def is_collapsible(g, s):
    """All vertices of s see the same neighbors outside s."""
    require(g, SimpleGraph, "a graph")
    # star() looks each id up in g, so an unknown or unhashable one is rejected there
    stars = {v: star(g, v) for v in require_iterable(s, "a vertex set")}
    if not stars:
        raise InputError("collapsibility is undefined for the empty subgraph")
    s = frozenset(stars)
    return len({st - s for st in stars.values()}) == 1


def is_strongly_untransvectable(g, v):
    """Derived test: the subgroup generated by v is strongly untransvectable.

    Requires v untransvectable.  True exactly when every connected component
    of the opposite graph of lk(v) contains a vertex that is untransvectable
    in the whole graph (vacuously true for an empty link).  Equivalently, no
    generator outside <v> normalizes every untransvectable cyclic parabolic
    subgroup commuting with <v>; the tests check the criterion against a
    bounded word-level search for such a generator.
    """
    untrans = set(untransvectable_vertices(g))
    if not g.has_vertex(v):
        raise InputError(f"unknown vertex {echo(v)}")
    if v not in untrans:
        raise DomainError(
            "strong untransvectability defined only for untransvectable vertices")
    return _strongly_untransvectable(g, v, untrans)


def _strongly_untransvectable(g, v, untrans):
    """Every component of the opposite graph of lk(v) meets the set untrans.

    The components are searched over the non-edges of lk(v) in place: the
    unreached link vertices that x is not adjacent to are its neighbours in
    the opposite graph.
    """
    rest = set(g.neighbors(v))
    while rest:
        comp = [rest.pop()]
        for x in comp:
            apart = rest - g.neighbors(x)
            rest -= apart
            comp += apart
        if untrans.isdisjoint(comp):
            return False
    return True
