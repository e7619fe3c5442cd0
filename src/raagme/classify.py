"""Decision procedures for measure and orbit equivalence of RAAGs.

For a right-angled Artin group G with finite outer automorphism group:

* G and a graph product H of free abelian groups are orbit equivalent
  exactly when the clique-reduced form of H lives over a graph isomorphic to
  the defining graph of G;

* they are measure equivalent exactly when that graph is the defining graph
  of some finite-index RAAG subgroup of G.

The finite-index search here only closes the single-vertex star-gluing
construction under composition, with no completeness claim, so the measure
equivalence verdict is three-valued: "equivalent" always carries a checkable
witness, "not_equivalent" is only emitted on an invariant that provably
separates measure equivalence classes (an untransvectable non-abelian
domination class, failure of strong untransvectability, or an amenability
mismatch), and search exhaustion yields "unknown" with the budget echoed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError, require, require_integer
from .combinatorics import cv_classification, has_finite_out
from .extension import ball_prefix, build_ext_ball, star_swaps
from .formats import presentation_to_json_dict
from .graphs import SimpleGraph
from .isomorphism import canonical_form, canonical_form_indexed, find_isomorphism
from .presentation import GraphProductPresentation, clique_reduce, raag
from .subgroups import chain_json, check_search_bounds, gluing_classes

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Decision:
    """Outcome of an equivalence decision, with machine-readable provenance."""

    verdict: str
    reason_code: str
    reason: str
    witness: dict | None = None
    budget: dict | None = None

    def to_json(self):
        out = {"verdict": self.verdict, "reason_code": self.reason_code,
               "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.budget is not None:
            out["budget"] = self.budget
        return out


@dataclass(frozen=True)
class InvariantReport:
    """Equivalence invariants of a presentation, computed on its reduced form.

    All fields refer to the clique-reduced representative (the RAAG over the
    reduced underlying graph is orbit equivalent to the presented group, and
    these are the quantities preserved by measure equivalence).
    """

    clique_reduced_form: GraphProductPresentation
    out_finite: bool
    nonabelian_untransvectable_class: bool
    all_untransvectable_strongly: bool
    untransvectable: tuple
    ue_ball_fingerprints: tuple   # ((L, hex digest), ...)

    @property
    def rigidity_hypotheses_hold(self):
        """Both hypotheses of the rigidity criterion (see ``decide_me``)."""
        return not self.nonabelian_untransvectable_class and self.all_untransvectable_strongly

    def to_json(self):
        return {
            "clique_reduced": presentation_to_json_dict(self.clique_reduced_form),
            "out_finite": self.out_finite,
            "nonabelian_untransvectable_class": self.nonabelian_untransvectable_class,
            "all_untransvectable_strongly": self.all_untransvectable_strongly,
            "untransvectable_vertices": list(self.untransvectable),
            "ue_ball_fingerprints": [{"L": L, "hash": h} for L, h in self.ue_ball_fingerprints],
            "rigidity_hypotheses": {
                "no_nonabelian_untransvectable_class": not self.nonabelian_untransvectable_class,
                "every_untransvectable_vertex_strong": self.all_untransvectable_strongly,
                "both_hold": self.rigidity_hypotheses_hold,
            },
        }


def _fingerprint(b):
    """Canonical hash of a ball's index adjacency, seeded with its star swaps and symmetries."""
    return canonical_form_indexed((range(b.n_nodes), b.adjacency),
                                  automorphisms=(*star_swaps(b), *b.symmetries)).hexdigest()


def invariant_report(p, ball_bound=2):
    """Invariants of p read off its clique-reduced form, with ball fingerprints.

    The flags come from the CV classification of the reduced graph.  The
    fingerprints are the canonical hashes of the untransvectable extension
    ball at each radius 0..ball_bound (none for a negative bound); the ball
    is built once, at ball_bound, and each smaller one is cut out of it as
    a prefix.

    Each fingerprint canonizes the ball's index adjacency with
    ``canonical_form_indexed``, seeded with its ``star_swaps``: for an
    interior node i, two components of the ball less the
    closed star st(i) with the same neighbours in st(i), matched by a map
    that keeps each node's neighbours in st(i), are swapped with all else
    fixed.  That is an automorphism of the ball, since no edge joins two
    components and every edge into st(i) keeps its endpoint there.  The
    ball's symmetries follow: the generator inversions and the lifts of the
    automorphisms of the reduced graph.  Seeds change only how much the
    canonizer searches, never the fingerprints.
    """
    require(p, GraphProductPresentation, "a presentation")
    if p.graph.n_vertices == 0:
        raise InputError("invariant report is undefined for the trivial presentation")
    require_integer(ball_bound, "ball bound")
    reduced = clique_reduce(p)
    # one untransvectable ball at the largest radius, sliced for the
    # smaller ones; a negative bound asks for no fingerprints.  The CV
    # classification that picked its types gives the flags below.
    ue = build_ext_ball(raag(reduced.graph), max(ball_bound, 0), ue=True)
    cv = ue.classification
    fingerprints = tuple((L, _fingerprint(ball_prefix(ue, L))) for L in range(ball_bound + 1))
    return InvariantReport(
        clique_reduced_form=reduced,
        out_finite=cv.out_finite,
        nonabelian_untransvectable_class=cv.nonabelian_untransvectable_class,
        all_untransvectable_strongly=cv.all_untransvectable_strongly,
        untransvectable=cv.untransvectable,
        ue_ball_fingerprints=fingerprints,
    )


def _trivial_decision(gamma_g, h, search_bounds=None):
    """The checks both decisions open with, then the Decision if a group is trivial.

    Raises on a gamma_g that is not a graph or an h that is not a
    presentation, then on a non-empty gamma_g with infinite Out, then on
    search_bounds (decide_me's max_vertices and max_steps) that are not
    integers >= 0; returns None when neither group is trivial.
    """
    require(gamma_g, SimpleGraph, "a graph")
    require(h, GraphProductPresentation, "a presentation")
    if gamma_g.n_vertices and not has_finite_out(gamma_g):
        raise DomainError(
            "hypothesis violated: Out(G) must be finite "
            "(the defining graph of G admits a transvection or a partial conjugation)")
    if search_bounds is not None:
        check_search_bounds(*search_bounds)
    if gamma_g.n_vertices == h.graph.n_vertices == 0:
        return Decision(EQUIVALENT, "trivial-both", "both groups are trivial")
    if gamma_g.n_vertices == 0 or h.graph.n_vertices == 0:
        return Decision(NOT_EQUIVALENT, "trivial-mismatch",
                        "exactly one of the groups is trivial")
    return None


def _iso_witness(iso):
    return {"isomorphism": {u: w for u, w in sorted(iso.items())}}


def decide_oe(gamma_g, h):
    """Orbit equivalence of the RAAG over gamma_g with the graph product h.

    Rule: orbit equivalent exactly when the clique-reduced form of h has
    underlying graph isomorphic to gamma_g.  Requires Out of the first group
    to be finite (then gamma_g is automatically clique-reduced).
    """
    trivial = _trivial_decision(gamma_g, h)
    if trivial is not None:
        return trivial
    # finite Out forces gamma_g clique-reduced (star twins admit transvections)
    assert clique_reduce(raag(gamma_g)).graph == gamma_g
    reduced = clique_reduce(h)
    lam = reduced.graph
    iso = find_isomorphism(lam, gamma_g)
    if iso is not None:
        return Decision(
            EQUIVALENT, "defining-graph-match",
            "the clique-reduced form of H is a graph product of free abelian groups "
            "over a graph isomorphic to the defining graph of G",
            witness=_iso_witness(iso))
    return Decision(
        NOT_EQUIVALENT, "defining-graph-mismatch",
        f"the clique-reduced form of H lives over a graph with {lam.n_vertices} "
        f"vertices and {lam.n_edges} edges that is not isomorphic to the defining "
        f"graph of G ({gamma_g.n_vertices} vertices, {gamma_g.n_edges} edges)")


def decide_me(gamma_g, h, max_vertices=24, max_steps=3):
    """Measure equivalence of the RAAG over gamma_g with the graph product h.

    Exact "equivalent" answers carry a finite-index witness chain and a graph
    isomorphism; exact "not_equivalent" answers cite a separating invariant;
    search exhaustion returns "unknown" with the budget echoed and a witness
    that says whether a bound cut the search (the star-gluing enumeration is
    not known to reach every finite-index RAAG subgroup, so absence of a
    witness is not a disproof).  lam being the clique-reduced graph of h,
    the search is the one ``enumerate_findex_graphs`` runs at exactly |lam|
    vertices, since a class of fewer vertices is never lam.  It is skipped,
    and no bound cut it, when lam has fewer vertices than gamma_g, as no
    gluing shrinks.  It is skipped, cut by max_vertices, when |lam| passes
    both max_vertices and |gamma_g|; at |lam| = |gamma_g| it yields gamma_g
    alone, whatever max_vertices.  Of the classes it yields, only those with
    lam's degree sequence are compared with lam, by canonical key, and lam
    is canonized only then.
    The first with lam's key is the witness.  Its chain and index are read
    off the class, whose graph stays an index adjacency, so no glued graph
    is built as a ``SimpleGraph``; the search skips the gluings its algebra
    proves duplicate (see ``subgroups``).
    """
    # trivial and cyclic (amenable) groups first: Z^m and Z^n are orbit
    # equivalent for all m, n >= 1, and an amenable group is never measure
    # equivalent to a non-amenable one
    trivial = _trivial_decision(gamma_g, h, (max_vertices, max_steps))
    if trivial is not None:
        return trivial
    reduced = clique_reduce(h)
    lam = reduced.graph
    g_cyclic = gamma_g.n_vertices == 1
    h_abelian = lam.n_vertices == 1
    if g_cyclic or h_abelian:
        if g_cyclic and h_abelian:
            return Decision(EQUIVALENT, "amenable-both",
                            "both groups are infinite free abelian, and all such "
                            "groups are orbit equivalent")
        non_amenable, amenable = ("G", "H") if h_abelian else ("H", "G")
        return Decision(NOT_EQUIVALENT, "amenable-mismatch",
                        f"{amenable} is free abelian (amenable) while {non_amenable} "
                        "contains a non-abelian free subgroup; an amenable group is "
                        "never measure equivalent to a non-amenable one")
    # the two hypotheses of the rigidity criterion: both are measure
    # equivalence invariants of clique-reduced groups and both hold on the
    # finite-Out side, so H is not equivalent when lam fails either.  When
    # both hold and the untransvectable extension graphs agree, a
    # finite-index embedding is the only way the groups can be measure
    # equivalent, so an "unknown" past the search below has both holding
    cv = cv_classification(lam)
    if cv.nonabelian_untransvectable_class:
        return Decision(
            NOT_EQUIVALENT, "invariant-nonabelian-class",
            "the clique-reduced form of H has an untransvectable non-abelian "
            "domination class while G (finite Out) has none; measure equivalence "
            "preserves the existence of such a class")
    if not cv.all_untransvectable_strongly:
        return Decision(
            NOT_EQUIVALENT, "invariant-strong-untransvectability",
            "the clique-reduced form of H has an untransvectable vertex that is "
            "not strongly untransvectable, while every untransvectable vertex on "
            "the finite-Out side is; measure equivalence preserves this property")
    # no gluing shrinks a graph, so no budget reaches a lam smaller than
    # gamma_g and no bound cut a search for it.  A class of fewer vertices
    # than lam is never lam, so a budget below |lam| cuts the search short
    # unless lam is gamma_g's size: a finite-Out gamma_g on two or more
    # vertices has no vertex adjacent to every other, so every gluing adds
    # vertices and that search yields gamma_g alone.  Otherwise the search
    # runs at |lam| vertices, and only a class with lam's degree sequence
    # can be lam; lam is canonized at the first of them, and the
    # isomorphism is read off the two canonical orders, as find_isomorphism does
    truncated = lam.n_vertices > max(max_vertices, gamma_g.n_vertices)
    if gamma_g.n_vertices <= lam.n_vertices and not truncated:
        classes = gluing_classes(gamma_g, lam.n_vertices, max_steps)
        degrees, target = lam.degree_sequence(), None
        while True:
            try:
                cls = next(classes)
            except StopIteration as done:
                truncated = done.value
                break
            if cls.degrees != degrees:
                continue
            if target is None:
                target = canonical_form(lam)
            if cls.form.key == target.key:
                witness = {"chain": chain_json(cls.chain), "index": cls.index}
                witness.update(_iso_witness(dict(zip(cls.form.order, target.order))))
                return Decision(
                    EQUIVALENT, "finite-index-witness",
                    f"H is a graph product of free abelian groups over the defining "
                    f"graph of an index-{cls.index} RAAG subgroup of G",
                    witness=witness)
    return Decision(
        UNKNOWN, "search-exhausted",
        "no separating invariant found and no finite-index witness within the "
        "search budget; the star-gluing enumeration is not known to be complete",
        witness={"search_truncated": truncated},
        budget={"max_vertices": max_vertices, "max_steps": max_steps})
