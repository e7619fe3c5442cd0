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

from .errors import DomainError, InputError
from .combinatorics import cv_classification, has_finite_out
from .extension import ball_graph, ball_prefix, build_ext_ball
from .isomorphism import canonical_form, canonical_hash, find_isomorphism
from .presentation import GraphProductPresentation, clique_reduce, raag
from .subgroups import gluing_classes

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
class RigidityReport:
    """The two parabolic-subgroup hypotheses of the rigidity criterion.

    When both hold and the untransvectable extension graphs agree, a
    finite-index embedding is the only way the groups can be measure
    equivalent; the report annotates "unknown" verdicts with whichever
    hypothesis fails.
    """

    no_nonabelian_untransvectable_class: bool
    every_untransvectable_vertex_strong: bool

    @property
    def both_hold(self):
        return (self.no_nonabelian_untransvectable_class
                and self.every_untransvectable_vertex_strong)

    def to_json(self):
        return {
            "no_nonabelian_untransvectable_class": self.no_nonabelian_untransvectable_class,
            "every_untransvectable_vertex_strong": self.every_untransvectable_vertex_strong,
            "both_hold": self.both_hold,
        }


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
    def rigidity(self):
        return RigidityReport(not self.nonabelian_untransvectable_class,
                              self.all_untransvectable_strongly)

    def to_json(self):
        rg = self.clique_reduced_form
        return {
            "clique_reduced": {
                "vertices": [{"id": v, "rank": rg.rank(v)} for v in rg.graph.sorted_vertices()],
                "edges": [[u, w] for u, w in rg.graph.edges()],
            },
            "out_finite": self.out_finite,
            "nonabelian_untransvectable_class": self.nonabelian_untransvectable_class,
            "all_untransvectable_strongly": self.all_untransvectable_strongly,
            "untransvectable_vertices": list(self.untransvectable),
            "ue_ball_fingerprints": [{"L": L, "hash": h} for L, h in self.ue_ball_fingerprints],
        }


def invariant_report(p, ball_bound=2):
    if p.graph.n_vertices == 0:
        raise InputError("invariant report is undefined for the trivial presentation")
    reduced = clique_reduce(p)
    rg = reduced.graph
    # one untransvectable ball at the largest radius, sliced for the
    # smaller ones; a negative bound asks for no fingerprints
    ue = build_ext_ball(raag(rg), max(ball_bound, 0), ue=True)
    fingerprints = tuple((L, canonical_hash(ball_graph(ball_prefix(ue, L))))
                         for L in range(ball_bound + 1))
    cv = cv_classification(rg)
    return InvariantReport(
        clique_reduced_form=reduced,
        out_finite=has_finite_out(rg),
        nonabelian_untransvectable_class=cv.nonabelian_untransvectable_class,
        all_untransvectable_strongly=cv.all_untransvectable_strongly,
        untransvectable=cv.untransvectable,
        ue_ball_fingerprints=fingerprints,
    )


def _trivial_decision(gamma_g, h):
    """The checks both decisions open with, then the Decision if a group is trivial.

    Raises on an h that is not a presentation, then on a non-empty gamma_g
    with infinite Out; returns None when neither group is trivial.
    """
    if not isinstance(h, GraphProductPresentation):
        raise InputError("second argument must be a GraphProductPresentation")
    if gamma_g.n_vertices and not has_finite_out(gamma_g):
        raise DomainError(
            "hypothesis violated: Out(G) must be finite "
            "(the defining graph of G admits a transvection or a partial conjugation)")
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
    search exhaustion returns "unknown" with the budget echoed (the
    star-gluing enumeration is not known to reach every finite-index RAAG
    subgroup, so absence of a witness is not a disproof).
    """
    # trivial and cyclic (amenable) groups first: Z^m and Z^n are orbit
    # equivalent for all m, n >= 1, and an amenable group is never measure
    # equivalent to a non-amenable one
    trivial = _trivial_decision(gamma_g, h)
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
    # invariant pre-filter: both quantities are measure equivalence
    # invariants of clique-reduced groups, and both are trivially satisfied
    # on the finite-Out side
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
    # look lam's canonical key up as the search runs; the isomorphism is
    # read off the two canonical orders, as find_isomorphism does
    classes = gluing_classes(gamma_g, min(max_vertices, lam.n_vertices), max_steps)
    target = canonical_form(lam)
    while True:
        try:
            cf, w = next(classes)
        except StopIteration as done:
            truncated = done.value
            break
        if cf.key == target.key:
            witness = {"chain": w.chain_json(), "index": w.index}
            witness.update(_iso_witness(dict(zip(cf.order, target.order))))
            return Decision(
                EQUIVALENT, "finite-index-witness",
                f"H is a graph product of free abelian groups over the defining "
                f"graph of an index-{w.index} RAAG subgroup of G",
                witness=witness)
    # both invariant filters above passed on lam, so both hypotheses hold
    return Decision(
        UNKNOWN, "search-exhausted",
        "no separating invariant found and no finite-index witness within the "
        "search budget; the star-gluing enumeration is not known to be complete",
        witness={"rigidity_hypotheses": RigidityReport(True, True).to_json(),
                 "search_truncated": truncated},
        budget={"max_vertices": max_vertices, "max_steps": max_steps})
