import functools
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import prism, ue_ball_fingerprint, unpruned_gluing_search
from raagme.combinatorics import cv_classification, has_finite_out
from raagme.errors import DomainError, InputError
from raagme.graphs import SimpleGraph, complete_graph, cycle_graph, path_graph, star
from raagme.isomorphism import canonical_form, canonical_form_indexed, canonical_hash
from raagme.presentation import GraphProductPresentation, clique_reduce, expand_to_raag, raag
from raagme.subgroups import enumerate_findex_graphs, star_gluing_kernel
from raagme.classify import decide_me, decide_oe, invariant_report


def relabel(g, names):
    """g with its vertices, in sorted order, renamed to names."""
    mapping = dict(zip(g.sorted_vertices(), names))
    return SimpleGraph(list(names), [(mapping[u], mapping[w]) for u, w in g.edges()])


def assert_witness_replays(g, lam, witness):
    replayed = g
    index = 1
    for step in witness["chain"]:
        replayed = star_gluing_kernel(replayed, step["vertex"], step["k"])
        index *= step["k"]
    assert witness["index"] == index
    iso = witness["isomorphism"]
    assert sorted(iso) == replayed.sorted_vertices()
    assert sorted(iso.values()) == lam.sorted_vertices()
    assert sorted(tuple(sorted((iso[u], iso[w]))) for u, w in replayed.edges()) == lam.edges()


def ranks_31111(c5):
    return GraphProductPresentation(c5, {"v1": 3, "v2": 1, "v3": 1, "v4": 1, "v5": 1})


class TestInvariantReport:
    def test_c5(self, c5):
        rep = invariant_report(raag(c5), ball_bound=1)
        assert rep.out_finite
        assert not rep.nonabelian_untransvectable_class
        assert rep.all_untransvectable_strongly
        assert rep.untransvectable == tuple(c5.sorted_vertices())
        assert [L for L, _ in rep.ue_ball_fingerprints] == [0, 1]

    def test_counterexample(self, counterexample_graph):
        rep = invariant_report(raag(counterexample_graph), ball_bound=0)
        assert not rep.all_untransvectable_strongly

    def test_f3(self, f3_graph):
        rep = invariant_report(raag(f3_graph), ball_bound=0)
        assert rep.nonabelian_untransvectable_class
        assert not rep.out_finite

    def test_reduction_happens_first(self, c5):
        rep = invariant_report(ranks_31111(c5), ball_bound=0)
        assert rep.clique_reduced_form.graph == c5
        assert rep.out_finite  # of the reduced graph

    def test_fingerprints_are_iso_invariants(self, c5, atlas6):
        other = cycle_graph(["a", "b", "c", "d", "e"])
        for L in (0, 1):
            assert ue_ball_fingerprint(c5, L) == ue_ball_fingerprint(other, L)
        assert ue_ball_fingerprint(c5, 0) != ue_ball_fingerprint(
            path_graph(["a", "b", "c", "d", "e"]), 0)
        # the report slices one ball; the oracle builds one ball per radius
        for g in [c5, prism()] + [g for n in range(1, 6) for g in atlas6[n]]:
            rep = invariant_report(raag(g), ball_bound=2)
            rg = rep.clique_reduced_form.graph
            assert rep.ue_ball_fingerprints == tuple(
                (L, ue_ball_fingerprint(rg, L)) for L in range(3))

    def test_f3_makes_no_commutation_test(self, f3_graph, c5, monkeypatch):
        # F3 has no untransvectable vertex, so the ball the report
        # fingerprints is empty and no handle reaches the commutation pass;
        # counted through the extension module's binding
        import raagme.extension
        from raagme.words import commutation_adjacency
        calls = []

        def counted(handles, symmetries=()):
            calls.extend(handles)
            return commutation_adjacency(handles, symmetries)

        monkeypatch.setattr(raagme.extension, "commutation_adjacency", counted)
        rep = invariant_report(raag(f3_graph), ball_bound=3)
        assert calls == []
        empty = canonical_hash(SimpleGraph([]))
        assert rep.ue_ball_fingerprints == tuple((L, empty) for L in range(4))
        invariant_report(raag(c5), ball_bound=1)
        assert calls


class TestRigidityHypotheses:
    def test_examples(self, c5, f3_graph, counterexample_graph):
        def hypotheses(g):
            rep = invariant_report(raag(g), ball_bound=0)
            block = rep.to_json()["rigidity_hypotheses"]
            assert block["both_hold"] == rep.rigidity_hypotheses_hold
            return block

        assert hypotheses(c5)["both_hold"]
        rep = hypotheses(counterexample_graph)
        assert rep["no_nonabelian_untransvectable_class"]
        assert not rep["every_untransvectable_vertex_strong"]
        assert not rep["both_hold"]
        rep = hypotheses(f3_graph)
        assert not rep["no_nonabelian_untransvectable_class"]
        assert not rep["both_hold"]
        # read on the clique-reduced graph: the edge a-b collapses to one
        # rank-2 vertex, leaving two isolated vertices, one non-abelian class
        edge_point = SimpleGraph(["a", "b", "c"], [("a", "b")])
        assert not cv_classification(edge_point).nonabelian_untransvectable_class
        rep = hypotheses(edge_point)
        rg = clique_reduce(raag(edge_point)).graph
        assert rg.n_vertices == 2
        cv = cv_classification(rg)
        assert cv.nonabelian_untransvectable_class
        assert not rep["no_nonabelian_untransvectable_class"]
        assert rep["every_untransvectable_vertex_strong"] == cv.all_untransvectable_strongly


class TestDecideOe:
    def test_rank_blowup_equivalent(self, c5):
        d = decide_oe(c5, ranks_31111(c5))
        assert d.verdict == "equivalent"
        assert d.witness and "isomorphism" in d.witness

    def test_identity(self, c5):
        assert decide_oe(c5, raag(c5)).verdict == "equivalent"

    def test_c6_not_equivalent(self, c5):
        d = decide_oe(c5, raag(cycle_graph(["a", "b", "c", "d", "e", "f"])))
        assert d.verdict == "not_equivalent"

    def test_infinite_out_hypothesis(self, p3, c5):
        with pytest.raises(DomainError, match="hypothesis"):
            decide_oe(p3, raag(c5))

    def test_trivial_groups(self, c5):
        empty = raag(SimpleGraph([]))
        assert decide_oe(SimpleGraph([]), empty).verdict == "equivalent"
        assert decide_oe(SimpleGraph([]), raag(c5)).verdict == "not_equivalent"
        assert decide_oe(c5, empty).verdict == "not_equivalent"

    def test_zn_all_equivalent_to_z(self):
        point = SimpleGraph(["z"])
        z3 = raag(complete_graph(["a", "b", "c"]))
        assert decide_oe(point, z3).verdict == "equivalent"

    def test_double_not_oe_but_me(self, c5):
        # index-2 subgroup: orbit inequivalent, measure equivalent
        double = raag(star_gluing_kernel(c5, "v1", 2))
        assert decide_oe(c5, double).verdict == "not_equivalent"
        m = decide_me(c5, double)
        assert m.verdict == "equivalent"
        assert m.witness["index"] == 2
        assert m.witness["chain"] == [{"vertex": "v1", "k": 2}]


class TestDecideMe:
    def test_rank_blowup_index_one(self, c5):
        m = decide_me(c5, GraphProductPresentation(
            c5, {"v1": 2, "v2": 1, "v3": 1, "v4": 1, "v5": 1}))
        assert m.verdict == "equivalent" and m.witness["index"] == 1

    def test_f3_separated_by_class_invariant(self, c5, f3_graph):
        m = decide_me(c5, raag(f3_graph))
        assert m.verdict == "not_equivalent"
        assert m.reason_code == "invariant-nonabelian-class"

    def test_counterexample_separated_by_strength(self, c5, counterexample_graph):
        m = decide_me(c5, raag(counterexample_graph))
        assert m.verdict == "not_equivalent"
        assert m.reason_code == "invariant-strong-untransvectability"

    def test_amenable_cases(self, c5):
        point = SimpleGraph(["z"])
        z3 = raag(complete_graph(["a", "b", "c"]))
        assert decide_me(point, z3).verdict == "equivalent"
        assert decide_me(point, raag(c5)).verdict == "not_equivalent"
        assert decide_me(c5, raag(SimpleGraph(["a"]))).verdict == "not_equivalent"
        assert decide_me(point, raag(SimpleGraph([]))).verdict == "not_equivalent"

    def test_unknown_with_budget(self, c5):
        # C6 passes both invariants but admits no witness: search exhausts
        c6 = raag(cycle_graph(["a", "b", "c", "d", "e", "f"]))
        m = decide_me(c5, c6, max_vertices=6, max_steps=2)
        assert m.verdict == "unknown"
        assert m.budget == {"max_vertices": 6, "max_steps": 2}
        assert m.witness == {"search_truncated": False}

    def test_infinite_out_hypothesis(self, p3, c5):
        with pytest.raises(DomainError, match="hypothesis"):
            decide_me(p3, raag(c5))
        # checked before the search bounds
        with pytest.raises(DomainError, match="hypothesis"):
            decide_me(p3, raag(c5), max_steps=-1)

    def test_negative_bounds_rejected(self, c5):
        double = raag(star_gluing_kernel(c5, "v1", 2))
        for bound in ({"max_steps": -1}, {"max_vertices": -1}):
            with pytest.raises(InputError, match="bounds must be >= 0"):
                decide_me(c5, double, **bound)
        # so are bounds that are not integers, bools included
        for bound, echoed in (({"max_vertices": "24"}, "'24'"), ({"max_steps": 2.0}, "2.0"),
                              ({"max_steps": None}, "None"), ({"max_vertices": True}, "True")):
            with pytest.raises(InputError) as info:
                decide_me(c5, double, **bound)
            assert str(info.value) == f"enumeration bound must be an integer, got {echoed}"
        # a ball bound must be an integer too; a negative one asks for no fingerprints
        for bound in ("2", None, 2.0, False):
            with pytest.raises(InputError, match="ball bound must be an integer"):
                invariant_report(raag(c5), ball_bound=bound)
        assert invariant_report(raag(c5), ball_bound=-1).ue_ball_fingerprints == ()

    def test_bounds_checked_before_first_verdict(self, c5):
        # a trivial, cyclic or invariant-separated H decides without the
        # search, yet bad bounds are refused first, with the search's messages
        point = raag(SimpleGraph(["a"]))
        empty = raag(SimpleGraph([]))
        for h in (point, empty, raag(c5)):
            with pytest.raises(InputError) as info:
                decide_me(c5, h, max_vertices="x")
            assert str(info.value) == "enumeration bound must be an integer, got 'x'"
            with pytest.raises(InputError) as info:
                decide_me(c5, h, max_steps=-1)
            assert str(info.value) == "enumeration bounds must be >= 0"
        with pytest.raises(InputError, match="bounds must be >= 0"):
            decide_me(SimpleGraph([]), empty, max_vertices=-1)

    def test_finite_out_checked_once(self, c5, monkeypatch):
        # decide_me and enumerate_findex_graphs each evaluate has_finite_out
        # once, counted through both modules' bindings
        import raagme.classify
        import raagme.subgroups
        from raagme.subgroups import enumerate_findex_graphs
        calls = []

        def counted(g):
            calls.append(g)
            return has_finite_out(g)

        monkeypatch.setattr(raagme.classify, "has_finite_out", counted)
        monkeypatch.setattr(raagme.subgroups, "has_finite_out", counted)
        assert decide_me(c5, raag(star_gluing_kernel(c5, "v1", 2))).verdict == "equivalent"
        assert calls == [c5]
        enumerate_findex_graphs(c5, 16, 2)
        assert calls == [c5, c5]

    def test_canonizations_counted(self, c5, monkeypatch):
        # a class of the gluing search is canonized only when it is glued,
        # when the matcher runs out of budget against an earlier class of its
        # degree sequence, or when it is compared with lam; counted at
        # canonical_form_indexed, through the binding of the gluing search
        # and that of canonical_form.  Here C5 and its three gluings within
        # 16 vertices that are glued again; every other gluing is skipped as
        # a proven duplicate or has a degree sequence of its own, so the
        # matcher never runs
        import raagme.isomorphism
        import raagme.subgroups
        from raagme.subgroups import enumerate_findex_graphs
        calls = []

        def counted(indexed, automorphisms=()):
            calls.append(indexed)
            return canonical_form_indexed(indexed, automorphisms=automorphisms)

        monkeypatch.setattr(raagme.isomorphism, "canonical_form_indexed", counted)
        monkeypatch.setattr(raagme.subgroups, "canonical_form_indexed", counted)
        assert len(enumerate_findex_graphs(c5, 16, 2).witnesses) == 12
        assert len(calls) == 4
        calls.clear()
        # no gluing of C5 fits in six vertices, and C6's degree sequence is
        # not C5's, so neither the base nor lam is canonized
        m = decide_me(c5, raag(cycle_graph([f"h{i}" for i in range(6)])))
        assert m.reason_code == "search-exhausted" and not m.witness["search_truncated"]
        assert calls == []

    def test_depth_two_chain(self, c5):
        # 15 vertices, reached by no single gluing of C5
        h = relabel(star_gluing_kernel(star_gluing_kernel(c5, "v1", 2), "v3", 3),
                    [f"h{i:02d}" for i in range(14, -1, -1)])
        m = decide_me(c5, raag(h))
        assert m.verdict == "equivalent"
        assert m.witness["chain"] == [{"vertex": "v1", "k": 2}, {"vertex": "c2.v3", "k": 3}]
        assert m.witness["index"] == 6
        assert_witness_replays(c5, h, m.witness)


class TestCrossConsistency:
    def test_oe_implies_me(self, c5):
        h = ranks_31111(c5)
        assert decide_oe(c5, h).verdict == "equivalent"
        assert decide_me(c5, h).verdict == "equivalent"

    def test_symmetric_at_index_one(self, c5):
        h = ranks_31111(c5)
        assert decide_oe(c5, h).verdict == "equivalent"
        lam = clique_reduce(h).graph
        assert decide_oe(lam, raag(c5)).verdict == "equivalent"
        assert decide_me(lam, raag(c5)).verdict == "equivalent"

    def test_unit_rank_relabelings_always_equivalent(self, atlas6):
        from raagme.combinatorics import has_finite_out
        for g in atlas6[4]:
            if not has_finite_out(g):
                continue
            mapping = {v: f"x{i}" for i, v in enumerate(g.sorted_vertices())}
            twin = SimpleGraph(sorted(mapping.values()),
                               [(mapping[u], mapping[w]) for u, w in g.edges()])
            assert decide_oe(g, raag(twin)).verdict == "equivalent"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decide_me_relabel_invariant(atlas6, data):
    # G: a finite-Out atlas graph; H: a seeded gluing chain on G, or a
    # random graph.  Renaming either side must not change the answer.
    pool = [g for n in range(1, 7) for g in atlas6[n] if has_finite_out(g)]
    g = data.draw(st.sampled_from(pool))
    budget = (14, 2)
    if data.draw(st.booleans()):
        h = g
        for _ in range(data.draw(st.integers(0, 2))):
            v = data.draw(st.sampled_from(h.sorted_vertices()))
            k = data.draw(st.integers(2, 3))
            st_size = len(star(h, v))
            if k * h.n_vertices - (k - 1) * st_size <= budget[0]:
                h = star_gluing_kernel(h, v, k)
    else:
        n = data.draw(st.integers(2, 7))
        pairs = [(f"x{i}", f"x{j}") for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        h = SimpleGraph([f"x{i}" for i in range(n)],
                        [e for e, keep in zip(pairs, mask) if keep])

    def renamed(x, prefix):
        perm = data.draw(st.permutations(range(x.n_vertices)))
        return relabel(x, [f"{prefix}{i}" for i in perm])

    d = decide_me(g, raag(h), *budget)
    h2 = renamed(h, "y")
    dh = decide_me(g, raag(h2), *budget)
    g2 = renamed(g, "z")
    dg = decide_me(g2, raag(h), *budget)
    assert d.verdict == dh.verdict == dg.verdict
    assert d.reason_code == dh.reason_code == dg.reason_code
    if d.reason_code == "finite-index-witness":
        # the search never reads H's labels, so the chain is the same
        assert dh.witness["chain"] == d.witness["chain"]
        assert d.witness["index"] == dh.witness["index"] == dg.witness["index"]
        assert_witness_replays(g, clique_reduce(raag(h)).graph, d.witness)
        assert_witness_replays(g, clique_reduce(raag(h2)).graph, dh.witness)
        assert_witness_replays(g2, clique_reduce(raag(h)).graph, dg.witness)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decide_oe_relabel_invariant(atlas6, data):
    # G: a finite-Out atlas graph; H: G itself or any atlas graph.  Renaming
    # either side, blowing up the ranks of H, or expanding those ranks to a
    # unit-rank defining graph leaves the clique-reduced graph of H as it
    # is, so the verdict stays; every witness maps edges onto edges.
    pool = [g for n in range(1, 7) for g in atlas6[n] if has_finite_out(g)]
    g = data.draw(st.sampled_from(pool))
    h = g if data.draw(st.booleans()) else data.draw(
        st.sampled_from(atlas6[data.draw(st.integers(1, 6))]))

    def renamed(x, prefix):
        perm = data.draw(st.permutations(range(x.n_vertices)))
        return relabel(x, [f"{prefix}{i}" for i in perm])

    h2 = renamed(h, "y")
    ranks = data.draw(st.lists(st.integers(1, 3), min_size=h.n_vertices,
                               max_size=h.n_vertices))
    blown = GraphProductPresentation(h2, dict(zip(h2.sorted_vertices(), ranks)))
    g2 = renamed(g, "z")
    cases = [(g, raag(h)), (g, raag(h2)), (g, blown), (g2, blown),
             (g2, raag(expand_to_raag(blown)))]
    decisions = [decide_oe(gg, hh) for gg, hh in cases]
    assert len({(d.verdict, d.reason_code) for d in decisions}) == 1
    for (gg, hh), d in zip(cases, decisions):
        if d.witness is not None:
            iso = d.witness["isomorphism"]
            lam = clique_reduce(hh).graph
            assert sorted(iso) == lam.sorted_vertices()
            assert sorted(iso.values()) == gg.sorted_vertices()
            assert sorted(tuple(sorted((iso[u], iso[w]))) for u, w in lam.edges()) == \
                gg.edges()


def swapped_edges(g):
    """g after its first degree-preserving swap ab, cd -> ad, cb, or None."""
    edges = g.edges()
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
            rest = [e for e in edges if e not in ((a, b), (c, d))]
            return SimpleGraph(g.sorted_vertices(), rest + [(a, d), (c, b)])
    return None


def test_decide_me_matches_unpruned_search(atlas7):
    # the lazily canonized search against the slow reference: the
    # reference's first class isomorphic to lam gives the witness, and when
    # none is, its truncation flag is search_truncated.  H runs over the
    # classes glued within 16 vertices and 3 steps (some beyond a 2-step
    # budget) and their degree-preserving edge swaps, which mostly reach no
    # class; so the search meets children of exactly lam's size and last
    # levels whose first new class sets the flag.
    outcomes = Counter()
    for g in (g for n in range(1, 8) for g in atlas7[n] if has_finite_out(g)):
        reference = functools.cache(lambda mv, ms, g=g: unpruned_gluing_search(g, mv, ms))
        glued = [h for _, _, h in reference(16, 3)[0]]
        hs = glued + [h for h in map(swapped_edges, glued) if h is not None]
        for (max_vertices, max_steps), h in itertools.product(((24, 3), (16, 2), (14, 3)), hs):
            d = decide_me(g, raag(h), max_vertices, max_steps)
            if d.reason_code not in ("finite-index-witness", "search-exhausted"):
                continue
            lam = clique_reduce(raag(h)).graph
            found, truncated = reference(min(max_vertices, lam.n_vertices), max_steps)
            key = canonical_form(lam).key
            first = next(((chain, index) for chain, index, graph in found
                          if canonical_form(graph).key == key), None)
            if first is None:
                # a gluing never shrinks, so no budget helps a lam smaller
                # than g; a budget below |lam| cuts the search unless lam is
                # g's size
                truncated = (truncated and lam.n_vertices >= g.n_vertices
                             or lam.n_vertices > max(max_vertices, g.n_vertices))
                assert d.verdict == "unknown"
                assert d.witness["search_truncated"] == truncated
                outcomes["unknown", truncated] += 1
            else:
                assert d.verdict == "equivalent"
                assert [(c["vertex"], c["k"]) for c in d.witness["chain"]] == list(first[0])
                assert d.witness["index"] == first[1]
                outcomes["equivalent"] += 1
    assert min(outcomes[k] for k in ("equivalent", ("unknown", True), ("unknown", False))) > 50


def test_untruncated_unknown_stays_unknown_at_the_size_of_lam(atlas7, c5):
    # an unknown that says no bound cut its search must stay unknown at the
    # budget (|lam|, |lam|), which every class of |lam| vertices is within:
    # each gluing adds a vertex.  H runs over the finite-Out G and the
    # classes glued from them within 10 vertices and 2 steps, with their
    # degree-preserving edge swaps
    finite = [g for n in range(1, 7) for g in atlas7[n] if has_finite_out(g)]
    untruncated = Counter()
    for g in finite:
        glued = [h for _, _, h in unpruned_gluing_search(g, 10, 2)[0]]
        for h in finite + glued + [h for h in map(swapped_edges, glued) if h is not None]:
            n = clique_reduce(raag(h)).graph.n_vertices
            at_lam = decide_me(g, raag(h), n, n).verdict
            for max_vertices, max_steps in itertools.product(range(n + 1), (1, 2, 3)):
                d = decide_me(g, raag(h), max_vertices, max_steps)
                if d.reason_code == "search-exhausted" and not d.witness["search_truncated"]:
                    assert at_lam == "unknown", (g, h, max_vertices, max_steps)
                    untruncated[n < g.n_vertices] += 1
    assert min(untruncated[True], untruncated[False]) > 30
    # below its 7 vertices, C5 glued at v1 with k = 2 is out of reach
    h = raag(star_gluing_kernel(c5, "v1", 2))
    for max_vertices in (5, 6):
        assert decide_me(c5, h, max_vertices, 3).witness == {"search_truncated": True}
    assert decide_me(c5, h, 7, 3).verdict == "equivalent"


# (entry point called with an argument of the wrong type, the start of its
# message: a presentation echoes its ranks in set order)
_NOT_A_GRAPH = "expected a graph (SimpleGraph), got GraphProductPresen"
_NOT_A_PRESENTATION = ("expected a presentation (GraphProductPresentation), "
                       "got SimpleGraph(5 vertices, 5 edges)")

WRONG_TYPE_CASES = {
    "invariant_report": (lambda c5: invariant_report(c5), _NOT_A_PRESENTATION),
    "decide_oe-G": (lambda c5: decide_oe(raag(c5), raag(c5)), _NOT_A_GRAPH),
    "decide_oe-H": (lambda c5: decide_oe(c5, c5), _NOT_A_PRESENTATION),
    "decide_me-G": (lambda c5: decide_me(raag(c5), raag(c5)), _NOT_A_GRAPH),
    "decide_me-H": (lambda c5: decide_me(c5, c5), _NOT_A_PRESENTATION),
    "enumerate_findex_graphs": (lambda c5: enumerate_findex_graphs(raag(c5), 10, 1),
                                _NOT_A_GRAPH),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE_CASES))
def test_entry_points_check_argument_types(case, c5):
    call, message = WRONG_TYPE_CASES[case]
    with pytest.raises(InputError) as info:
        call(c5)
    assert str(info.value).startswith(message)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fingerprints_relabel_invariant(atlas7, data):
    # star swaps are found in node index order, which follows the vertex
    # labels; the fingerprints they seed must not
    n = data.draw(st.integers(1, 7))
    g = data.draw(st.sampled_from(atlas7[n]))
    twins = [relabel(g, [f"{prefix}{i}" for i in data.draw(st.permutations(range(n)))])
             for prefix in ("x", "y")]
    reports = [invariant_report(raag(h), ball_bound=2) for h in (g, *twins)]
    assert len({r.ue_ball_fingerprints for r in reports}) == 1
