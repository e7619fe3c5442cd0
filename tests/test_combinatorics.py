import itertools

import pytest

from helpers import (brute_dominates, brute_pc_sites, brute_transvectable_subgraph,
                     brute_transvections, brute_untransvectable,
                     check_collapsibility_equivalence)

import raagme.combinatorics
from raagme.errors import DomainError, InputError
from raagme.graphs import SimpleGraph, complete_graph, full_subgraph, path_graph
from raagme.combinatorics import (_dominators, all_untransvectable_strongly, cv_classification,
                                  has_finite_out,
                                  has_untransvectable_nonabelian_class, is_collapsible,
                                  is_free_product_of_free_abelians, is_strongly_untransvectable,
                                  is_transvectable_subgraph, is_transvectable_vertex,
                                  is_transvection_free, out_inventory, untransvectable_vertices)
from raagme.classify import decide_me, invariant_report
from raagme.presentation import clique_reduce, raag
from raagme.subgroups import star_gluing_kernel


class TestCvClassification:
    def test_path(self, p3):
        cv = cv_classification(p3)
        assert cv.classes == (frozenset({"a", "c"}), frozenset({"b"}))
        assert cv.class_kind[frozenset({"a", "c"})] == "non-abelian"
        assert cv.class_kind[frozenset({"b"})] == "singleton"

    def test_f3_single_class(self, f3_graph):
        cv = cv_classification(f3_graph)
        assert cv.classes == (frozenset({"a", "b", "c"}),)
        assert cv.untransvectable_classes == cv.classes
        assert cv.class_kind[cv.classes[0]] == "non-abelian"

    def test_c5_all_singletons(self, c5):
        # no v <= w for v != w in C5: exhaustive domination check
        for v, w in itertools.permutations(c5.sorted_vertices(), 2):
            assert not (c5.neighbors(v) <= c5.neighbors(w) | {w})
        cv = cv_classification(c5)
        assert all(len(cls) == 1 for cls in cv.classes)
        assert cv.untransvectable_classes == cv.classes

    def test_triangle_abelian(self):
        cv = cv_classification(complete_graph(["a", "b", "c"]))
        assert cv.classes == (frozenset({"a", "b", "c"}),)
        assert cv.class_kind[cv.classes[0]] == "abelian"

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            cv_classification(SimpleGraph([]))

    def test_class_dichotomy_on_atlas(self, atlas6):
        # non-singleton classes are cliques or edgeless, never mixed
        for g in atlas6[5] + atlas6[6][::5]:
            cv = cv_classification(g)
            for cls in cv.classes:
                members = sorted(cls)
                flags = {g.has_edge(x, y) for x, y in itertools.combinations(members, 2)}
                assert len(flags) <= 1


class TestTransvectability:
    def test_examples(self, p3, c5, f3_graph):
        assert is_transvectable_subgraph(p3, {"a"})
        assert not is_transvectable_subgraph(c5, {"v1"})
        assert not is_transvectable_subgraph(f3_graph, {"a", "b", "c"})

    def test_errors(self, p3):
        with pytest.raises(InputError):
            is_transvectable_subgraph(p3, set())
        with pytest.raises(InputError):
            is_transvectable_subgraph(p3, {"zz"})

    def test_class_untransvectable_iff_maximal(self, atlas6):
        for g in atlas6[5]:
            cv = cv_classification(g)
            for cls in cv.classes:
                assert (cls in cv.untransvectable_classes) == (
                    not is_transvectable_subgraph(g, cls))


class TestDominationByDefinition:
    def test_predicates_match_definition_upto7(self, atlas7):
        # every reader of the CV preorder against lk(v) <= st(w) written out
        for n in range(1, 8):
            for g in atlas7[n]:
                verts = g.sorted_vertices()
                untrans = brute_untransvectable(g)
                assert untransvectable_vertices(g) == untrans
                assert cv_classification(g).leq == {
                    v: frozenset(w for w in verts if brute_dominates(g, w, v)) for v in verts}
                for v in verts:
                    assert is_transvectable_vertex(g, v) == (v not in untrans)
                for k in (1, 2, 3):
                    for s in itertools.combinations(verts, k):
                        assert is_transvectable_subgraph(g, s) == \
                            brute_transvectable_subgraph(g, s), (g.edges(), s)

    def test_one_domination_pass_per_call(self, counterexample_graph, monkeypatch):
        g = counterexample_graph
        calls = []

        def counted(h):
            calls.append(h)
            return _dominators(h)

        monkeypatch.setattr(raagme.combinatorics, "_dominators", counted)
        for predicate in (all_untransvectable_strongly, untransvectable_vertices,
                          cv_classification, lambda h: is_strongly_untransvectable(h, "v0")):
            calls.clear()
            predicate(g)
            assert calls == [g]

    def test_one_domination_pass_per_graph_in_classify(self, c5, counterexample_graph,
                                                         monkeypatch):
        # invariant_report: has_finite_out, the untransvectable ball and one
        # CV classification; decide_me: has_finite_out on G, one CV
        # classification on the reduced H
        g = counterexample_graph
        assert clique_reduce(raag(g)).graph == g
        calls = []

        def counted(h):
            calls.append(h)
            return _dominators(h)

        monkeypatch.setattr(raagme.combinatorics, "_dominators", counted)
        invariant_report(raag(g), ball_bound=0)
        assert calls == [g, g, g]
        for h, verdict in ((g, "not_equivalent"),
                           (star_gluing_kernel(c5, "v1", 2), "equivalent")):
            calls.clear()
            assert decide_me(c5, raag(h)).verdict == verdict
            assert calls == [c5, h]

    def test_classification_fields_match_predicates(self, atlas7):
        for n in range(1, 8):
            for g in atlas7[n]:
                cv = cv_classification(g)
                untrans = brute_untransvectable(g)
                assert list(cv.untransvectable) == untrans
                assert cv.all_untransvectable_strongly == all(
                    is_strongly_untransvectable(g, v) for v in untrans)
                assert cv.nonabelian_untransvectable_class == any(
                    len(cls) >= 2 and full_subgraph(g, cls).n_edges == 0
                    for cls in cv.untransvectable_classes)


class TestOutInventory:
    def test_c5(self, c5):
        inv = out_inventory(c5)
        assert inv.transvections == ()
        assert inv.partial_conjugation_sites == ()
        assert inv.out_finite
        assert inv.graph_automorphism_count == 10

    def test_path(self, p3):
        inv = out_inventory(p3)
        assert ("a", "c") in inv.transvections and ("c", "a") in inv.transvections
        # removing st(b) leaves nothing, removing st(a) leaves one component:
        # the path has no partial-conjugation site
        assert inv.partial_conjugation_sites == ()
        assert not inv.out_finite

    def test_star_cut_sites(self):
        g = path_graph(["a", "b", "c", "d", "e"])
        inv = out_inventory(g)
        assert ("c", frozenset({"a"})) in inv.partial_conjugation_sites
        assert ("c", frozenset({"e"})) in inv.partial_conjugation_sites

    def test_single_vertex(self):
        inv = out_inventory(SimpleGraph(["v"]))
        assert inv.transvections == () and inv.partial_conjugation_sites == ()
        assert inv.graph_automorphism_count == 1

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            out_inventory(SimpleGraph([]))

    def test_matches_bruteforce(self, atlas7):
        for n in range(1, 8):
            for g in atlas7[n]:
                inv = out_inventory(g)
                assert list(inv.transvections) == brute_transvections(g)
                assert list(inv.partial_conjugation_sites) == brute_pc_sites(g)
                assert inv.out_finite == has_finite_out(g)
                assert is_transvection_free(g) == (not inv.transvections)

    def test_transvections_match_cv_order(self, atlas6):
        for g in atlas6[5]:
            cv = cv_classification(g)
            pairs = {(v, w) for v in g.vertices for w in cv.leq[v] if w != v}
            assert set(out_inventory(g).transvections) == pairs


class TestCollapsibility:
    def test_examples(self, p3, c5):
        tri = complete_graph(["a", "b", "c"])
        assert is_collapsible(tri, {"a", "b"})
        assert not is_collapsible(p3, {"a", "b"})
        # outside stars of v1 and v3 in C5 differ
        assert not is_collapsible(c5, {"v1", "v3"})

    def test_equivalence_report(self, p3):
        tri = complete_graph(["a", "b", "c"])
        rep = check_collapsibility_equivalence(tri, {"a", "b"})
        assert rep.by_definition and rep.by_closure and rep.witness is None
        rep = check_collapsibility_equivalence(p3, {"a", "b"})
        assert not rep.by_definition and not rep.by_closure
        # the vertex of {a,b} whose link escapes the closure is b
        assert rep.witness == frozenset({"b"})

    def test_equivalence_everywhere_small(self, atlas6):
        for g in atlas6[4]:
            verts = g.sorted_vertices()
            for k in range(1, len(verts) + 1):
                for s in itertools.combinations(verts, k):
                    assert check_collapsibility_equivalence(g, frozenset(s)).agree


class TestStrongUntransvectability:
    def test_transvection_free_always_strong(self, c5):
        assert is_transvection_free(c5)
        for v in c5.sorted_vertices():
            assert is_strongly_untransvectable(c5, v)

    def test_empty_link_vacuous(self):
        # an isolated vertex with any companion is dominated by it, so the
        # empty-link branch is only reachable on the one-vertex graph
        g = SimpleGraph(["z"])
        assert untransvectable_vertices(g) == ["z"]
        assert is_strongly_untransvectable(g, "z")
        h = SimpleGraph(["a", "b", "c", "z"], [("a", "b"), ("b", "c")])
        assert is_transvectable_vertex(h, "z")
        with pytest.raises(DomainError):
            is_strongly_untransvectable(h, "z")

    def test_counterexample_cone_vertex(self, counterexample_graph):
        g = counterexample_graph
        assert untransvectable_vertices(g) == ["v0", "v2", "v3", "v4", "v5"]
        assert not is_strongly_untransvectable(g, "v0")
        for v in ["v2", "v3", "v4", "v5"]:
            assert is_strongly_untransvectable(g, v)
        assert not all_untransvectable_strongly(g)

    def test_transvectable_vertex_rejected(self, p3):
        assert is_transvectable_vertex(p3, "a")
        with pytest.raises(DomainError):
            is_strongly_untransvectable(p3, "a")

    def test_transvection_free_implies_all_strong_upto7(self, atlas7):
        for n in range(1, 8):
            for g in atlas7[n]:
                if is_transvection_free(g):
                    assert all(is_strongly_untransvectable(g, v)
                               for v in g.sorted_vertices())


class TestGroupLevelInvariants:
    def test_nonabelian_class_examples(self, c5, f3_graph):
        assert has_untransvectable_nonabelian_class(f3_graph)
        assert not has_untransvectable_nonabelian_class(c5)
        assert not has_untransvectable_nonabelian_class(complete_graph(["a", "b", "c"]))

    def test_empty_graph(self):
        with pytest.raises(InputError):
            has_untransvectable_nonabelian_class(SimpleGraph([]))
        assert all_untransvectable_strongly(SimpleGraph([]))

    def test_free_products(self, p3, c5):
        g = SimpleGraph(["a", "b", "c", "d", "e"],
                        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")])
        assert is_free_product_of_free_abelians(g)
        assert not is_free_product_of_free_abelians(p3)
        assert not is_free_product_of_free_abelians(c5)

    def test_flagged_classes_are_collapsible_free_untransvectable(self, atlas6):
        # every untransvectable non-abelian class is collapsible, spans an
        # edgeless subgraph with >= 2 vertices, and is untransvectable
        for g in atlas6[5] + atlas6[6][::7]:
            cv = cv_classification(g)
            for cls in cv.untransvectable_classes:
                if cv.class_kind[cls] != "non-abelian":
                    continue
                assert len(cls) >= 2
                assert is_collapsible(g, cls)
                assert full_subgraph(g, cls).n_edges == 0
                assert not is_transvectable_subgraph(g, cls)

    def test_abelian_classes_are_what_clique_reduce_merges(self, atlas6):
        for g in atlas6[5]:
            cv = cv_classification(g)
            abelian = {cls for cls in cv.classes
                       if cv.class_kind[cls] == "abelian"}
            merged = set()
            reduced = clique_reduce(raag(g))
            for v in reduced.graph.sorted_vertices():
                if reduced.rank(v) >= 2:
                    members = frozenset(
                        x for x in g.vertices
                        if (g.neighbors(x) | {x}) == (g.neighbors(v) | {v}))
                    merged.add(members)
            assert abelian == merged
