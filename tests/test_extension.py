import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (build_ext_ball_by_pairs, commutation_adjacency_by_pairs,
                     commutator_adjacent, components_by_stack, prism, star_classes_at_every_star,
                     star_separation_by_nodes, star_separation_by_scan, support,
                     translate_index, ue_ball_fingerprint)
from raagme.classify import invariant_report
from raagme.combinatorics import cv_classification, has_finite_out
from raagme.errors import DomainError, InputError
from raagme.formats import load_presentation
from raagme.graphs import SimpleGraph, cycle_graph, opposite_graph
from raagme.isomorphism import canonical_hash, find_isomorphism
from raagme.presentation import GraphProductPresentation, clique_reduce, expand_to_raag, raag
from raagme.extension import (ExtBall, _components, _labels, _star_classes, ball_graph, ball_json,
                              ball_prefix, build_ext_ball, star_complement_connectivity_check,
                              star_separation_check, star_swaps, ue_restriction)
from raagme.words import commutation_adjacency, handle_symmetries

FIXTURES = Path(__file__).parent / "fixtures"


def z2p():
    return raag(SimpleGraph(["a", "b"], [("a", "b")]))


def square_path():
    return SimpleGraph(["v", "w", "b", "a"], [("v", "w"), ("w", "b"), ("b", "a")])


class TestBallConstruction:
    def test_z2_all_radii(self):
        for L in (0, 1, 2, 3):
            b = build_ext_ball(z2p(), L)
            assert (b.n_nodes, b.n_edges) == (2, 1)

    def test_f2_radius_one(self, f2_graph):
        b = build_ext_ball(raag(f2_graph), 1)
        assert (b.n_nodes, b.n_edges) == (6, 0)
        conjugators = sorted(n.conjugator for n in b.nodes)
        assert conjugators == [
            (), (),
            (("a", -1),), (("a", 1),), (("b", -1),), (("b", 1),)]

    def test_c5_radius_zero_is_the_graph(self, c5):
        b = build_ext_ball(raag(c5), 0)
        assert find_isomorphism(ball_graph(b), c5) is not None
        # standard nodes biject with the vertices
        assert sorted(n.vertex for n in b.nodes) == c5.sorted_vertices()
        assert all(n.conjugator == () for n in b.nodes)

    def test_rejects_nonunit_ranks(self):
        p = GraphProductPresentation(SimpleGraph(["a"]), {"a": 2})
        with pytest.raises(InputError, match="RAAG"):
            build_ext_ball(p, 1)
        with pytest.raises(InputError):
            build_ext_ball(z2p(), -1)
        for radius in ("1", 1.5, True, None):
            with pytest.raises(InputError, match="ball radius must be an integer"):
                build_ext_ball(z2p(), radius)

    def test_node_count_monotone(self, c5):
        p = raag(c5)
        sizes = [build_ext_ball(p, L).n_nodes for L in (0, 1, 2)]
        assert sizes[0] <= sizes[1] <= sizes[2]
        assert sizes[0] == 5

    def test_equivariance_into_bigger_ball(self, c5):
        # conjugating the (L-1)-ball by a standard generator lands in the
        # L-ball injectively and preserves edges
        p = raag(c5)
        small = build_ext_ball(p, 1)
        big = build_ext_ball(p, 2)
        for v in c5.sorted_vertices():
            center = big.standard_node(v)
            images = {}
            for n in small.nodes:
                w = big.node_index(n.conjugator, n.vertex)
                t = translate_index(big, center, w)
                assert t is not None
                images[w] = t
            assert len(set(images.values())) == len(images)
            for i, n1 in enumerate(small.nodes):
                for j in range(i + 1, small.n_nodes):
                    wi = big.node_index(n1.conjugator, n1.vertex)
                    wj = big.node_index(small.nodes[j].conjugator, small.nodes[j].vertex)
                    assert (wj in big.adjacency[wi]) == \
                        (images[wj] in big.adjacency[images[wi]])


class TestUeRestriction:
    def test_c5_identity(self, c5):
        b = build_ext_ball(raag(c5), 1)
        assert ue_restriction(b).n_nodes == b.n_nodes

    def test_counterexample_drops_cone_legs(self, counterexample_graph):
        b = build_ext_ball(raag(counterexample_graph), 0)
        ue = ue_restriction(b)
        assert sorted(n.vertex for n in ue.nodes) == ["v0", "v2", "v3", "v4", "v5"]

    def test_z2_edge_presentation_drops_twins(self):
        # over the edge presentation of Z^2 both vertices dominate each
        # other (adjacent twins), so neither is untransvectable; the
        # reduced presentation of Z^2 is a single rank-2 vertex, outside
        # the unit-rank scope of extension balls
        b = build_ext_ball(z2p(), 1)
        assert ue_restriction(b).n_nodes == 0

    def test_single_vertex_identity(self):
        b = build_ext_ball(raag(SimpleGraph(["a"])), 2)
        assert ue_restriction(b).n_nodes == b.n_nodes == 1

    def test_direct_build_matches_restriction(self, atlas6, c5, f3_graph, p3):
        # handles of untransvectable type only, conjugated by every letter,
        # give the full ball cut down to its untransvectable nodes
        # (the atlas graphs in the clique-reduced form invariant_report sees)
        c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
        named = [(c5, 2), (prism(), 2), (c7_complement, 2), (f3_graph, 3), (p3, 3)]
        atlas = [(clique_reduce(raag(g)).graph, 2) for n in range(1, 6) for g in atlas6[n]]
        assert len(atlas) == 52
        for graph, L in named + atlas:
            p = raag(graph)
            assert ball_json(build_ext_ball(p, L, ue=True)) == \
                ball_json(ue_restriction(build_ext_ball(p, L)))
        for graph, L in named:
            direct = build_ext_ball(raag(graph), L, ue=True)
            for k in range(L + 1):
                assert canonical_hash(ball_graph(ball_prefix(direct, k))) == \
                    ue_ball_fingerprint(graph, k)

    def test_standard_flags_match_graph(self, counterexample_graph):
        from raagme.combinatorics import is_transvectable_vertex
        b = build_ext_ball(raag(counterexample_graph), 0)
        for n in b.nodes:
            assert (n.vertex in b.untransvectable) == (not is_transvectable_vertex(
                counterexample_graph, n.vertex))

    def test_ball_build_makes_one_domination_pass(self, counterexample_graph, monkeypatch):
        # every ball classifies its graph when it is built, full or
        # untransvectable, and no later read of a flag classifies it again
        import raagme.combinatorics
        from raagme.combinatorics import _dominators
        calls = []

        def counted(g):
            calls.append(g)
            return _dominators(g)

        monkeypatch.setattr(raagme.combinatorics, "_dominators", counted)
        p = raag(counterexample_graph)
        for ue in (False, True):
            calls.clear()
            b = build_ext_ball(p, 1, ue=ue)
            assert calls == [counterexample_graph]
            doc = ball_json(b)
            ball_json(b)
            assert sum(n["untransvectable"] for n in doc["nodes"]) == ue_restriction(b).n_nodes
            assert calls == [counterexample_graph]

    def test_one_domination_pass_per_ball(self, c5, monkeypatch):
        # the finite-Out check and the untransvectable flags read one CV
        # classification, which the untransvectable ball gets from its build
        # and a restricted ball gets from the ball it is cut out of
        import raagme.combinatorics
        from raagme.combinatorics import _dominators
        calls = []

        def counted(g):
            calls.append(g)
            return _dominators(g)

        monkeypatch.setattr(raagme.combinatorics, "_dominators", counted)
        for ue in (True, False):
            calls.clear()
            b = build_ext_ball(raag(c5), 2, ue=ue)
            i = b.standard_node("v1")
            assert star_complement_connectivity_check(b, i, {i}).interior_connected
            ball_json(ue_restriction(b))
            ball_json(ball_prefix(b, 1))
            assert calls == [c5]
        empty = build_ext_ball(raag(SimpleGraph([])), 2, ue=True)
        assert empty.n_nodes == 0 and empty.untransvectable == frozenset()
        assert ue_restriction(build_ext_ball(raag(SimpleGraph([])), 2)).untransvectable == \
            frozenset()
        assert calls == [c5]

    def test_one_classification_per_ball_family(self, c5, counterexample_graph, f3_graph, p3):
        # a ball cut out of another holds the very classification object of
        # the ball it is cut from, and invariant_report reads its flags off
        # the classification of its untransvectable ball
        for graph in (c5, counterexample_graph, SimpleGraph([])):
            for ue in (False, True):
                b = build_ext_ball(raag(graph), 2, ue=ue)
                assert ue_restriction(b).classification is b.classification
                assert ball_prefix(b, 1).classification is b.classification
                assert ball_prefix(ue_restriction(b), 0).classification is b.classification
        for graph in (c5, counterexample_graph, prism(), f3_graph, p3):
            rep = invariant_report(raag(graph), ball_bound=1)
            rg = clique_reduce(raag(graph)).graph
            cv = build_ext_ball(raag(rg), 1, ue=True).classification
            assert (rep.out_finite, rep.untransvectable, rep.nonabelian_untransvectable_class,
                    rep.all_untransvectable_strongly) == \
                (cv.out_finite, cv.untransvectable, cv.nonabelian_untransvectable_class,
                 cv.all_untransvectable_strongly)


class TestStarSeparation:
    def test_c5_interior_clean(self, c5):
        b = build_ext_ball(raag(c5), 2)
        for v in c5.sorted_vertices():
            rep = star_separation_check(b, b.standard_node(v))
            assert rep.violations == ()
            assert rep.component_count >= 2
            assert rep.entries  # non-vacuous

    def test_f2_translates_in_singletons(self, f2_graph):
        b = build_ext_ball(raag(f2_graph), 2)
        rep = star_separation_check(b, b.standard_node("a"))
        assert rep.violations == ()
        assert all(not e.same_component for e in rep.entries)

    def test_no_translate_enters_the_star(self, c5, counterexample_graph, f2_graph):
        # conjugating by g_v preserves commuting with <g_v>, so a node
        # outside the closed star of v never translates into it
        for graph, L in ((c5, 2), (counterexample_graph, 1), (f2_graph, 2)):
            b = build_ext_ball(raag(graph), L)
            for v in range(b.n_nodes):
                star_v = b.star_of(v)
                for w in range(b.n_nodes):
                    if w not in star_v:
                        assert translate_index(b, v, w) not in star_v

    def test_matches_per_node_oracle(self, c5, counterexample_graph, f2_graph):
        c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
        for graph, L in ((c5, 2), (prism(), 2), (c7_complement, 2),
                         (counterexample_graph, 1), (f2_graph, 2)):
            b = build_ext_ball(raag(graph), L)
            for i in sorted(b.interior()):
                assert star_separation_check(b, i) == star_separation_by_nodes(b, i)

    def test_matches_per_node_oracle_on_cut_and_hand_built_balls(self, c5,
                                                                 counterexample_graph):
        ue = ue_restriction(build_ext_ball(raag(counterexample_graph), 2))
        prefix = ball_prefix(build_ext_ball(raag(c5), 3), 2)
        # a hand-built ball whose L is below its longest conjugator: the
        # translates of length 2 are nodes of it, so the length bound is the
        # longest conjugator, not L
        b2 = build_ext_ball(raag(c5), 2)
        hand = ExtBall(b2.presentation, 1, b2.nodes, b2.adjacency, b2.classification)
        for b in (ue, prefix, hand):
            for i in sorted(b.interior()):
                assert star_separation_check(b, i) == star_separation_by_nodes(b, i)
        # every node, interior or not, of balls with no conjugator (no
        # leading letters) and of a radius-1 prefix of a radius-2 ball
        ue1 = ue_restriction(build_ext_ball(raag(counterexample_graph), 1))
        for b in (build_ext_ball(raag(c5), 0), build_ext_ball(raag(counterexample_graph), 0),
                  ball_prefix(b2, 1), ue1):
            for i in range(b.n_nodes):
                assert star_separation_check(b, i) == star_separation_by_nodes(b, i)
        rep = star_separation_check(hand, hand.standard_node("v1"))
        assert any(hand.nodes[e.translate].length > hand.L for e in rep.entries)

    def test_candidate_lists_match_scan(self, c5):
        # the candidates the ball lists, the short nodes and the longest
        # ones under x^-1's leading letters, give the reports of a scan of
        # every node; every eighth interior node of the c5double radius-3
        # ball (5,779 nodes), every interior node of the other balls
        c5double = load_presentation(FIXTURES / "c5double.json")
        for p in (raag(c5), raag(prism()), c5double):
            for L in (1, 2, 3):
                b = build_ext_ball(p, L)
                interior = sorted(b.interior())
                for i in interior[::8 if b.n_nodes > 2000 else 1]:
                    assert star_separation_check(b, i) == star_separation_by_scan(b, i)
        # a hand-built ball whose nodes are out of length order, at every node
        b2 = build_ext_ball(raag(c5), 2)
        order = list(range(b2.n_nodes))
        random.Random(5).shuffle(order)
        position = {old: new for new, old in enumerate(order)}
        hand = ExtBall(b2.presentation, 2, [b2.nodes[i] for i in order],
                       [[position[j] for j in b2.adjacency[i]] for i in order],
                       b2.classification)
        assert any(x.length > y.length for x, y in zip(hand.nodes, hand.nodes[1:]))
        entries = 0
        for i in range(hand.n_nodes):
            rep = star_separation_check(hand, i)
            assert rep == star_separation_by_scan(hand, i) == star_separation_by_nodes(hand, i)
            entries += len(rep.entries)
        assert entries > 0

    def test_components_match_stack_oracle(self, c5, counterexample_graph):
        # the level-at-a-time search gives the labels and the count of the
        # edge-by-edge one, with every node's star removed, with random
        # parts of stars removed, and with random node sets removed.  From
        # random roots and with a random limit it keeps exactly the
        # components that hold a root and at most limit nodes, in the order
        # of their first roots
        rng = random.Random(3)
        c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
        c5_3 = build_ext_ball(raag(c5), 3)
        b2 = build_ext_ball(raag(c5), 2)
        balls = [b2, c5_3, build_ext_ball(raag(prism()), 2),
                 build_ext_ball(raag(c7_complement), 2),
                 ue_restriction(build_ext_ball(raag(counterexample_graph), 2)),
                 ball_prefix(c5_3, 2),
                 ExtBall(b2.presentation, 1, b2.nodes, b2.adjacency, b2.classification)]
        counts = set()
        for b in balls:
            for i in range(b.n_nodes):
                star_i = sorted(b.star_of(i))
                part = set(rng.sample(star_i, rng.randint(0, len(star_i))))
                share = rng.random()
                scattered = {j for j in range(b.n_nodes) if rng.random() < share}
                for removed in (b.star_of(i), part, scattered):
                    comps = _components(b, removed)
                    label, count = components_by_stack(b, removed)
                    assert (_labels(comps), len(comps)) == (label, count)
                    counts.add(count)
                    rest = [j for j in range(b.n_nodes) if j not in removed]
                    roots = sorted(rng.sample(rest, rng.randint(0, len(rest))))
                    limit = rng.randint(0, len(rest))
                    first = {}
                    for r in roots:
                        first.setdefault(label[r], r)
                    want = [c for c in comps if label[min(c)] in first and len(c) <= limit]
                    want.sort(key=lambda c: first[label[min(c)]])
                    assert _components(b, removed, roots, limit) == want
        assert len(counts) > 20

    def test_only_in_ball_translates_lex_ordered(self, c5, monkeypatch):
        # the length of a translate is tested before its lex order, so a
        # check lex-orders the generator word and the translates that land
        # in the ball, not the others
        import raagme.words
        b = build_ext_ball(raag(c5), 2)
        lex_order = raagme.words._lex_order
        calls = []

        def counted(adj, reduced):
            calls.append(len(reduced))
            return lex_order(adj, reduced)

        monkeypatch.setattr(raagme.words, "_lex_order", counted)
        for i in sorted(b.interior()):
            calls.clear()
            rep = star_separation_check(b, i)
            assert len(calls) == len(rep.entries) + 1
            assert rep.skipped_outside_ball > len(rep.entries)

    def test_strips_only_translates_that_can_land(self, c5, monkeypatch):
        # a node of the longest conjugator length sharing no leading letter
        # with the inverse of the centre's generator is counted outside the
        # ball without a strip: one round of the interior checks of the
        # three radius-2 balls strips 2,880 translates (12,828 with a strip
        # for every node outside the star), of which 864 land; the C5
        # radius-3 ball strips 35,020 (126,830), of which 2,220 land
        import raagme.words
        c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
        radius_2 = [build_ext_ball(raag(g), 2) for g in (c5, prism(), c7_complement)]
        radius_3 = build_ext_ball(load_presentation(FIXTURES / "c5.json"), 3)
        strip = raagme.words._strip_to_coset_rep
        calls = []

        def counted(adj, reduced, members, length_bound=None):
            calls.append(length_bound)
            return strip(adj, reduced, members, length_bound)

        monkeypatch.setattr(raagme.words, "_strip_to_coset_rep", counted)
        for balls, strips, landed, skipped in ((radius_2, 2880, 864, 11964),
                                               ([radius_3], 35020, 2220, 124610)):
            calls.clear()
            reports = [star_separation_check(b, i) for b in balls for i in sorted(b.interior())]
            assert len(calls) == strips
            assert sum(len(r.entries) for r in reports) == landed
            assert sum(r.skipped_outside_ball for r in reports) == skipped

    def test_z2_vacuous(self):
        b = build_ext_ball(z2p(), 2)
        rep = star_separation_check(b, b.standard_node("a"))
        assert rep.entries == () and rep.component_count == 0

    def test_bad_node(self, c5):
        b = build_ext_ball(raag(c5), 0)
        with pytest.raises(InputError):
            star_separation_check(b, 99)
        for index in ("1", 0.0, True, None):
            with pytest.raises(InputError, match="node index must be an integer"):
                star_separation_check(b, index)
            with pytest.raises(InputError, match="node index must be an integer"):
                star_complement_connectivity_check(b, index, [])
            with pytest.raises(InputError, match="node index must be an integer"):
                star_complement_connectivity_check(b, 0, [0, index])
        for x_indices in (None, 3):
            with pytest.raises(InputError, match="removed node indices must be iterable"):
                star_complement_connectivity_check(b, 0, x_indices)

    def test_cyclic_ambient_rejected(self):
        b = build_ext_ball(raag(SimpleGraph(["a"])), 1)
        with pytest.raises(DomainError):
            star_separation_check(b, 0)


class TestStarComplementConnectivity:
    def test_c5_center_removed(self, c5):
        b = build_ext_ball(raag(c5), 2)
        for v in c5.sorted_vertices():
            i = b.standard_node(v)
            rep = star_complement_connectivity_check(b, i, {i})
            assert rep.interior_connected

    def test_c5_partial_star(self, c5):
        b = build_ext_ball(raag(c5), 2)
        i = b.standard_node("v1")
        x = {i, b.standard_node("v2")}
        assert star_complement_connectivity_check(b, i, x).interior_connected

    def test_link_excluded(self, c5):
        b = build_ext_ball(raag(c5), 1)
        i = b.standard_node("v1")
        with pytest.raises(DomainError, match="link"):
            star_complement_connectivity_check(b, i, set(b.adjacency[i]))

    def test_whole_star_excluded(self, c5):
        b = build_ext_ball(raag(c5), 1)
        i = b.standard_node("v1")
        with pytest.raises(DomainError, match="proper"):
            star_complement_connectivity_check(b, i, b.star_of(i))

    def test_infinite_out_rejected(self, p3):
        b = build_ext_ball(raag(p3), 1)
        i = b.standard_node("b")
        for _ in range(2):
            with pytest.raises(DomainError, match="finite"):
                star_complement_connectivity_check(b, i, {i})

    def test_finite_out_evaluated_once_per_ball(self, c5, monkeypatch):
        import raagme.extension
        calls = []

        def counted(g):
            calls.append(g)
            return cv_classification(g)

        monkeypatch.setattr(raagme.extension, "cv_classification", counted)
        b = build_ext_ball(raag(c5), 2)
        for v in c5.sorted_vertices():
            i = b.standard_node(v)
            assert star_complement_connectivity_check(b, i, {i}).interior_connected
        assert len(calls) == 1


class TestBallInvariants:
    def test_nodes_are_canonical_and_unique(self, c5, counterexample_graph):
        from raagme.words import canonical_parabolic
        for graph, L in ((c5, 2), (counterexample_graph, 1)):
            p = raag(graph)
            b = build_ext_ball(p, L)
            keys = set()
            for i, n in enumerate(b.nodes):
                assert canonical_parabolic(p, n.conjugator, n.vertex) == n  # already canonical
                assert b.node_index(*n.key()) == i
                assert n.length == sum(abs(e) for _, e in n.conjugator) <= L
                keys.add(n.key())
            assert len(keys) == b.n_nodes

    def test_edges_match_membership_oracle(self, c5, counterexample_graph, f2_graph, atlas6):
        # two independent commutation criteria: g<v>g^-1 and h<w>h^-1 commute
        # exactly when the normal form of h^-1 g v g^-1 h is supported in
        # st(w), and exactly when the commutator of the generators is trivial
        from raagme.graphs import star
        from raagme.words import NormalFormWord
        cases = [(c5, 1), (f2_graph, 2), (counterexample_graph, 1), (c5, 2), (prism(), 2)]
        cases += [(g, 1) for n in range(1, 6) for g in atlas6[n]]
        for graph, L in cases:
            p = raag(graph)
            b = build_ext_ball(p, L)
            conjs = [NormalFormWord(p, n.conjugator) for n in b.nodes]
            gens = [c * NormalFormWord(p, ((n.vertex, 1),)) * c.inverse()
                    for c, n in zip(conjs, b.nodes)]
            for i in range(b.n_nodes):
                for j in range(i + 1, b.n_nodes):
                    z = conjs[j].inverse() * gens[i] * conjs[j]
                    expected = support(z) <= star(graph, b.nodes[j].vertex)
                    assert (j in b.adjacency[i]) == expected, (i, j)
                    assert commutator_adjacent(b, i, j) == expected, (i, j)

    def test_matches_all_pairs_oracle(self, atlas6, c5):
        # the adjacent-type pass gives the ball that the normalizer test on
        # every pair of nodes gives
        c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
        cases = [(g, 1, ue) for n in range(1, 7) for g in atlas6[n] for ue in (False, True)]
        cases += [(g, 2, False) for g in (square_path(), c5, prism(), c7_complement)]
        cases += [(square_path(), 2, True), (c5, 3, True)]
        c5double = load_presentation(str(FIXTURES / "c5double.json")).graph
        cases += [(c5double, 2, True)]
        for graph, L, ue in cases:
            p = raag(graph)
            assert ball_json(build_ext_ball(p, L, ue=ue)) == \
                ball_json(build_ext_ball_by_pairs(p, L, ue=ue)), (graph, L, ue)

    def test_matches_adjacent_type_pairs_oracle(self):
        # past the reach of the all-pairs oracle (1,062 nodes, 15,093 edges),
        # the pair test on nodes of adjacent types gives the same edges
        b = build_ext_ball(raag(prism()), 3)
        assert [frozenset(a) for a in commutation_adjacency_by_pairs(b.nodes)] == \
            list(b.adjacency)
        assert (b.n_nodes, b.n_edges) == (1062, 15093)

    def test_edge_through_cancelling_conjugators(self):
        # on the path v-w-b-a, <w> commutes with b<v>b^-1; conjugating by a
        # joins a<w>a^-1 to ab<v>(ab)^-1, whose conjugator is the longer one:
        # the link of ab<v>(ab)^-1 reaches a<w>a^-1 by stripping b, which
        # lies in st(w), off the end of ab
        b = build_ext_ball(raag(square_path()), 2)
        i = b.node_index((("a", 1),), "w")
        j = b.node_index((("a", 1), ("b", 1)), "v")
        assert j in b.adjacency[i]
        assert b.node_index((("b", 1),), "v") in b.adjacency[b.standard_node("w")]

    def test_edges_read_off_links(self, c5, monkeypatch):
        # the radius-2 ball of C5 has 145 nodes, 29 of each type.  With no
        # symmetries the pass reads every node's link: it lists the right
        # divisors once per ordered pair of adjacent types, strips each
        # node's conjugator once per type of its link for its budget
        # (2 x 145 strips) and strips one candidate per listed divisor
        # within that budget.  The ball's 7 symmetries (5 inversions and 2
        # lifts of the rotations and reflections of C5) leave 6 orbits, each
        # with a node of type v1, so the pass reads 6 links and lists the
        # divisors for (v1, v2) and (v1, v5) only
        import raagme.words
        b = build_ext_ball(raag(c5), 2)
        assert (b.n_nodes, len(b.symmetries)) == (145, 7)
        divisors = raagme.words._right_divisors
        strip = raagme.words._strip_to_coset_rep
        listed, strips = [], []

        def counted_divisors(adj, words, members):
            listed.append(sorted(members))
            return divisors(adj, words, members)

        def counted_strip(*args):
            strips.append(args)
            return strip(*args)

        monkeypatch.setattr(raagme.words, "_right_divisors", counted_divisors)
        monkeypatch.setattr(raagme.words, "_strip_to_coset_rep", counted_strip)
        got = []
        for symmetries in ((), b.symmetries):
            listed.clear()
            strips.clear()
            adjacency = commutation_adjacency(b.nodes, symmetries)
            assert [frozenset(a) for a in adjacency] == list(b.adjacency)
            got.append((sorted(listed), len(strips)))
        assert got == [
            (sorted([["v2", "v5"], ["v1", "v3"], ["v2", "v4"], ["v3", "v5"], ["v1", "v4"]] * 2),
             290 + 1210),
            ([["v2", "v5"], ["v2", "v5"]], 12 + 60)]

    def test_link_lookups_lex_order_only_ball_nodes(self, c5, monkeypatch):
        # on the radius-3 ball of C5 (885 nodes) the pass, read with no
        # symmetries, strips 14,440 words outside the right-divisor lists:
        # 1,770 for the budgets (two types in each link), 12,670 link
        # candidates.  The candidates longer than L = 3 (9,840 of them) stop
        # their strip past the bound, answer None and are never lex
        # ordered; the 2,830 candidates that land on a node are, one per
        # edge and end.  With the ball's symmetries (21 orbits) the pass
        # makes 432 strips and 126 lex orders
        import raagme.words
        b = build_ext_ball(raag(c5), 3)
        divisors = raagme.words._right_divisors
        strip, lex_order = raagme.words._strip_to_coset_rep, raagme.words._lex_order
        strips, lex_orders, inside = [], [], []

        def counted_divisors(*args):
            inside.append(True)
            try:
                return divisors(*args)
            finally:
                inside.pop()

        def counted_strip(*args):
            kept = strip(*args)
            strips.append(None if kept is None else sum(abs(e) for _, e in kept))
            return kept

        def counted_lex_order(*args):
            if not inside:
                lex_orders.append(args)
            return lex_order(*args)

        monkeypatch.setattr(raagme.words, "_right_divisors", counted_divisors)
        monkeypatch.setattr(raagme.words, "_strip_to_coset_rep", counted_strip)
        monkeypatch.setattr(raagme.words, "_lex_order", counted_lex_order)
        adjacency = commutation_adjacency(b.nodes)
        assert [frozenset(a) for a in adjacency] == \
            [frozenset(a) for a in commutation_adjacency_by_pairs(b.nodes)]
        n_edges = sum(len(a) for a in adjacency) // 2
        assert (b.n_nodes, n_edges) == (885, 1415)
        assert len(strips) == 14440 and strips.count(None) == 9840
        assert all(n <= 3 for n in strips if n is not None)
        assert len(lex_orders) == 2 * n_edges == len(strips) - 2 * 885 - 9840
        strips.clear()
        lex_orders.clear()
        assert [frozenset(a) for a in commutation_adjacency(b.nodes, b.symmetries)] == \
            list(b.adjacency)
        assert (len(strips), len(lex_orders)) == (432, 126)

    def test_separation_beyond_finite_out(self, counterexample_graph):
        # the star-removal disconnection needs no hypothesis on Out: it
        # holds on the cone-extended 5-cycle, which has transvectable
        # vertices and infinite Out
        b = build_ext_ball(raag(counterexample_graph), 1)
        for v in counterexample_graph.sorted_vertices():
            rep = star_separation_check(b, b.standard_node(v))
            assert rep.violations == ()

    def test_transvection_free_ue_identity_on_prism(self):
        g = prism()
        assert has_finite_out(g)
        b = build_ext_ball(raag(g), 1)
        assert ue_restriction(b).n_nodes == b.n_nodes
        for v in g.sorted_vertices():
            rep = star_separation_check(b, b.standard_node(v))
            assert rep.violations == ()


@pytest.fixture(scope="module")
def symmetry_balls(atlas7, c5, counterexample_graph):
    """The balls the symmetry oracles run on: the finite-Out atlas graphs at
    radius 2, C5, the prism and the C7 complement at radius 3, the
    cone-extended 5-cycle (infinite Out) at radius 2 with its untransvectable
    ball, and C5 with a rank-3 vertex (three twins), expanded, at radius 2."""
    c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
    balls = [build_ext_ball(raag(g), 2) for n in range(1, 8) for g in atlas7[n]
             if has_finite_out(g)]
    balls += [build_ext_ball(raag(g), 3, ue=True) for g in (c5, prism(), c7_complement)]
    balls += [build_ext_ball(raag(counterexample_graph), 2, ue=ue) for ue in (False, True)]
    ranks = load_presentation(str(FIXTURES / "c5ranks.json"))
    balls.append(build_ext_ball(raag(expand_to_raag(ranks)), 2))
    return balls


def is_automorphism(adjacency, sigma):
    """Whether a map of moved points maps each edge at a moved point onto an
    edge, which for a permutation is every edge."""
    return all({sigma.get(j, j) for j in adjacency[i]} == adjacency[k] for i, k in sigma.items())


class TestSymmetries:
    def test_maps_are_automorphisms_of_the_pairs_oracle(self, symmetry_balls):
        # every map permutes the nodes, keeps each conjugator length, maps
        # types by a bijection that keeps the defining graph's edges (the
        # inversions, first, keep every type) and maps the edges of the
        # all-pairs oracle onto its edges
        for b in symmetry_balls:
            pairs = [frozenset(a) for a in commutation_adjacency_by_pairs(b.nodes)]
            assert list(b.adjacency) == pairs
            g = b.presentation.graph
            letters = {u for node in b.nodes for u, _ in node.conjugator}
            for k, sigma in enumerate(b.symmetries):
                assert sigma and all(i != j for i, j in sigma.items())
                assert sorted(sigma) == sorted(sigma.values())
                assert all(0 <= i < b.n_nodes for i in sigma)
                types = {}
                for i, node in enumerate(b.nodes):
                    image = b.nodes[sigma.get(i, i)]
                    assert image.length == node.length
                    assert types.setdefault(node.vertex, image.vertex) == image.vertex
                assert sorted(types.values()) == sorted(types)
                assert all(g.has_edge(types[u], types[w]) for u in types for w in types
                           if g.has_edge(u, w))
                if k < len(letters):
                    assert all(u == w for u, w in types.items())
                assert is_automorphism(pairs, sigma)
            assert len(b.symmetries) >= len(letters)

    def test_carried_classes_match_every_star(self, symmetry_balls):
        # the classes carried along the symmetries are, as sets of node
        # sets, the ones a search at every interior node finds, and every
        # swap is an automorphism of the ball
        def as_sets(classes):
            return sorted(sorted(sorted(m.values()) for m in cls) for cls in classes)

        with_classes = 0
        for b in symmetry_balls:
            oracle = star_classes_at_every_star(b)
            got = dict(_star_classes(b))
            assert list(got) == list(oracle)
            for i, classes in got.items():
                assert as_sets(classes) == as_sets(oracle[i])
                for cls in classes:
                    assert all(m.keys() == cls[0].keys() for m in cls)
                    assert all(cls[0][x] == x for x in cls[0])
                with_classes += bool(classes)
            assert all(is_automorphism(b.adjacency, swap) for swap in star_swaps(b))
        assert with_classes > 1000

    def test_radius_zero_and_cut_balls(self, c5, counterexample_graph):
        # radius 0 gets no maps; ue_restriction and ball_prefix renumber the
        # maps of the ball they cut, and get those of the ball built directly
        for g in (c5, counterexample_graph, prism()):
            p = raag(g)
            assert build_ext_ball(p, 0).symmetries == ()
            b = build_ext_ball(p, 2)
            assert len(b.symmetries) >= g.n_vertices
            assert ue_restriction(b).symmetries == build_ext_ball(p, 2, ue=True).symmetries
            for L in range(3):
                cut = ball_prefix(b, L)
                if L:
                    assert cut.symmetries == build_ext_ball(p, L).symmetries
                assert all(is_automorphism(cut.adjacency, sigma) for sigma in cut.symmetries)
        assert handle_symmetries([]) == []


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ball_relabel_invariant(data):
    # ball sizes and untransvectable-ball fingerprints are properties of the
    # group, so renaming the vertices of the defining graph changes neither
    n = data.draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    perm = data.draw(st.permutations(range(n)))
    g = SimpleGraph([f"x{i}" for i in range(n)], [(f"x{i}", f"x{j}") for i, j in edges])
    h = SimpleGraph([f"y{perm[i]}" for i in range(n)],
                    [(f"y{perm[i]}", f"y{perm[j]}") for i, j in edges])
    bg, bh = build_ext_ball(raag(g), 1), build_ext_ball(raag(h), 1)
    assert (bg.n_nodes, bg.n_edges) == (bh.n_nodes, bh.n_edges)
    for L in (0, 1):
        assert ue_ball_fingerprint(g, L) == ue_ball_fingerprint(h, L)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ball_matches_all_pairs_oracle(data):
    n = data.draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = SimpleGraph([f"x{i}" for i in range(n)],
                    [(f"x{i}", f"x{j}") for (i, j), keep in zip(pairs, mask) if keep])
    L = data.draw(st.integers(0, 2))
    ue = data.draw(st.booleans())
    p = raag(g)
    assert ball_json(build_ext_ball(p, L, ue=ue)) == ball_json(build_ext_ball_by_pairs(p, L, ue=ue))


class TestExport:
    def test_node_index_reads_printed_nodes(self, c5, counterexample_graph):
        # every node of the JSON document, conjugator syllables as printed
        # ([vertex, exponent] lists), is found at its own index
        c5_3 = build_ext_ball(raag(c5), 3)
        for b in (build_ext_ball(raag(c5), 2), c5_3, ball_prefix(c5_3, 1),
                  ue_restriction(build_ext_ball(raag(counterexample_graph), 2))):
            for node in ball_json(b)["nodes"]:
                assert b.node_index(node["conjugator"], node["type"]) == node["id"]
        b = build_ext_ball(raag(c5), 2)
        assert b.node_index([["v3", 1], ["v4", -1]], "v1") == 40
        assert b.node_index((("v3", 1), ("v4", -1)), "v1") == 40
        for bad in ([["v3"]], [["v3", 1, 1]], [3], [None], [[["v3"], 1]], ["v3"], 5, None):
            with pytest.raises(InputError, match="no node"):
                b.node_index(bad, "v1")

    def test_json_document_deterministic(self, f2_graph):
        b = build_ext_ball(raag(f2_graph), 1)
        doc = ball_json(b)
        assert doc["node_count"] == 6 and doc["edge_count"] == 0
        assert doc == ball_json(build_ext_ball(raag(f2_graph), 1))
        assert [n["id"] for n in doc["nodes"]] == list(range(6))
        # the radius-1 ball is a prefix of the radius-2 one
        big = build_ext_ball(raag(f2_graph), 2)
        assert ball_json(ball_prefix(big, 1)) == doc
        with pytest.raises(InputError):
            ball_prefix(big, 3)
        for radius in (0.5, "1", False):
            with pytest.raises(InputError, match="ball radius must be an integer"):
                ball_prefix(big, radius)

    def test_prefix_at_the_own_radius_is_the_ball(self, c5, f2_graph):
        # nothing to cut: the ball itself, equal to a copy cut out of it; a
        # hand-built ball with nodes longer than its L is still cut
        for b in (build_ext_ball(raag(c5), 2, ue=True), build_ext_ball(raag(f2_graph), 0)):
            assert ball_prefix(b, b.L) is b
            copy = ExtBall(b.presentation, b.L, b.nodes, b.adjacency, b.classification)
            assert ball_json(ball_prefix(copy, b.L)) == ball_json(b)
        b2 = build_ext_ball(raag(c5), 2)
        hand = ExtBall(b2.presentation, 1, b2.nodes, b2.adjacency, b2.classification)
        assert ball_json(ball_prefix(hand, 1)) == ball_json(ball_prefix(b2, 1))
