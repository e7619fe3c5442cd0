import itertools
import random

import pytest

from helpers import (commutation_adjacency_by_pairs, conjugate_handle, generators_commute,
                     is_identity, leading_letters_by_shuffles, normalizes, normalizes_by_products,
                     parabolics_commute, shuffle_oracle_nf, strip_by_restart,
                     strong_untransvectability_oracle, support)

from raagme.errors import DomainError, InputError
from raagme.extension import build_ext_ball
from raagme.graphs import SimpleGraph, cycle_graph, edgeless_graph, path_graph, perp
from raagme.presentation import GraphProductPresentation, expand_to_raag, raag
from raagme.words import (MAX_HANDLES, NormalFormWord, ParabolicHandle, _canonical_conjugator,
                          _lex_order, _reduce, _right_divisors, _strip_to_coset_rep,
                          canonical_parabolic, commutation_adjacency, enumerate_cyclic_handles,
                          leading_letters, multiply_and_normalize, translate_conjugators, word)


def f2():
    return raag(edgeless_graph(["a", "b"]))


def z2():
    return raag(SimpleGraph(["a", "b"], [("a", "b")]))


def c5p():
    return raag(cycle_graph(["v1", "v2", "v3", "v4", "v5"]))


def random_word(rng, verts, length):
    return [(rng.choice(verts), rng.choice([-2, -1, 1, 2])) for _ in range(length)]


class TestNormalForm:
    def test_commuting_cancellation(self):
        w = multiply_and_normalize(z2(), [("a", 1), ("b", 1)], [("a", -1)])
        assert w.syllables == (("b", 1),)

    def test_free_no_cancellation(self):
        w = multiply_and_normalize(f2(), [("a", 1), ("b", 1)], [("a", -1)])
        assert w.syllables == (("a", 1), ("b", 1), ("a", -1))

    def test_unknown_generator(self):
        with pytest.raises(InputError):
            word(f2(), [("zz", 1)])
        with pytest.raises(InputError):
            word(f2(), [("a", 0)])

    def test_mixed_presentations_rejected(self):
        w1 = word(f2(), [("a", 1)])
        with pytest.raises(InputError):
            multiply_and_normalize(z2(), w1, w1)

    def test_rejects_higher_rank_vertices(self):
        # words are over RAAGs: a syllable on a rank-2 vertex is refused with
        # a pointer to the expansion, whatever its exponent
        p = GraphProductPresentation(SimpleGraph(["a", "b"], [("a", "b")]),
                                     {"a": 2, "b": 1})
        calls = [
            lambda: word(p, [("a", 1)]),
            lambda: word(p, [("a", (1, 2)), ("b", 3), ("a", (-1, -2))]),
            lambda: multiply_and_normalize(p, [("b", 1)], [("a", -1)]),
            lambda: canonical_parabolic(p, [("a", 1)], "b"),
            lambda: normalizes(canonical_parabolic(p, [], "b"), [("a", 1)]),
        ]
        for call in calls:
            with pytest.raises(InputError, match="expand_to_raag"):
                call()
        # the rank-1 vertex keeps its contract: non-zero integers only (bool
        # is an int subclass, but True is not an exponent)
        assert word(p, [("b", 2), ("b", -1)]).syllables == (("b", 1),)
        with pytest.raises(InputError, match="exponent of 'b' must be non-zero"):
            word(p, [("b", 0)])
        for e in (1.0, (1,), "1", True):
            with pytest.raises(InputError, match="exponent of 'b' must be an integer"):
                word(p, [("b", e)])

    def test_rejects_higher_rank_type_vertices(self):
        # a parabolic type on a rank-2 vertex is refused like a syllable on it
        p = GraphProductPresentation(SimpleGraph(["a", "b"], [("a", "b")]),
                                     {"a": 2, "b": 1})
        with pytest.raises(InputError, match="expand_to_raag"):
            canonical_parabolic(p, (), "a")
        with pytest.raises(InputError, match="expand_to_raag"):
            enumerate_cyclic_handles(p, {"a"}, {"b"}, 1)
        with pytest.raises(InputError, match="expand_to_raag"):
            enumerate_cyclic_handles(p, {"b"}, {"a"}, 1)
        with pytest.raises(InputError, match="expand_to_raag"):
            translate_conjugators(canonical_parabolic(p, (), "b"), [((), "a")], 1)
        assert [h.key() for h in enumerate_cyclic_handles(p, {"b"}, {"b"}, 1)] == \
            [((), "b")]

    def test_matches_shuffle_oracle_exhaustive_small(self, atlas6):
        # every word of length <= 3 (all exponents in {-2,-1,1,2} would blow
        # up; unit letters suffice to exercise every shuffle) over every
        # graph on <= 3 vertices
        for n in (2, 3):
            for g in atlas6[n]:
                p = raag(g)
                adj = {v: g.neighbors(v) for v in g.vertices}
                letters = [(v, e) for v in g.sorted_vertices() for e in (1, -1)]
                for length in (1, 2, 3):
                    for syls in itertools.product(letters, repeat=length):
                        got = word(p, syls).syllables
                        assert got == shuffle_oracle_nf(adj, syls)

    def test_matches_shuffle_oracle_sampled(self, atlas6):
        rng = random.Random(2024)
        for n in (3, 4):
            for g in atlas6[n]:
                p = raag(g)
                adj = {v: g.neighbors(v) for v in g.vertices}
                verts = g.sorted_vertices()
                for _ in range(60):
                    syls = random_word(rng, verts, rng.randint(4, 8))
                    assert word(p, syls).syllables == shuffle_oracle_nf(adj, syls)

    def test_inverse_and_associativity_random(self, atlas6):
        rng = random.Random(99)
        graphs = atlas6[3] + atlas6[4]
        for _ in range(400):
            g = rng.choice(graphs)
            p = raag(g)
            verts = g.sorted_vertices()
            w1 = word(p, random_word(rng, verts, rng.randint(0, 6)))
            w2 = word(p, random_word(rng, verts, rng.randint(0, 6)))
            w3 = word(p, random_word(rng, verts, rng.randint(0, 6)))
            assert is_identity(w1 * w1.inverse())
            # the inverse is itself a normal form, comparable by syllables
            assert w1.inverse() == word(p, [(v, -e) for v, e in reversed(w1.syllables)])
            assert ((w1 * w2) * w3).syllables == (w1 * (w2 * w3)).syllables


class TestCanonicalParabolic:
    def test_coset_reduction_examples(self):
        h = canonical_parabolic(z2(), [("a", 1)], "b")
        assert h.conjugator == ()
        h = canonical_parabolic(f2(), [("a", 1)], "a")
        assert h.conjugator == ()
        h = canonical_parabolic(f2(), [("a", 1)], "b")
        assert h.conjugator == (("a", 1),)

    def test_unknown_type_vertex(self):
        with pytest.raises(InputError):
            canonical_parabolic(f2(), [], "zz")

    def test_enumerate_rejects_negative_bound(self):
        # no handle has a conjugator shorter than 0 letters; a negative
        # bound is refused like a negative ball radius, not answered with
        # the standard handles
        p = c5p()
        with pytest.raises(InputError, match=">= 0"):
            enumerate_cyclic_handles(p, {"v1"}, {"v2"}, -1)
        assert [h.key() for h in enumerate_cyclic_handles(p, {"v1"}, {"v2"}, 0)] == \
            [((), "v1")]

    def test_enumerate_stops_past_the_handle_bound(self):
        # C5 has 5,485 handles within conjugator length 4 and 34,145 within
        # 5; the count passes MAX_HANDLES partway through length 5, and the
        # error names the count and the bound whatever the radius asked
        p = c5p()
        letters = p.graph.vertices
        assert MAX_HANDLES == 20_000
        assert len(enumerate_cyclic_handles(p, letters, letters, 4)) == 5485
        for radius in (5, 12, 10 ** 9):
            with pytest.raises(InputError, match=(
                    f"^the extension ball of radius {radius} passes the bound of 20000 nodes: "
                    "20001 handles by conjugator length 5$")):
                enumerate_cyclic_handles(p, letters, letters, radius)

    def test_idempotent_and_equivariant(self, atlas6):
        rng = random.Random(5)
        for g in atlas6[4][::2]:
            p = raag(g)
            verts = g.sorted_vertices()
            for _ in range(40):
                v = rng.choice(verts)
                conj = random_word(rng, verts, rng.randint(0, 4))
                h = canonical_parabolic(p, conj, v)
                again = canonical_parabolic(p, h.conjugator, v)
                assert again == h
                x = word(p, random_word(rng, verts, rng.randint(0, 3)))
                moved = conjugate_handle(h, x)
                direct = canonical_parabolic(
                    p, x * NormalFormWord(p, tuple(h.conjugator)), v)
                assert moved == direct

    def test_canonical_rep_exhaustive_small(self, atlas6):
        # over every 3-vertex graph and every conjugator of length <= 3:
        # the canonical conjugator lies in the same normalizer coset as the
        # input and is no longer than it (it is the coset minimum)
        from raagme.graphs import perp
        for g in atlas6[3]:
            p = raag(g)
            letters = [(v, e) for v in g.sorted_vertices() for e in (1, -1)]
            words = [()]
            for k in (1, 2, 3):
                words.extend(itertools.product(letters, repeat=k))
            for v in g.sorted_vertices():
                members = {v} | perp(g, {v})
                for conj in words:
                    h = canonical_parabolic(p, conj, v)
                    c_in = word(p, conj)
                    c_out = NormalFormWord(p, h.conjugator)
                    assert support(c_in.inverse() * c_out) <= members
                    assert h.length <= sum(abs(e) for _, e in c_in.syllables)

    def test_handle_equality_matches_coset_membership(self, atlas6):
        # two handles are equal iff the conjugators differ by an element of
        # the standard normalizer; checked via normal-form membership
        from raagme.graphs import perp
        rng = random.Random(17)
        for g in atlas6[4][1::2]:
            p = raag(g)
            verts = g.sorted_vertices()
            for _ in range(60):
                v = rng.choice(verts)
                members = {v} | perp(g, {v})
                c1 = word(p, random_word(rng, verts, rng.randint(0, 3)))
                c2 = word(p, random_word(rng, verts, rng.randint(0, 3)))
                h1 = canonical_parabolic(p, c1, v)
                h2 = canonical_parabolic(p, c2, v)
                same_coset = support(c1.inverse() * c2) <= members
                assert (h1 == h2) == same_coset


class TestCommutationAndNormalizers:
    def test_commute_examples(self):
        assert parabolics_commute(canonical_parabolic(z2(), [], "a"),
                                  canonical_parabolic(z2(), [], "b"))
        assert not parabolics_commute(canonical_parabolic(f2(), [], "a"),
                                      canonical_parabolic(f2(), [("b", 1)], "a"))
        # in C5, v3 is adjacent to v2, so v3<v2>v3^-1 is <v2>, which commutes
        # with <v1>; conjugating by the non-neighbor v4 breaks commutation
        assert parabolics_commute(canonical_parabolic(c5p(), [], "v1"),
                                  canonical_parabolic(c5p(), [("v3", 1)], "v2"))
        assert not parabolics_commute(canonical_parabolic(c5p(), [], "v1"),
                                      canonical_parabolic(c5p(), [("v4", 1)], "v2"))

    def test_commute_matches_commutator(self, atlas6):
        # the normalizer test agrees with the four-fold commutator of the
        # generators and with c^-1 x c multiplied out as normal-form words,
        # also over graph products with vertex groups of rank 2 and 3, taken
        # through their expansion to a RAAG; conjugated handles agree with
        # the product path, and the one-pass coset stripping with the
        # restart loop, on reduced words in any shuffle
        rng = random.Random(31)
        seen = []
        for base in atlas6[4][::2] + atlas6[5][::7]:
            ranks = {v: rng.randint(1, 3) for v in base.sorted_vertices()}
            p = raag(expand_to_raag(GraphProductPresentation(base, ranks)))
            g = p.graph
            verts = g.sorted_vertices()
            adj = g.adjacency

            def handle():
                return canonical_parabolic(p, random_word(rng, verts, rng.randint(0, 3)),
                                           rng.choice(verts))

            for _ in range(120):
                h1, h2 = handle(), handle()
                gen = h2.generator_word()
                expected = generators_commute(h1.generator_word(), gen)
                assert parabolics_commute(h1, h2) == expected
                assert normalizes_by_products(h1, gen) == expected
                seen.append(expected)
                x = random_word(rng, verts, rng.randint(0, 5))
                assert normalizes(h1, x) == normalizes_by_products(h1, x)
                assert conjugate_handle(h1, x) == canonical_parabolic(
                    p, word(p, x) * NormalFormWord(p, h1.conjugator), h1.vertex)
                types = set(rng.sample(verts, rng.randint(1, 2)))
                members = types | perp(g, types)
                reduced = _reduce(adj, random_word(rng, verts, rng.randint(0, 7)))
                assert _lex_order(adj, _strip_to_coset_rep(adj, reduced, members)) == \
                    strip_by_restart(adj, reduced, members)
        assert 0.1 < sum(seen) / len(seen) < 0.9

    def test_translate_conjugators_match_canonical_parabolic(self, atlas6):
        # the batch translation agrees with one validated canonical_parabolic
        # per pair, and answers None exactly past the length bound
        rng = random.Random(13)
        seen = []
        for g in atlas6[4] + atlas6[5][::5]:
            p = raag(g)
            verts = g.sorted_vertices()

            def handle():
                return canonical_parabolic(p, random_word(rng, verts, rng.randint(0, 3)),
                                           rng.choice(verts))

            for _ in range(5):
                h = handle()
                pairs = [k.key() for k in (handle() for _ in range(20))]
                bound = rng.randint(0, 4)
                gen = h.generator_word().syllables
                expected = []
                for c, t in pairs:
                    k = canonical_parabolic(p, gen + c, t)
                    expected.append(k.conjugator if k.length <= bound else None)
                assert translate_conjugators(h, pairs, bound) == expected
                seen += [c is None for c in expected]
        assert 0.1 < sum(seen) / len(seen) < 0.9

    def test_leading_letters_match_shuffle_oracle(self, atlas6):
        # the leading letters of a reduced word are the first syllables of
        # its shuffles, with their signs, each listed once; conjugators
        # repeat among the handles, and some are empty
        rng = random.Random(71)
        total = 0
        for n in range(1, 7):
            for g in atlas6[n][::3]:
                p = raag(g)
                verts = g.sorted_vertices()
                words = [word(p, random_word(rng, verts, rng.randint(0, 7))).syllables
                         for _ in range(6)]
                handles = [ParabolicHandle(p, rng.choice(words), rng.choice(verts))
                           for _ in range(10)]
                for h, lead in zip(handles, leading_letters(handles)):
                    assert len(set(lead)) == len(lead)
                    assert set(lead) == leading_letters_by_shuffles(g.adjacency, h.conjugator)
                    total += len(lead)
        assert leading_letters([]) == []
        assert total > 1000

    def test_translates_sharing_no_leading_letter_grow(self, atlas6):
        # the rule a separation check skips by: if c<t> does not commute with
        # h = g<v>, and c shares no leading letter with x^-1 for x = g v g^-1,
        # the translate of c<t> by x is longer than c.  The leading letters
        # of x^-1 are g's, or v^-1 when g is 1
        rng = random.Random(29)
        skipped = kept = 0
        for g in atlas6[6][::3] + atlas6[5]:
            p = raag(g)
            verts = g.sorted_vertices()

            def handle():
                return canonical_parabolic(p, random_word(rng, verts, rng.randint(0, 3)),
                                           rng.choice(verts))

            for _ in range(10):
                h = handle()
                x = h.generator_word()
                inverse_leads = leading_letters_by_shuffles(g.adjacency, x.inverse().syllables)
                assert inverse_leads == (set(leading_letters([h])[0]) if h.conjugator
                                         else {(h.vertex, -1)})
                pairs = [handle() for _ in range(20)]
                for k, lead in zip(pairs, leading_letters(pairs)):
                    if k == h or parabolics_commute(h, k) or not inverse_leads.isdisjoint(lead):
                        kept += 1
                        continue
                    skipped += 1
                    assert canonical_parabolic(p, x.syllables + k.conjugator,
                                               k.vertex).length > k.length
        assert skipped > 8000 and kept > 5000

    def test_right_divisors_are_suffixes_of_shuffles(self, atlas6):
        # a right divisor of a reduced word is a suffix of one of its
        # shuffles, letter by letter; those in G_S are what the link pass
        # lists for the letters S
        rng = random.Random(11)
        seen = 0
        for g in atlas6[4] + atlas6[5][::3]:
            adj, verts = g.adjacency, g.sorted_vertices()
            for _ in range(15):
                w = _reduce(adj, random_word(rng, verts, rng.randint(0, 4)))
                members = set(rng.sample(verts, rng.randint(1, len(verts))))
                start = tuple((v, 1 if e > 0 else -1) for v, e in w for _ in range(abs(e)))
                shuffles, todo = {start}, [start]
                for x in todo:
                    for i in range(len(x) - 1):
                        if x[i + 1][0] in adj[x[i][0]]:
                            y = x[:i] + (x[i + 1], x[i]) + x[i + 2:]
                            if y not in shuffles:
                                shuffles.add(y)
                                todo.append(y)
                expected = {_lex_order(adj, _reduce(adj, x[k:])) for x in shuffles
                            for k in range(len(x) + 1) if all(v in members for v, _ in x[k:])}
                got = _right_divisors(adj, [w], members)
                assert [x for _, x in got] == sorted(expected, key=lambda x: (
                    sum(abs(e) for _, e in x), x))
                seen += len(got)
        assert seen > 500

    def test_commutation_adjacency_matches_pairwise_test(self, atlas6):
        # on any distinct canonical handles, not only on a ball, the pass
        # agrees with the normalizer test on every pair
        rng = random.Random(7)
        for g in atlas6[4] + atlas6[5][::5]:
            p = raag(g)
            verts = g.sorted_vertices()
            handles = {}
            for _ in range(40):
                h = canonical_parabolic(p, random_word(rng, verts, rng.randint(0, 4)),
                                        rng.choice(verts))
                handles[h.key()] = h
            handles = list(handles.values())
            adjacency = commutation_adjacency(handles)
            assert adjacency == commutation_adjacency_by_pairs(handles)
            for i, h1 in enumerate(handles):
                assert adjacency[i] == {j for j, h2 in enumerate(handles)
                                        if j != i and parabolics_commute(h1, h2)}
        assert commutation_adjacency([]) == commutation_adjacency_by_pairs([]) == []

    def test_mixed_presentations(self):
        with pytest.raises(InputError):
            parabolics_commute(canonical_parabolic(f2(), [], "a"),
                               canonical_parabolic(z2(), [], "a"))

    def test_normalizes_examples(self):
        assert normalizes(canonical_parabolic(z2(), [], "b"), [("a", 1)])
        assert not normalizes(canonical_parabolic(f2(), [], "b"), [("a", 1)])
        # b is central in the path group, so a<b>a^-1 = <b> is normalized by c
        p = raag(path_graph(["a", "b", "c"]))
        assert normalizes(canonical_parabolic(p, [("a", 1)], "b"), [("c", 1)])
        # free-group conjugates are only normalized by their own powers
        assert not normalizes(canonical_parabolic(f2(), [("b", 1)], "a"), [("b", 2)])
        assert not normalizes(canonical_parabolic(f2(), [("a", 1)], "b"), [("b", 1)])

    def test_centralizer_law(self, atlas6):
        # x normalizes a cyclic parabolic iff x commutes with its generator
        # (conjugation cannot invert a generator here)
        rng = random.Random(23)
        for g in atlas6[4][::3]:
            p = raag(g)
            verts = g.sorted_vertices()
            for _ in range(50):
                v = rng.choice(verts)
                h = canonical_parabolic(p, random_word(rng, verts, rng.randint(0, 3)), v)
                x = word(p, random_word(rng, verts, rng.randint(0, 4)))
                gen = h.generator_word()
                commutes = generators_commute(x, gen)
                inverts = is_identity(x * gen * x.inverse() * gen)
                assert normalizes(h, x) == (commutes or inverts)
                assert not inverts  # biorderable: conjugation never inverts


class TestWordsCore:
    def test_bounded_strip_matches_restart_loop(self, atlas6):
        # on random reduced words over every graph of the atlas, the strip
        # bounded by b letters is None exactly when the unbounded strip is
        # longer than b, and the unbounded strip otherwise; lex ordered, the
        # unbounded strip is the restart loop's coset representative
        rng = random.Random(47)
        seen_none = seen_kept = 0
        for n in range(1, 7):
            for g in atlas6[n]:
                adj = g.adjacency
                verts = g.sorted_vertices()
                for _ in range(6):
                    types = set(rng.sample(verts, rng.randint(1, min(2, n))))
                    members = types | perp(g, types)
                    reduced = _reduce(adj, random_word(rng, verts, rng.randint(0, 8)))
                    full = _strip_to_coset_rep(adj, reduced, members)
                    expected = strip_by_restart(adj, reduced, members)
                    assert _lex_order(adj, full) == expected
                    length = sum(abs(e) for _, e in full)
                    for bound in range(length + 2):
                        got = _strip_to_coset_rep(adj, reduced, members, bound)
                        core = _canonical_conjugator(adj, reduced, members, bound)
                        if length > bound:
                            assert got is None and core is None
                            seen_none += 1
                        else:
                            assert got == full and core == expected
                            seen_kept += 1
        assert seen_none > 1000 and seen_kept > 1000

    def test_link_candidates_reach_the_core_reduced(self, atlas6, c5, monkeypatch):
        # commutation_adjacency hands g r to the core without reducing it: g
        # is minimal in g G_st(v) and r lies in G_lk(v), so g r is reduced
        import raagme.words
        core = raagme.words._canonical_conjugator
        handed = []

        def recorded_core(adj, reduced, members, length_bound=None):
            handed.append(tuple(reduced))
            return core(adj, reduced, members, length_bound)

        balls = [build_ext_ball(raag(g), 2) for n in range(1, 7) for g in atlas6[n]]
        balls.append(build_ext_ball(raag(c5), 3))
        monkeypatch.setattr(raagme.words, "_canonical_conjugator", recorded_core)
        total = 0
        for b in balls:
            adj = b.presentation.graph.adjacency
            handed.clear()
            assert [frozenset(a) for a in commutation_adjacency(b.nodes)] == list(b.adjacency)
            for gr in handed:
                assert _reduce(adj, gr) == list(gr)
            total += len(handed)
        # C5 at L = 3 alone hands over 12,670 candidates
        assert total > 12670


class TestStrongOracle:
    def test_c5_all_true(self, c5):
        for v in c5.sorted_vertices():
            assert strong_untransvectability_oracle(c5, v, 3)

    def test_counterexample_false(self, counterexample_graph):
        assert not strong_untransvectability_oracle(counterexample_graph, "v0", 2)
        assert strong_untransvectability_oracle(counterexample_graph, "v2", 3)

    def test_transvectable_rejected(self):
        g = SimpleGraph(["a", "b"], [("a", "b")])
        with pytest.raises(DomainError):
            strong_untransvectability_oracle(g, "a", 2)
        with pytest.raises(InputError):
            strong_untransvectability_oracle(g, "zz", 2)

    def test_agrees_with_derived_criterion_small(self, atlas6):
        from raagme.combinatorics import is_strongly_untransvectable, untransvectable_vertices
        for n in (1, 2, 3, 4, 5):
            for g in atlas6[n]:
                for v in untransvectable_vertices(g):
                    assert strong_untransvectability_oracle(g, v, 4) == \
                        is_strongly_untransvectable(g, v)
