import itertools
import random

import pytest

from helpers import (conjugate_handle, generators_commute, normalizes, normalizes_by_products,
                     parabolics_commute, shuffle_oracle_nf, strip_by_restart,
                     strong_untransvectability_oracle)

from raagme.errors import DomainError, InputError
from raagme.graphs import SimpleGraph, cycle_graph, edgeless_graph, path_graph, perp
from raagme.presentation import GraphProductPresentation, expand_to_raag, raag
from raagme.words import (NormalFormWord, _reduce, _strip_to_coset_rep, canonical_parabolic,
                          commutation_adjacency, enumerate_cyclic_handles,
                          multiply_and_normalize, word)


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
            lambda: canonical_parabolic(p, [("a", 1)], {"b"}),
            lambda: normalizes(canonical_parabolic(p, [], {"b"}), [("a", 1)]),
        ]
        for call in calls:
            with pytest.raises(InputError, match="expand_to_raag"):
                call()
        # the rank-1 vertex keeps its contract: non-zero integers only (bool
        # is an int subclass, but True is not an exponent)
        assert word(p, [("b", 2), ("b", -1)]).syllables == (("b", 1),)
        for e in (0, 1.0, (1,), "1", True):
            with pytest.raises(InputError, match="non-zero integer"):
                word(p, [("b", e)])

    def test_rejects_higher_rank_type_vertices(self):
        # a parabolic type on a rank-2 vertex is refused like a syllable on it
        p = GraphProductPresentation(SimpleGraph(["a", "b"], [("a", "b")]),
                                     {"a": 2, "b": 1})
        with pytest.raises(InputError, match="expand_to_raag"):
            canonical_parabolic(p, (), {"a"})
        with pytest.raises(InputError, match="expand_to_raag"):
            enumerate_cyclic_handles(p, {"a"}, {"b"}, 1)
        assert [h.key() for h in enumerate_cyclic_handles(p, {"b"}, {"b"}, 1)] == \
            [((), ("b",))]

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
            assert (w1 * w1.inverse()).is_identity()
            # the inverse is itself a normal form, comparable by syllables
            assert w1.inverse() == word(p, [(v, -e) for v, e in reversed(w1.syllables)])
            assert ((w1 * w2) * w3).syllables == (w1 * (w2 * w3)).syllables


class TestCanonicalParabolic:
    def test_coset_reduction_examples(self):
        h = canonical_parabolic(z2(), [("a", 1)], {"b"})
        assert h.conjugator == ()
        h = canonical_parabolic(f2(), [("a", 1)], {"a"})
        assert h.conjugator == ()
        h = canonical_parabolic(f2(), [("a", 1)], {"b"})
        assert h.conjugator == (("a", 1),)

    def test_unknown_type_vertex(self):
        with pytest.raises(InputError):
            canonical_parabolic(f2(), [], {"zz"})

    def test_idempotent_and_equivariant(self, atlas6):
        rng = random.Random(5)
        for g in atlas6[4][::2]:
            p = raag(g)
            verts = g.sorted_vertices()
            for _ in range(40):
                v = rng.choice(verts)
                conj = random_word(rng, verts, rng.randint(0, 4))
                h = canonical_parabolic(p, conj, {v})
                again = canonical_parabolic(p, h.conjugator, {v})
                assert again == h
                x = word(p, random_word(rng, verts, rng.randint(0, 3)))
                moved = conjugate_handle(h, x)
                direct = canonical_parabolic(
                    p, x * NormalFormWord(p, tuple(h.conjugator)), {v})
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
                    h = canonical_parabolic(p, conj, {v})
                    c_in = word(p, conj)
                    c_out = NormalFormWord(p, h.conjugator)
                    assert (c_in.inverse() * c_out).support() <= members
                    assert c_out.word_length <= c_in.word_length

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
                h1 = canonical_parabolic(p, c1, {v})
                h2 = canonical_parabolic(p, c2, {v})
                same_coset = (c1.inverse() * c2).support() <= members
                assert (h1 == h2) == same_coset


class TestCommutationAndNormalizers:
    def test_commute_examples(self):
        assert parabolics_commute(canonical_parabolic(z2(), [], {"a"}),
                                  canonical_parabolic(z2(), [], {"b"}))
        assert not parabolics_commute(canonical_parabolic(f2(), [], {"a"}),
                                      canonical_parabolic(f2(), [("b", 1)], {"a"}))
        # in C5, v3 is adjacent to v2, so v3<v2>v3^-1 is <v2>, which commutes
        # with <v1>; conjugating by the non-neighbor v4 breaks commutation
        assert parabolics_commute(canonical_parabolic(c5p(), [], {"v1"}),
                                  canonical_parabolic(c5p(), [("v3", 1)], {"v2"}))
        assert not parabolics_commute(canonical_parabolic(c5p(), [], {"v1"}),
                                      canonical_parabolic(c5p(), [("v4", 1)], {"v2"}))

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
                                           {rng.choice(verts)})

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
                    p, word(p, x) * NormalFormWord(p, h1.conjugator), h1.type_vertices)
                types = set(rng.sample(verts, rng.randint(1, 2)))
                members = types | perp(g, types)
                reduced = _reduce(adj, random_word(rng, verts, rng.randint(0, 7)))
                assert _strip_to_coset_rep(adj, reduced, members) == \
                    strip_by_restart(adj, reduced, members)
        assert 0.1 < sum(seen) / len(seen) < 0.9

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
                                        {rng.choice(verts)})
                handles[h.key()] = h
            handles = list(handles.values())
            adjacency = commutation_adjacency(handles)
            for i, h1 in enumerate(handles):
                assert adjacency[i] == {j for j, h2 in enumerate(handles)
                                        if j != i and parabolics_commute(h1, h2)}
        assert commutation_adjacency([]) == []

    def test_commute_requires_cyclic(self):
        h1 = canonical_parabolic(f2(), [], {"a", "b"})
        h2 = canonical_parabolic(f2(), [], {"a"})
        with pytest.raises(InputError):
            parabolics_commute(h1, h2)

    def test_mixed_presentations(self):
        with pytest.raises(InputError):
            parabolics_commute(canonical_parabolic(f2(), [], {"a"}),
                               canonical_parabolic(z2(), [], {"a"}))

    def test_normalizes_examples(self):
        assert normalizes(canonical_parabolic(z2(), [], {"b"}), [("a", 1)])
        assert not normalizes(canonical_parabolic(f2(), [], {"b"}), [("a", 1)])
        # b is central in the path group, so a<b>a^-1 = <b> is normalized by c
        p = raag(path_graph(["a", "b", "c"]))
        assert normalizes(canonical_parabolic(p, [("a", 1)], {"b"}), [("c", 1)])
        # free-group conjugates are only normalized by their own powers
        assert not normalizes(canonical_parabolic(f2(), [("b", 1)], {"a"}), [("b", 2)])
        assert not normalizes(canonical_parabolic(f2(), [("a", 1)], {"b"}), [("b", 1)])

    def test_centralizer_law(self, atlas6):
        # x normalizes a cyclic parabolic iff x commutes with its generator
        # (conjugation cannot invert a generator here)
        rng = random.Random(23)
        for g in atlas6[4][::3]:
            p = raag(g)
            verts = g.sorted_vertices()
            for _ in range(50):
                v = rng.choice(verts)
                h = canonical_parabolic(p, random_word(rng, verts, rng.randint(0, 3)), {v})
                x = word(p, random_word(rng, verts, rng.randint(0, 4)))
                gen = h.generator_word()
                commutes = generators_commute(x, gen)
                inverts = (x * gen * x.inverse() * gen).is_identity()
                assert normalizes(h, x) == (commutes or inverts)
                assert not inverts  # biorderable: conjugation never inverts


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
