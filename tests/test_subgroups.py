import itertools

import networkx as nx
import pytest

from helpers import prism, star_gluing_by_labels, unpruned_gluing_search
from raagme.errors import DomainError, InputError
from raagme.graphs import SimpleGraph, star
from raagme.combinatorics import has_finite_out
import raagme.isomorphism
import raagme.subgroups
from raagme.isomorphism import (canonical_form, canonical_form_indexed, find_isomorphism,
                                indexed_graph)
from raagme.subgroups import (FiniteIndexWitness, GluingClass, enumerate_findex_graphs,
                              gluing_classes, star_gluing_kernel)


def finite_out_graphs(atlas, max_n):
    return [g for n in range(1, max_n + 1) for g in atlas[n] if has_finite_out(g)]


def same_pair(a, b):
    """Two indexed pairs are equal up to the order of each adjacency row."""
    return a[0] == b[0] and [sorted(r) for r in a[1]] == [sorted(r) for r in b[1]]


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    return h


class TestStarGluing:
    def test_c5_double(self, c5):
        d = star_gluing_kernel(c5, "v1", 2)
        assert d.n_vertices == 2 * 5 - 1 * 3 == 7
        assert d.n_edges == 8
        shared = {"v5", "v1", "v2"}
        assert shared <= d.vertices
        # two copies of the v2--v3--v4--v5 path hang off the shared star
        assert {"v3", "v4", "c2.v3", "c2.v4"} <= d.vertices
        assert d.has_edge("v2", "c2.v3") and d.has_edge("c2.v4", "v5")
        assert not d.has_edge("v3", "c2.v3")

    def test_gluing_along_whole_graph_is_identity(self):
        e = SimpleGraph(["a", "b"], [("a", "b")])
        assert star_gluing_kernel(e, "a", 3) == e

    def test_f2_nielsen_schreier(self, f2_graph):
        d = star_gluing_kernel(f2_graph, "a", 2)
        assert d.sorted_vertices() == ["a", "b", "c2.b"]
        assert d.n_edges == 0

    def test_vertex_count_formula(self, atlas6):
        for g in atlas6[4][::2] + atlas6[5][::5]:
            for v in g.sorted_vertices():
                for k in (2, 3):
                    got = star_gluing_kernel(g, v, k)
                    assert got.n_vertices == k * g.n_vertices - (k - 1) * len(star(g, v))

    def test_gluings_compose(self, c5):
        d = star_gluing_kernel(star_gluing_kernel(c5, "v1", 2), "v1", 3)
        assert d.sorted_vertices() == [
            "c2..v3", "c2..v4", "c2.c2.v3", "c2.c2.v4", "c2.v3", "c2.v4",
            "c3.c2.v3", "c3.c2.v4", "c3.v3", "c3.v4", "v1", "v2", "v3", "v4", "v5"]
        assert d.n_vertices == 3 * 7 - 2 * 3
        assert d.has_edge("v2", "c2..v3") and d.has_edge("c2.c2.v4", "v5")
        assert d.has_edge("c3.c2.v3", "c3.c2.v4") and not d.has_edge("c2.v4", "c2..v3")

    def test_labels_avoid_earlier_issued_labels(self):
        # ".a" takes "c2..a" first (sorted order), so "a", whose plain copy
        # label is a vertex, escalates past it
        g = SimpleGraph([".a", "a", "c2.a", "h"], [])
        d = star_gluing_kernel(g, "h", 2)
        assert d.sorted_vertices() == [
            ".a", "a", "c2...a", "c2..a", "c2.a", "c2.c2.a", "h"]

    def test_front_end_matches_labelled_gluing(self, atlas6):
        for n in range(1, 7):
            for g in atlas6[n]:
                for v in g.sorted_vertices():
                    for k in (2, 3, 4):
                        assert star_gluing_kernel(g, v, k) == star_gluing_by_labels(g, v, k)

    def test_bad_input(self, c5):
        with pytest.raises(InputError):
            star_gluing_kernel(c5, "v1", 1)
        with pytest.raises(InputError):
            star_gluing_kernel(c5, "zz", 2)


class TestEnumeration:
    def test_c5_within_seven(self, c5):
        res = enumerate_findex_graphs(c5, 7, 1)
        assert [(w.index, w.graph.n_vertices) for w in res.witnesses] == [(1, 5), (2, 7)]
        # C5 is vertex-transitive, so one isomorphism class at index 2
        assert res.truncated  # the index-2 graphs admit unexplored children

    def test_c5_budget_five(self, c5):
        res = enumerate_findex_graphs(c5, 5, 1)
        assert [(w.index, w.graph.n_vertices) for w in res.witnesses] == [(1, 5)]
        assert not res.truncated

    def test_zero_steps(self, c5):
        res = enumerate_findex_graphs(c5, 5, 0)
        assert len(res.witnesses) == 1 and res.witnesses[0].index == 1
        assert res.witnesses[0].graph == c5

    def test_replay(self, c5):
        res = enumerate_findex_graphs(c5, 9, 2)
        for w in res.witnesses:
            assert w.replay(c5) == w.graph
            index = 1
            for _, k in w.chain:
                index *= k
            assert index == w.index

    def test_c5_default_budget(self, c5):
        res = enumerate_findex_graphs(c5, 16, 2)
        assert len(res.witnesses) == 12 and res.truncated
        assert max(w.graph.n_vertices for w in res.witnesses) == 16
        for w in res.witnesses:
            assert w.replay(c5) == w.graph

    def test_matches_unpruned_search(self, atlas7):
        # gluing once per automorphism orbit finds the same classes, with
        # the same witnesses in the same order, as gluing at every vertex
        for g, (max_vertices, max_steps) in itertools.product(
                finite_out_graphs(atlas7, 7), ((16, 2), (14, 3), (24, 1))):
            res = enumerate_findex_graphs(g, max_vertices, max_steps)
            expected, truncated = unpruned_gluing_search(g, max_vertices, max_steps)
            assert [(w.chain, w.index, w.graph) for w in res.witnesses] == expected
            assert res.truncated == truncated

    def test_canonical_keys_alone_give_the_same_search(self, atlas7, c5, monkeypatch):
        # with no matching budget every newness test falls back to canonical
        # keys, today's complete test: the same classes, witnesses, order
        # and truncation, on the finite-Out atlas graphs at 24/3 and on C5
        # at 60/3, and the unpruned search agrees on small inputs
        bases = [(g, 24, 3) for g in finite_out_graphs(atlas7, 7)] + [(c5, 60, 3)]
        matched = [enumerate_findex_graphs(*base) for base in bases]
        monkeypatch.setattr(raagme.isomorphism, "MATCH_STEPS", 0)
        assert [enumerate_findex_graphs(*base) for base in bases] == matched
        for g in finite_out_graphs(atlas7, 6):
            res = enumerate_findex_graphs(g, 14, 2)
            expected, truncated = unpruned_gluing_search(g, 14, 2)
            assert [(w.chain, w.index, w.graph) for w in res.witnesses] == expected
            assert res.truncated == truncated

    def test_class_counts_vs_networkx(self, atlas6):
        for g in finite_out_graphs(atlas6, 6):
            res = enumerate_findex_graphs(g, 12, 2)
            classes, _ = unpruned_gluing_search(
                g, 12, 2, lambda a, b: nx.is_isomorphic(to_nx(a), to_nx(b)))
            assert len(res.witnesses) == len(classes)

    def test_negative_bounds_rejected(self, c5, p3):
        # the bounds are checked before finite Out
        for g, bounds in ((c5, (-1, 2)), (c5, (16, -1)), (p3, (-1, 2))):
            with pytest.raises(InputError, match="bounds must be >= 0"):
                enumerate_findex_graphs(g, *bounds)
        # so are bounds that are not integers, bools included, also before finite Out
        for g, bounds in ((c5, (16.5, 2)), (c5, (16, None)), (c5, (16, True)), (p3, ("16", 2))):
            with pytest.raises(InputError, match="enumeration bound must be an integer"):
                enumerate_findex_graphs(g, *bounds)

    def test_infinite_out_rejected(self, p3, f2_graph):
        with pytest.raises(DomainError, match="finite"):
            enumerate_findex_graphs(p3, 10, 1)
        # free groups have transvections, hence infinite Out
        with pytest.raises(DomainError, match="finite"):
            enumerate_findex_graphs(f2_graph, 4, 2)

    def test_gluing_preserves_transvection_freeness(self, atlas6):
        # finite-index subgroups of transvection-free groups stay
        # transvection-free; finite Out itself is NOT preserved: a proper
        # gluing leaves k separated copies of the star complement, so
        # partial conjugations appear at the glued vertex
        from raagme.combinatorics import out_inventory
        for n in (3, 4, 5):
            for g in atlas6[n]:
                if not has_finite_out(g):
                    continue
                for w in enumerate_findex_graphs(g, 8, 1).witnesses:
                    assert not out_inventory(w.graph).transvections

    def test_double_of_c5_has_partial_conjugations(self, c5):
        from raagme.combinatorics import out_inventory
        d = star_gluing_kernel(c5, "v1", 2)
        inv = out_inventory(d)
        assert not inv.transvections
        assert inv.partial_conjugation_sites != ()
        assert not inv.out_finite


@pytest.fixture
def canonizations(monkeypatch):
    """(graph, seeds, form) of every canonization the gluing search makes,
    the graph rebuilt from the indexed pair it canonizes."""
    calls = []

    def recording(indexed, automorphisms=()):
        form = canonical_form_indexed(indexed, automorphisms=automorphisms)
        verts, adj = indexed
        g = SimpleGraph(verts, [(verts[i], verts[j]) for i, nbrs in enumerate(adj)
                                for j in nbrs if i < j])
        calls.append((g, automorphisms, form))
        return form

    monkeypatch.setattr(raagme.subgroups, "canonical_form_indexed", recording)
    return calls


def is_automorphism(g, sigma):
    """sigma lists only the points it moves, permutes V and keeps every edge."""
    full = {v: sigma.get(v, v) for v in g.vertices}
    return (all(x != y for x, y in sigma.items()) and sigma.keys() <= g.vertices
            and set(full.values()) == g.vertices
            and all(g.has_edge(full[u], full[w]) for u, w in g.edges()))


class TestLazyChildren:
    def test_degrees_read_off_the_parent(self, atlas6, c5):
        # every vertex and k = 2..4, on the atlas and on the depth-2 gluings
        # of C5, built as children of children: each child's degrees, index
        # adjacency glued from its parent's, and witness match the labelled
        # gluing of its parent's graph, which every parent's graph matches too
        depth_one = [child for k in (2, 3) for child in GluingClass.base(c5).children("v1", 15)
                     if child.step[1] == k]
        depth_two = [child for cls in depth_one for v in cls.witness.graph.sorted_vertices()
                     for child in cls.children(v, 30)[:2]]
        assert len(depth_two) == 32
        for cls in depth_one + depth_two:
            assert cls.witness.graph == star_gluing_by_labels(cls.parent.witness.graph, *cls.step)
        classes = [GluingClass.base(g) for n in range(1, 7) for g in atlas6[n]] + depth_two
        for cls in classes:
            g = cls.witness.graph
            n = g.n_vertices
            for v in g.sorted_vertices():
                children = cls.children(v, 4 * n)
                ks = [child.step[1] for child in children]
                assert ks[:3] == ([2] if len(star(g, v)) == n else [2, 3, 4])
                for child in children[:3]:
                    k = child.step[1]
                    glued = star_gluing_by_labels(g, v, k)
                    assert child.degrees == glued.degree_sequence()
                    assert same_pair(child.indexed, indexed_graph(glued))
                    assert child.witness == FiniteIndexWitness(
                        cls.chain + ((v, k),), cls.index * k, glued)

    def test_children_build_their_witness_on_demand(self, c5):
        base = GluingClass.base(c5)
        child = base.children("v1", 7)[0]
        assert child._witness is None and child.degrees == (2,) * 5 + (3, 3)
        w = child.witness
        assert (w.chain, w.index) == ((("v1", 2),), 2)
        assert w.graph == star_gluing_kernel(c5, "v1", 2)
        assert child.witness is w

    def test_seeds_are_automorphisms_and_keep_answers(self, atlas7, c5, canonizations):
        # every canonization of the search on the finite-Out atlas graphs
        # at 24/3, on C5 at 60/3 and on the prism at 40/2, with the form of
        # every class it yields taken too, against the same graph canonized
        # without the seeds of its gluing
        for g in finite_out_graphs(atlas7, 7):
            if g.n_vertices > 1:
                for cls in gluing_classes(g, 24, 3):
                    cls.form
        assert sum(1 for cls in gluing_classes(c5, 60, 3) if cls.form) == 334
        assert sum(1 for cls in gluing_classes(prism(), 40, 2) if cls.form) == 133
        assert sum(1 for _, seeds, _ in canonizations if seeds) > 1000
        for g, seeds, form in canonizations:
            assert all(is_automorphism(g, sigma) for sigma in seeds)
            plain = canonical_form(g)
            assert (form.key, form.order, form.group_order(), form.orbit_representatives()) == (
                plain.key, plain.order, plain.group_order(), plain.orbit_representatives())

    def test_c5_search_tree_total(self, c5, canonizations):
        # the canonizer nodes over the 12 canonizations of the 40/2 search,
        # C5 and the 11 classes glued again (the matcher decides newness);
        # without the seeds of the gluings they are 435
        res = enumerate_findex_graphs(c5, 40, 2)
        assert len(res.witnesses) == 62 and len(canonizations) == 12
        assert sum(form._canonizer.nodes for _, _, form in canonizations) == 111
        assert sum(canonical_form(g)._canonizer.nodes for g, _, _ in canonizations) == 435


def gluings_skipped(monkeypatch, g, max_vertices, max_steps):
    """Run the search on g; return its classes' graphs and, for each gluing
    the skip predicate skipped, the glued graph and how many classes came first."""
    skipped = []
    met = []
    predicate = raagme.subgroups._skipped

    def recording(cls, v, k):
        skip = predicate(cls, v, k)
        if skip:
            rule = "orbit" if cls.orbits[cls.step[0]] == v else "commuting"
            skipped.append((star_gluing_by_labels(cls.witness.graph, v, k), len(met), rule))
        return skip

    monkeypatch.setattr(raagme.subgroups, "_skipped", recording)
    for cls in gluing_classes(g, max_vertices, max_steps):
        met.append(cls.witness.graph)
    return met, skipped


def checked_isomorphic(g, h):
    """Whether find_isomorphism maps g onto h by a bijection that maps edges onto edges."""
    iso = find_isomorphism(g, h)
    return (iso is not None and iso.keys() == g.vertices and set(iso.values()) == h.vertices
            and {frozenset((iso[u], iso[w])) for u, w in g.edges()}
            == {frozenset(e) for e in h.edges()})


class TestSkippedGluings:
    def test_skipped_gluings_were_met(self, atlas7, c5, monkeypatch):
        # every gluing the search skips is isomorphic to a class it yielded
        # before the skip, on the finite-Out atlas graphs and on C5.  Each
        # isomorphism is checked edge by edge: networkx's VF2 can run for
        # minutes on some pairs of C5 gluings, depending on the hash seed
        rules = set()
        cases = [(g, *bounds) for g in finite_out_graphs(atlas7, 7)
                 for bounds in ((16, 2), (14, 3), (24, 1))] + [(c5, 40, 2)]
        count = 0
        for g, max_vertices, max_steps in cases:
            met, skipped = gluings_skipped(monkeypatch, g, max_vertices, max_steps)
            for glued, before, rule in skipped:
                assert any(checked_isomorphic(glued, m) for m in met[:before]
                           if m.degree_sequence() == glued.degree_sequence())
                rules.add(rule)
            count += len(skipped)
        assert rules == {"orbit", "commuting"} and count > 100

    def test_match_counts(self, c5, monkeypatch):
        # the two rules leave no match at 40/2; of the 28 left at 60/3, 8
        # tell new classes apart and 20 confirm duplicates among depth-3
        # chains that glue at vertices not adjacent to the earlier ones
        calls = []
        match = raagme.subgroups.match_indexed
        monkeypatch.setattr(raagme.subgroups, "match_indexed",
                            lambda a, b: calls.append(1) or match(a, b))
        for bounds, classes, matches in (((40, 2), 62, 0), ((60, 3), 334, 28)):
            calls.clear()
            assert len(enumerate_findex_graphs(c5, *bounds).witnesses) == classes
            assert len(calls) == matches


def test_witness_serialization(c5):
    w = FiniteIndexWitness((("v1", 2),), 2, star_gluing_kernel(c5, "v1", 2))
    assert w.chain_json() == [{"vertex": "v1", "k": 2}]
