import pytest

from helpers import all_merge_results

from raagme.errors import InputError
from raagme.graphs import SimpleGraph, cycle_graph
from raagme.isomorphism import find_isomorphism
from raagme.presentation import GraphProductPresentation, clique_reduce, expand_to_raag, raag


def seven_vertex_c5_variant():
    """C5 with v1 blown up into a triangle joined to v2 and v5."""
    return SimpleGraph(
        ["t1", "t2", "t3", "v2", "v3", "v4", "v5"],
        [("t1", "t2"), ("t1", "t3"), ("t2", "t3"),
         ("t1", "v2"), ("t2", "v2"), ("t3", "v2"),
         ("t1", "v5"), ("t2", "v5"), ("t3", "v5"),
         ("v2", "v3"), ("v3", "v4"), ("v4", "v5")])


def colored_iso(p, q):
    return find_isomorphism(p.graph, q.graph, p.ranks, q.ranks)


def test_rank_validation():
    g = SimpleGraph(["a"])
    with pytest.raises(InputError):
        GraphProductPresentation(g, {"a": 0})
    # bool is an int subclass; True would be written out as "rank": true
    with pytest.raises(InputError):
        GraphProductPresentation(g, {"a": True})
    with pytest.raises(InputError):
        GraphProductPresentation(g, {"a": 1, "b": 1})
    with pytest.raises(InputError):
        GraphProductPresentation(g, {})
    with pytest.raises(InputError):
        GraphProductPresentation(g, {"a": 1 << 20})


def test_merged_rank_overflow_rejected():
    edge = SimpleGraph(["a", "b"], [("a", "b")])
    p = GraphProductPresentation(edge, {"a": 40000, "b": 40000})
    with pytest.raises(InputError, match="exceeds"):
        clique_reduce(p)


def test_reduce_single_edge():
    p = raag(SimpleGraph(["a", "b"], [("a", "b")]))
    q = clique_reduce(p)
    assert q.graph.sorted_vertices() == ["a"]
    assert q.rank("a") == 2


def test_reduce_c5_unchanged(c5):
    q = clique_reduce(raag(c5))
    assert q.graph == c5 and q.is_unit_rank()


def test_reduce_blown_up_c5(c5):
    # the triangle vertices share closed stars (oracle: pairwise collapsibility)
    from raagme.combinatorics import is_collapsible
    g = seven_vertex_c5_variant()
    assert is_collapsible(g, {"t1", "t2", "t3"})
    q = clique_reduce(raag(g))
    assert q.graph.n_vertices == 5
    expected = GraphProductPresentation(
        cycle_graph(["v1", "v2", "v3", "v4", "v5"]),
        {"v1": 3, "v2": 1, "v3": 1, "v4": 1, "v5": 1})
    assert colored_iso(q, expected) is not None


def test_reduce_idempotent_on_atlas(atlas6):
    for n in (3, 4, 5):
        for g in atlas6[n]:
            q = clique_reduce(raag(g))
            assert clique_reduce(q) == q


def test_reduced_has_no_collapsible_clique(atlas6):
    from raagme.combinatorics import is_collapsible
    from itertools import combinations
    for g in atlas6[5]:
        q = clique_reduce(raag(g)).graph
        verts = q.sorted_vertices()
        for x, y in combinations(verts, 2):
            if q.has_edge(x, y):
                assert not is_collapsible(q, {x, y})


def test_merge_order_irrelevant(atlas6):
    # collapsing mergeable pairs in any order reaches the canonical quotient
    for n in (2, 3, 4, 5):
        for g in atlas6[n]:
            p = raag(g)
            q = clique_reduce(p)
            for graph, ranks in all_merge_results(g, p.ranks):
                r = GraphProductPresentation(graph, ranks)
                assert colored_iso(r, q) is not None


def test_expand_single_vertex_rank3():
    p = GraphProductPresentation(SimpleGraph(["a"]), {"a": 3})
    g = expand_to_raag(p)
    assert g.n_vertices == 3 and g.n_edges == 3


def test_expand_unit_rank_is_identity(c5):
    assert expand_to_raag(raag(c5)) == c5


def test_expand_blown_up_example(c5):
    p = GraphProductPresentation(c5, {"v1": 3, "v2": 1, "v3": 1, "v4": 1, "v5": 1})
    g = expand_to_raag(p)
    assert find_isomorphism(g, seven_vertex_c5_variant()) is not None


def test_expansion_label_collision_escalates():
    p = GraphProductPresentation(SimpleGraph(["a", "a#1"]), {"a": 2, "a#1": 1})
    g = expand_to_raag(p)
    assert g.n_vertices == 3


def test_expansion_labels_avoid_issued_ones():
    # a's first label a#1 is taken, so it issues a##1, which is also a#'s
    # first choice: labels issued earlier count as taken
    p = GraphProductPresentation(SimpleGraph(["a", "a#", "a#1"], [("a", "a#")]),
                                 {"a": 2, "a#": 2, "a#1": 1})
    g = expand_to_raag(p)
    assert g.sorted_vertices() == ["a###1", "a##1", "a##2", "a#1", "a#2"]
    assert g.n_edges == 6


def test_round_trip_small(atlas6):
    import itertools
    for g in atlas6[4]:
        verts = g.sorted_vertices()
        for rank_vec in itertools.product((1, 2, 3), repeat=len(verts)):
            p = GraphProductPresentation(g, dict(zip(verts, rank_vec)))
            back = clique_reduce(raag(expand_to_raag(p)))
            assert colored_iso(back, clique_reduce(p)) is not None
