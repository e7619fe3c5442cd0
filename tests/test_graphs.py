import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagme.errors import InputError
from raagme.graphs import (SimpleGraph, complete_graph, connected_components, cycle_graph,
                           edgeless_graph, full_subgraph, link, opposite_graph, path_graph,
                           perp, star)


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        SimpleGraph(["a", "a"])
    with pytest.raises(InputError):
        SimpleGraph(["a"], [("a", "a")])
    with pytest.raises(InputError):
        SimpleGraph(["a"], [("a", "b")])
    with pytest.raises(InputError):
        SimpleGraph([""])


def test_duplicate_edges_collapse():
    g = SimpleGraph(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
    assert g.n_edges == 1


def test_full_subgraph_triangle():
    g = complete_graph(["a", "b", "c"])
    h = full_subgraph(g, {"a", "b"})
    assert h.edges() == [("a", "b")]


def test_full_subgraph_empty():
    g = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    assert full_subgraph(g, set()).n_vertices == 0


def test_full_subgraph_c5_nonadjacent():
    g = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    h = full_subgraph(g, {"v1", "v3"})
    assert h.n_vertices == 2 and h.n_edges == 0


def test_full_subgraph_matches_filtered_edges(atlas6):
    # the induced subgraph read off the members' adjacency equals the one
    # built by filtering every edge of g
    for g in atlas6[5] + atlas6[6][::5]:
        verts = g.sorted_vertices()
        for k in range(len(verts) + 1):
            for s in itertools.combinations(verts, k):
                h = full_subgraph(g, s)
                assert h == SimpleGraph(s, [(u, w) for u, w in g.edges() if u in s and w in s])
                assert h.sorted_vertices() == list(s)


def test_full_subgraph_unknown_vertex():
    g = path_graph(["a", "b"])
    with pytest.raises(InputError, match="zz"):
        full_subgraph(g, {"zz"})


def test_link_and_star():
    g = path_graph(["a", "b", "c"])
    assert link(g, "b") == {"a", "c"} and star(g, "b") == {"a", "b", "c"}
    g1 = edgeless_graph(["v"])
    assert (link(g1, "v"), star(g1, "v")) == (frozenset(), {"v"})
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    assert (link(c5, "v1"), star(c5, "v1")) == ({"v2", "v5"}, {"v1", "v2", "v5"})
    with pytest.raises(InputError):
        link(g, "nope")


def test_perp():
    g = path_graph(["a", "b", "c"])
    assert perp(g, {"a", "c"}) == {"b"}
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    assert perp(c5, {"v1"}) == link(c5, "v1") == {"v2", "v5"}
    assert perp(complete_graph(["a", "b", "c"]), {"a", "b"}) == {"c"}


def test_perp_is_intersection_of_links(atlas6):
    from itertools import combinations
    for g in atlas6[4] + atlas6[5]:
        verts = g.sorted_vertices()
        for k in range(1, 4):
            for s in combinations(verts, k):
                s = frozenset(s)
                expected = set(g.vertices) - s
                for v in s:
                    expected &= link(g, v)
                assert perp(g, s) == expected


def test_opposite_graph():
    tri = complete_graph(["a", "b", "c"])
    assert opposite_graph(tri).n_edges == 0
    assert opposite_graph(edgeless_graph(["a", "b", "c"])) == tri
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    # C5 is self-complementary: verified by direct complementation
    assert opposite_graph(c5).edges() == [
        ("v1", "v3"), ("v1", "v4"), ("v2", "v4"), ("v2", "v5"), ("v3", "v5")]


def test_opposite_is_involution(atlas6):
    for n in (3, 5):
        for g in atlas6[n]:
            assert opposite_graph(opposite_graph(g)) == g


def test_connected_components():
    assert connected_components(path_graph(["a", "b", "c"])) == [frozenset({"a", "b", "c"})]
    assert connected_components(edgeless_graph(["a", "b"])) == [
        frozenset({"a"}), frozenset({"b"})]
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    rest = full_subgraph(c5, c5.vertices - {"v1", "v2", "v5"})
    assert connected_components(rest) == [frozenset({"v3", "v4"})]
    assert connected_components(c5, without=star(c5, "v1")) == [frozenset({"v3", "v4"})]
    # a label that is not a vertex removes nothing; a bad collection is an input error
    assert connected_components(c5, without={"zz"}) == [c5.vertices]
    for bad in (3, [["v1"]]):
        with pytest.raises(InputError, match="vertices to remove must be an iterable"):
            connected_components(c5, without=bad)


def assert_without_matches_subgraph(g, s):
    # the components of the full subgraph on the remaining vertices are the oracle
    assert connected_components(g, without=s) == connected_components(
        full_subgraph(g, g.vertices - s))


def test_components_without_matches_full_subgraph(atlas7):
    rng = random.Random(7)
    for graphs in atlas7.values():
        for g in graphs:
            verts = g.sorted_vertices()
            for v in verts:
                assert_without_matches_subgraph(g, star(g, v))
            for _ in range(3):
                assert_without_matches_subgraph(
                    g, frozenset(v for v in verts if rng.random() < 0.4))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_components_without_matches_full_subgraph_random(data):
    n = data.draw(st.integers(0, 30))
    verts = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(verts, 2))
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = SimpleGraph(verts, [e for e, keep in zip(pairs, mask) if keep])
    for v in verts:
        assert_without_matches_subgraph(g, star(g, v))
    removed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert_without_matches_subgraph(g, frozenset(v for v, r in zip(verts, removed) if r))
