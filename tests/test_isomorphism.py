import math
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from helpers import brute_automorphism_count, prism

from raagme.errors import InputError
from raagme.extension import ball_graph, build_ext_ball
from raagme.graphs import SimpleGraph, complete_graph, cycle_graph, path_graph
from raagme.isomorphism import automorphism_count, canonical_form, canonical_hash, find_isomorphism
from raagme.presentation import raag
from raagme.subgroups import star_gluing_kernel


def relabel(g, mapping):
    return SimpleGraph([mapping[v] for v in g.sorted_vertices()],
                       [(mapping[u], mapping[w]) for u, w in g.edges()])


def test_c5_relabelled():
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    other = cycle_graph(["e", "b", "d", "a", "c"])
    iso = find_isomorphism(c5, other)
    assert iso is not None
    for u, w in c5.edges():
        assert other.has_edge(iso[u], iso[w])


def test_c5_vs_path_none():
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    p5 = path_graph(["a", "b", "c", "d", "e"])
    assert find_isomorphism(c5, p5) is None


def test_deterministic_and_symmetric():
    g = SimpleGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    h = relabel(g, {"a": "x3", "b": "x1", "c": "x4", "d": "x2"})
    first = find_isomorphism(g, h)
    assert first == find_isomorphism(g, h)
    back = find_isomorphism(h, g)
    assert back is not None
    assert all(back[w] == u for u, w in first.items())


def test_all_relabelings_agree(atlas6):
    rng = random.Random(7)
    for g in atlas6[5][::3]:
        verts = g.sorted_vertices()
        perm = verts[:]
        rng.shuffle(perm)
        h = relabel(g, dict(zip(verts, perm)))
        assert canonical_form(g).key == canonical_form(h).key


def test_atlas_pairwise_distinct(atlas6):
    keys = [canonical_form(g).key for g in atlas6[5]]
    assert len(set(keys)) == len(keys)


def test_canonical_hash_stable():
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    assert canonical_hash(c5) == canonical_hash(cycle_graph(["a", "b", "c", "d", "e"]))
    assert canonical_hash(c5) != canonical_hash(path_graph(["a", "b", "c", "d", "e"]))


def test_canonical_hash_pinned():
    # the digest format is part of the output: reports and recorded ball
    # fingerprints hold these strings
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    ball = ball_graph(build_ext_ball(raag(c5), 2, ue=True))
    assert ball.n_vertices == 145
    for g, digest in [
            (SimpleGraph([]), "b8e3ecee405b4b61bee01fd988125f77f9498e764b26253fafd352a25acee168"),
            (c5, "e015c5e7530c4c0184742d6ddffffaa02262287c0e18a80a79b6b3effc4013d3"),
            (prism(), "cd8816695ee958d98b625e89f7ff19d91678abdb0d40327bb173d5fcc95c278a"),
            (ball, "bfc6c462b2599d76b3195824c0763443ed708636a2308ced808f553f211ced1e")]:
        assert canonical_hash(g) == digest


def test_automorphism_count_small():
    assert automorphism_count(cycle_graph(["v1", "v2", "v3", "v4", "v5"])) == 10
    assert automorphism_count(SimpleGraph(["v"])) == 1
    assert automorphism_count(path_graph(["a", "b", "c"])) == 2


def test_automorphism_count_vs_bruteforce(atlas6):
    for g in atlas6[4] + atlas6[5][::2]:
        assert automorphism_count(g) == brute_automorphism_count(g)


def nx_automorphisms(g):
    """Test-only reference: enumerate every automorphism with networkx."""
    G = nx.Graph()
    G.add_nodes_from(g.sorted_vertices())
    G.add_edges_from(g.edges())
    return GraphMatcher(G, G).isomorphisms_iter()


def test_automorphism_count_vs_networkx_atlas(atlas7):
    for n in range(1, 8):
        for g in atlas7[n]:
            assert automorphism_count(g) == sum(1 for _ in nx_automorphisms(g))


def test_orbit_representatives_vs_networkx_atlas(atlas6):
    for n in range(1, 7):
        for g in atlas6[n]:
            orbit = {v: {v} for v in g.vertices}
            for sigma in nx_automorphisms(g):
                for v, w in sigma.items():
                    orbit[v].add(w)
            expected = sorted({min(o) for o in orbit.values()})
            assert canonical_form(g).orbit_representatives() == expected


def test_orbit_representatives_small_cases():
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    assert canonical_form(c5).orbit_representatives() == ["v1"]
    assert canonical_form(path_graph(["a", "b", "c", "d"])).orbit_representatives() == \
        ["a", "b"]
    assert canonical_form(SimpleGraph([])).orbit_representatives() == []


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def clique_union(sizes):
    verts, edges = [], []
    for i, k in enumerate(sizes):
        g = complete_graph([f"c{i:02d}.{j:02d}" for j in range(k)])
        verts += g.sorted_vertices()
        edges += g.edges()
    return SimpleGraph(verts, edges)


def test_automorphism_count_clique_unions_upto12():
    # a disjoint union of cliques: permute inside each clique, then permute
    # cliques of equal size
    assert automorphism_count(clique_union((1,) * 12)) == 479001600
    for n in range(1, 13):
        for sizes in partitions(n):
            expected = math.prod(math.factorial(k) for k in sizes)
            expected *= math.prod(math.factorial(m) for m in Counter(sizes).values())
            assert automorphism_count(clique_union(sizes)) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_automorphism_count_relabel_invariant(data):
    n = data.draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = data.draw(st.permutations(range(n)))
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[i], verts[j]) for (i, j), keep in zip(pairs, mask) if keep]
    g = SimpleGraph(verts, edges)
    relabel_map = {verts[i]: f"w{perm[i]}" for i in range(n)}
    assert automorphism_count(g) == automorphism_count(relabel(g, relabel_map))


def test_canonizer_returns_to_branching_node_on_tie():
    # ten copies of C5 glued along a closed star, randomly relabelled: Aut
    # has order 2 * 10!.  A leaf equal to the best one sends the search back
    # to the node where the two paths part, so each recorded automorphism
    # joins two orbits there instead of one being recorded per equal leaf.
    h = star_gluing_kernel(cycle_graph(["v1", "v2", "v3", "v4", "v5"]), "v1", 10)
    for seed in range(5):
        names = [f"x{i:02d}" for i in range(h.n_vertices)]
        random.Random(seed).shuffle(names)
        g = relabel(h, dict(zip(h.sorted_vertices(), names)))
        canonizer = canonical_form(g)._canonizer
        assert canonizer.group_order() == 2 * math.factorial(10)
        assert len(canonizer.automorphisms) < g.n_vertices


class TestKnownAutomorphisms:
    C5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])

    @pytest.mark.parametrize("sigma", [
        [("v1", "v2"), ("v2", "v1")],                 # not a dict
        "v1",
        {"v1": "zz", "zz": "v1"},                     # a non-vertex
        {"v1": ["v2"]},                               # an unhashable image
        {"v1": "v2"},                                 # not a bijection
        {"v1": "v2", "v2": "v3", "v3": "v2"},
        {"v1": "v2", "v2": "v2"},
        {"v1": "v3", "v3": "v1"},                     # breaks the edge v1--v5
    ])
    def test_rejects_non_automorphisms(self, sigma):
        with pytest.raises(InputError):
            canonical_form(self.C5, automorphisms=[sigma])
        # the whole list is checked, not only its first map
        with pytest.raises(InputError):
            canonical_form(self.C5, automorphisms=[{}, sigma])

    def test_empty_graph_checks_its_seeds(self):
        assert canonical_form(SimpleGraph([]), automorphisms=[{}]).key == ()
        with pytest.raises(InputError):
            canonical_form(SimpleGraph([]), automorphisms=[{"a": "a"}])

    def test_identity_and_empty_list_accepted(self):
        plain = canonical_form(self.C5)
        for seeds in ([], [{}], [{v: v for v in self.C5.vertices}]):
            form = canonical_form(self.C5, automorphisms=seeds)
            assert (form.key, form.order, form.group_order()) == (
                plain.key, plain.order, plain.group_order())
            assert form.automorphisms() == plain.automorphisms()

    def test_seeds_recorded_after_twin_swaps(self):
        # K_{2,3}: the twin classes {1, 3, 5} and {2, 4} give three swaps
        g = SimpleGraph(["1", "2", "3", "4", "5"],
                        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("2", "5"), ("4", "5")])
        seed = {"1": "3", "3": "1", "2": "4", "4": "2"}
        form = canonical_form(g, automorphisms=[seed, {"1": "1"}])
        assert form.automorphisms()[:4] == [
            {"1": "3", "3": "1"}, {"3": "5", "5": "3"}, {"2": "4", "4": "2"}, seed]
        assert form.group_order() == 12

    def test_seeds_prune_and_keep_answers(self):
        rotation = {"v1": "v2", "v2": "v3", "v3": "v4", "v4": "v5", "v5": "v1"}
        form = canonical_form(self.C5, automorphisms=[rotation])
        plain = canonical_form(self.C5)
        assert form.automorphisms()[0] == rotation
        assert (form.key, form.order, form.group_order(), form.orbit_representatives()) == (
            plain.key, plain.order, plain.group_order(), plain.orbit_representatives())
        assert form._canonizer.nodes < plain._canonizer.nodes

    def test_recorded_automorphisms_are_label_maps(self):
        form = canonical_form(self.C5)
        maps = form.automorphisms()
        assert maps and form.group_order() == 10
        for sigma in maps:
            assert all(x != y for x, y in sigma.items())
            full = {v: sigma.get(v, v) for v in self.C5.vertices}
            assert all(self.C5.has_edge(full[u], full[w]) for u, w in self.C5.edges())
        assert canonical_form(SimpleGraph([])).automorphisms() == []
