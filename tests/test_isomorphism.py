import itertools
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
from raagme.extension import ball_graph, build_ext_ball, star_swaps
from raagme.graphs import (SimpleGraph, complete_graph, connected_components, cycle_graph,
                           path_graph, star)
import raagme.isomorphism
from raagme.isomorphism import (BUDGET, automorphism_count, canonical_form,
                                canonical_form_indexed, canonical_hash, component_classes,
                                find_isomorphism, indexed_graph, match_indexed)
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


def test_find_isomorphism_tells_degree_sequences_apart_uncanonized(atlas6, monkeypatch):
    # a pair of different degree sequences is answered without a canonical
    # form; the answers over the atlas pairs equal canonical-key equality
    calls = []

    def counted(g, automorphisms=()):
        calls.append(g)
        return canonical_form(g, automorphisms=automorphisms)

    monkeypatch.setattr(raagme.isomorphism, "canonical_form", counted)
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    assert find_isomorphism(c5, path_graph(["a", "b", "c", "d", "e"])) is None
    assert find_isomorphism(c5, path_graph(["a", "b", "c"])) is None
    assert calls == []
    graphs = atlas6[4] + atlas6[5]
    keys = [canonical_form(g).key for g in graphs]
    for (g, kg), (h, kh) in itertools.product(zip(graphs, keys), repeat=2):
        assert (find_isomorphism(g, h) is not None) == (kg == kh)


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


C5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])


def match(g, h):
    """``match_indexed`` on two SimpleGraphs."""
    return match_indexed(indexed_graph(g), indexed_graph(h))


@pytest.mark.parametrize("fn, args, kwargs", [
    (canonical_form, ("x",), {}),
    (canonical_hash, (5,), {}),
    (automorphism_count, (None,), {}),
    (match, (C5, None), {}),
    (find_isomorphism, (C5, "x"), {}),
    (canonical_form, (C5,), {"automorphisms": 5}),
], ids=["canonical_form", "canonical_hash", "automorphism_count", "match_indexed",
        "find_isomorphism", "seeds"])
def test_wrong_argument_types_raise_input_error(fn, args, kwargs):
    with pytest.raises(InputError):
        fn(*args, **kwargs)


def seed_lists(g, rng):
    """No seeds, the twin swaps of g, three random automorphisms of g (as
    maps of moved labels), and the swaps and random ones together."""
    verts = g.sorted_vertices()
    twins = [{a: b, b: a} for a, b in itertools.combinations(verts, 2)
             if g.neighbors(a) - {b} == g.neighbors(b) - {a}]
    gens = canonical_form(g).automorphisms()
    randoms = []
    for _ in range(3 if gens else 0):
        full = {v: v for v in verts}
        for sigma in rng.choices(gens, k=4):
            full = {v: sigma.get(w, w) for v, w in full.items()}
        randoms.append({v: w for v, w in full.items() if v != w})
    return [(), twins, randoms, twins + randoms]


def form_answers(form):
    return (form.key, form.order, form.group_order(), form.orbit_representatives(),
            form.automorphisms())


def test_indexed_entry_agrees_with_canonical_form(atlas6):
    # the indexed pair of indexed_graph, sorted neighbour lists and
    # neighbour sets, as an extension ball holds them, all give the form of
    # canonical_form, seeded alike
    rng = random.Random(29)
    graphs = [SimpleGraph([])] + [g for n in range(1, 7) for g in atlas6[n]]
    for g in graphs:
        verts, adj = indexed_graph(g)
        pairs = [(verts, adj), (verts, [sorted(a) for a in adj]),
                 (verts, tuple(frozenset(a) for a in adj))]
        for seeds in seed_lists(g, rng):
            want = form_answers(canonical_form(g, automorphisms=seeds))
            for indexed in pairs:
                assert form_answers(canonical_form_indexed(indexed, seeds)) == want


def test_indexed_entry_checks_seeds_on_ball_adjacency():
    ball = build_ext_ball(raag(C5), 2, ue=True)
    indexed = (range(ball.n_nodes), ball.adjacency)
    seeds = [*star_swaps(ball), *ball.symmetries]
    assert seeds
    canonical_form_indexed(indexed, seeds)     # every seed is an automorphism
    # a node of the ball swapped with one of another degree
    u = 0
    w = next(w for w in range(ball.n_nodes) if len(ball.adjacency[w]) != len(ball.adjacency[u]))
    for sigma in ({u: w, w: u}, {u: ball.n_nodes, ball.n_nodes: u}, {u: w}):
        with pytest.raises(InputError):
            canonical_form_indexed(indexed, [sigma])
        with pytest.raises(InputError):
            canonical_form_indexed(indexed, [*seeds, sigma])


def test_automorphism_count_small():
    assert automorphism_count(cycle_graph(["v1", "v2", "v3", "v4", "v5"])) == 10
    assert automorphism_count(SimpleGraph(["v"])) == 1
    assert automorphism_count(path_graph(["a", "b", "c"])) == 2


def test_automorphism_count_vs_bruteforce(atlas6):
    for g in atlas6[4] + atlas6[5][::2]:
        assert automorphism_count(g) == brute_automorphism_count(g)


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(g.sorted_vertices())
    G.add_edges_from(g.edges())
    return G


def nx_automorphisms(g):
    """Test-only reference: enumerate every automorphism with networkx."""
    G = to_nx(g)
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
            form = canonical_form(g)
            assert form.orbit_map() == {v: min(o) for v, o in orbit.items()}
            assert list(form.orbit_map()) == g.sorted_vertices()
            assert form.orbit_representatives() == sorted({min(o) for o in orbit.values()})


def test_orbit_representatives_small_cases():
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    assert canonical_form(c5).orbit_representatives() == ["v1"]
    assert canonical_form(path_graph(["a", "b", "c", "d"])).orbit_representatives() == \
        ["a", "b"]
    assert canonical_form(SimpleGraph([])).orbit_representatives() == []
    assert canonical_form(path_graph(["a", "b", "c", "d"])).orbit_map() == {
        "a": "a", "b": "b", "c": "b", "d": "a"}


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


def checked_classes(g, s):
    """component_classes of g - s by vertex index, with every map checked to
    keep edges and neighbours in s, and every swap of two members of a
    class checked by canonical_form; also the components and, per pair of
    them, whether networkx finds an isomorphism that keeps the neighbours
    in s."""
    verts = g.sorted_vertices()
    index = {v: i for i, v in enumerate(verts)}
    adjsets = [frozenset(index[w] for w in g.neighbors(v)) for v in verts]
    sep = frozenset(index[v] for v in s)
    comps = sorted(sorted(index[v] for v in c) for c in connected_components(g, without=s))
    classes = component_classes(adjsets, comps, sep)
    for cls in classes:
        first = cls[0]
        assert first == {v: v for v in first}
        for m in cls:
            for v in first:
                assert adjsets[m[v]] & sep == adjsets[v] & sep
                assert {m[w] for w in adjsets[v] - sep} == adjsets[m[v]] - sep
        for m, n in zip(cls, cls[1:]):
            swap = {verts[m[v]]: verts[n[v]] for v in first}
            swap.update({w: v for v, w in swap.items()})
            canonical_form(g, automorphisms=[swap])    # raises unless an automorphism

    def nx_graph(comp):
        h = nx.Graph()
        h.add_nodes_from((v, {"attach": adjsets[v] & sep}) for v in comp)
        h.add_edges_from((v, w) for v in comp for w in adjsets[v] - sep)
        return h

    graphs = [nx_graph(c) for c in comps]
    iso = {(i, j): GraphMatcher(graphs[i], graphs[j],
                                node_match=lambda x, y: x["attach"] == y["attach"]).is_isomorphic()
           for i in range(len(comps)) for j in range(i + 1, len(comps))}
    return comps, classes, iso


def class_pairs(comps, classes):
    """Pairs (i, j), i < j, of indices of components in one class."""
    where = {}
    for k, cls in enumerate(classes):
        for m in cls:
            where[comps.index(sorted(m.values()))] = k
    return {(i, j) for i in where for j in where if i < j and where[i] == where[j]}


class TestComponentClasses:
    def test_stars_of_atlas_vs_networkx(self, atlas6):
        found = 0
        for n in range(1, 7):
            for g in atlas6[n]:
                for v in g.sorted_vertices():
                    comps, classes, iso = checked_classes(g, star(g, v))
                    assert class_pairs(comps, classes) == {p for p, yes in iso.items() if yes}
                    found += len(classes)
        assert found > 100

    def test_glued_copies_vs_networkx(self):
        # a separator with copies of random pieces glued on, every copy
        # relabelled, some with two edges swapped (degrees kept) or one
        # attachment moved, so that buckets hold pieces that do and do not
        # match
        rng = random.Random(71)
        for trial in range(150):
            sep = [f"s{i}" for i in range(rng.randint(1, 4))]
            edges = [(a, b) for i, a in enumerate(sep) for b in sep[i + 1:] if rng.random() < 0.3]
            verts = list(sep)
            for p in range(rng.randint(1, 3)):
                size = rng.randint(1, 9)
                inner = [(i, j) for i in range(size) for j in range(i + 1, size)
                         if rng.random() < rng.choice((0.2, 0.4, 0.7))]
                attach = [(i, a) for i in range(size) for a in sep if rng.random() < 0.3]
                for copy in range(rng.randint(1, 4)):
                    perm = list(range(size))
                    rng.shuffle(perm)
                    names = [f"p{p}c{copy}x{perm[i]}" for i in range(size)]
                    mine, mine_attach = set(inner), list(attach)
                    if rng.random() < 0.4 and len(inner) > 1:
                        (a, b), (c, d) = rng.sample(inner, 2)
                        swapped = {(min(a, c), max(a, c)), (min(b, d), max(b, d))}
                        if len({a, b, c, d}) == 4 and not swapped & mine:
                            mine = mine - {(a, b), (c, d)} | swapped
                    if rng.random() < 0.15:
                        mine_attach = mine_attach[1:] + [(rng.randrange(size), rng.choice(sep))]
                    verts += names
                    edges += [(names[i], names[j]) for i, j in mine]
                    edges += [(names[i], a) for i, a in set(mine_attach)]
            g = SimpleGraph(verts, set(edges))
            comps, classes, iso = checked_classes(g, sep)
            assert class_pairs(comps, classes) == {p for p, yes in iso.items() if yes}, trial

    def test_random_graphs_with_random_separators_vs_networkx(self):
        rng = random.Random(72)
        for _ in range(200):
            n = rng.randint(2, 16)
            p = rng.choice((0.1, 0.2, 0.35, 0.6))
            verts = [f"v{i:02d}" for i in range(n)]
            g = SimpleGraph(verts, [(verts[i], verts[j]) for i in range(n)
                                    for j in range(i + 1, n) if rng.random() < p])
            sep = rng.sample(verts, rng.randint(0, n - 1))
            comps, classes, iso = checked_classes(g, sep)
            assert class_pairs(comps, classes) == {p for p, yes in iso.items() if yes}

    def test_step_bound_splits_classes(self, monkeypatch):
        # two hexagons joined to one separator vertex: refinement alone
        # cannot split a cycle, so matching them needs individualizations;
        # a search cut off by the bound gives no class, never a wrong one
        import raagme.isomorphism
        verts = ["s"] + [f"{c}{i}" for c in "ab" for i in range(6)]
        edges = [(f"{c}{i}", f"{c}{(i + 1) % 6}") for c in "ab" for i in range(6)]
        edges += [("s", v) for v in verts[1:]]
        g = SimpleGraph(verts, edges)
        comps, classes, iso = checked_classes(g, ["s"])
        assert len(classes) == 1 and iso == {(0, 1): True}
        for steps, found in ((0, 0), (1, 0), (2, 0), (3, 1)):
            monkeypatch.setattr(raagme.isomorphism, "MATCH_STEPS", steps)
            assert len(checked_classes(g, ["s"])[1]) == found

    def test_regular_pieces_that_refinement_cannot_tell_apart(self):
        # K_{3,3} and the triangular prism, both cubic on six vertices and
        # joined to one separator vertex: only the backtrack tells them apart
        k33 = [(f"a{i}", f"a{j}") for i in range(3) for j in range(3, 6)]
        prism_edges = [(f"b{i}", f"b{(i + 1) % 3}") for i in range(3)]
        prism_edges += [(f"b{i + 3}", f"b{(i + 1) % 3 + 3}") for i in range(3)]
        prism_edges += [(f"b{i}", f"b{i + 3}") for i in range(3)]
        verts = ["s"] + [f"{c}{i}" for c in "ab" for i in range(6)]
        g = SimpleGraph(verts, k33 + prism_edges + [("s", v) for v in verts[1:]])
        comps, classes, iso = checked_classes(g, ["s"])
        assert classes == [] and iso == {(0, 1): False}


def assert_isomorphism(g, h, iso):
    """iso is a bijection V(g) -> V(h) that maps the edges of g onto those of h."""
    assert iso.keys() == g.vertices and set(iso.values()) == h.vertices
    assert {frozenset((iso[u], iso[w])) for u, w in g.edges()} == \
        {frozenset(e) for e in h.edges()}


class TestMatchGraphs:
    def test_atlas_pairs_of_one_degree_sequence_vs_networkx(self, atlas6):
        # every ordered pair of n <= 6 atlas graphs with one degree
        # sequence, the second relabelled and shuffled: an isomorphism when
        # networkx finds one, a proof of none otherwise, never the budget
        rng = random.Random(27)
        buckets = {}
        for n in range(1, 7):
            for g in atlas6[n]:
                buckets.setdefault(g.degree_sequence(), []).append(g)
        pairs = found = 0
        for bucket in buckets.values():
            for g, h in itertools.product(bucket, repeat=2):
                verts = h.sorted_vertices()
                names = [f"u{i}" for i in rng.sample(range(len(verts)), len(verts))]
                h = relabel(h, dict(zip(verts, names)))
                iso = match(g, h)
                assert iso is not BUDGET
                if nx.is_isomorphic(to_nx(g), to_nx(h)):
                    assert_isomorphism(g, h, iso)
                    found += 1
                else:
                    assert iso is None
                pairs += 1
        # 208 classes, and 186 ordered pairs of two classes with one degree sequence
        assert (found, pairs - found) == (208, 186)

    def test_different_sizes_and_degrees_are_no(self):
        c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
        assert match(c5, path_graph(["a", "b", "c", "d", "e"])) is None
        assert match(c5, cycle_graph(["a", "b", "c", "d"])) is None
        assert match(SimpleGraph([]), SimpleGraph([])) == {}

    def test_shared_labels_are_kept_apart(self):
        # g and h name different vertices alike; the map is g's onto h's
        g = path_graph(["a", "b", "c"])
        h = path_graph(["b", "a", "c"])
        iso = match(g, h)
        assert iso["b"] == "a"
        assert_isomorphism(g, h, iso)

    def test_step_bound_gives_budget(self, monkeypatch):
        # a 6-cycle and two triangles: refinement alone splits nothing, so
        # the answer needs backtracking, and a cut-off search says so
        hexagon = cycle_graph([f"a{i}" for i in range(6)])
        triangles = SimpleGraph([f"b{i}" for i in range(6)],
                                [("b0", "b1"), ("b1", "b2"), ("b0", "b2"),
                                 ("b3", "b4"), ("b4", "b5"), ("b3", "b5")])
        assert match(hexagon, triangles) is None
        assert_isomorphism(hexagon, hexagon, match(hexagon, hexagon))
        for steps in (0, 1):
            monkeypatch.setattr(raagme.isomorphism, "MATCH_STEPS", steps)
            assert match(hexagon, triangles) is BUDGET
            assert match(hexagon, hexagon) is BUDGET
        # a degree mismatch needs no refinement at all
        assert match(hexagon, path_graph(list("abcdef"))) is None
