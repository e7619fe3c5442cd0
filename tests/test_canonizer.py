"""The incremental canonizer against the full-round recursive one it replaced.

Both start from the twin transpositions and must search the same tree: same
key and order, the same automorphisms recorded in the same order, the same
path to the best leaf and the same number of nodes, hence the same group
order and orbit representatives.  Without the seeds the full-round search
still finds the same key, order, group order and orbit representatives.
"""

import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (CanonizerByLists, CanonizerByRounds, canonize_with,
                     individualize_keeping_singletons, orbit_representatives_by_rounds, prism,
                     refine_by_rounds, refine_by_whole_cells)

from raagme.combinatorics import has_finite_out
from raagme.extension import ball_graph, ball_prefix, build_ext_ball, star_swaps, ue_restriction
from raagme.formats import load_presentation
from raagme.graphs import SimpleGraph, cycle_graph, edgeless_graph, opposite_graph
from raagme.isomorphism import (_Canonizer, _individualize, _moved_points, _refine, _undo,
                                 automorphism_count, canonical_form, canonical_form_indexed)
from raagme.presentation import GraphProductPresentation, expand_to_raag, raag

FIXTURES = Path(__file__).parent / "fixtures"


class CountingCanonizerByRounds(CanonizerByRounds):
    nodes = 0

    def _search(self, *args):
        self.nodes += 1
        return super()._search(*args)


def indexed(g):
    """The sorted vertices of g and their neighbour lists by vertex index."""
    verts = g.sorted_vertices()
    index = {v: i for i, v in enumerate(verts)}
    return verts, [sorted(index[w] for w in g.neighbors(v)) for v in verts]


def assert_same_search(g):
    form = canonical_form(g)
    new = form._canonizer
    verts, adj = indexed(g)
    if not verts:
        # the canonizer's one leaf, with no automorphism
        assert (form.key, form.order, new.nodes, new.automorphisms) == ((), (), 1, [])
        assert (form.group_order(), form.orbit_representatives()) == (1, [])
        return
    old = CountingCanonizerByRounds(verts, adj)
    _, key, order = old.run()
    assert form.key == key
    assert form.order == tuple(verts[i] for i in order)
    assert new.automorphisms == [{u: w for u, w in enumerate(sigma) if u != w}
                                 for sigma in old.automorphisms]
    assert new.best_prefix == old.best_prefix
    assert new.nodes == old.nodes
    assert new.group_order() == old.group_order()
    assert form.orbit_representatives() == orbit_representatives_by_rounds(old)


def assert_seeds_keep_answers(g, automorphisms=(), plain=None):
    """canonical_form(g, automorphisms) finds the key, order, group order and
    orbit representatives of an unseeded search: the plain form ``plain`` of
    g when given, else the full-round search without the twin swaps."""
    form = canonical_form(g, automorphisms=automorphisms)
    if plain is not None:
        assert (form.key, form.order, form.group_order(), form.orbit_representatives()) == (
            plain.key, plain.order, plain.group_order(), plain.orbit_representatives())
        return
    verts, adj = indexed(g)
    old = CanonizerByRounds(verts, adj, seeded=False)
    _, key, order = old.run()
    assert form.key == key
    assert form.order == tuple(verts[i] for i in order)
    assert form.group_order() == old.group_order()
    assert form.orbit_representatives() == orbit_representatives_by_rounds(old)


def relabel_randomly(g, seed):
    names = [f"x{i:03d}" for i in range(g.n_vertices)]
    random.Random(seed).shuffle(names)
    m = dict(zip(g.sorted_vertices(), names))
    return SimpleGraph(names, [(m[u], m[w]) for u, w in g.edges()])


def ue_ball(g, L):
    return ball_graph(ue_restriction(build_ext_ball(raag(g), L)))


def test_same_search_on_atlas(atlas7):
    for n in range(1, 8):
        for g in atlas7[n]:
            assert_same_search(g)


def test_same_search_on_random_graphs():
    rng = random.Random(62)
    for _ in range(160):
        n = rng.randint(8, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.35, 0.5, 0.8))
        verts = [f"v{i:02d}" for i in range(n)]
        edges = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        assert_same_search(SimpleGraph(verts, edges))


# Two cubic graphs from a wider random search.  On the first, trace entries
# ordered by +label rather than -label pick another best leaf; on the second,
# a child that also keeps the automorphisms moving its new vertex joins
# orbits wrongly and prunes a branch.
SEPARATING_CUBIC_GRAPHS = (
    (12, [(0, 6), (0, 8), (0, 9), (1, 6), (1, 9), (1, 11), (2, 3), (2, 4), (2, 5), (3, 6),
          (3, 9), (4, 5), (4, 7), (5, 10), (7, 8), (7, 11), (8, 10), (10, 11)]),
    (8, [(0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (2, 5), (2, 7), (3, 4), (4, 7),
         (5, 6), (6, 7)]),
)


def test_same_search_on_random_regular_graphs():
    for n, edges in SEPARATING_CUBIC_GRAPHS:
        verts = [f"v{i:02d}" for i in range(n)]
        assert_same_search(SimpleGraph(verts, [(verts[a], verts[b]) for a, b in edges]))
    # pairings of d copies of each vertex, loops and repeated edges dropped
    rng = random.Random(63)
    for _ in range(150):
        n, d = rng.randrange(8, 31, 2), rng.choice((3, 4))
        ends = [i for i in range(n) for _ in range(d)]
        rng.shuffle(ends)
        verts = [f"v{i:02d}" for i in range(n)]
        g = SimpleGraph(verts, {(verts[min(a, b)], verts[max(a, b)])
                                for a, b in zip(ends[::2], ends[1::2]) if a != b})
        assert_same_search(g)


def test_same_search_on_edgeless_graphs_and_matchings():
    assert_same_search(SimpleGraph([]))
    for n in range(1, 31):
        assert_same_search(edgeless_graph([f"v{i:02d}" for i in range(n)]))
    for k in range(1, 16):
        verts = [f"v{i:02d}" for i in range(2 * k + 2)]
        # k edges plus two isolated vertices
        assert_same_search(SimpleGraph(verts, [(verts[2 * i], verts[2 * i + 1])
                                               for i in range(k)]))


def clique_union(sizes, joined=()):
    """Disjoint cliques of the given sizes, the pairs of cliques in joined made adjacent."""
    groups, verts = [], []
    for k in sizes:
        groups.append([f"v{len(verts) + i:02d}" for i in range(k)])
        verts += groups[-1]
    edges = [(a, b) for grp in groups for i, a in enumerate(grp) for b in grp[i + 1:]]
    edges += [(a, b) for i, j in joined for a in groups[i] for b in groups[j]]
    return SimpleGraph(verts, edges)


CLIQUE_UNIONS = (((3, 3, 2), ()), ((4, 4), ()), ((2,) * 5, ()), ((1, 1, 3), ()),
                 ((5, 1), ()), ((3, 2, 2, 1), ((0, 1), (1, 2))),
                 ((2, 2, 2, 2, 2), ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))))


def test_seeds_keep_answers(atlas7):
    # the twin swaps seeded into the search change only its nodes and the
    # automorphisms it records: the unseeded full-round search finds the
    # same answers
    for n in range(1, 8):
        for g in atlas7[n]:
            assert_seeds_keep_answers(g)
    rng = random.Random(64)
    for _ in range(120):
        n = rng.randint(1, 40)
        p = rng.choice((0.05, 0.1, 0.3, 0.5, 0.8, 0.95))
        verts = [f"v{i:02d}" for i in range(n)]
        assert_seeds_keep_answers(SimpleGraph(verts, [
            (verts[i], verts[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]))
    for n in range(1, 21):
        assert_seeds_keep_answers(edgeless_graph([f"v{i:02d}" for i in range(n)]))
    for sizes, joined in CLIQUE_UNIONS:
        g = clique_union(sizes, joined)
        assert_seeds_keep_answers(g)
        assert_same_search(g)


def test_rank_expansion_search_tree_size():
    # C5 with v1 of rank 12: the 12 closed twins are seeded as 11 swaps, so
    # the search makes 25 nodes where the unseeded one makes 91
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    g = expand_to_raag(GraphProductPresentation(c5, {"v1": 12, "v2": 1, "v3": 1, "v4": 1,
                                                     "v5": 1}))
    form = canonical_form(g)
    assert form._canonizer.nodes == 25
    assert len(form._canonizer.automorphisms) == 12
    assert form.group_order() == 2 * math.factorial(12)
    assert_same_search(g)
    assert_seeds_keep_answers(g)


def test_same_search_on_relabelled_ue_balls():
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
    for seed, g in enumerate((c5, prism(), c7_complement)):
        assert_same_search(relabel_randomly(ue_ball(g, 2), seed))


def test_c5_ball_search_tree_size():
    # the radius-2 untransvectable ball of C5 (145 nodes): 504 search nodes,
    # as many as the full-round recursive search makes on it
    form = canonical_form(ue_ball(cycle_graph(["v1", "v2", "v3", "v4", "v5"]), 2))
    assert form._canonizer.nodes == 504


def test_c5_radius_3_ball_search():
    # the radius-3 untransvectable ball of C5: the size of its search tree,
    # the automorphisms recorded, the canonical path, |Aut| and the digest
    g = ue_ball(cycle_graph(["v1", "v2", "v3", "v4", "v5"]), 3)
    form = canonical_form(g)
    c = form._canonizer
    assert g.n_vertices == 885
    assert c.nodes == 14528
    assert len(c.automorphisms) == 177
    assert len(c.best_prefix) == 145
    assert form.group_order() == 478904856520590268236983445984471619880855975682375680
    assert form.hexdigest() == (
        "b18e465385a0ee4be2dded472db4c41c7c6408b0d96364b51c430941a5167a36")


def test_prism_radius_3_ball_search():
    # the radius-3 untransvectable ball of the prism, a dense ball: the size
    # of its search tree, the automorphisms recorded, the canonical path,
    # |Aut| and the digest
    g = ball_graph(build_ext_ball(raag(prism()), 3, ue=True))
    form = canonical_form(g)
    c = form._canonizer
    assert (g.n_vertices, g.n_edges) == (1062, 15093)
    assert c.nodes == 20948
    assert len(c.automorphisms) == 213
    assert len(c.best_prefix) == 174
    assert form.group_order() == (
        19746054687854472505859630190688206059792830387602958360183308288)
    assert form.hexdigest() == (
        "14f9eb395122fda077069d98c112f0fd9be72a2b6ce92124d2574a11cf57279d")


def star_seeds(b):
    """The ball as a graph and its star swaps as label maps, each checked by
    _moved_points to be an automorphism that moves exactly its keys."""
    g = ball_graph(b)
    verts, adj = indexed(g)
    index = {v: i for i, v in enumerate(verts)}
    adjsets = [frozenset(a) for a in adj]
    swaps = star_swaps(b)
    seeds = [{verts[u]: verts[w] for u, w in swap.items()} for swap in swaps]
    assert _moved_points(seeds, index, adjsets) == swaps
    return g, seeds


def test_star_seeds_keep_answers_on_atlas_balls(atlas7):
    # the untransvectable balls of every finite-Out graph of the atlas at
    # radius 0-2, cut out of the radius-2 one as invariant_report does; the
    # full-round search is the oracle up to radius 1, the plain one (itself
    # checked against it on relabelled radius-2 balls) at radius 2
    seeded = []
    for n in range(1, 8):
        for g in atlas7[n]:
            if not has_finite_out(g):
                continue
            ue = build_ext_ball(raag(g), 2, ue=True)
            for L in range(3):
                ball, seeds = star_seeds(ball_prefix(ue, L))
                assert_seeds_keep_answers(ball, seeds, canonical_form(ball) if L == 2 else None)
                seeded.append(len(seeds))
    # 11 graphs; radius 0 has no interior node, and the single vertex no
    # second component, so neither gets seeds
    assert (len(seeded), sum(map(bool, seeded)), sum(seeded)) == (33, 20, 562)


@pytest.mark.parametrize("name", ["C5", "prism"])
def test_star_seeds_keep_answers_at_radius_3(name):
    # the plain search is the oracle here, its own answers pinned above;
    # the seeded search is much smaller
    g = cycle_graph(["v1", "v2", "v3", "v4", "v5"]) if name == "C5" else prism()
    ball, seeds = star_seeds(build_ext_ball(raag(g), 3, ue=True))
    form = canonical_form(ball, automorphisms=seeds)
    assert (len(seeds), form._canonizer.nodes) == {"C5": (175, 436), "prism": (210, 697)}[name]
    assert_seeds_keep_answers(ball, seeds, plain=canonical_form(ball))


def test_c5double_radius_3_seeded_search():
    # the ball that `raagme analyze tests/fixtures/c5double.json
    # --ball-bound 3` fingerprints last: the plain search makes 342,218
    # nodes in about 30 s; its digest is the one the CLI prints
    ball, seeds = star_seeds(build_ext_ball(load_presentation(FIXTURES / "c5double.json"), 3,
                                            ue=True))
    form = canonical_form(ball, automorphisms=seeds)
    c = form._canonizer
    assert (ball.n_vertices, ball.n_edges, len(seeds)) == (5779, 9176, 840)
    assert (c.nodes, len(c.automorphisms), len(c.best_prefix)) == (6299, 850, 753)
    assert form.hexdigest() == (
        "15c29e1d1cc7353991be27db391255f62b06ea27516d4d6f7968bf7b1f103d74")


def test_star_seeds_shrink_radius_2_searches():
    # the three radius-2 balls of the ext-ball benchmark: the plain search
    # makes 504, 721 and 922 nodes
    c5 = cycle_graph(["v1", "v2", "v3", "v4", "v5"])
    c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
    got = []
    for g in (c5, prism(), c7_complement):
        ball, seeds = star_seeds(build_ext_ball(raag(g), 2, ue=True))
        got.append((len(seeds), canonical_form(ball, automorphisms=seeds)._canonizer.nodes))
    assert got == [(30, 76), (36, 121), (42, 106)]


def test_ball_symmetries_shrink_seeded_searches():
    # invariant_report seeds each fingerprint with the star swaps and the
    # ball's symmetries (generator inversions and lifts of Aut of the
    # defining graph): on the untransvectable balls of C5, the prism and the
    # C7 complement the searches make 26, 31 and 36 nodes at radius 2 (76,
    # 121 and 106 with the swaps alone) and 146, 175 and 204 at radius 3
    # (436, 697 and 610), with the plain search's answers at radius 2 and
    # its pinned digests at radius 3
    c7_complement = opposite_graph(cycle_graph([f"v{i}" for i in range(1, 8)]))
    digests = ["b18e465385a0ee4be2dded472db4c41c7c6408b0d96364b51c430941a5167a36",
               "14f9eb395122fda077069d98c112f0fd9be72a2b6ce92124d2574a11cf57279d",
               "7b6c0658fd7b8d1a446585133e0b00dea292b19f1be84c234459c3c56b1b2199"]
    got = []
    for L in (2, 3):
        for g, digest in zip((cycle_graph(["v1", "v2", "v3", "v4", "v5"]), prism(),
                              c7_complement), digests):
            b = build_ext_ball(raag(g), L, ue=True)
            ball, seeds = star_seeds(b)
            labels = ball.sorted_vertices()
            seeds += [{labels[u]: labels[w] for u, w in sigma.items()} for sigma in b.symmetries]
            form = canonical_form(ball, automorphisms=seeds)
            got.append(form._canonizer.nodes)
            if L == 2:
                assert_seeds_keep_answers(ball, seeds, plain=canonical_form(ball))
            else:
                assert form.hexdigest() == digest
    assert got == [26, 31, 36, 146, 175, 204]


class TiedLeafOutcomes(_Canonizer):
    """Counts how each leaf whose trace ties the best leaf's ends."""

    def __init__(self, verts, adj):
        super().__init__(verts, adj)
        self.outcomes = dict.fromkeys(("automorphism", "larger", "smaller"), 0)

    def _leaf(self, stack, label, prefix, entry, eq):
        tied = eq and len(self.best_trace) == len(prefix) + 1
        best, found = self.best, len(self.automorphisms)
        super()._leaf(stack, label, prefix, entry, eq)
        if tied:
            outcome = ("automorphism" if len(self.automorphisms) > found
                       else "larger" if self.best is best else "smaller")
            self.outcomes[outcome] += 1


# one graph per way a tied leaf can end, from a random search over graphs
# on 3-12 vertices: its labeling is an automorphism image of the best one,
# or its first differing row is larger, or smaller (a new best).  The first
# is the path on four vertices: a graph with twins has its twin swaps seeded,
# so the path on three never reaches a tied leaf
TIED_LEAF_GRAPHS = {
    "automorphism": (4, [(0, 1), (1, 2), (2, 3)]),
    "larger": (8, [(0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 5), (4, 6),
                   (4, 7), (5, 7)]),
    "smaller": (8, [(0, 1), (0, 4), (0, 6), (1, 3), (1, 6), (1, 7), (2, 3), (2, 5), (2, 7),
                    (3, 4), (3, 5)]),
}


@pytest.mark.parametrize("outcome", sorted(TIED_LEAF_GRAPHS))
def test_tied_leaf_outcomes(outcome):
    n, edges = TIED_LEAF_GRAPHS[outcome]
    verts = [f"v{i}" for i in range(n)]
    g = SimpleGraph(verts, [(verts[a], verts[b]) for a, b in edges])
    counter = TiedLeafOutcomes(verts, [sorted(verts.index(w) for w in g.neighbors(v))
                                       for v in verts])
    counter.run()
    assert counter.outcomes[outcome] > 0
    assert_same_search(g)


def test_search_depth_not_bounded_by_recursion_limit():
    # a perfect matching of 60 edges individualizes 60 vertices deep
    verts = [f"v{i:03d}" for i in range(120)]
    g = SimpleGraph(verts, [(verts[2 * i], verts[2 * i + 1]) for i in range(60)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        form = canonical_form(g)
        count = automorphism_count(g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(form._canonizer.best_prefix) == 60
    assert count == 2 ** 60 * math.factorial(60)


def dense(labels):
    rank = {q: i for i, q in enumerate(sorted(set(labels)))}
    return [rank[q] for q in labels]


def non_singleton(cells):
    return {q: members for q, members in cells.items() if len(members) > 1}


def assert_cells_match(label, cells):
    members = {}
    for v, q in enumerate(label):
        members.setdefault(q, []).append(v)
    assert cells == non_singleton(members)


def drawn_graph(data):
    """A graph on 1-14 vertices drawn edge by edge, as its vertex count and
    neighbour lists."""
    n = data.draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [[] for _ in range(n)]
    for (i, j), keep in zip(pairs, mask):
        if keep:
            adj[i].append(j)
            adj[j].append(i)
    return n, adj


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_incremental_refine_matches_full_rounds(data):
    n, adj = drawn_graph(data)
    # a first round over every vertex of the unit partition
    label, cells, trail = [0] * n, non_singleton({0: list(range(n))}), []
    _refine(adj, label, cells, range(n), trail)
    assert dense(label) == refine_by_rounds(n, adj, [0] * n)
    assert_cells_match(label, cells)
    # then vertices of non-singleton cells individualized one after another,
    # each labelled above every position, as the search does
    for depth in range(n):
        shared = [v for v in range(n) if label[v] in cells]
        if not shared:
            return
        u = data.draw(st.sampled_from(shared))
        individualized = dense(label)
        individualized[u] = n + depth
        _individualize(label, cells, (u,), n + depth, trail)
        _refine(adj, label, cells, (u,), trail)
        assert dense(label) == refine_by_rounds(n, adj, individualized)
        assert_cells_match(label, cells)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_refine_matches_whole_cells(data):
    # random graphs with isolated vertices, sparse to complete, individualized
    # down to the discrete partition: keyed by the individualized vertex and
    # the kept pieces, refinement writes the labels, cells and member order
    # that keying by whole changed cells writes (the canonizer keeps only
    # the cells of two or more members, and the size of each cell written)
    n = data.draw(st.integers(1, 40))
    isolated = data.draw(st.integers(0, n))
    p = data.draw(st.sampled_from((0.05, 0.15, 0.3, 0.5, 0.8, 0.95, 1.0)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    adj = [[] for _ in range(n)]
    for i in range(n - isolated):
        for j in range(i + 1, n - isolated):
            if rng.random() < p:
                adj[i].append(j)
                adj[j].append(i)
    old_label, old_cells = [0] * n, {0: list(range(n))}
    label, cells, trail = [0] * n, non_singleton(old_cells), []
    old_written = refine_by_whole_cells(adj, old_label, old_cells, range(n))
    written = _refine(adj, label, cells, range(n), trail)
    for depth in range(n + 1):
        assert label == old_label
        assert cells == non_singleton(old_cells)
        assert written == {q: len(old_cells[q]) for q in old_written}
        if not cells:
            return
        u = data.draw(st.sampled_from([v for v in range(n) if label[v] in cells]))
        old_cell = old_cells[old_label[u]]
        old_label, old_cells = individualize_keeping_singletons(old_label, old_cells, u,
                                                                n + depth)
        old_written = refine_by_whole_cells(adj, old_label, old_cells, old_cell)
        _individualize(label, cells, (u,), n + depth, trail)
        written = _refine(adj, label, cells, (u,), trail)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_undo_restores_every_mark(data):
    # single vertices and pairs of one cell split off at random, as the
    # canonizer and the matcher split them, each split refined in place; the
    # trail undone one mark at a time gives back every partition passed.
    # Splits are labelled two apart, as the matcher labels its pairs, so a
    # pair that refinement splits again keeps a label per piece
    n, adj = drawn_graph(data)
    label, cells, trail = [0] * n, non_singleton({0: list(range(n))}), []
    snapshots = [(0, list(label), dict(cells))]
    _refine(adj, label, cells, range(n), trail)
    for depth in range(n):
        snapshots.append((len(trail), list(label), dict(cells)))
        if not cells:
            break
        u = data.draw(st.sampled_from([v for v in range(n) if label[v] in cells]))
        mates = [v for v in cells[label[u]] if v != u]
        split = (u,)
        if data.draw(st.booleans()):
            split = tuple(sorted((u, data.draw(st.sampled_from(mates)))))
        _individualize(label, cells, split, n + 2 * depth, trail)
        _refine(adj, label, cells, split, trail)
    for mark, old_label, old_cells in reversed(snapshots):
        _undo(label, cells, trail, mark)
        assert (label, cells, len(trail)) == (old_label, old_cells, mark)


def test_deep_search_holds_one_partition(c5):
    # the seeded radius-4 untransvectable ball of the 5-cycle, fingerprinted
    # as invariant_report does: the search holds one partition and peaks
    # near 13 MB of traced memory, where copying it for each node took 80 MB
    b = build_ext_ball(raag(c5), 4, ue=True)
    seeds = (*star_swaps(b), *b.symmetries)
    tracemalloc.start()
    try:
        form = canonical_form_indexed((range(b.n_nodes), b.adjacency), automorphisms=seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (b.n_nodes, form._canonizer.nodes) == (5485, 886)
    assert peak < 30_000_000, peak


def assert_same_as_lists(verts, adj, seeds=()):
    """The canonizer, which looks up the automorphisms that move a node's
    target cell, searches the tree of the one that filtered them down its
    stack: same key and order, nodes, automorphisms in order, best path and
    group order."""
    new = canonize_with(_Canonizer, verts, adj, seeds)
    old = canonize_with(CanonizerByLists, verts, adj, seeds)
    assert new.best == old.best
    assert (new.nodes, new.automorphisms, new.best_prefix) == (
        old.nodes, old.automorphisms, old.best_prefix)
    assert new.group_order() == old.group_order()
    return new


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_looked_up_stabilizer_matches_lists(data):
    # a drawn graph with open and closed twins of drawn vertices, in one to
    # three disjoint copies, seeded with a drawn subset of its automorphisms
    _, adj = drawn_graph(data)
    adjsets = [set(a) for a in adj]
    for _ in range(data.draw(st.integers(0, 3))):
        v = data.draw(st.integers(0, len(adjsets) - 1))
        twin = set(adjsets[v]) | ({v} if data.draw(st.booleans()) else set())
        for x in twin:
            adjsets[x].add(len(adjsets))
        adjsets.append(twin)
    m = len(adjsets)
    adj = [sorted(x + c * m for x in a) for c in range(data.draw(st.integers(1, 3)))
           for a in adjsets]
    verts = range(len(adj))
    known = assert_same_as_lists(verts, adj).automorphisms
    seeds = [sigma for sigma in known if data.draw(st.booleans())]
    assert_same_as_lists(verts, adj, seeds)


@pytest.mark.parametrize("name, L, seeded, unseeded", [
    ("c5.json", 3, (146, 182), (14528, 177)),
    ("c5double.json", 2, (130, 97), (3825, 88))])
def test_looked_up_stabilizer_matches_lists_on_balls(name, L, seeded, unseeded):
    # untransvectable balls, seeded as invariant_report seeds them, and
    # unseeded: (search nodes, automorphisms) of each search
    b = build_ext_ball(load_presentation(FIXTURES / name), L, ue=True)
    verts, adj = range(b.n_nodes), [sorted(a) for a in b.adjacency]
    for seeds, want in (((*star_swaps(b), *b.symmetries), seeded), ((), unseeded)):
        c = assert_same_as_lists(verts, adj, seeds)
        assert (c.nodes, len(c.automorphisms)) == want
