"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value below is either checked against an independent
brute-force oracle computed in the same test, or frozen from such a
computation; tolerances are exact (all quantities are discrete).
"""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

from helpers import (brute_pc_sites, brute_transvections, check_collapsibility_equivalence,
                     is_identity, shuffle_oracle_nf, strong_untransvectability_oracle)

from raagme.graphs import SimpleGraph, star
from raagme.isomorphism import find_isomorphism
from raagme.presentation import GraphProductPresentation, clique_reduce, expand_to_raag, raag
from raagme.combinatorics import (is_collapsible, is_strongly_untransvectable, out_inventory,
                                  untransvectable_vertices)
from raagme.words import word
from raagme.extension import (ball_graph, build_ext_ball, star_complement_connectivity_check,
                              star_separation_check)
from raagme.subgroups import enumerate_findex_graphs, star_gluing_kernel
from raagme.classify import decide_me, decide_oe
from raagme.cli import run_command

FIXTURES = Path(__file__).parent / "fixtures"


def _fx(name):
    return str(FIXTURES / name)


def _ok(number, name, t0):
    print(f"\nACCEPTANCE {number} ({name}): PASS ({time.time() - t0:.1f}s)")


def test_criterion_1_out_inventory_bruteforce(atlas6):
    """Inventory matches the definitional brute force on all graphs <= 6."""
    t0 = time.time()
    checked = 0
    for n in range(1, 7):
        for g in atlas6[n]:
            inv = out_inventory(g)
            assert list(inv.transvections) == brute_transvections(g), g.edges()
            assert list(inv.partial_conjugation_sites) == brute_pc_sites(g), g.edges()
            assert inv.out_finite == (not inv.transvections
                                      and not inv.partial_conjugation_sites)
            checked += 1
    assert checked == 208
    _ok(1, f"out inventory, {checked} graphs", t0)


def test_criterion_2_collapsibility_equivalence(atlas6):
    """Definition and subgroup-closure collapsibility agree on every
    induced subgraph of every graph on <= 6 vertices."""
    t0 = time.time()
    checked = 0
    for n in range(1, 7):
        for g in atlas6[n]:
            verts = g.sorted_vertices()
            for k in range(1, n + 1):
                for s in itertools.combinations(verts, k):
                    rep = check_collapsibility_equivalence(g, frozenset(s))
                    assert rep.agree, (g.edges(), s)
                    if not rep.by_definition:
                        assert rep.witness is not None
                    checked += 1
    assert checked == 11082  # sum over the atlas of (2^n - 1)
    _ok(2, f"collapsibility equivalence, {checked} subgraphs", t0)


def _is_clique_reduced_graph(g):
    verts = g.sorted_vertices()
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            if g.has_edge(x, y) and is_collapsible(g, {x, y}):
                return False
    return True


def test_criterion_3_clique_reduction_soundness(atlas6):
    """Idempotence everywhere; merge-order independence on <= 5 vertices;
    expand-then-reduce is the identity on clique-reduced inputs with ranks
    <= 3 on <= 6 vertices."""
    from helpers import all_merge_results, rank_isomorphic
    t0 = time.time()
    for n in range(1, 7):
        for g in atlas6[n]:
            q = clique_reduce(raag(g))
            assert clique_reduce(q) == q, g.edges()
            assert _is_clique_reduced_graph(q.graph), g.edges()

    for n in range(2, 6):
        for g in atlas6[n]:
            p = raag(g)
            q = clique_reduce(p)
            for graph, ranks in all_merge_results(g, p.ranks):
                r = GraphProductPresentation(graph, ranks)
                assert rank_isomorphic(r.graph, r.ranks, q.graph, q.ranks), g.edges()

    trips = 0
    for n in range(1, 7):
        for g in atlas6[n]:
            if not _is_clique_reduced_graph(g):
                continue
            verts = g.sorted_vertices()
            for vec in itertools.product((1, 2, 3), repeat=n):
                p = GraphProductPresentation(g, dict(zip(verts, vec)))
                back = clique_reduce(raag(expand_to_raag(p)))
                relabel = {x: x.rsplit("#", 1)[0] if "#" in x else x
                           for x in back.graph.vertices}
                edges = sorted((min(relabel[u], relabel[w]), max(relabel[u], relabel[w]))
                               for u, w in back.graph.edges())
                ranks = {relabel[v]: back.rank(v) for v in back.graph.vertices}
                assert edges == g.edges() and ranks == p.ranks, (g.edges(), vec)
                trips += 1
    _ok(3, f"clique reduction, {trips} round trips", t0)


def test_criterion_4_strong_untransvectability(atlas6, atlas7, counterexample_graph):
    """Derived criterion == word-level oracle (bound 4) on all graphs <= 6;
    transvection-free implies all strongly untransvectable on <= 7; the
    cone-vertex counterexample reports exactly as expected."""
    t0 = time.time()
    agreements = 0
    for n in range(1, 7):
        for g in atlas6[n]:
            for v in untransvectable_vertices(g):
                assert strong_untransvectability_oracle(g, v, 4) == \
                    is_strongly_untransvectable(g, v), (g.edges(), v)
                agreements += 1
    assert agreements == 252

    for n in range(1, 8):
        for g in atlas7[n]:
            if not out_inventory(g).transvections:
                for v in g.sorted_vertices():
                    assert is_strongly_untransvectable(g, v), (g.edges(), v)

    g = counterexample_graph
    assert untransvectable_vertices(g) == ["v0", "v2", "v3", "v4", "v5"]
    assert not is_strongly_untransvectable(g, "v0")
    assert not strong_untransvectability_oracle(g, "v0", 2)
    _ok(4, f"strong untransvectability, {agreements} oracle agreements", t0)


def test_criterion_5_word_engine(atlas6):
    """Normal forms match the exhaustive shuffle-closure oracle (all unit
    words to length 4 on <= 3 vertices, 512 exhaustive length-3 words plus
    seeded random words to length 8 on 4 vertices); inverse and
    associativity hold on 10^4 seeded random words."""
    t0 = time.time()
    for n in (1, 2, 3):
        for g in atlas6[n]:
            p = raag(g)
            adj = {v: g.neighbors(v) for v in g.vertices}
            letters = [(v, e) for v in g.sorted_vertices() for e in (1, -1)]
            for k in range(1, 5):
                for syls in itertools.product(letters, repeat=k):
                    assert word(p, syls).syllables == shuffle_oracle_nf(adj, syls)

    rng = random.Random(20240809)
    for g in atlas6[4]:
        p = raag(g)
        adj = {v: g.neighbors(v) for v in g.vertices}
        verts = g.sorted_vertices()
        letters = [(v, e) for v in verts for e in (1, -1)]
        for syls in itertools.product(letters, repeat=3):
            assert word(p, syls).syllables == shuffle_oracle_nf(adj, syls)
        for _ in range(350):
            syls = [(rng.choice(verts), rng.choice([-2, -1, 1, 2]))
                    for _ in range(rng.randint(4, 8))]
            assert word(p, syls).syllables == shuffle_oracle_nf(adj, syls)

    graphs = [g for n in (2, 3, 4) for g in atlas6[n]]
    for _ in range(10000):
        g = rng.choice(graphs)
        p = raag(g)
        verts = g.sorted_vertices()

        def rand_word():
            return word(p, [(rng.choice(verts), rng.choice([-2, -1, 1, 2]))
                            for _ in range(rng.randint(0, 8))])

        w1, w2, w3 = rand_word(), rand_word(), rand_word()
        assert is_identity(w1 * w1.inverse())
        assert ((w1 * w2) * w3).syllables == (w1 * (w2 * w3)).syllables
    _ok(5, "word engine vs shuffle oracle", t0)


def test_criterion_6_extension_balls(c5, f2_graph):
    """Ball sizes, the radius-0 slice, star separation and star-complement
    connectivity at the stated radii."""
    t0 = time.time()
    f2 = raag(f2_graph)
    b = build_ext_ball(f2, 1)
    assert (b.n_nodes, b.n_edges) == (6, 0)

    z2 = raag(SimpleGraph(["a", "b"], [("a", "b")]))
    for L in (0, 1, 2, 3):
        bz = build_ext_ball(z2, L)
        assert (bz.n_nodes, bz.n_edges) == (2, 1)

    c5p = raag(c5)
    b0 = build_ext_ball(c5p, 0)
    assert find_isomorphism(ball_graph(b0), c5) is not None

    for p, graph in ((c5p, c5), (f2, f2_graph)):
        for L in (1, 2):
            ball = build_ext_ball(p, L)
            for i in range(ball.n_nodes) if L == 1 else \
                    [ball.standard_node(v) for v in graph.sorted_vertices()]:
                rep = star_separation_check(ball, i)
                assert rep.violations == (), (graph.edges(), L, i)

    b2 = build_ext_ball(c5p, 2)
    for v in c5.sorted_vertices():
        i = b2.standard_node(v)
        rep = star_complement_connectivity_check(b2, i, {i})
        assert rep.interior_connected, v
    i = b2.standard_node("v1")
    rep = star_complement_connectivity_check(b2, i, {i, b2.standard_node("v2")})
    assert rep.interior_connected
    _ok(6, "extension balls", t0)


def test_criterion_7_subgroup_construction(c5, f2_graph):
    """Star gluing vertex counts, the index-1/index-2 enumeration of the
    5-cycle, and the free-group doubling rank count."""
    t0 = time.time()
    d = star_gluing_kernel(c5, "v1", 2)
    assert d.n_vertices == 7
    for v in c5.sorted_vertices():
        for k in (2, 3, 4):
            got = star_gluing_kernel(c5, v, k)
            assert got.n_vertices == k * 5 - (k - 1) * len(star(c5, v))

    res = enumerate_findex_graphs(c5, 7, 1)
    assert [(w.index, w.graph.n_vertices) for w in res.witnesses] == [(1, 5), (2, 7)]
    assert find_isomorphism(res.witnesses[1].graph, d) is not None

    f2d = star_gluing_kernel(f2_graph, "a", 2)
    assert f2d.n_vertices == 3 and f2d.n_edges == 0
    _ok(7, "subgroup construction", t0)


def test_criterion_8_classification_theorems(c5, f3_graph, p3):
    """The decision procedures on the desk-scale instances, deterministic."""
    t0 = time.time()
    ranks = GraphProductPresentation(
        c5, {"v1": 3, "v2": 1, "v3": 1, "v4": 1, "v5": 1})
    assert decide_oe(c5, ranks).verdict == "equivalent"

    double = raag(star_gluing_kernel(c5, "v1", 2))
    assert decide_oe(c5, double).verdict == "not_equivalent"
    m = decide_me(c5, double)
    assert m.verdict == "equivalent" and m.witness["index"] == 2

    mf = decide_me(c5, raag(f3_graph))
    assert mf.verdict == "not_equivalent"
    assert mf.reason_code == "invariant-nonabelian-class"

    try:
        decide_oe(p3, raag(c5))
        raise AssertionError("expected a hypothesis error")
    except Exception as exc:
        assert "hypothesis violated" in str(exc)

    again = decide_me(c5, double)
    assert again == m  # deterministic
    _ok(8, "classification theorems", t0)


GOLDEN_EXTBALL_F2 = """{
  "L": 1,
  "node_count": 6,
  "edge_count": 0,
  "nodes": [
    {
      "id": 0,
      "conjugator": [],
      "type": "a",
      "length": 0,
      "untransvectable": false
    },
    {
      "id": 1,
      "conjugator": [],
      "type": "b",
      "length": 0,
      "untransvectable": false
    },
    {
      "id": 2,
      "conjugator": [
        [
          "b",
          -1
        ]
      ],
      "type": "a",
      "length": 1,
      "untransvectable": false
    },
    {
      "id": 3,
      "conjugator": [
        [
          "b",
          1
        ]
      ],
      "type": "a",
      "length": 1,
      "untransvectable": false
    },
    {
      "id": 4,
      "conjugator": [
        [
          "a",
          -1
        ]
      ],
      "type": "b",
      "length": 1,
      "untransvectable": false
    },
    {
      "id": 5,
      "conjugator": [
        [
          "a",
          1
        ]
      ],
      "type": "b",
      "length": 1,
      "untransvectable": false
    }
  ],
  "edges": []
}
"""


def test_criterion_9_cli_contract():
    """Golden bytes, JSON round-trip, exit-code mapping, determinism."""
    t0 = time.time()
    code, out = run_command(["extball", _fx("f2.json"), "-L", "1", "--format", "json"])
    assert code == 0 and out == GOLDEN_EXTBALL_F2

    code, out = run_command(["reduce", _fx("c5ranks.json"), "--format", "json"])
    assert code == 0
    from raagme.formats import parse_json_presentation
    p = parse_json_presentation(out)
    assert p.rank("v1") == 3 and p.graph.n_vertices == 5

    assert run_command(["oe", _fx("c5.json"), _fx("c5ranks.json"),
                        "--exit-status"])[0] == 0
    assert run_command(["oe", _fx("c5.json"), _fx("c5double.json"),
                        "--exit-status"])[0] == 1
    assert run_command(["me", _fx("c5.json"), _fx("c5double.json"),
                        "--exit-status"])[0] == 0
    assert run_command(["me", _fx("c5.json"), _fx("f3.json"),
                        "--exit-status"])[0] == 1
    assert run_command(["oe", _fx("path3.json"), _fx("c5.json"),
                        "--exit-status"])[0] == 2

    for argv in (
        ["out", _fx("path3.json")],
        ["me", _fx("c5.json"), _fx("c5double.json"), "--format", "json"],
        ["subgroups", _fx("c5.json"), "--max-vertices", "7", "--max-steps", "1"],
        ["analyze", _fx("c5.json"), "--ball-bound", "1"],
    ):
        assert run_command(list(argv)) == run_command(list(argv))

    proc = subprocess.run(
        [sys.executable, "-m", "raagme.cli", "oe", _fx("c5.json"),
         _fx("c5ranks.json"), "--exit-status"],
        capture_output=True, text=True)
    assert proc.returncode == 0

    _ok(9, "CLI contract", t0)
