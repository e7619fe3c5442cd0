"""The atlas census: decide_me for every finite-Out G of the n <= 7 atlas against every H.

Each of the 10 graphs G on 2-7 vertices of the atlas whose Out is finite is
paired with all 1,252 atlas graphs H, in atlas order, at the default
budget.  Each answer is pinned as one letter (verdict, reason code and
truncation flag), one string per G, keyed by G's position in the atlas, in
``census7.json``.  A change that is meant to move answers re-records the
file with

    PYTHONPATH=src python tests/test_census.py
"""

import json
from collections import Counter
from pathlib import Path

import networkx as nx

from helpers import graph_atlas, unpruned_gluing_search
from raagme.classify import decide_me
from raagme.combinatorics import has_finite_out
from raagme.isomorphism import canonical_form
from raagme.presentation import clique_reduce, raag
from raagme.subgroups import star_gluing_kernel

PINS = Path(__file__).parent / "census7.json"

# (reason code, search_truncated) -> letter
LETTERS = {
    ("finite-index-witness", None): "E",
    ("amenable-mismatch", None): "a",
    ("invariant-nonabelian-class", None): "n",
    ("invariant-strong-untransvectability", None): "s",
    ("search-exhausted", False): "u",
    ("search-exhausted", True): "t",
}


def census(atlas):
    """{atlas position of G: (letters, decisions)} for every finite-Out G on 2+ vertices."""
    hs = [h for n in sorted(atlas) for h in atlas[n]]
    out = {}
    for i, g in enumerate(hs):
        if g.n_vertices >= 2 and has_finite_out(g):
            decisions = [decide_me(g, raag(h)) for h in hs]
            letters = "".join(LETTERS[d.reason_code, (d.witness or {}).get("search_truncated")]
                              for d in decisions)
            out[str(i)] = (letters, decisions)
    return out


def _nx(g):
    out = nx.Graph()
    out.add_nodes_from(g.sorted_vertices())
    out.add_edges_from(g.edges())
    return out


def test_atlas_census(atlas7):
    hs = [h for n in range(1, 8) for h in atlas7[n]]
    answers = census(atlas7)
    assert {k: letters for k, (letters, _) in answers.items()} == json.loads(PINS.read_text())
    assert Counter("".join(letters for letters, _ in answers.values())) == {
        "E": 17, "a": 70, "n": 2640, "s": 3170, "u": 6623}
    for key, (letters, decisions) in answers.items():
        g = hs[int(key)]
        # the gluings the unpruned search reaches within 7 vertices, every
        # step taken (each adds a vertex), as canonical keys
        found, _ = unpruned_gluing_search(g, 7, 7)
        reached = {canonical_form(graph).key for _, _, graph in found}
        for h, letter, d in zip(hs, letters, decisions):
            lam = clique_reduce(raag(h)).graph
            assert (letter == "E") == (canonical_form(lam).key in reached)
            if letter != "E":
                continue
            # the witness replays its chain, and networkx confirms the
            # isomorphism from the glued graph onto lam
            glued = g
            for step in d.witness["chain"]:
                glued = star_gluing_kernel(glued, step["vertex"], step["k"])
            iso = d.witness["isomorphism"]
            assert sorted(iso) == glued.sorted_vertices()
            assert nx.utils.graphs_equal(nx.relabel_nodes(_nx(glued), iso), _nx(lam))


if __name__ == "__main__":
    pins = {k: letters for k, (letters, _) in census(graph_atlas(7)).items()}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
