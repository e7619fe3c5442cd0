import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagme.cli import (MAX_DEFINING_EDGES, _UsageExit, _bounded_defining_graph, _json_dump,
                        _parse, build_parser, main, run_command)
from raagme.combinatorics import cv_classification
from raagme.errors import InputError
from raagme.extension import ball_json, build_ext_ball
from raagme.formats import load_presentation, parse_json_presentation
from raagme.graphs import SimpleGraph
from raagme.presentation import GraphProductPresentation, clique_reduce, expand_to_raag, raag
from raagme.subgroups import star_gluing_kernel

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run(*argv):
    return run_command(list(argv))


class TestDecisionCommands:
    def test_oe_exit_status_equivalent(self):
        code, out = run("oe", fx("c5.json"), fx("c5ranks.json"), "--exit-status")
        assert code == 0
        assert "verdict: equivalent" in out

    def test_oe_without_flag_always_zero(self):
        code, out = run("oe", fx("c5.json"), fx("c5double.json"))
        assert code == 0
        assert "verdict: not_equivalent" in out

    def test_exit_codes_cover_all_verdicts(self):
        code, _ = run("oe", fx("c5.json"), fx("c5double.json"), "--exit-status")
        assert code == 1
        code, _ = run("me", fx("c5.json"), fx("c5double.json"), "--exit-status")
        assert code == 0
        code, out = run("me", fx("c5.json"), fx("f3.json"), "--exit-status")
        assert code == 1
        # unknown -> 3 (C6 passes the invariants, no witness within budget)
        import tempfile, os
        c6 = '{"vertices": ["1","2","3","4","5","6"], "edges": [["1","2"],["2","3"],["3","4"],["4","5"],["5","6"],["6","1"]]}'
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            fh.write(c6)
            name = fh.name
        try:
            code, out = run("me", fx("c5.json"), name, "--exit-status")
            assert code == 3
            assert "unknown" in out
        finally:
            os.unlink(name)

    def test_hypothesis_error_exit_two(self):
        code, out = run("oe", fx("path3.json"), fx("c5.json"), "--exit-status")
        assert code == 2
        assert "hypothesis violated" in out

    def test_me_witness_in_json(self):
        code, out = run("me", fx("c5.json"), fx("c5double.json"), "--format", "json")
        doc = json.loads(out)
        assert doc["verdict"] == "equivalent"
        assert doc["witness"]["chain"] == [{"vertex": "v1", "k": 2}]
        assert doc["witness"]["index"] == 2


class TestReports:
    def test_out_report_path(self):
        code, out = run("out", fx("path3.json"))
        assert code == 0
        assert "(a,c)" in out and "(c,a)" in out
        assert "Out(G) finite: no" in out

    def test_out_json(self):
        code, out = run("out", fx("c5.json"), "--format", "json")
        doc = json.loads(out)
        assert doc["out_finite"] and doc["graph_automorphisms"] == 10

    def test_out_dot_input(self):
        code, out = run("out", fx("path3.dot"))
        assert code == 0 and "Out(G) finite: no" in out

    def test_reduce_json_round_trips(self):
        code, out = run("reduce", fx("c5ranks.json"), "--format", "json")
        assert code == 0
        p = parse_json_presentation(out)
        assert p.rank("v1") == 3 and p.graph.n_vertices == 5

    def test_extball_f2(self):
        code, out = run("extball", fx("f2.json"), "-L", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["node_count"] == 6 and doc["edge_count"] == 0

    def test_extball_ue_flag(self):
        code, out = run("extball", fx("c5.json"), "-L", "0", "--ue", "--format", "json")
        doc = json.loads(out)
        assert doc["node_count"] == 5 and doc["edge_count"] == 5

    def test_subgroups(self):
        code, out = run("subgroups", fx("c5.json"), "--max-vertices", "7",
                        "--max-steps", "1", "--format", "json")
        doc = json.loads(out)
        assert [w["index"] for w in doc["witnesses"]] == [1, 2]
        assert doc["truncated"] is True

    def test_subgroups_default_budget(self):
        # the default 16/2 budget composes two gluings on C5
        base = load_presentation(fx("c5.json")).graph
        code, out = run("subgroups", fx("c5.json"), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["witnesses"]) == 12 and doc["truncated"] is True
        assert max(len(w["chain"]) for w in doc["witnesses"]) == 2
        for w in doc["witnesses"]:
            g = base
            for step in w["chain"]:
                g = star_gluing_kernel(g, step["vertex"], step["k"])
            assert [v["id"] for v in w["vertices"]] == g.sorted_vertices()
            assert [tuple(e) for e in w["edges"]] == g.edges()
        # the double has partial conjugations at the glued vertex, so its Out
        # is infinite: a hypothesis error, reported as such
        code, out = run("subgroups", fx("c5double.json"))
        assert code == 2 and "hypothesis violated" in out

    def test_me_default_budget_depth_two(self, tmp_path):
        base = load_presentation(fx("c5.json")).graph
        h = star_gluing_kernel(star_gluing_kernel(base, "v1", 2), "v3", 3)
        names = {v: f"h{i}" for i, v in enumerate(reversed(h.sorted_vertices()))}
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "vertices": sorted(names.values()),
            "edges": [[names[u], names[w]] for u, w in h.edges()]}))
        code, out = run("me", fx("c5.json"), str(path), "--format", "json",
                        "--exit-status")
        assert code == 0
        witness = json.loads(out)["witness"]
        assert len(witness["chain"]) == 2 and witness["index"] == 6

    def test_extball_rank_file(self):
        code, out = run("extball", fx("c5ranks.json"), "-L", "1", "--format", "json")
        assert code == 0
        p = load_presentation(fx("c5ranks.json"))
        expected = ball_json(build_ext_ball(raag(expand_to_raag(p)), 1))
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_expansion_labels_file(self):
        # a and a# both expand to a##1 unless issued labels are reserved
        code, out = run("out", fx("expansion_labels.json"), "--format", "json")
        assert code == 0 and json.loads(out)["vertices"] == 5
        code, out = run("extball", fx("expansion_labels.json"), "-L", "0", "--format", "json")
        assert code == 0
        assert sorted(n["type"] for n in json.loads(out)["nodes"]) == [
            "a###1", "a##1", "a##2", "a#1", "a#2"]
        # the expanded graph, K4 plus a point, has transvections
        for argv in (("oe", fx("expansion_labels.json"), fx("c5.json")),
                     ("me", fx("expansion_labels.json"), fx("c5.json")),
                     ("subgroups", fx("expansion_labels.json"))):
            code, out = run(*argv)
            assert code == 2 and "hypothesis violated" in out

    def test_analyze(self):
        code, out = run("analyze", fx("c5.json"), "--ball-bound", "0")
        assert code == 0
        assert "Out finite (reduced graph): yes" in out
        assert "rigidity hypotheses hold: yes" in out


class TestErrorsAndDeterminism:
    def test_missing_file(self):
        code, out = run("out", fx("nope.json"))
        assert code == 2 and "error" in out

    def test_parse_error_names_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [}')
        code, out = run("out", str(bad))
        assert code == 2 and "line" in out

    def test_malformed_files_exit_two(self, tmp_path):
        # neither a decoding error nor a recursion error escapes as a traceback
        bad = tmp_path / "bad.json"
        for content in (b"\xff\xfe{}", b'{"vertices": ' + b"[" * 50000 + b"]" * 50000 + b"}"):
            bad.write_bytes(content)
            code, out = run("reduce", str(bad))
            assert code == 2 and out.startswith("error: ")

    def test_rank_zero_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [{"id": "a", "rank": 0}], "edges": []}')
        code, out = run("out", str(bad))
        assert code == 2 and "rank" in out

    def test_negative_budgets_exit_two(self):
        for argv in (["me", fx("c5.json"), fx("c5double.json"), "--max-steps", "-1"],
                     ["subgroups", fx("c5.json"), "--max-vertices", "-1"]):
            assert run(*argv) == (2, "error: enumeration bounds must be >= 0\n")

    def test_exit_status_only_on_decisions(self, capsys):
        with pytest.raises(_UsageExit) as info:
            run_command(["analyze", fx("c5.json"), "--exit-status"])
        assert info.value.code == 2
        for argv in (["reduce", fx("c5.json")], ["out", fx("c5.json")],
                     ["extball", fx("c5.json"), "-L", "0"], ["subgroups", fx("c5.json")]):
            assert main(argv + ["--exit-status"]) == 2
        assert "unrecognized arguments: --exit-status" in capsys.readouterr().err

    def test_byte_determinism(self):
        for argv in (
            ["analyze", fx("c5.json"), "--ball-bound", "1"],
            ["me", fx("c5.json"), fx("c5double.json"), "--format", "json"],
            ["extball", fx("c5.json"), "-L", "1", "--format", "json"],
            ["subgroups", fx("c5.json"), "--max-vertices", "7"],
        ):
            first = run(*argv)
            second = run(*argv)
            assert first == second

    def test_repeated_calls_in_one_process(self, capsys):
        # the parser is built once per process; no flag or default may leak
        # from one call into the next
        argvs = (
            ["out", fx("c5.json"), "--format", "json"],
            ["extball", fx("f2.json"), "-L", "1", "--ue"],
            ["extball", fx("f2.json"), "-L", "1"],
            ["me", fx("c5.json"), fx("c5ranks.json"), "--max-steps", "1"],
            ["me", fx("c5.json"), fx("c5ranks.json"), "--exit-status"],
            ["analyze", fx("c5.json"), "--ball-bound", "0"],
        )
        first = [run(*argv) for argv in argvs]
        for _ in range(2):
            assert main(["frobnicate"]) == 2
            assert main(["out", fx("c5.json"), "--bogus"]) == 2
            assert main(["extball", fx("c5.json")]) == 2
            assert [run(*argv) for argv in argvs] == first
        capsys.readouterr()


def test_analyze_rigidity_block_matches_library(atlas7, tmp_path):
    path = tmp_path / "g.json"
    for n in range(1, 8):
        for i, g in enumerate(atlas7[n]):
            # every other graph gets a rank-2 vertex, so clique reduction acts
            ranks = {v: 1 for v in g.sorted_vertices()}
            ranks[g.sorted_vertices()[0]] += i % 2
            path.write_text(json.dumps({
                "vertices": [{"id": v, "rank": r} for v, r in ranks.items()],
                "edges": [list(e) for e in g.edges()],
            }))
            code, out = run("analyze", str(path), "--ball-bound", "0", "--format", "json")
            assert code == 0
            rg = clique_reduce(load_presentation(str(path))).graph
            cv = cv_classification(rg)
            no_class = not cv.nonabelian_untransvectable_class
            strong = cv.all_untransvectable_strongly
            assert json.loads(out)["rigidity_hypotheses"] == {
                "no_nonabelian_untransvectable_class": no_class,
                "every_untransvectable_vertex_strong": strong,
                "both_hold": no_class and strong,
            }


def test_console_entry_point_subprocess():
    # one end-to-end subprocess run through the installed module
    proc = subprocess.run(
        [sys.executable, "-m", "raagme.cli", "oe", fx("c5.json"), fx("c5ranks.json"),
         "--exit-status"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: equivalent" in proc.stdout


def test_usage_error_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "raagme.cli", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2


# run_command parses with the named command's own parser; the full parser is
# the oracle for every namespace, usage error, help text and exit code
PARSE_CASES = [
    [], ["bogus"], ["bogus", "x.json"], ["analyze"], ["me", "g.json"],
    ["analyze", "x.json", "--bogus"], ["analyze", "x.json", "--format", "xml"],
    ["me", "g.json", "h.json", "--max-steps", "two"], ["analyze", "x.json", "--form", "json"],
    ["-h"], ["analyze", "-h"], ["me", "--help"], ["reduce", "x.json", "y.json"],
    ["analyze", "x.json"], ["analyze", "x.json", "--ball-bound", "3", "--format", "json"],
    ["me", "g.json", "h.json", "--max-steps", "-1", "--exit-status"],
    ["oe", "g.json", "h.json", "--format=json"], ["extball", "x.json", "-L", "2", "--ue"],
    ["extball", "x.json"], ["subgroups", "x.json", "--", "y.json"],
    ["subgroups", "--max-vertices", "9", "x.json"], ["out", "x.json", "--exit-status"],
]


def parse_outcome(parse, argv, capsys):
    """(namespace or exit code, stdout, stderr) of parse(argv)."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    out, err = capsys.readouterr()
    return outcome, out, err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_dispatch_parses_as_the_full_parser(argv, capsys):
    expected = parse_outcome(build_parser().parse_args, argv, capsys)
    assert parse_outcome(_parse, argv, capsys) == expected
    if not isinstance(expected[0], dict):
        with pytest.raises(_UsageExit) as info:
            run_command(argv)
        assert info.value.code == (2 if expected[0] else 0)


def test_finite_out_commands_refuse_high_rank_at_once(tmp_path):
    # a rank above 1 gives twins, hence infinite Out; oe, me and subgroups
    # say so without expanding the 65,536-clique (about 2 * 10^9 edges)
    doc = json.loads((FIXTURES / "c5ranks.json").read_text())
    doc["vertices"][0]["rank"] = 65536
    g = tmp_path / "c5huge.json"
    g.write_text(json.dumps(doc))
    out_g = ("error: hypothesis violated: Out(G) must be finite (the defining graph "
             "of G admits a transvection or a partial conjugation)\n")
    out_base = ("error: hypothesis violated: Out of the base group must be finite (the "
                "defining graph admits a transvection or a partial conjugation)\n")
    for argv, text in ((["oe", str(g), fx("c5.json")], out_g),
                       (["me", str(g), fx("c5.json"), "--exit-status"], out_g),
                       (["subgroups", str(g)], out_base)):
        start = time.perf_counter()
        assert run_command(argv) == (2, text)
        assert time.perf_counter() - start < 1.0
    # the bounds are still checked first
    assert run_command(["subgroups", str(g), "--max-steps", "-1"]) == (
        2, "error: enumeration bounds must be >= 0\n")


def test_out_and_extball_refuse_large_expansions_at_once(tmp_path):
    # out and extball count the edges of the expanded graph from the ranks,
    # and refuse more than MAX_DEFINING_EDGES before expanding anything
    doc = json.loads((FIXTURES / "c5ranks.json").read_text())
    doc["vertices"][0]["rank"] = 65536
    g = tmp_path / "c5huge.json"
    g.write_text(json.dumps(doc))
    text = ("error: the defining graph would have 65540 vertices and 2147581955 edges, "
            "above the bound of 100000 edges\n")
    for argv in (["out", str(g)], ["extball", str(g), "-L", "1", "--format", "json"]):
        start = time.perf_counter()
        assert run_command(argv) == (2, text)
        assert time.perf_counter() - start < 1.0
    # the counts are those of the expansion; K_447 has 99,681 edges, K_448 100,128
    for name in ("c5ranks.json", "expansion_labels.json"):
        p = load_presentation(fx(name))
        assert _bounded_defining_graph(p) == expand_to_raag(p)
    clique = GraphProductPresentation(SimpleGraph(["v"]), {"v": 447})
    assert MAX_DEFINING_EDGES == 100_000
    assert _bounded_defining_graph(clique).n_edges == 99_681
    with pytest.raises(InputError, match="448 vertices and 100128 edges"):
        _bounded_defining_graph(GraphProductPresentation(SimpleGraph(["v"]), {"v": 448}))


def test_ball_commands_refuse_large_radii_at_once():
    # the C5 ball has 34,145 nodes at radius 5; the handle count passes
    # MAX_HANDLES partway through it, before any commutation pass
    text = ("error: the extension ball of radius 12 passes the bound of 20000 nodes: "
            "20001 handles by conjugator length 5\n")
    for argv in (["extball", fx("c5.json"), "-L", "12"],
                 ["extball", fx("c5.json"), "-L", "12", "--ue", "--format", "json"],
                 ["analyze", fx("c5.json"), "--ball-bound", "12"]):
        start = time.perf_counter()
        assert run_command(argv) == (2, text)
        assert time.perf_counter() - start < 1.0


# every report goes through cli._json_dump; json.dumps(indent=2), the path it
# replaced, is the oracle.  Strings cover quotes, backslashes, control and
# non-ASCII characters, astral characters and lone surrogates.
_JSON_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "\u00e9\u4e2d",
                     "\U0001f600", "\ud800", "a\udfffb", ""]))
_JSON_LEAVES = st.one_of(
    _JSON_TEXT, st.integers(), st.integers(min_value=2 ** 64), st.integers(max_value=-1),
    st.booleans(), st.none())
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_JSON_TEXT, inner)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS)
def test_json_dump_matches_json_dumps(doc):
    assert _json_dump(doc) == json.dumps(doc, indent=2) + "\n"


def test_json_dump_deep_and_empty_containers():
    doc = {"empty": [{}, [], ()], "leaves": [None, True, False, -1, 2 ** 70]}
    for depth in range(60):
        doc = {f"level {depth}": [doc, {}], "tail": []} if depth % 2 else [doc, []]
    assert _json_dump(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [1.5, {"a": [0.0]}, {1, 2}, [{"a": frozenset()}],
                                 {1: "one"}, {"a": {None: 1}}])
def test_json_dump_refuses_other_types(doc):
    # json.dumps would print the float and the non-str keys; no report holds them
    with pytest.raises(TypeError):
        _json_dump(doc)
