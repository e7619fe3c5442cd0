import json
import subprocess
import sys
from pathlib import Path

from raagme.cli import main, run_command
from raagme.combinatorics import all_untransvectable_strongly, has_untransvectable_nonabelian_class
from raagme.extension import ball_json, build_ext_ball
from raagme.formats import load_presentation, parse_json_presentation
from raagme.presentation import clique_reduce, expand_to_raag, raag
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
            no_class = not has_untransvectable_nonabelian_class(rg)
            strong = all_untransvectable_strongly(rg)
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
