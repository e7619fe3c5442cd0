"""Self-tests of the benchmark itself.

    python3 bench/selftest.py        (from the repository root)

They show that the inputs are a function of the seed alone, and that the
checks reject planted wrong answers, so that a wrong answer from the
package reaches the failure count instead of passing unnoticed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import raagme  # noqa: E402
import raagme.cli  # noqa: E402,F401
import raagme.formats  # noqa: E402

import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def bound(workload_cls, seed):
    wl = workload_cls(seed)
    wl.bind(raagme, [raagme.formats.parse_presentation(text, fmt)
                     for fmt, text in wl.document_texts()])
    return wl


def queries(wl, ident_suffix):
    return [q for q in wl.pass_queries(0, {}) if q.ident.endswith(ident_suffix)]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for cls in W.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                a = json.dumps(cls(7).document_texts())
                self.assertEqual(a, json.dumps(cls(7).document_texts()))
                self.assertNotEqual(a, json.dumps(cls(8).document_texts()))

    def test_documents_parse_to_their_reference_graphs(self):
        for cls in (W.MeDecide, W.ExtBall):
            wl = bound(cls, 3)
            for d in wl.docs:
                self.assertEqual(d.parsed.graph.edges(), R.edge_list(d.adj))
                self.assertEqual(d.parsed.ranks, d.ranks)


class PlantedWrongAnswers(unittest.TestCase):
    """Each check accepts the package's real answer and rejects a mutated one."""

    @classmethod
    def setUpClass(cls):
        cls.me = bound(W.MeDecide, 11)

    def real(self, q):
        answer = q.fn()
        self.assertTrue(q.check(answer) in (True, False))
        return answer

    def rejects(self, q, answer):
        with self.assertRaises(W.CheckFailed):
            q.check(answer)

    def test_me_witness_and_verdict(self):
        q = queries(self.me, "g37/me/glued-d1-kmin")[0]
        d = self.real(q)
        self.assertEqual(d.verdict, "equivalent")
        chain = d.witness["chain"]
        bigger = dict(d.witness, chain=[dict(chain[0], k=chain[0]["k"] + 1)] + chain[1:])
        self.rejects(q, dataclasses.replace(d, witness=bigger))
        iso = d.witness["isomorphism"]
        a, b = sorted(iso)[:2]
        swapped = dict(iso, **{a: iso[b], b: iso[a]})
        self.rejects(q, dataclasses.replace(d, witness=dict(d.witness, isomorphism=swapped)))
        self.rejects(q, dataclasses.replace(d, verdict="not_equivalent"))

    def test_me_missed_invariant(self):
        q = queries(self.me, "g37/me/violating-counterexample")[0]
        d = self.real(q)
        self.assertEqual(d.verdict, "not_equivalent")
        self.rejects(q, dataclasses.replace(d, verdict="unknown"))
        self.rejects(q, dataclasses.replace(d, reason_code="invariant-nonabelian-class"))

    def test_oe_flipped_verdict(self):
        for suffix in ("g37/oe/rank-blowup", "g37/oe/glued"):
            q = queries(self.me, suffix)[0]
            d = self.real(q)
            flipped = "not_equivalent" if d.verdict == "equivalent" else "equivalent"
            self.rejects(q, dataclasses.replace(d, verdict=flipped))

    def test_enumeration_mutated_chain(self):
        # the 7-cycle: the one pool graph whose 16/2 search does not raise
        q = queries(self.me, "g352/enum/subgroups")[0]
        result = self.real(q)
        w = result.witnesses[1]
        (v, k), = w.chain
        planted = dataclasses.replace(w, chain=((v, k + 1),))
        self.rejects(q, dataclasses.replace(
            result, witnesses=(result.witnesses[0], planted) + result.witnesses[2:]))

    def test_cli_out_and_reduce(self):
        wl = bound(W.CliBatch, 5)
        work = os.path.join(os.getcwd(), ".bench_work", "selftest")
        os.makedirs(work, exist_ok=True)
        wl.write_files(work)
        try:
            out = queries(wl, "g0400/out")[0]
            code, text = self.real(out)
            doc = json.loads(text)
            doc["graph_automorphisms"] += 1
            self.rejects(out, (code, json.dumps(doc)))
            red = queries(wl, "g0400/reduce")[0]
            code, text = self.real(red)
            doc = json.loads(text)
            doc["vertices"][0]["rank"] += 1
            self.rejects(red, (code, json.dumps(doc)))
        finally:
            shutil.rmtree(work)

    def test_failed_share_counts_rejections(self):
        q = queries(self.me, "g37/oe/glued")[0]
        d = q.fn()
        tally = run.Tally()
        tally.record(q, dataclasses.replace(d, verdict="equivalent"), None)
        tally.record(q, d, None)
        tally.record(q, None, RuntimeError("raised"))
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (3, 2, 1))


if __name__ == "__main__":
    unittest.main()
