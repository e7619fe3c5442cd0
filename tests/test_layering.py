"""Layering rules: no module of the package imports a sibling's private name,
and the package runs without its test extra."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "raagme"


def private_imports(path):
    """(line, module, name) of every underscore name imported from a sibling."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level == 1 or (node.level == 0 and (node.module or "").startswith("raagme"))
        if sibling:
            out += [(node.lineno, node.module, a.name) for a in node.names
                    if a.name.startswith("_")]
    return out


def test_no_private_cross_module_imports():
    found = {p.name: private_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert len(found) >= 10
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_rule_catches_relative_and_absolute_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .subgroups import _check_bounds, gluing_classes\n"
                     "from raagme.words import _reduce\n"
                     "from __future__ import annotations\n"
                     "from collections import _chain\n")
    assert private_imports(probe) == [(1, "subgroups", "_check_bounds"),
                                      (2, "raagme.words", "_reduce")]


# a child interpreter in which the test extra cannot be imported runs the
# package's CLI end to end: the package must need nothing beyond the standard library
NO_TEST_EXTRA = r'''
import sys
from importlib.abc import MetaPathFinder

TEST_ONLY = {"networkx", "hypothesis", "sympy", "pytest"}


class RefuseTestOnly(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in TEST_ONLY:
            raise ImportError(f"{name} is test-only")
        return None


sys.meta_path.insert(0, RefuseTestOnly())
try:
    import networkx
except ImportError:
    pass
else:
    raise SystemExit("the finder let networkx through")

import raagme
from raagme.cli import run_command

c5 = sys.argv[1]
for argv in (["analyze", c5], ["out", c5], ["oe", c5, c5], ["me", c5, c5],
             ["extball", c5, "-L", "1"], ["subgroups", c5]):
    code, text = run_command(argv)
    if code != 0 or not text:
        raise SystemExit(f"{argv[0]} exited {code}: {text}")
print(sorted(m for m in sys.modules if m.partition(".")[0] in TEST_ONLY))
'''


def test_cli_runs_without_test_extra():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", NO_TEST_EXTRA,
                           str(SRC.parent.parent / "tests" / "fixtures" / "c5.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout == "[]\n"
