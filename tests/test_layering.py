"""Layering rule: no module of the package imports a sibling's private name."""

import ast
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
