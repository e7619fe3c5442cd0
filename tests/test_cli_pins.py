"""Byte-identity pins of the CLI reports over every fixture file.

Each in-process run of ``cli.run_command`` hashes its (argv, exit code,
output) to one sha256; ``cli_report_pins.json`` holds the digests. A change
that is meant to alter a report re-records the file with

    PYTHONPATH=src python tests/test_cli_pins.py
"""

import hashlib
import itertools
import json
import os
from pathlib import Path

from raagme.cli import run_command

FIXTURES = Path(__file__).parent / "fixtures"
PINS = Path(__file__).parent / "cli_report_pins.json"


def pinned_argvs():
    """Every pinned invocation, with fixture paths relative to tests/fixtures."""
    files = sorted(p.name for p in FIXTURES.iterdir())
    argvs = []
    for f in files:
        argvs += [["analyze", f, "--ball-bound", str(b)] for b in range(3)]
        argvs += [[cmd, f] for cmd in ("out", "reduce", "subgroups")]
        argvs += [["extball", f, "-L", str(L), *ue]
                  for L in range(3) for ue in ([], ["--ue"])]
    for g, h in itertools.product(files, repeat=2):
        argvs += [["oe", g, h], ["me", g, h, "--exit-status"]]
    return [argv + ["--format", fmt] for argv in argvs for fmt in ("text", "json")]


def report_digests():
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        runs = {" ".join(argv): run_command(argv) for argv in pinned_argvs()}
    finally:
        os.chdir(cwd)
    return {key: hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
            for key, (code, out) in runs.items()}


def test_reports_match_pins():
    pinned = json.loads(PINS.read_text())
    digests = report_digests()
    assert digests.keys() == pinned.keys()
    assert [k for k in digests if digests[k] != pinned[k]] == []


if __name__ == "__main__":
    PINS.write_text(json.dumps(report_digests(), indent=1, sort_keys=True) + "\n")
