"""Byte-for-byte regression of the JSON reports.

Each case runs ``eulerchi.cli.main`` in-process, from the bundled data
directory so that input paths are bare file names, and compares the
``--report json`` stdout, the stderr and the exit code with the file under
``tests/golden/`` named after the subcommand.

To regenerate the golden files from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_report_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path

import pytest

from eulerchi import cli

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(str(resources.files("eulerchi") / "data"))
FILES = sorted(p.name for p in DATA.glob("*.json"))
GAMMAS = [
    '{"kind":"trivial"}',
    '{"kind":"cyclic","order":2}',
    '{"kind":"free_abelian","rank":1}',
    '{"kind":"free_abelian","rank":2}',
]

CASES = {
    "chi": [["chi", f] for f in FILES],
    "integrate": [["integrate", f] for f in FILES],
    "pushforward": [["pushforward", f, "ones_on_square.json"] for f in FILES],
    "atlas": [["atlas", f, f, "--gamma", g] for f in FILES for g in GAMMAS],
    "extension": [["extension", f] for f in FILES],
    "order_ell": [["order-ell", f, "--ell", str(ell)] for f in FILES for ell in (0, 1, 2, 3, 5)],
    "translation": [["translation", f, "--gamma", g] for f in FILES for g in GAMMAS],
    "inertia": [["inertia", f, "--gamma", g] for f in FILES for g in GAMMAS],
    "gamma_chi": [["gamma-chi", f, "--gamma", g] for f in FILES for g in GAMMAS],
    "verify": [["verify", "--seed", "42", "--cases", "20"]],
}


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process run from the data
    directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--report", "json", *argv])
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES[name])
    for argv in CASES[name]:
        assert run(argv) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, cases in CASES.items():
        golden = {" ".join(argv): run(argv) for argv in cases}
        text = json.dumps(golden, sort_keys=True, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json ({len(golden)} cases)", file=sys.stderr)
