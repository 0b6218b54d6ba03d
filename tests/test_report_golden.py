"""Byte-for-byte regression of the JSON reports.

Each case runs ``eulerchi.cli.main`` in-process, from the bundled data
directory so that input paths are bare file names, and compares the
``--report json`` stdout, the stderr and the exit code with the file under
``tests/golden/`` named after the subcommand.  The ``refusals`` cases run
from ``tests/refusals/``, whose inputs each carry one fault, and pin the
message and exit code of each refusal.

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
REFUSALS = Path(__file__).parent / "refusals"
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
    "refusals": [
        ["chi", "duplicate_cell_id.json"],
        ["chi", "negative_dim.json"],
        ["integrate", "non_integer_value.json"],
        ["integrate", "value_for_non_cell.json"],
        ["integrate", "missing_value.json"],
        ["pushforward", "assign_to_unknown_target.json", "one_on_source.json"],
        ["pushforward", "map_onto_higher_dim.json", "one_on_source.json"],
        ["gamma-chi", "duplicate_stratum_id.json", "--gamma", '{"kind":"trivial"}'],
        ["translation", "non_homomorphic_action.json", "--gamma", '{"kind":"trivial"}'],
    ],
}


def run(argv: list[str], where: Path = DATA) -> dict:
    """Exit code, stdout and stderr of one in-process run from the
    directory ``where``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--report", "json", *argv])
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _where(name: str) -> Path:
    return REFUSALS if name == "refusals" else DATA


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES[name])
    for argv in CASES[name]:
        assert run(argv, _where(name)) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, cases in CASES.items():
        golden = {" ".join(argv): run(argv, _where(name)) for argv in cases}
        text = json.dumps(golden, sort_keys=True, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json ({len(golden)} cases)", file=sys.stderr)
