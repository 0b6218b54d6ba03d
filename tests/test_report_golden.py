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

from eulerchi import catalog, cli, groups, jsonio, translation as tr
from eulerchi.groups import Presentation

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


# Exit-0 golden cases whose headline only the CLI's route computes: Z/2
# has no order-ell value, gamma-chi has a second route only at Gamma = Z
# (``test_catalog`` recomputes those four from cell models), and an
# extension's prediction none.
ONE_ROUTE = {
    "inertia": {f"inertia {f} --gamma {GAMMAS[1]}" for f in ("q8_point.json", "s3_point.json")},
    "atlas": {f"atlas {f} {f} --gamma {GAMMAS[1]}" for f in ("q8_point.json", "s3_point.json")},
    "gamma_chi": {
        f"gamma-chi {f} --gamma {g}"
        for f in ("so2_s2.json", "so2_x_a.json", "so2_x_aprime.json")
        for g in (GAMMAS[0], GAMMAS[1], GAMMAS[3])
    } | {f"gamma-chi so3_r3.json --gamma {GAMMAS[0]}"},
    "extension": {"extension o2_extension.json"},
}


def _second_route(argv: list[str]):
    """The headline of an order-ell, inertia or atlas case by a route the
    command does not take, as a zero-argument callable: the Burnside count
    over homomorphisms for the walk, and the walk at order r for Gamma = Z^r
    (trivial at r = 0), summed over the pieces.  None where there is none."""
    if argv[0] == "order-ell":
        return lambda: tr.chi_gamma_noniter(
            Presentation.free_abelian(int(argv[3])), jsonio.load_file(DATA / argv[1], jsonio.load_complex)[0]
        )
    gamma = json.loads(argv[-1])
    if gamma["kind"] not in ("trivial", "free_abelian"):
        return None
    return lambda: sum(
        tr.chi_order_ell(jsonio.load_file(DATA / f, jsonio.load_complex)[0], gamma.get("rank", 0))
        for f in argv[1:-2]
    )


def _primitives(monkeypatch, route) -> tuple[object, set[str]]:
    """route's value, and which of the homomorphism enumeration and the
    centralizer masks it calls, with the catalog's chi cache cleared."""
    catalog._finite_chi.cache_clear()
    called = set()

    def spy(label, fn):
        def wrapped(*args, **kwargs):
            called.add(label)
            return fn(*args, **kwargs)

        return wrapped

    with monkeypatch.context() as m:
        m.setattr(groups, "hom_enumerate", spy("hom_enumerate", groups.hom_enumerate))
        m.setattr(groups.FiniteGroup, "centralizer_mask",
                  spy("centralizer_mask", groups.FiniteGroup.centralizer_mask))
        value = route()
    return value, called


def test_golden_headlines_have_a_second_route(monkeypatch):
    """Every exit-0 order-ell, inertia and atlas golden headline that has a
    second route is recomputed by it, and the two sides share neither the
    homomorphism enumeration nor the centralizer masks.  The exit-0 cases
    left with one route are named in ``ONE_ROUTE``."""
    recomputed, single = 0, {}
    for name in ("order_ell", "inertia", "atlas", "gamma_chi", "extension"):
        golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        for argv in CASES[name]:
            key = " ".join(argv)
            if golden[key]["exit"] != 0:
                continue
            second = None if name in ("gamma_chi", "extension") else _second_route(argv)
            if second is None:
                if name != "gamma_chi" or json.loads(argv[-1]) != json.loads(GAMMAS[2]):
                    single.setdefault(name, set()).add(key)
                continue
            out, cli_calls = _primitives(monkeypatch, lambda: run(argv))
            assert out == golden[key], key
            value, calls = _primitives(monkeypatch, second)
            assert value == json.loads(out["stdout"])["result"], key
            assert not cli_calls & calls, (key, cli_calls, calls)
            assert cli_calls | calls, key
            recomputed += 1
    assert recomputed == 20
    assert single == ONE_ROUTE


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, cases in CASES.items():
        golden = {" ".join(argv): run(argv, _where(name)) for argv in cases}
        text = json.dumps(golden, sort_keys=True, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json ({len(golden)} cases)", file=sys.stderr)
