"""Byte-for-byte regression of the reports.

Each case runs ``eulerchi.cli.main`` in-process, from the bundled data
directory so that input paths are bare file names, and compares the
``--report json`` stdout, the stderr and the exit code with the file under
``tests/golden/`` named after the subcommand.  The ``refusals`` cases run
from ``tests/refusals/``, whose inputs each carry one fault, and pin the
message and exit code of each refusal.  The ``text`` cases pin the
default ``--report text`` form, one exit-0 case per subcommand.

To regenerate the golden files from the code on ``PYTHONPATH``:

    PYTHONPATH=src python tests/test_report_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
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
        ["integrate", "levelset_runaway.json"],
        ["pushforward", "assign_to_unknown_target.json", "one_on_source.json"],
        ["pushforward", "map_onto_higher_dim.json", "one_on_source.json"],
        ["gamma-chi", "duplicate_stratum_id.json", "--gamma", '{"kind":"trivial"}'],
        ["translation", "non_homomorphic_action.json", "--gamma", '{"kind":"trivial"}'],
    ],
    # the default format, one exit-0 case per subcommand; the last --report wins
    "text": [
        ["--report", "text", *argv]
        for argv in (
            ["chi", "closed_interval.json"],
            ["integrate", "ones_on_square.json"],
            ["pushforward", "square_to_interval.json", "ones_on_square.json"],
            ["gamma-chi", "so2_s2.json", "--gamma", GAMMAS[1]],
            ["translation", "s3_point.json", "--gamma", GAMMAS[2]],
            ["order-ell", "s3_point.json", "--ell", "2"],
            ["inertia", "s3_point.json", "--gamma", GAMMAS[2]],
            ["atlas", "s3_point.json", "q8_point.json", "--gamma", GAMMAS[3]],
            ["extension", "o2_extension.json"],
            ["verify", "--seed", "42", "--cases", "20"],
        )
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


# Exit-0 golden cases whose headline only the CLI's route computes: an
# extension's prediction.  gamma-chi at Gamma = Z is recomputed from cell
# models in ``test_catalog``, so it is neither here nor below.
ONE_ROUTE = {"extension": {"extension o2_extension.json"}}

# |Hom(Gamma, C)| for a subgroup C, given as its members in a group table,
# counted from the table for each Gamma the Burnside count meets.
HOM_COUNT = {
    GAMMAS[0]: lambda table, members: 1,
    GAMMAS[1]: lambda table, members: sum(table[b][b] == 0 for b in members),
    GAMMAS[3]: lambda table, members: sum(table[b][c] == table[c][b] for b in members for c in members),
}
# Gamma^ab as (free rank, invariant factors), written out for each Gamma
ABELIANIZED = {GAMMAS[0]: (0, ()), GAMMAS[1]: (0, (2,)), GAMMAS[2]: (1, ()), GAMMAS[3]: (2, ())}


def _burnside(table, gamma: str) -> int:
    """|Hom(Gamma, K)/K| for K given by its table: conjugation by a fixes
    exactly the homomorphisms into the centralizer C_K(a), so the orbit
    count is (1/|K|) * sum over a of |Hom(Gamma, C_K(a))|."""
    n = len(table)
    total = sum(
        HOM_COUNT[gamma](table, [b for b in range(n) if table[a][b] == table[b][a]]) for a in range(n)
    )
    assert total % n == 0
    return total // n


def _label_chi(label, gamma: str) -> int:
    """chi of the homomorphism quotient into one gamma-chi label: Burnside
    for a finite group; for the torus T^n, 0 when Gamma^ab has free rank
    and otherwise its d^n torsion points per invariant factor d; 1 for
    SO(3) at trivial Gamma."""
    if isinstance(label, catalog.FiniteIsotropy):
        return _burnside(label.group.table, gamma)
    if isinstance(label, catalog.TorusIsotropy):
        rank, torsion = ABELIANIZED[gamma]
        return 0 if rank else math.prod(torsion) ** label.n
    assert isinstance(label, catalog.SO3Isotropy) and gamma == GAMMAS[0], (label, gamma)
    return 1


def _second_route(argv: list[str]):
    """The headline of an order-ell, inertia, atlas or gamma-chi case by a
    route the command does not take, as a zero-argument callable: the
    Burnside count over homomorphisms for the walk; the walk at order r
    for Gamma = Z^r (trivial at r = 0), summed over the pieces; the
    Burnside count from the table for a point at Z/2; and the strata's
    label values from the tables and Gamma^ab, summed with their signs.
    None where there is none."""
    if argv[0] == "order-ell":
        return lambda: tr.chi_gamma_noniter(
            Presentation.free_abelian(int(argv[3])), jsonio.load_file(DATA / argv[1], jsonio.load_complex)[0]
        )
    if argv[0] == "extension" or argv[0] == "gamma-chi" and argv[-1] == GAMMAS[2]:
        return None
    if argv[0] == "gamma-chi":

        def strata() -> int:
            g = jsonio.load_file(DATA / argv[1], jsonio.load_groupoid)[0]
            return sum(
                (-1) ** c.dim * _label_chi(label, argv[-1]) for c, label in zip(g.space.cells, g.isotropy)
            )

        return strata
    pieces = argv[1:-2]
    if argv[-1] == GAMMAS[1]:

        def points() -> int:
            xs = [jsonio.load_file(DATA / f, jsonio.load_complex)[0] for f in pieces]
            assert all(x.dims == (0,) for x in xs)
            return sum(_burnside(x.group.table, argv[-1]) for x in xs)

        return points
    rank = json.loads(argv[-1]).get("rank", 0)
    return lambda: sum(tr.chi_order_ell(jsonio.load_file(DATA / f, jsonio.load_complex)[0], rank) for f in pieces)


def _primitives(monkeypatch, route) -> tuple[object, set[str]]:
    """route's value, and which of the homomorphism enumeration, the orbit
    walk, the centralizer masks and the abelianization it calls, with the
    catalog's chi cache cleared."""
    catalog._finite_chi.cache_clear()
    called = set()

    def spy(label, fn):
        def wrapped(*args, **kwargs):
            called.add(label)
            return fn(*args, **kwargs)

        return wrapped

    with monkeypatch.context() as m:
        m.setattr(groups, "hom_enumerate", spy("hom_enumerate", groups.hom_enumerate))
        m.setattr(groups, "hom_orbit_reps", spy("hom_orbit_reps", groups.hom_orbit_reps))
        m.setattr(groups.FiniteGroup, "centralizer_mask",
                  spy("centralizer_mask", groups.FiniteGroup.centralizer_mask))
        m.setattr(groups, "abelianize_snf", spy("abelianize_snf", groups.abelianize_snf))
        value = route()
    return value, called


def test_golden_headlines_have_a_second_route(monkeypatch):
    """Every exit-0 order-ell, inertia, atlas and gamma-chi golden headline
    that has a second route is recomputed by it, and the two sides share
    none of the homomorphism enumeration, the orbit walk, the centralizer
    masks and the abelianization.  The exit-0 cases left with one route are named in
    ``ONE_ROUTE``."""
    recomputed, single = 0, {}
    for name in ("order_ell", "inertia", "atlas", "gamma_chi", "extension"):
        golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        for argv in CASES[name]:
            key = " ".join(argv)
            if golden[key]["exit"] != 0:
                continue
            second = _second_route(argv)
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
    assert recomputed == 34
    assert single == ONE_ROUTE


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, cases in CASES.items():
        golden = {" ".join(argv): run(argv, _where(name)) for argv in cases}
        text = json.dumps(golden, sort_keys=True, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json ({len(golden)} cases)", file=sys.stderr)
