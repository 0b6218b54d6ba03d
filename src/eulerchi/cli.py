"""Command-line front end.

``main`` runs every command the same way: it parses the arguments and
makes a ``Report`` named after the subcommand, the subcommand's ``cmd_*``
function loads its inputs and fills that report, and ``_emit`` renders it,
writes it to stdout (or as UTF-8 to ``--out``) and picks the exit code: 0,
or 3, as for a ``CrossCheckError``, when the report's checks disagree.  An
error raised on the way ends the run with one ``eulerchi:`` line on stderr,
nothing on stdout, and the ``exit_code`` the error carries (see
``errors``); a file that cannot be read or written and a report that
stdout cannot encode give 1.
Identical input files, nested ones included, and flags give identical
reports (``report`` says what ``inputs`` pins); ``--report json`` emits
the machine-readable form.  Input files are read only by ``jsonio``,
once each; the report records what it read.

Two limits are the commands' own: order-ell's recursion cap (``--cap``,
else the EULERCHI_RECURSION_CAP environment variable, which no other
command reads, else ``DEFAULT_RECURSION_CAP``) and integrate's
``LEVELSET_VALUE_BOUND``.  The functions they call take any order and any
value; the limits stay only for the commands' exit codes, 2 and 1.

``cmd_verify`` imports ``harness`` itself: every command is a fresh process,
and only ``verify`` uses the harness, so the others skip compiling it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import catalog, cells, groupoid, jsonio, translation as tr
from .errors import CrossCheckError, EulerchiError, RecursionCapExceeded, ValidationError
from .report import Report

DEFAULT_RECURSION_CAP = 4
LEVELSET_VALUE_BOUND = 10**6


def _emit(report: Report, args) -> int:
    try:
        text = report.to_json() if args.report == "json" else report.to_text()
    except ValueError:  # rendering raises it only for an integer past the digit limit
        raise EulerchiError(
            f"the report holds an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for integer string conversion"
        ) from None
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # raised before any of the text is written
            raise EulerchiError(
                f"stdout's encoding, {exc.encoding}, cannot encode the report; "
                "use --out FILE, which writes UTF-8"
            ) from None
    return 0 if report.all_pass() else CrossCheckError.exit_code


def _load(report: Report, label: str, path: str, loader):
    value, report.inputs[label] = jsonio.load_file(path, loader)
    return value


def cmd_chi(args, report: Report) -> None:
    space = _load(report, "space", args.space, jsonio.load_cell_space)
    report.result = cells.chi(space)
    report.breakdown = [
        {"cell": c.id, "dim": c.dim, "sign": -1 if c.dim % 2 else 1} for c in space.cells
    ]


def cmd_integrate(args, report: Report) -> None:
    f = _load(report, "function", args.function, jsonio.load_function)
    bound = max(map(abs, f.values), default=0)
    if bound > LEVELSET_VALUE_BOUND:
        raise ValidationError(
            f"level-set integration got a value of size {bound}; "
            f"values beyond {LEVELSET_VALUE_BOUND} are refused (use integrate)"
        )
    value = cells.integrate(f)
    report.result = value
    report.check("levelset_formulation", value, cells.integrate_levelset(f))


def cmd_pushforward(args, report: Report) -> None:
    m = _load(report, "map", args.map, jsonio.load_cell_map)
    f = _load(report, "function", args.function, jsonio.load_function)
    pushed = cells.pushforward(m, f)
    report.result = dict(sorted(zip(pushed.space.ids(), pushed.values)))
    report.check("fubini", cells.integrate(pushed), cells.integrate(f))


def cmd_gamma_chi(args, report: Report) -> None:
    g = _load(report, "groupoid", args.groupoid, jsonio.load_groupoid)
    p, report.inputs["gamma"] = jsonio.load_gamma(args.gamma)
    f = groupoid.integrand(g, p)
    report.result = cells.integrate(f)
    report.breakdown = [
        {"stratum": c.id, "dim": c.dim, "integrand": v, "term": v * (-1 if c.dim % 2 else 1)}
        for c, v in zip(g.space.cells, f.values)
    ]
    for c, label in zip(g.space.cells, g.isotropy):
        if catalog.is_user_supplied(label):
            report.warnings.append(f"stratum {c.id}: user-supplied catalog entry")


def cmd_translation(args, report: Report) -> None:
    x = _load(report, "complex", args.complex, jsonio.load_complex)
    p, report.inputs["gamma"] = jsonio.load_gamma(args.gamma)
    routes = {"strata": tr.chi_gamma_strata, "inertia": tr.lambda_chi, "noniter": tr.chi_gamma_noniter}
    values = {m: route(p, x) for m, route in routes.items() if args.method in (m, "all")}
    report.result = values if args.method == "all" else values[args.method]
    if args.method == "all":
        report.check("strata_vs_inertia", values["strata"], values["inertia"])
        report.check("strata_vs_noniter", values["strata"], values["noniter"])


def cmd_order_ell(args, report: Report) -> None:
    cap = args.cap
    if cap is None:
        raw = os.environ.get("EULERCHI_RECURSION_CAP", "")
        try:
            cap = int(raw) if raw else DEFAULT_RECURSION_CAP
        except ValueError:
            raise ValidationError(f"EULERCHI_RECURSION_CAP must be an integer, got {raw!r}") from None
    x = _load(report, "complex", args.complex, jsonio.load_complex)
    if args.ell >= 0:  # a negative order is refused by the walk, ahead of the cap
        if cap < 0:
            raise ValidationError(f"recursion cap must be >= 0, got {cap}")
        if args.ell > cap:
            raise RecursionCapExceeded(args.ell, cap)
    report.result = tr.chi_order_ell(x, args.ell)
    # depth d branches once per class of commuting d-tuples, whatever the complex: chi on a point
    point = tr.point_complex(x.group)
    tree = [{"depth": d, "branches": tr.chi_order_ell(point, d)} for d in (1, 2) if d <= args.ell]
    report.breakdown = {"ell": args.ell, "recursion": tree}


def cmd_inertia(args, report: Report) -> None:
    x = _load(report, "complex", args.complex, jsonio.load_complex)
    p, report.inputs["gamma"] = jsonio.load_gamma(args.gamma)
    ic = tr.InertiaComplex(p, x)
    reps = tr.cell_orbits(ic)
    report.result = sum(-1 if ic.dims[k] % 2 else 1 for k in reps)
    report.breakdown = {
        "labels": len(ic.tuples),
        "cells": len(ic.pairs),
        "orbit_cells": len(reps),
    }


def cmd_atlas(args, report: Report) -> None:
    pieces = []
    for i, path in enumerate(args.pieces):
        pieces.append(_load(report, f"piece{i}", path, jsonio.load_complex))
    p, report.inputs["gamma"] = jsonio.load_gamma(args.gamma)
    terms = [tr.chi_gamma_strata(p, piece) for piece in pieces]
    report.result = sum(terms)
    report.breakdown = [{"piece": i, "value": v} for i, v in enumerate(terms)]
    report.warnings.append(
        "chart images asserted disjoint by the caller; not verifiable from the pieces"
    )


def cmd_extension(args, report: Report) -> None:
    ext = _load(report, "extension", args.extension, jsonio.load_extension)
    pred = tr.abelian_extension_chi(ext["fiber"], ext["complex"], ext["ell"])
    report.result = pred.predicted
    report.breakdown = {
        "fiber_factor": pred.factor_b,
        "base_factor": pred.factor_h,
        "ell": ext["ell"],
    }
    report.warnings.append(
        "prediction assumes an abelian extension; nonabelian extensions genuinely differ"
    )


def cmd_verify(args, report: Report) -> None:
    from . import harness

    fault = os.environ.get("EULERCHI_INJECT_FAULT") or None
    if args.cases < 1:
        raise ValidationError(f"--cases must be >= 1, got {args.cases}")
    if args.max_group < 1:
        raise ValidationError(f"--max-group must be >= 1, got {args.max_group}")
    if args.max_cells < 1:
        raise ValidationError(f"--max-cells must be >= 1, got {args.max_cells}")
    if fault is not None and fault not in harness.FAULTS:
        raise ValidationError(
            f"EULERCHI_INJECT_FAULT: unknown fault {fault!r}; known: {', '.join(harness.FAULTS)}"
        )
    result = harness.run_suite(
        seed=args.seed,
        cases=args.cases,
        max_group=args.max_group,
        max_cells=args.max_cells,
        inject_fault=fault,
    )
    report.result = {
        "seed": result.seed,
        "cases": result.cases,
        "passed": result.passed,
    }
    report.breakdown = {name: result.checks_run[name] for name in sorted(result.checks_run)}
    if fault:
        report.warnings.append(f"fault injection active: {fault}")
    for f in result.failures:
        report.check(f"case{f.case}:{f.name}", f.lhs, f.rhs)
    if not result.passed and result.failing_spec is not None:
        dump = Path(args.dump)
        dump.write_text(
            json.dumps(result.failing_spec, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        report.warnings.append(f"counterexample written to {dump}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerchi",
        description="Exact Euler characteristics of cell spaces, labeled groupoids, "
        "and finite group actions, with cross-validated routes.",
    )
    parser.add_argument("--report", choices=("json", "text"), default="text")
    parser.add_argument("--out", metavar="FILE", default=None, help="write the report to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("chi", help="Euler characteristic of a cell space file")
    s.add_argument("space")
    s.set_defaults(func=cmd_chi)

    s = sub.add_parser("integrate", help="integrate a constructible function")
    s.add_argument("function")
    s.set_defaults(func=cmd_integrate)

    s = sub.add_parser("pushforward", help="push a function forward along a cell map")
    s.add_argument("map")
    s.add_argument("function")
    s.set_defaults(func=cmd_pushforward)

    s = sub.add_parser("gamma-chi", help="Euler characteristic of a labeled groupoid")
    s.add_argument("groupoid")
    s.add_argument("--gamma", required=True, help="presentation file or inline JSON")
    s.set_defaults(func=cmd_gamma_chi)

    s = sub.add_parser("translation", help="group action invariants by three routes")
    s.add_argument("complex")
    s.add_argument("--gamma", required=True)
    s.add_argument("--method", choices=("strata", "inertia", "noniter", "all"), default="all")
    s.set_defaults(func=cmd_translation)

    s = sub.add_parser("order-ell", help="order-ell orbifold characteristic")
    s.add_argument("complex")
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--cap", type=int, default=None)
    s.set_defaults(func=cmd_order_ell)

    s = sub.add_parser("inertia", help="build the inertia complex and report its chi")
    s.add_argument("complex")
    s.add_argument("--gamma", required=True)
    s.set_defaults(func=cmd_inertia)

    s = sub.add_parser("atlas", help="sum chart pieces (disjointness asserted by caller)")
    s.add_argument("pieces", nargs="+")
    s.add_argument("--gamma", required=True)
    s.set_defaults(func=cmd_atlas)

    s = sub.add_parser("extension", help="abelian-extension prediction with both factors")
    s.add_argument("extension")
    s.set_defaults(func=cmd_extension)

    s = sub.add_parser("verify", help="randomized cross-validation suite")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cases", type=int, default=50)
    s.add_argument("--max-group", type=int, default=24)
    s.add_argument("--max-cells", type=int, default=60)
    s.add_argument("--dump", default="eulerchi-counterexample.json")
    s.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: make its report, named after the subcommand, have
    ``args.func`` fill it, and ``_emit`` it.  An error instead prints one
    ``eulerchi:`` line to stderr and returns the error's exit code."""
    try:
        args = build_parser().parse_args(argv)
        report = Report(args.command)
        args.func(args, report)
        return _emit(report, args)
    except EulerchiError as exc:
        print(f"eulerchi: {exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"eulerchi: {exc}", file=sys.stderr)
        return EulerchiError.exit_code


if __name__ == "__main__":
    sys.exit(main())
