"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload makes its inputs from the seed in ``generate`` and hands the
program only those inputs.  Work is grouped into cycles: ``cycle(inputs, k)``
is the k-th list of operations, and an operation returns an ``Outcome``
saying whether every value it produced was right.  Only standard-library
modules are imported here; the program is imported by ``import_program``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "eulerchi"
DATA = "src/eulerchi/data"  # relative to ROOT, the working directory of CLI runs
CHILD_TIMEOUT_S = 120


class ProgramMissing(RuntimeError):
    """The checkout holds no eulerchi sources to benchmark."""


def require_sources() -> None:
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise ProgramMissing(f"no eulerchi package under {PACKAGE_DIR}")


def import_program() -> SimpleNamespace:
    """Import eulerchi from this checkout's ``src`` and nowhere else."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eulerchi
    from eulerchi import catalog, cells, groups, harness, translation

    if Path(eulerchi.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise ProgramMissing(f"eulerchi was imported from {eulerchi.__file__}, not {PACKAGE_DIR}")
    return SimpleNamespace(
        catalog=catalog, cells=cells, groups=groups, harness=harness, translation=translation
    )


def reset_program_caches(prog: SimpleNamespace) -> None:
    """Give the next operation the cold caches of a fresh process.

    Without this, later operations would reuse the homomorphism-quotient
    cache and the harness's group cache filled by earlier ones, so results
    per operation and per-layer counts would depend on what ran before.
    """
    cached = getattr(prog.catalog, "_finite_chi", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()
    groups_cache = getattr(prog.harness, "_group_cache", None)
    if isinstance(groups_cache, dict):
        groups_cache.clear()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, bytes, int]:
    """Run one process to completion: (exit code, stdout, peak RSS in KiB).

    ``os.wait4`` reaps the child, so its own peak RSS is known rather than
    the maximum over every child this process has waited for.
    """
    import subprocess

    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


# ---------------------------------------------------------------------------
# closed forms that share no code with the program


def subgroup_counts(m: int, kmax: int) -> list[int]:
    """a_m(k) for k = 0..kmax: the number of index-k subgroups of Z^m.

    a_1(k) = 1 and a_m(k) = sum over d | k of a_{m-1}(k/d) * d^(m-1).
    """
    a = [0] + [1] * kmax
    for j in range(2, m + 1):
        a = [0] + [
            sum(a[k // d] * d ** (j - 1) for d in range(1, k + 1) if k % d == 0)
            for k in range(1, kmax + 1)
        ]
    return a


def commuting_orbits_symmetric(n: int, rank: int) -> int:
    """Conjugation orbits of commuting rank-tuples in S_n, which equals
    |Hom(Z^(rank+1), S_n)| / n!  (Bryan & Fulman, Ann. Comb. 2, 1998).

    That is the q^n coefficient of exp(sum_k a_(rank+1)(k) q^k / k); its
    coefficients b satisfy j * b_j = sum_k a(k) * b_(j-k).
    """
    a = subgroup_counts(rank + 1, n)
    b = [Fraction(1)]
    for j in range(1, n + 1):
        b.append(sum(a[k] * b[j - k] for k in range(1, j + 1)) / j)
    if b[n].denominator != 1:
        raise ArithmeticError(f"non-integral orbit count {b[n]} for S_{n}, rank {rank}")
    return int(b[n])


def commuting_orbits(subgroup: tuple[str, int], rank: int) -> int:
    """Orbit count for a subgroup named ("S", n) or ("C", m)."""
    kind, n = subgroup
    return commuting_orbits_symmetric(n, rank) if kind == "S" else n ** rank


# ---------------------------------------------------------------------------
# seeded groups as plain lists


def symmetric_table(n: int, rng: random.Random) -> tuple[list[list[int]], dict[tuple, int]]:
    """S_n as a multiplication table with the non-identity elements in a
    seeded order; returns the table and each permutation's label."""
    perms = list(itertools.permutations(range(n)))
    labels = list(range(1, len(perms)))
    rng.shuffle(labels)
    label = {p: i for p, i in zip(perms, [0] + labels)}
    table = [[0] * len(perms) for _ in perms]
    for p in perms:
        row = table[label[p]]
        for q in perms:
            row[label[q]] = label[tuple(map(p.__getitem__, q))]
    return table, label


def named_subgroup(n: int, name: tuple[str, int], label: dict[tuple, int]) -> list[int]:
    """Labels of a subgroup of S_n: ("S", n-1) fixes the last point,
    ("C", m) is generated by a product of disjoint cycles of order m."""
    kind, m = name
    if kind == "S":
        return sorted(label[p] for p in label if p[n - 1] == n - 1)
    gen = {5: (1, 2, 3, 4, 0), 6: (1, 2, 0, 4, 3)}[m] + tuple(range(5, n))
    elems, cur = [], tuple(range(n))
    for _ in range(m):
        elems.append(label[cur])
        cur = tuple(gen[cur[i]] for i in range(n))
    return sorted(elems)


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class Outcome:
    ok: bool
    value: Any = None  # what must be identical with tracing on and off
    error: str = ""
    rss_kb: int = 0  # peak RSS of the operation's own process, if it had one
    stats: dict = field(default_factory=dict)  # per-layer stats from a child


@dataclass
class Op:
    label: str
    run: Callable[..., Outcome]


# ---------------------------------------------------------------------------
# verify_corpus


class VerifyCorpus:
    """A closed loop of ``harness.run_suite`` requests, as ``eulerchi verify``
    runs them, over a fixed corpus of suite seeds in a seeded order."""

    name = "verify_corpus"
    in_process = True
    cases = 5
    tail_percentile = 80
    # Fixed rather than drawn from the workload seed: the cost of a verify
    # request depends on the groups its seed draws (0.07 to 0.85 s), and
    # drawing a new corpus per seed spread op_p50_ms by 11% and peak_rss_mb
    # by 12% (IQR over median, five seeds, 30 s runs) from the corpus alone.
    CORPUS = tuple(random.Random(f"verify_corpus/{i}").randrange(2**31) for i in range(27))

    def generate(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "fault": os.environ.get("EULERCHI_INJECT_FAULT") or None}

    def cycle(self, inputs: dict, k: int) -> list[Op]:
        order = list(self.CORPUS)
        random.Random(f"verify_corpus/{inputs['seed']}/{k}").shuffle(order)
        return [
            Op(f"verify seed={s}", lambda prog, tracer=None, s=s: self.request(prog, s, inputs["fault"]))
            for s in order
        ]

    def request(self, prog, seed: int, fault: str | None) -> Outcome:
        res = prog.harness.run_suite(
            seed=seed, cases=self.cases, max_group=24, max_cells=60,
            inject_fault=fault, extra_checks=True,
        )
        runs = dict(res.checks_run)
        three_way = [runs.get(f"three_way_strata_vs_{o}") for o in ("lambda", "noniter")]
        ok = res.passed and three_way == [self.cases, self.cases]
        failures = [(f.case, f.name, f.lhs, f.rhs) for f in res.failures]
        error = "" if ok else f"passed={res.passed} three_way={three_way} failures={failures[:3]}"
        return Outcome(ok, (res.passed, sorted(runs.items()), failures), error)


# ---------------------------------------------------------------------------
# symmetric_scale


@dataclass(frozen=True)
class Instance:
    n: int
    stratum: tuple | None  # None for a point, else (subgroup name, dim)
    rank: int
    route: str
    expected: int


ROUTES = ("strata", "lambda", "noniter", "order_ell")


class SymmetricScale:
    """Few large groups: S5 and S6 acting on a point and S5 on coset
    complexes, through each of the four routes for Gamma = Z^rank.  One
    operation validates the table, builds the complex and runs one route."""

    name = "symmetric_scale"
    in_process = True
    tail_percentile = 80

    # (n, coset stratum, ranks).  lambda_chi is left out on a point where
    # |G|^rank > 10^5: its inertia complex has |Hom(Z^rank, G)| cells, each
    # mapped by every element (S5 with Z^3: 24,720 cells x 120 elements; S6
    # with Z^2: 66,240 x 720), so that one operation would weigh more than
    # the groups layer this workload is about.
    MIX = (
        (5, None, (1, 2, 3)),
        (6, None, (1, 2)),
        (5, (("S", 4), 0), (1, 2, 3)),
        (5, (("C", 5), 1), (1, 2)),
        (5, (("C", 6), 2), (1, 2)),
    )

    def generate(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"symmetric_scale/{seed}")
        tables, labels, subgroups, instances = {}, {}, {}, []
        for n, stratum, ranks in self.MIX:
            if n not in tables:
                tables[n], labels[n] = symmetric_table(n, rng)
            if stratum is not None:
                subgroups[(n, stratum[0])] = named_subgroup(n, stratum[0], labels[n])
            for rank in ranks:
                if stratum is None:
                    expected = commuting_orbits(("S", n), rank)
                else:
                    expected = (-1) ** stratum[1] * commuting_orbits(stratum[0], rank)
                for route in ROUTES:
                    if not (route == "lambda" and stratum is None and math.factorial(n) ** rank > 10**5):
                        instances.append(Instance(n, stratum, rank, route, expected))
        rng.shuffle(instances)
        return {"tables": tables, "subgroups": subgroups, "instances": instances}

    def cycle(self, inputs: dict, k: int) -> list[Op]:
        return [
            Op(f"S{inst.n} {inst.stratum or 'point'} rank={inst.rank} {inst.route}",
               lambda prog, tracer=None, inst=inst: self.instance(prog, inputs, inst))
            for inst in inputs["instances"]
        ]

    def instance(self, prog, inputs: dict, inst: Instance) -> Outcome:
        tr, groups = prog.translation, prog.groups
        g = groups.validate_group(inputs["tables"][inst.n])
        if inst.stratum is None:
            x = tr.point_complex(g)
        else:
            name, dim = inst.stratum
            x = tr.coset_complex(g, inputs["subgroups"][(inst.n, name)], dim)
        p = groups.Presentation.free_abelian(inst.rank)
        if inst.route == "strata":
            value = tr.chi_gamma_strata(p, x)
        elif inst.route == "lambda":
            value = tr.lambda_chi(p, x)
        elif inst.route == "noniter":
            value = tr.chi_gamma_noniter(p, x)
        else:
            value = tr.chi_order_ell(x, inst.rank)
        ok = value == inst.expected
        return Outcome(ok, value, "" if ok else f"expected {inst.expected}, got {value}")


# ---------------------------------------------------------------------------
# cli_batch


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    exit_code: int
    result: Any = None  # the report's "result"; None for a refusal
    breakdown: Any = None  # checked only where given


class CliBatch:
    """A closed loop of fresh ``python -m eulerchi.cli --report json``
    processes, one at a time, over every subcommand."""

    name = "cli_batch"
    in_process = False
    tail_percentile = 85
    verify_cases = 5

    def generate(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(f"cli_batch/{seed}")
        table, label = symmetric_table(5, rng)
        strata = ((("C", 5), 0), (("S", 4), 2))
        cells, action = [], {str(g): {} for g in range(len(table))}
        for k, (name, dim) in enumerate(strata):
            cosets = self._cosets(table, named_subgroup(5, name, label))
            ids = [f"s{k}c{i}" for i in range(len(cosets))]
            cells += [{"id": cid, "dim": dim} for cid in ids]
            coset_of = {e: i for i, coset in enumerate(cosets) for e in coset}
            for g in range(len(table)):
                for i, coset in enumerate(cosets):
                    action[str(g)][ids[i]] = ids[coset_of[table[g][coset[0]]]]
        complex_ = {"group": {"order": len(table), "table": table}, "cells": cells, "action": action}
        rel = workdir.relative_to(ROOT)
        files = {
            "cosets": rel / "s5_cosets.json",
            "tampered": rel / "s5_cosets_tampered.json",
            "bad_space": rel / "bad_space.json",
        }
        (ROOT / files["cosets"]).write_text(json.dumps(complex_), encoding="utf-8")
        # swap two images in one element's map: still a bijection that keeps
        # dimensions, so only the full homomorphism check refuses it
        last = action[str(len(table) - 1)]
        a, b = "s0c0", "s0c1"
        last[a], last[b] = last[b], last[a]
        (ROOT / files["tampered"]).write_text(json.dumps(complex_), encoding="utf-8")
        (ROOT / files["bad_space"]).write_text(json.dumps({"cells": [{"id": "v"}]}), encoding="utf-8")

        def orbits(rank: int) -> int:
            return sum((-1) ** dim * commuting_orbits(name, rank) for name, dim in strata)

        def z(rank: int) -> str:
            return json.dumps({"kind": "free_abelian", "rank": rank})

        d = DATA
        cos, tam = str(files["cosets"]), str(files["tampered"])
        invocations = [
            Invocation(("chi", f"{d}/closed_interval.json"), 0, 1),
            Invocation(("chi", f"{d}/so3_r3_orbit.json"), 0, 0),
            Invocation(("integrate", f"{d}/ones_on_square.json"), 0, 1),
            Invocation(("pushforward", f"{d}/square_to_interval.json", f"{d}/ones_on_square.json"),
                       0, {"v0": 1, "v1": 1, "e": 1}),
            Invocation(("gamma-chi", f"{d}/so2_s2.json", "--gamma", '{"kind":"cyclic","order":3}'), 0, 5),
            Invocation(("gamma-chi", f"{d}/so2_s2.json", "--gamma", z(2)), 0, -1),
            Invocation(("gamma-chi", f"{d}/so3_r3.json", "--gamma", '{"kind":"cyclic","order":2}'), 2),
            Invocation(("translation", f"{d}/s3_point.json", "--gamma", z(2)), 0,
                       dict.fromkeys(("strata", "inertia", "noniter"), commuting_orbits(("S", 3), 2))),
            Invocation(("translation", f"{d}/q8_point.json", "--gamma", z(1)), 0,
                       dict.fromkeys(("strata", "inertia", "noniter"), 5)),
            Invocation(("order-ell", f"{d}/s3_point.json", "--ell", "2"), 0, commuting_orbits(("S", 3), 2)),
            Invocation(("order-ell", f"{d}/q8_point.json", "--ell", "1"), 0, 5),
            Invocation(("order-ell", f"{d}/s3_point.json", "--ell", "5"), 2),
            Invocation(("inertia", f"{d}/s3_point.json", "--gamma", z(1)), 0, 3),
            Invocation(("atlas", f"{d}/s3_point.json", f"{d}/s3_point.json", "--gamma", z(1)), 0, 6),
            Invocation(("extension", f"{d}/o2_extension.json"), 0, 0),
            Invocation(("translation", cos, "--gamma", z(1)), 0,
                       dict.fromkeys(("strata", "inertia", "noniter"), orbits(1))),
            Invocation(("translation", cos, "--gamma", z(2)), 0,
                       dict.fromkeys(("strata", "inertia", "noniter"), orbits(2))),
            Invocation(("order-ell", cos, "--ell", "2"), 0, orbits(2)),
            Invocation(("inertia", cos, "--gamma", z(1)), 0, orbits(1)),
            Invocation(("translation", tam, "--gamma", z(1)), 1),
            Invocation(("chi", str(files["bad_space"])), 1),
            Invocation(("chi", f"{d}/no_such_file.json"), 1),
        ]
        return {"seed": seed, "invocations": invocations, "workdir": workdir, "dump": str(rel / "counterexample.json")}

    @staticmethod
    def _cosets(table: list[list[int]], sub: list[int]) -> list[list[int]]:
        """Left cosets g*H, in order of their smallest element."""
        seen, out = set(), []
        for g in range(len(table)):
            if g not in seen:
                coset = sorted(table[g][h] for h in sub)
                seen.update(coset)
                out.append(coset)
        return out

    def verify_invocation(self, inputs: dict) -> Invocation:
        s = VerifyCorpus.CORPUS[1]
        return Invocation(
            ("verify", "--seed", str(s), "--cases", str(self.verify_cases), "--dump", inputs["dump"]),
            0,
            {"seed": s, "cases": self.verify_cases, "passed": True},
            {"three_way_strata_vs_lambda": self.verify_cases,
             "three_way_strata_vs_noniter": self.verify_cases},
        )

    def cycle(self, inputs: dict, k: int) -> list[Op]:
        invocations = inputs["invocations"] + [self.verify_invocation(inputs)]
        random.Random(f"cli_batch/{inputs['seed']}/{k}").shuffle(invocations)
        return [
            Op(" ".join(inv.argv[:2]),
               lambda prog, tracer=None, inv=inv: self.invoke(inputs["workdir"], inv, tracer))
            for inv in invocations
        ]

    def invoke(self, workdir: Path, inv: Invocation, tracer) -> Outcome:
        stats_path = workdir / "layers.json"
        if tracer is None:
            argv = [sys.executable, "-m", "eulerchi.cli", "--report", "json", *inv.argv]
        else:
            argv = [sys.executable, str(BENCH / "launch.py"), str(stats_path),
                    "--report", "json", *inv.argv]
        stats_path.unlink(missing_ok=True)
        code, out, rss = run_child(argv, workdir / "stderr.txt")
        stats = json.loads(stats_path.read_text(encoding="utf-8")) if tracer is not None else {}
        ok, error = code == inv.exit_code, f"exit {code}, expected {inv.exit_code}"
        if ok and inv.exit_code == 0:
            try:
                report = json.loads(out)
            except json.JSONDecodeError:
                report = {}
            ok = report.get("result") == inv.result and (
                inv.breakdown is None
                or all(report.get("breakdown", {}).get(k) == v for k, v in inv.breakdown.items())
            )
            error = f"result {report.get('result')!r}, expected {inv.result!r}"
        return Outcome(ok, (code, out), "" if ok else error, rss, stats)


WORKLOADS = {w.name: w for w in (VerifyCorpus(), SymmetricScale(), CliBatch())}
