"""Randomized cross-validation of every identity the library promises.

``run_suite`` draws (group, rigid complex, presentation) instances
deterministically from a seed and checks, per instance:

* three-way agreement of the stratum-wise, inertia-space, and
  Burnside-count routes;
* the order-ell recursion against the Burnside count for Z^ell, with
  which it shares no orbit or centralizer code;
* the forgetful-map pushforward identity (its integral equals the inertia
  chi);
* additivity across an invariant bipartition of cells;
* multiplicativity under products of actions;
* agreement of iterated and product-presentation inertia;
* the coset-action reduction (the action on cosets of a subgroup has the
  same invariants as the subgroup acting on a point);
* agreement of the two integral formulations on random constructible
  functions.

All checks are exact integer equalities.  A failing case is shrunk by
greedily dropping strata and relators before being reported.

Fault injection (the ``inject_fault`` argument, or the
EULERCHI_INJECT_FAULT environment variable consulted by the CLI) skews one
side of a chosen comparison so the harness's own failure path can be
exercised; it exists for the harness self-test and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from . import catalog, cells, groups, translation as tr
from .cells import CellSpace, ConstructibleFunction, integrate, integrate_levelset, pushforward
from .groups import FiniteGroup, Presentation

FAULTS = ("lambda_plus_one", "noniter_minus_one")

# Limits on |G|^generators, which keep inertia complexes desk sized; they
# decide the redraws, so changing one changes every ``verify`` report.
CASE_TUPLES = 20000
MORITA_TUPLES = 20000
PRODUCT_TUPLES = 50000
ITERATE_TUPLES = 5000
ORDER_ELL_TUPLES = 2000  # for ell = 3


# ---------------------------------------------------------------------------
# deterministic instance generation

# key -> (order, builder): the stated order lets a draw filter the keys
# without building every group
_GROUP_BUILDERS: dict[str, tuple[int, Callable[[], FiniteGroup]]] = {
    "1": (1, groups.trivial_group),
    "C2": (2, lambda: groups.cyclic_group(2)),
    "C3": (3, lambda: groups.cyclic_group(3)),
    "C4": (4, lambda: groups.cyclic_group(4)),
    "C6": (6, lambda: groups.cyclic_group(6)),
    "C8": (8, lambda: groups.cyclic_group(8)),
    "S3": (6, lambda: groups.symmetric_group(3)),
    "S4": (24, lambda: groups.symmetric_group(4)),
    "D4": (8, lambda: groups.dihedral_group(4)),
    "D5": (10, lambda: groups.dihedral_group(5)),
    "D6": (12, lambda: groups.dihedral_group(6)),
    "Q8": (8, groups.quaternion_group),
    "C2xC2": (4, lambda: groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2))),
    "C2xS3": (12, lambda: groups.direct_product(groups.cyclic_group(2), groups.symmetric_group(3))),
    "C2xQ8": (16, lambda: groups.direct_product(groups.cyclic_group(2), groups.quaternion_group())),
    "C3xC3": (9, lambda: groups.direct_product(groups.cyclic_group(3), groups.cyclic_group(3))),
    "C2xD4": (16, lambda: groups.direct_product(groups.cyclic_group(2), groups.dihedral_group(4))),
    # only drawn when max_group allows it
    "C2xS4": (48, lambda: groups.direct_product(groups.cyclic_group(2), groups.symmetric_group(4))),
}

_group_cache: dict[str, FiniteGroup] = {}


def group_by_key(key: str) -> FiniteGroup:
    if key not in _group_cache:
        _group_cache[key] = _GROUP_BUILDERS[key][1]()
    return _group_cache[key]


def _keys_within(max_group: int) -> list[str]:
    """The group keys of order at most ``max_group``, in table order."""
    return [k for k, (order, _) in _GROUP_BUILDERS.items() if order <= max_group]


@dataclass
class CaseSpec:
    """Everything needed to rebuild one random instance."""

    group_key: str
    strata: list[tuple[list[int], int]]  # (subgroup elements, dimension)
    presentation: Presentation

    def to_jsonable(self) -> dict:
        from .jsonio import dump_presentation

        return {
            "group": self.group_key,
            "strata": [{"subgroup": list(s), "dim": d} for s, d in self.strata],
            "presentation": dump_presentation(self.presentation),
        }


def build_complex(spec: CaseSpec) -> tr.RigidGComplex:
    """One coset-action stratum per entry, glued into a single complex.

    Every cell is a coset, so the setwise stabilizer of a cell fixes it
    pointwise and rigidity holds by construction.
    """
    g = group_by_key(spec.group_key)
    all_cells: list[cells.Cell] = []
    perms: list[tuple[int, ...]] = [() for _ in g.elements()]
    for k, (sub, dim) in enumerate(spec.strata):
        ca = groups.coset_action(g, sub)
        offset = len(all_cells)
        all_cells.extend(cells.Cell(f"s{k}c{i}", dim) for i in range(len(ca.reps)))
        for e, perm in enumerate(ca.perms):
            perms[e] += tuple(offset + j for j in perm)
    return tr.RigidGComplex(g, CellSpace(tuple(all_cells)), tuple(perms))


def random_subgroup(rng: random.Random, g: FiniteGroup) -> list[int]:
    roll = rng.random()
    if roll < 0.15:
        return [0]
    if roll < 0.3:
        return list(g.elements())
    gens = [rng.randrange(g.order) for _ in range(rng.randint(1, 2))]
    return groups.subgroup_closure(g, gens)


def random_presentation(rng: random.Random, max_rank: int = 3) -> Presentation:
    roll = rng.random()
    if roll < 0.1:
        return Presentation.trivial()
    if roll < 0.35:
        return Presentation.free_abelian(1)
    if roll < 0.55:
        return Presentation.free_abelian(rng.randint(2, max_rank) if max_rank >= 2 else 1)
    if roll < 0.75:
        return Presentation.cyclic(rng.randint(2, 6))
    # two generators, a couple of short random relators
    gens = 2
    relators = []
    for _ in range(rng.randint(1, 2)):
        length = rng.randint(1, 4)
        relators.append(
            tuple(rng.choice([1, -1]) * rng.randint(1, gens) for _ in range(length))
        )
    return Presentation(gens, tuple(relators))


def _presentation_within(rng: random.Random, order: int, limit: int, max_rank: int = 3) -> Presentation:
    """A random presentation with ``order ** generators <= limit``: the
    first draw has up to ``max_rank`` generators, every redraw up to 2."""
    p = random_presentation(rng, max_rank)
    while order ** p.generators > limit:
        p = random_presentation(rng, max_rank=2)
    return p


def random_case(rng: random.Random, max_group: int, max_cells: int) -> CaseSpec:
    key = rng.choice(_keys_within(max_group))
    g = group_by_key(key)
    strata: list[tuple[list[int], int]] = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        sub = random_subgroup(rng, g)
        n_cosets = g.order // len(sub)
        if total + n_cosets > max_cells:
            continue
        total += n_cosets
        strata.append((sub, rng.randint(0, 2)))
    if not strata:
        strata.append((list(g.elements()), rng.randint(0, 2)))
    return CaseSpec(key, strata, _presentation_within(rng, g.order, CASE_TUPLES))


def random_function(rng: random.Random, space: CellSpace) -> ConstructibleFunction:
    return ConstructibleFunction(
        space, {cid: rng.randint(-4, 4) for cid in space.ids()}
    )


def random_cell_map(rng: random.Random) -> cells.CellMap:
    target = CellSpace(
        tuple(
            cells.Cell(f"t{i}", rng.randint(0, 2))
            for i in range(rng.randint(1, 6))
        )
    )
    min_dim = min(c.dim for c in target.cells)
    src = []
    assign = {}
    for i in range(rng.randint(0, 12)):
        dim = rng.randint(min_dim, 3)
        candidates = [c.id for c in target.cells if c.dim <= dim]
        src.append(cells.Cell(f"s{i}", dim))
        assign[f"s{i}"] = rng.choice(candidates)
    return cells.CellMap(CellSpace(tuple(src)), target, assign)


# ---------------------------------------------------------------------------
# checks


@dataclass
class CheckResult:
    case: int
    name: str
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class SuiteResult:
    seed: int
    cases: int
    checks_run: dict[str, int] = field(default_factory=dict)
    failures: list[CheckResult] = field(default_factory=list)
    failing_spec: dict | None = None
    anchors: list[tuple[cells.CellMap, int]] = field(default_factory=list)
    corpus: list[tuple[CaseSpec, tr.RigidGComplex]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _case_checks(
    case_index: int,
    spec: CaseSpec,
    rng: random.Random,
    inject_fault: str | None,
    collect: SuiteResult | None,
    x: tr.RigidGComplex | None = None,
) -> list[CheckResult]:
    if x is None:
        x = build_complex(spec)
    p = spec.presentation
    g = x.group
    results = []

    def rec(name: str, lhs: int, rhs: int) -> None:
        results.append(CheckResult(case_index, name, lhs, rhs))

    skew_l = 1 if inject_fault == "lambda_plus_one" else 0
    skew_n = -1 if inject_fault == "noniter_minus_one" else 0

    # the anchor map's source is the inertia orbit space, so its chi is
    # lambda_chi(p, x) without building the inertia complex twice
    anchor = tr.anchor_map(p, x)
    strata_v = tr.chi_gamma_strata(p, x)
    lambda_v = cells.chi(anchor.source) + skew_l
    noniter_v = tr.chi_gamma_noniter(p, x) + skew_n
    rec("three_way_strata_vs_lambda", strata_v, lambda_v)
    rec("three_way_strata_vs_noniter", strata_v, noniter_v)

    rec("trivial_gamma_is_orbit_chi",
        tr.chi_gamma_strata(Presentation.trivial(), x),
        cells.chi(tr.orbit_space(x)))

    max_ell = 3 if g.order ** 3 <= ORDER_ELL_TUPLES else 2
    for ell in range(0, max_ell + 1):
        rec(f"order_{ell}_vs_noniter",
            tr.chi_order_ell(x, ell),
            tr.chi_gamma_noniter(Presentation.free_abelian(ell), x))

    pushed = pushforward(anchor, ConstructibleFunction.constant(anchor.source, 1))
    rec("anchor_fubini", integrate(pushed), lambda_v - skew_l)
    if collect is not None:
        collect.anchors.append((anchor, lambda_v - skew_l))

    # additivity: split the orbits into two invariant halves
    reps, rep_of = tr.cell_orbits(x)
    if len(reps) >= 2:
        half = set(rng.sample(reps, rng.randint(1, len(reps) - 1)))
        part1 = [cid for cid in x.space.ids() if rep_of[cid] in half]
        part2 = [cid for cid in x.space.ids() if rep_of[cid] not in half]
        rec("additivity",
            strata_v,
            tr.chi_gamma_strata(p, tr.restrict_complex(x, part1))
            + tr.chi_gamma_strata(p, tr.restrict_complex(x, part2)))

    # levelset formulation on a random function over the orbit space
    f = random_function(rng, tr.orbit_space(x))
    rec("integral_formulations", integrate(f), integrate_levelset(f))

    return results


def morita_check(rng: random.Random, max_group: int) -> CheckResult:
    """lambda chi of the coset action equals the subgroup's orbit count."""
    g = group_by_key(rng.choice(_keys_within(max_group)))
    sub = random_subgroup(rng, g)
    p = _presentation_within(rng, g.order, MORITA_TUPLES, max_rank=2)
    h, _ = groups.subgroup_group(g, sub)
    lhs = tr.lambda_chi(p, tr.coset_complex(g, sub))
    rhs = catalog.chi_hom_quotient(catalog.FiniteIsotropy(h), p)
    return CheckResult(-1, "morita_coset", lhs, rhs)


def multiplicativity_check(rng: random.Random) -> CheckResult:
    small = ["1", "C2", "C3", "S3", "C2xC2", "C4"]

    def draw() -> CaseSpec:
        key = rng.choice(small)
        g = group_by_key(key)
        strata = [(random_subgroup(rng, g), rng.randint(0, 2)) for _ in range(rng.randint(1, 2))]
        return CaseSpec(key, strata, Presentation.trivial())

    a, b = draw(), draw()
    order = group_by_key(a.group_key).order * group_by_key(b.group_key).order
    p = _presentation_within(rng, order, PRODUCT_TUPLES, max_rank=2)
    xa, xb = build_complex(a), build_complex(b)
    lhs = tr.lambda_chi(p, tr.product_complex(xa, xb))
    rhs = tr.lambda_chi(p, xa) * tr.lambda_chi(p, xb)
    return CheckResult(-1, "multiplicativity", lhs, rhs)


def iterate_check(rng: random.Random) -> CheckResult:
    spec = random_case(rng, 8, 12)
    p1 = random_presentation(rng, max_rank=1)
    p2 = random_presentation(rng, max_rank=1)
    g = group_by_key(spec.group_key)
    while g.order ** (p1.generators + p2.generators) > ITERATE_TUPLES:
        p1 = random_presentation(rng, max_rank=1)
        p2 = random_presentation(rng, max_rank=1)
    it, prod = tr.iterate_inertia(p1, p2, build_complex(spec))
    return CheckResult(-1, "iterate_inertia", it, prod)


# ---------------------------------------------------------------------------
# suite driver and shrinking


def shrink_spec(
    spec: CaseSpec, failing: Callable[[CaseSpec], bool], rounds: int = 40
) -> CaseSpec:
    """Greedy shrink: drop strata, then relators, while the failure stays."""
    current = spec
    budget = rounds
    changed = True
    while changed and budget > 0:
        changed = False
        for i in range(len(current.strata)):
            if len(current.strata) <= 1:
                break
            trial = CaseSpec(
                current.group_key,
                current.strata[:i] + current.strata[i + 1:],
                current.presentation,
            )
            budget -= 1
            if failing(trial):
                current = trial
                changed = True
                break
        if changed or budget <= 0:
            continue
        rels = current.presentation.relators
        for i in range(len(rels)):
            trial = CaseSpec(
                current.group_key,
                current.strata,
                Presentation(current.presentation.generators, rels[:i] + rels[i + 1:]),
            )
            budget -= 1
            if failing(trial):
                current = trial
                changed = True
                break
    return current


def run_suite(
    seed: int,
    cases: int,
    max_group: int = 24,
    max_cells: int = 60,
    inject_fault: str | None = None,
    collect: bool = False,
    extra_checks: bool = True,
) -> SuiteResult:
    if inject_fault is not None and inject_fault not in FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {FAULTS}")
    master = random.Random(seed)
    result = SuiteResult(seed=seed, cases=cases)
    sink = result if collect else None

    for case_index in range(cases):
        rng = random.Random(master.randrange(2**63))
        spec = random_case(rng, max_group, max_cells)
        x = build_complex(spec)
        checks = _case_checks(case_index, spec, rng, inject_fault, sink, x)
        if collect:
            result.corpus.append((spec, x))
        for c in checks:
            result.checks_run[c.name] = result.checks_run.get(c.name, 0) + 1
            if not c.passed:
                result.failures.append(c)
        if result.failures and result.failing_spec is None:
            first = result.failures[0]

            def still_fails(trial: CaseSpec, name: str = first.name) -> bool:
                try:
                    redone = _case_checks(-1, trial, random.Random(0), inject_fault, None)
                except Exception:
                    return False
                return any(c.name == name and not c.passed for c in redone)

            shrunk = shrink_spec(spec, still_fails) if still_fails(spec) else spec
            result.failing_spec = {
                "case": case_index,
                "check": first.name,
                "lhs": first.lhs,
                "rhs": first.rhs,
                "instance": shrunk.to_jsonable(),
            }
            break

    if extra_checks and not result.failures:
        trailer = random.Random(master.randrange(2**63))
        for _ in range(max(1, cases // 10)):
            for check in (
                morita_check(trailer, max_group),
                multiplicativity_check(trailer),
                iterate_check(trailer),
            ):
                result.checks_run[check.name] = result.checks_run.get(check.name, 0) + 1
                if not check.passed:
                    result.failures.append(check)

    return result
