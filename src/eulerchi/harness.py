"""Randomized cross-validation of every identity the library promises.

``run_suite`` draws (group, rigid complex, presentation) instances
deterministically from a seed.  Each check is a ``(name, lhs, rhs)`` entry
whose sides are zero-argument callables, and one loop evaluates, tallies
and records them all.  Per instance:

* ``three_way_*``: the stratum-wise route against the inertia-space and
  Burnside-count routes;
* ``trivial_gamma_is_orbit_chi``: trivial Gamma gives the orbit space's chi;
* ``order_{ell}_vs_noniter``: the order-ell recursion against the Burnside
  count for Z^ell, with which it shares no enumeration or centralizer code;
* ``anchor_fubini``: the forgetful-map pushforward keeps the inertia chi;
* ``additivity`` across an invariant bipartition of cells;
* ``integral_formulations`` on a random constructible function.

Once per ten instances, and at least once, a trailer checks the
coset-action reduction (``morita_coset``), ``multiplicativity`` under
products of actions, and iterated against product-presentation inertia
(``iterate_inertia``).

All checks are exact integer equalities.  A failing case is shrunk by
greedily dropping strata and relators before being reported.

Fault injection (the ``inject_fault`` argument, or the
EULERCHI_INJECT_FAULT environment variable consulted by the CLI) adds the
skew ``FAULTS`` names to the right side of one check, in the check loop
only, so the harness's own failure path can be exercised; it exists for
the harness self-test and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

from . import catalog, cells, groups, translation as tr
from .cells import CellSpace, ConstructibleFunction, integrate, integrate_levelset, pushforward
from .groups import FiniteGroup, Presentation

# fault -> (the check whose right side it skews, by how much)
FAULTS = {
    "lambda_plus_one": ("three_way_strata_vs_lambda", 1),
    "noniter_minus_one": ("three_way_strata_vs_noniter", -1),
}

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


# (name, lhs, rhs): zero-argument callables whose integers must be equal.
# Any rng draws happen while a check is built, never while it runs.
Check = tuple[str, Callable[[], int], Callable[[], int]]


@dataclass
class CheckResult:
    """A failed check: its case (-1 for the trailer) and both sides."""

    case: int
    name: str
    lhs: int
    rhs: int


@dataclass
class SuiteResult:
    seed: int
    cases: int
    checks_run: dict[str, int] = field(default_factory=dict)
    failures: list[CheckResult] = field(default_factory=list)
    failing_spec: dict | None = None
    corpus: list[tuple[CaseSpec, tr.RigidGComplex]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _case_checks(
    spec: CaseSpec, rng: random.Random, x: tr.RigidGComplex | None = None
) -> list[Check]:
    if x is None:
        x = build_complex(spec)
    p = spec.presentation
    # shared by several checks, so computed at most once; the anchor map's
    # source is the inertia orbit space, so its chi is lambda_chi(p, x)
    # without building the inertia complex twice
    strata = cache(partial(tr.chi_gamma_strata, p, x))
    anchor = cache(partial(tr.anchor_map, p, x))

    def anchor_chi() -> int:
        return cells.chi(anchor().source)

    def pushed() -> int:
        return integrate(pushforward(anchor(), ConstructibleFunction.constant(anchor().source, 1)))

    max_ell = 3 if x.group.order ** 3 <= ORDER_ELL_TUPLES else 2
    checks: list[Check] = [
        ("three_way_strata_vs_lambda", strata, anchor_chi),
        ("three_way_strata_vs_noniter", strata, partial(tr.chi_gamma_noniter, p, x)),
        ("trivial_gamma_is_orbit_chi", partial(tr.chi_gamma_strata, Presentation.trivial(), x),
         lambda: cells.chi(tr.orbit_space(x))),
        *((f"order_{ell}_vs_noniter", partial(tr.chi_order_ell, x, ell),
           partial(tr.chi_gamma_noniter, Presentation.free_abelian(ell), x))
          for ell in range(max_ell + 1)),
        ("anchor_fubini", pushed, anchor_chi),
    ]

    # additivity: split the orbits into two invariant halves
    reps, rep_of = tr.cell_orbits(x)
    if len(reps) >= 2:
        half = set(rng.sample(reps, rng.randint(1, len(reps) - 1)))
        part1 = [cid for cid in x.space.ids() if rep_of[cid] in half]
        part2 = [cid for cid in x.space.ids() if rep_of[cid] not in half]

        def halves() -> int:
            return sum(tr.chi_gamma_strata(p, tr.restrict_complex(x, part)) for part in (part1, part2))

        checks.append(("additivity", strata, halves))

    # levelset formulation on a random function over the orbit space
    f = random_function(rng, tr.orbit_space(x))
    checks.append(("integral_formulations", partial(integrate, f), partial(integrate_levelset, f)))
    return checks


def morita_check(rng: random.Random, max_group: int) -> Check:
    """lambda chi of the coset action equals the subgroup's orbit count."""
    g = group_by_key(rng.choice(_keys_within(max_group)))
    sub = random_subgroup(rng, g)
    p = _presentation_within(rng, g.order, MORITA_TUPLES, max_rank=2)
    h, _ = groups.subgroup_group(g, sub)
    return ("morita_coset", lambda: tr.lambda_chi(p, tr.coset_complex(g, sub)),
            lambda: catalog.chi_hom_quotient(catalog.FiniteIsotropy(h), p))


def multiplicativity_check(rng: random.Random) -> Check:
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
    return ("multiplicativity", lambda: tr.lambda_chi(p, tr.product_complex(xa, xb)),
            lambda: tr.lambda_chi(p, xa) * tr.lambda_chi(p, xb))


def iterate_check(rng: random.Random) -> Check:
    spec = random_case(rng, 8, 12)
    p1 = random_presentation(rng, max_rank=1)
    p2 = random_presentation(rng, max_rank=1)
    g = group_by_key(spec.group_key)
    while g.order ** (p1.generators + p2.generators) > ITERATE_TUPLES:
        p1 = random_presentation(rng, max_rank=1)
        p2 = random_presentation(rng, max_rank=1)
    both = cache(partial(tr.iterate_inertia, p1, p2, build_complex(spec)))
    return ("iterate_inertia", lambda: both()[0], lambda: both()[1])


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


def _run_checks(
    result: SuiteResult, case: int, checks: list[Check], inject_fault: str | None
) -> None:
    """Evaluate each check, tally it, and record it if its sides differ;
    the one place an injected fault skews a check."""
    target, skew = FAULTS.get(inject_fault, (None, 0))
    for name, lhs, rhs in checks:
        left, right = lhs(), rhs() + (skew if name == target else 0)
        result.checks_run[name] = result.checks_run.get(name, 0) + 1
        if left != right:
            result.failures.append(CheckResult(case, name, left, right))


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
        raise ValueError(f"unknown fault {inject_fault!r}; known: {tuple(FAULTS)}")
    master = random.Random(seed)
    result = SuiteResult(seed=seed, cases=cases)

    for case_index in range(cases):
        rng = random.Random(master.randrange(2**63))
        spec = random_case(rng, max_group, max_cells)
        x = build_complex(spec)
        if collect:
            result.corpus.append((spec, x))
        _run_checks(result, case_index, _case_checks(spec, rng, x), inject_fault)
        if result.failures:
            first = result.failures[0]

            def still_fails(trial: CaseSpec) -> bool:
                probe = SuiteResult(seed=seed, cases=1)
                try:
                    named = [c for c in _case_checks(trial, random.Random(0)) if c[0] == first.name]
                    _run_checks(probe, -1, named, inject_fault)
                except Exception:
                    return False
                return not probe.passed

            shrunk = shrink_spec(spec, still_fails) if still_fails(spec) else spec
            result.failing_spec = {
                "case": case_index,
                "check": first.name,
                "lhs": first.lhs,
                "rhs": first.rhs,
                "instance": shrunk.to_jsonable(),
            }
            return result

    if extra_checks:
        trailer = random.Random(master.randrange(2**63))
        for _ in range(max(1, cases // 10)):
            _run_checks(result, -1, [
                morita_check(trailer, max_group),
                multiplicativity_check(trailer),
                iterate_check(trailer),
            ], inject_fault)

    return result
