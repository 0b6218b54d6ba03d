import random

import pytest

from eulerchi import catalog, cells, groups, harness, translation as tr
from eulerchi.groups import Presentation, presentation_class


def test_suite_small_run_green():
    result = harness.run_suite(seed=1, cases=10)
    assert result.passed
    assert result.checks_run["three_way_strata_vs_lambda"] == 10


def test_suite_deterministic():
    a = harness.run_suite(seed=9, cases=8)
    b = harness.run_suite(seed=9, cases=8)
    assert a.checks_run == b.checks_run
    assert [f.name for f in a.failures] == [f.name for f in b.failures]


def test_fault_injection_detected_and_shrunk():
    result = harness.run_suite(seed=42, cases=4, inject_fault="lambda_plus_one")
    assert not result.passed
    assert result.failing_spec is not None
    instance = result.failing_spec["instance"]
    assert {"group", "strata", "presentation"} <= set(instance)
    # the shrinker must hand back a still-failing instance
    spec = harness.CaseSpec(
        instance["group"],
        [(s["subgroup"], s["dim"]) for s in instance["strata"]],
        Presentation(
            instance["presentation"]["generators"],
            tuple(tuple(w) for w in instance["presentation"]["relators"]),
        ),
    )
    probe = harness.SuiteResult(seed=42, cases=1)
    harness._run_checks(probe, -1, harness._case_checks(spec, random.Random(0)), "lambda_plus_one")
    assert not probe.passed


def test_second_fault_flavor():
    result = harness.run_suite(seed=7, cases=4, inject_fault="noniter_minus_one")
    assert not result.passed
    assert result.failures[0].name == "three_way_strata_vs_noniter"


def test_unknown_fault_rejected():
    with pytest.raises(ValueError, match="unknown fault"):
        harness.run_suite(seed=0, cases=1, inject_fault="gremlins")


def test_case_specs_rebuild_identically():
    rng = random.Random(5)
    for _ in range(20):
        spec = harness.random_case(rng, 24, 60)
        x1 = harness.build_complex(spec)
        x2 = harness.build_complex(spec)
        assert x1.space == x2.space
        assert x1.perms == x2.perms
        assert x1.group.order <= 24
        assert len(x1.space) <= 60


@pytest.mark.parametrize("key", list(harness._GROUP_BUILDERS))
def test_stated_group_orders_match_the_built_groups(key):
    # draws filter the keys on the stated order, so it must be the real one
    order, build = harness._GROUP_BUILDERS[key]
    assert build().order == order


def test_draws_build_only_the_groups_drawn(monkeypatch):
    monkeypatch.setattr(harness, "_group_cache", {})
    harness.run_suite(seed=42, cases=5, max_group=24, max_cells=60, extra_checks=True)
    assert "C2xS4" not in harness._group_cache


def test_collect_exposes_corpus_and_anchors():
    result = harness.run_suite(seed=3, cases=6, collect=True, extra_checks=False)
    assert len(result.corpus) == 6
    # each case's anchor map rebuilds from its corpus entry
    for spec, x in result.corpus:
        anchor = tr.anchor_map(spec.presentation, x)
        assert cells.chi(anchor.source) == tr.lambda_chi(spec.presentation, x)


def test_suite_at_the_large_envelope():
    # groups up to order 48 and complexes up to 200 cells
    result = harness.run_suite(seed=11, cases=25, max_group=48, max_cells=200)
    assert result.passed


def test_order_48_group_three_way():
    rng = random.Random(4848)
    g = harness.group_by_key("C2xS4")
    assert g.order == 48
    for _ in range(3):
        sub = harness.random_subgroup(rng, g)
        spec = harness.CaseSpec(
            "C2xS4",
            [(sub, rng.randint(0, 2)), (list(g.elements()), 0)],
            Presentation.free_abelian(2),
        )
        sides = [(name, lhs(), rhs()) for name, lhs, rhs in harness._case_checks(spec, rng)]
        assert all(left == right for _, left, right in sides), sides


def _failing_spec(check, lhs, rhs, group, strata, generators):
    return {
        "case": 0,
        "check": check,
        "lhs": lhs,
        "rhs": rhs,
        "instance": {
            "group": group,
            "strata": [{"subgroup": s, "dim": d} for s, d in strata],
            "presentation": {"kind": "presentation", "generators": generators, "relators": []},
        },
    }


@pytest.mark.parametrize(
    "fault, seed, expected",
    [
        ("lambda_plus_one", 1,
         _failing_spec("three_way_strata_vs_lambda", 14, 15, "C2xD4", [(list(range(16)), 0)], 2)),
        ("lambda_plus_one", 7,
         _failing_spec("three_way_strata_vs_lambda", 1, 2, "C8", [(list(range(8)), 0)], 1)),
        ("lambda_plus_one", 42,
         _failing_spec("three_way_strata_vs_lambda", -1, 0, "C6", [([0], 1)], 1)),
        ("noniter_minus_one", 1,
         _failing_spec("three_way_strata_vs_noniter", 14, 13, "C2xD4", [(list(range(16)), 0)], 2)),
        ("noniter_minus_one", 7,
         _failing_spec("three_way_strata_vs_noniter", 1, 0, "C8", [(list(range(8)), 0)], 1)),
        ("noniter_minus_one", 42,
         _failing_spec("three_way_strata_vs_noniter", -1, -2, "C6", [([0], 1)], 1)),
    ],
)
def test_shrunk_counterexample_is_pinned(fault, seed, expected):
    # what `verify --dump` writes; a change to the check loop, the fault
    # skews or the shrinker shows here
    assert harness.run_suite(seed=seed, cases=4, inject_fault=fault).failing_spec == expected


LEDGER = ("hom_enumerate", "conj_orbit_count", "orbits", "subgroup_group")
SHARED_ENUMERATION = {"hom_enumerate", "centralizer_mask"}


def _side_calls(monkeypatch, spec, name, side):
    """The group primitives that one side of a check calls, run from a fresh
    check list (so no shared value is cached) and a cleared chi cache."""
    x = harness.build_complex(spec)
    check = next(c for c in harness._case_checks(spec, random.Random(0), x) if c[0] == name)
    catalog._finite_chi.cache_clear()
    called = set()

    def spy(label, fn):
        def wrapped(*args, **kwargs):
            called.add(label)
            return fn(*args, **kwargs)

        return wrapped

    with monkeypatch.context() as m:
        for label in LEDGER:
            m.setattr(groups, label, spy(label, getattr(groups, label)))
        m.setattr(groups.FiniteGroup, "centralizer_mask",
                  spy("centralizer_mask", groups.FiniteGroup.centralizer_mask))
        check[side]()
    return called


def test_independence_ledger(monkeypatch):
    """Every order-ell pair shares no enumeration or centralizer code; both
    three-way pairs share hom_enumerate, for every presentation class."""
    rng = random.Random(0)
    by_class = {}
    while len(by_class) < 5:
        spec = harness.random_case(rng, 24, 60)
        family = (presentation_class(spec.presentation) or "other").split("(")[0]
        by_class.setdefault(family, spec)
    for family, spec in by_class.items():
        names = [c[0] for c in harness._case_checks(spec, random.Random(0))]
        order_ell = [n for n in names if n.startswith("order_")]
        assert order_ell, family
        for name in order_ell + ["three_way_strata_vs_lambda", "three_way_strata_vs_noniter"]:
            lhs = _side_calls(monkeypatch, spec, name, 1)
            rhs = _side_calls(monkeypatch, spec, name, 2)
            if name.startswith("order_"):
                assert not lhs & rhs & SHARED_ENUMERATION, (family, name, lhs, rhs)
            else:
                assert "hom_enumerate" in lhs & rhs, (family, name, lhs, rhs)
