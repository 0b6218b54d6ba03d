import random

import pytest

from eulerchi import harness
from eulerchi.groups import Presentation


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
    redone = harness._case_checks(-1, spec, random.Random(0), "lambda_plus_one", None)
    assert any(not c.passed for c in redone)


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
    assert len(result.anchors) == 6


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
        checks = harness._case_checks(-1, spec, rng, None, None)
        assert all(c.passed for c in checks), [
            (c.name, c.lhs, c.rhs) for c in checks if not c.passed
        ]
