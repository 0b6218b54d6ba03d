"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every value asserted here is an exact integer with zero tolerance.  The
module-scoped fixture re-runs the randomized cross-validation corpus
(seed 42, 200 cases) in process so the corpus-based criteria share it;
criterion 5 additionally runs the same suite through the installed CLI.
"""

import functools
import json
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from eulerchi import harness, jsonio
from eulerchi import translation as tr
from eulerchi.catalog import O2, ad_quotient_model
from eulerchi.cells import ConstructibleFunction, chi, integrate, integrate_levelset, pushforward
from eulerchi.groupoid import abelian_extension_chi, chi_gamma
from eulerchi.groups import Presentation, Z, cyclic_group, symmetric_group

DATA = Path(str(resources.files("eulerchi") / "data"))


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def corpus():
    return harness.run_suite(seed=42, cases=200, collect=True)


def load_groupoid(name):
    return jsonio.load_groupoid(json.loads((DATA / name).read_text()))


@criterion(1, "rotation action on the sphere: -1 for free abelian, 2k-1 for cyclic(k)")
def test_criterion_1_sphere_rotation():
    start = time.perf_counter()
    g = load_groupoid("so2_s2.json")
    for ell in (1, 2, 3):
        assert chi_gamma(g, Presentation.free_abelian(ell)) == -1
    for k in range(1, 6):
        assert chi_gamma(g, Presentation.cyclic(k)) == 2 * k - 1
    assert time.perf_counter() - start < 1.0


@criterion(2, "rotation action on 3-space: value 1 at one free generator")
def test_criterion_2_space_rotation():
    start = time.perf_counter()
    g = load_groupoid("so3_r3.json")
    assert chi_gamma(g, Z) == 1
    assert time.perf_counter() - start < 1.0


@criterion(3, "axis-with-disk variants: 0 everywhere, and (0, 0, -3)")
def test_criterion_3_axis_variants():
    start = time.perf_counter()
    gammas = [Z, Presentation.free_abelian(2), Presentation.cyclic(3)]
    a = load_groupoid("so2_x_a.json")
    assert [chi_gamma(a, p) for p in gammas] == [0, 0, 0]
    aprime = load_groupoid("so2_x_aprime.json")
    assert [chi_gamma(aprime, p) for p in gammas] == [0, 0, -3]
    assert time.perf_counter() - start < 1.0


@criterion(4, "flip extension of the plane rotations: actual 2 differs from predicted 0")
def test_criterion_4_nonabelian_extension():
    start = time.perf_counter()
    assert chi(ad_quotient_model(O2)) == 2
    h = cyclic_group(2)
    pred = abelian_extension_chi(
        jsonio.load_isotropy({"kind": "torus", "n": 1}), tr.point_complex(h), 1
    )
    assert pred.predicted == pred.factor_b * pred.factor_h == 0
    assert chi(ad_quotient_model(O2)) != pred.predicted
    assert time.perf_counter() - start < 1.0


@criterion(5, "CLI verify --seed 42 --cases 200: three-way agreement, exit 0, under 60 s")
def test_criterion_5_cli_verify():
    start = time.perf_counter()
    r = subprocess.run(
        [
            sys.executable, "-m", "eulerchi.cli", "--report", "json",
            "verify", "--seed", "42", "--cases", "200",
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["result"]["passed"] is True
    assert out["breakdown"]["three_way_strata_vs_lambda"] == 200
    assert out["breakdown"]["three_way_strata_vs_noniter"] == 200
    assert elapsed < 60.0


@criterion(6, "order-ell recursion equals the free-abelian route for ell 0..3; spot value 8")
def test_criterion_6_order_ell(corpus):
    start = time.perf_counter()
    assert tr.chi_order_ell(tr.point_complex(symmetric_group(3)), 2) == 8
    checked = 0
    for spec, x in corpus.corpus:
        top = 3 if x.group.order ** 3 <= 2000 else 2
        for ell in range(top + 1):
            assert tr.chi_order_ell(x, ell) == tr.chi_gamma_noniter(
                Presentation.free_abelian(ell), x
            )
        checked += 1
    assert checked == 200
    assert time.perf_counter() - start < 60.0


@criterion(7, "pushforward preserves the integral: 500 random maps plus every corpus anchor")
def test_criterion_7_fubini(corpus):
    rng = random.Random(2024)
    for _ in range(500):
        m = harness.random_cell_map(rng)
        f = ConstructibleFunction(
            m.source, {cid: rng.randint(-5, 5) for cid in m.source.ids()}
        )
        assert integrate(pushforward(m, f)) == integrate(f)
    assert len(corpus.corpus) == 200
    for spec, x in corpus.corpus:
        anchor = tr.anchor_map(spec.presentation, x)
        pushed = pushforward(anchor, ConstructibleFunction.constant(anchor.source, 1))
        assert integrate(pushed) == chi(anchor.source)


@criterion(8, "multiplicativity and additivity hold on 100 random instances each")
def test_criterion_8_product_and_bipartition(corpus):
    rng = random.Random(88)
    for _ in range(100):
        _, lhs, rhs = harness.multiplicativity_check(rng)
        assert lhs() == rhs()
    done = 0
    for spec, x in corpus.corpus:
        reps, rep_of = tr.cell_orbits(x)
        if len(reps) < 2:
            continue
        half = set(rng.sample(reps, rng.randint(1, len(reps) - 1)))
        part1 = [c for c in x.space.ids() if rep_of[c] in half]
        part2 = [c for c in x.space.ids() if rep_of[c] not in half]
        p = spec.presentation
        whole = tr.chi_gamma_strata(p, x)
        split = tr.chi_gamma_strata(p, tr.restrict_complex(x, part1)) + tr.chi_gamma_strata(
            p, tr.restrict_complex(x, part2)
        )
        assert whole == split
        done += 1
        if done == 100:
            break
    assert done == 100


@criterion(9, "coset actions reduce to the subgroup acting on a point, 50 random pairs")
def test_criterion_9_morita_consequence():
    rng = random.Random(99)
    for _ in range(50):
        _, lhs, rhs = harness.morita_check(rng, 24)
        assert lhs() == rhs()


@criterion(10, "iterated and product-presentation inertia agree on 50 random triples")
def test_criterion_10_iterated_inertia():
    rng = random.Random(1010)
    for _ in range(50):
        _, lhs, rhs = harness.iterate_check(rng)
        assert lhs() == rhs()


@criterion(11, "both integral formulations agree on 500 random constructible functions")
def test_criterion_11_integral_formulations():
    rng = random.Random(1111)
    for _ in range(500):
        m = harness.random_cell_map(rng)
        f = ConstructibleFunction(
            m.source, {cid: rng.randint(-7, 7) for cid in m.source.ids()}
        )
        assert integrate_levelset(f) == integrate(f)
