import json

import pytest

from eulerchi import catalog, groupoid, groups, jsonio
from eulerchi.catalog import (
    CustomIsotropy,
    FiniteIsotropy,
    O2,
    ProductIsotropy,
    SO3,
    TorusIsotropy,
    chi_hom_quotient,
    hom_chi_abelian,
    trivial_isotropy,
)
from eulerchi.cells import Cell, CellSpace, chi, product
from eulerchi.errors import UnsupportedCombination
from eulerchi.groups import Presentation, Z, conjugation, symmetric_group, cyclic_group
from test_groups import conjugacy_classes
from test_report_golden import DATA, GOLDEN

S3 = symmetric_group(3)
T1 = TorusIsotropy(1)
T2 = TorusIsotropy(2)


# --- the Gamma = Z oracle: cell models of conjugation quotients ----------------


def ad_quotient_model(m: catalog.IsotropyModel) -> CellSpace:
    """Explicit cell model of the quotient of the entry by its own
    conjugation action, whose chi is the entry's value at one free
    generator.  Tori of dimension >= 2, and custom entries whose file gives
    no model for "Z", are refused."""
    if isinstance(m, FiniteIsotropy):
        classes = conjugacy_classes(m.group)
        return CellSpace(tuple(Cell(f"cls{c.rep}", 0) for c in classes))
    if isinstance(m, TorusIsotropy):
        if m.n == 1:
            return CellSpace((Cell("v", 0), Cell("e", 1)))
        raise UnsupportedCombination(m, Z)
    if isinstance(m, catalog.SO3Isotropy):
        return CellSpace((Cell("v0", 0), Cell("v1", 0), Cell("e", 1)))
    if isinstance(m, catalog.O2Isotropy):
        # rotations-up-to-inversion: a closed interval; reflections: a point
        return CellSpace((Cell("v0", 0), Cell("v1", 0), Cell("e", 1), Cell("refl", 0)))
    if isinstance(m, ProductIsotropy):
        return product(*(ad_quotient_model(factor) for factor in m.factors))
    if isinstance(m, CustomIsotropy):
        model = dict(m.cell_models).get("Z")
        if model is not None:
            return model
        raise UnsupportedCombination(m, Z)
    raise TypeError(f"unknown isotropy model {m!r}")


def chi_by_cell_models(g: groupoid.OrbitGroupoid) -> int:
    """The groupoid's value at one free generator: chi of each stratum's
    conjugation-quotient model, integrated over the orbit space."""
    return sum(chi(ad_quotient_model(label)) * (-1) ** c.dim for c, label in zip(g.space.cells, g.isotropy))


def test_torus_free_abelian_vanishes():
    for ell in (1, 2, 3):
        assert chi_hom_quotient(T1, Presentation.free_abelian(ell)) == 0


def test_torus_cyclic_counts_roots_of_unity():
    for k in (1, 2, 3, 5):
        assert chi_hom_quotient(T1, Presentation.cyclic(k)) == k


def test_torus_squared_cyclic():
    assert hom_chi_abelian(T2, Presentation.cyclic(3)) == 9


def test_torus_trivial_presentation():
    assert hom_chi_abelian(T1, Presentation.trivial()) == 1
    assert hom_chi_abelian(T1, Presentation.free_abelian(1)) == 0


def test_hom_chi_abelian_matches_quotient():
    for p in (Presentation.cyclic(4), Presentation.free_abelian(2), Presentation.trivial()):
        assert hom_chi_abelian(T2, p) == chi_hom_quotient(T2, p)


def test_torus_sees_only_the_abelianization():
    # two generators with a² = b³ abelianizes to Z: chi must vanish
    p = Presentation(2, ((1, 1, -2, -2, -2),))
    assert chi_hom_quotient(T1, p) == 0
    # adding b⁶ makes the abelianization finite with order |det [[2,0],[-3,6]]|
    q = Presentation(2, ((1, 1, -2, -2, -2), (2,) * 6))
    assert chi_hom_quotient(T1, q) == abs(2 * 6 - 0 * (-3)) == 12


def test_zero_dimensional_torus_is_a_point():
    """Hom(Gamma, T^0) is one point whatever the abelianization's free
    rank, so T^0 has the trivial group's value, and a product with it has
    its other factor's."""
    t0, c2 = TorusIsotropy(0), FiniteIsotropy(cyclic_group(2))
    point = FiniteIsotropy(groups.trivial_group())
    for p in (
        Presentation.trivial(), Z, Presentation.free_abelian(2), Presentation.cyclic(3),
        Presentation(2, ((1, 1, -2, -2, -2),)),
    ):
        assert chi_hom_quotient(t0, p) == chi_hom_quotient(point, p) == 1
        assert chi_hom_quotient(ProductIsotropy((t0, c2)), p) == chi_hom_quotient(c2, p)
    assert chi_hom_quotient(ProductIsotropy((t0, c2)), Z) == 2


def test_rotation_groups_one_generator():
    assert chi_hom_quotient(SO3, Z) == 1
    assert chi_hom_quotient(O2, Z) == 2


def test_rotation_groups_trivial_group():
    assert chi_hom_quotient(SO3, Presentation.trivial()) == 1
    assert chi_hom_quotient(O2, Presentation.trivial()) == 1


def test_rotation_groups_refuse_everything_else():
    for p in (Presentation.free_abelian(2), Presentation.cyclic(3)):
        with pytest.raises(UnsupportedCombination):
            chi_hom_quotient(SO3, p)
        with pytest.raises(UnsupportedCombination):
            chi_hom_quotient(O2, p)


def test_finite_entry_counts_orbits():
    assert chi_hom_quotient(FiniteIsotropy(S3), Z) == 3
    assert chi_hom_quotient(FiniteIsotropy(S3), Presentation.free_abelian(2)) == 8


def test_product_factorizes():
    m = ProductIsotropy((FiniteIsotropy(S3), T1))
    for p in (Z, Presentation.cyclic(2), Presentation.trivial()):
        assert chi_hom_quotient(m, p) == chi_hom_quotient(FiniteIsotropy(S3), p) * chi_hom_quotient(T1, p)


# --- conjugation quotient models ---------------------------------------------

def test_ad_model_finite():
    model = ad_quotient_model(FiniteIsotropy(cyclic_group(3)))
    assert len(model) == 3 and chi(model) == 3


def test_ad_model_so3_is_closed_interval():
    model = ad_quotient_model(SO3)
    assert sorted(c.dim for c in model.cells) == [0, 0, 1]
    assert chi(model) == 1


def test_ad_model_o2_is_interval_plus_point():
    model = ad_quotient_model(O2)
    assert chi(model) == 2
    assert sorted(c.dim for c in model.cells) == [0, 0, 0, 1]


def test_ad_model_torus1_is_circle():
    assert chi(ad_quotient_model(T1)) == 0


def test_ad_model_torus2_refused_but_chi_available():
    with pytest.raises(UnsupportedCombination):
        ad_quotient_model(T2)
    assert chi_hom_quotient(T2, Z) == 0


@pytest.mark.parametrize(
    "m",
    [
        FiniteIsotropy(S3),
        FiniteIsotropy(cyclic_group(4)),
        T1,
        SO3,
        O2,
        ProductIsotropy((SO3, FiniteIsotropy(cyclic_group(2)))),
        ProductIsotropy((O2, T1)),
        ProductIsotropy((SO3, O2, FiniteIsotropy(cyclic_group(3)))),
        ProductIsotropy((ProductIsotropy((SO3, FiniteIsotropy(cyclic_group(2)))), O2)),
    ],
)
def test_ad_model_chi_matches_hom_quotient_at_z(m):
    assert chi(ad_quotient_model(m)) == chi_hom_quotient(m, Z)


def test_ad_model_three_factor_cell_count():
    m = ProductIsotropy((SO3, O2, FiniteIsotropy(cyclic_group(3))))
    model = ad_quotient_model(m)
    # 3 cells x 4 cells x 3 classes, dims add
    assert len(model) == 36
    assert max(c.dim for c in model.cells) == 2


def test_ad_model_nested_product_ids():
    # factor order, the first factor varying slowest, as one flat join
    m = ProductIsotropy((ProductIsotropy((SO3, FiniteIsotropy(cyclic_group(2)))), O2))
    assert ad_quotient_model(m).ids() == tuple(
        f"{a}⊗{b}⊗{c}"
        for a in ("v0", "v1", "e")
        for b in ("cls0", "cls1")
        for c in ("v0", "v1", "e", "refl")
    )


def test_finite_entry_agrees_with_independent_reenumeration(
):
    # independent route: enumerate and count orbits by brute growth
    import itertools

    from eulerchi.groups import hom_enumerate

    p = Presentation.cyclic(2)
    homs = set(hom_enumerate(p, S3))
    assert homs == {
        t for t in itertools.product(range(6), repeat=1) if S3.mul(t[0], t[0]) == 0
    }
    seen, orbits = set(), 0
    for t in sorted(homs):
        if t in seen:
            continue
        seen |= {tuple(map(conjugation(S3, a).__getitem__, t)) for a in S3.elements()}
        orbits += 1
    assert chi_hom_quotient(FiniteIsotropy(S3), p) == orbits == 2


# --- custom entries -----------------------------------------------------------

def test_custom_lookup_and_refusal():
    m = CustomIsotropy("pin2", (("Z", 2), ("cyclic(2)", 5)))
    assert chi_hom_quotient(m, Z) == 2
    assert chi_hom_quotient(m, Presentation.cyclic(2)) == 5
    with pytest.raises(UnsupportedCombination):
        chi_hom_quotient(m, Presentation.cyclic(3))


def test_custom_cell_model():
    circle = CellSpace.from_dims({"v": 0, "e": 1})
    m = CustomIsotropy("loop", (("Z", 0),), (("Z", circle),))
    assert ad_quotient_model(m) == circle
    assert chi(ad_quotient_model(m)) == chi_hom_quotient(m, Z)


def test_trivial_isotropy_is_one_everywhere():
    m = trivial_isotropy()
    for p in (Z, Presentation.trivial(), Presentation.free_abelian(3), Presentation.cyclic(7)):
        assert chi_hom_quotient(m, p) == 1


# --- the golden Gamma = Z values, by a second route ------------------------------


def test_gamma_chi_goldens_at_one_free_generator_match_the_cell_models(monkeypatch):
    """Every exit-0 ``gamma-chi ... free_abelian rank 1`` golden result,
    recomputed from the strata's cell models while the CLI's route (catalog
    values, the integrand, the enumeration and orbit primitives) raises.
    A case without a cell model is named by the failure."""
    golden = json.loads((GOLDEN / "gamma_chi.json").read_text(encoding="utf-8"))
    cases = {}
    for key, run in golden.items():
        _, name, _, gamma = key.split(" ", 3)
        if run["exit"] == 0 and json.loads(gamma) == {"kind": "free_abelian", "rank": 1}:
            g, _ = jsonio.load_file(DATA / name, jsonio.load_groupoid)
            cases[name] = (g, json.loads(run["stdout"])["result"])

    def refuse(*args, **kwargs):
        raise AssertionError("the cell-model route reached the CLI's route")

    for module, names in [
        (catalog, ["chi_hom_quotient", "_finite_chi", "hom_chi_abelian"]),
        (groupoid, ["chi_hom_quotient", "integrand", "chi_gamma"]),
        (groups, ["hom_enumerate", "hom_orbit_reps", "orbits"]),
    ]:
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    covered, uncovered = {}, []
    for name, (g, _) in sorted(cases.items()):
        try:
            covered[name] = chi_by_cell_models(g)
        except UnsupportedCombination:
            uncovered.append(name)
    assert uncovered == [], f"no cell-model route for {uncovered}"
    assert covered == {name: result for name, (_, result) in cases.items()}
    assert covered == {"so2_s2.json": -1, "so2_x_a.json": 0, "so2_x_aprime.json": 0, "so3_r3.json": 1}
