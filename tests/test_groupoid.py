import math
import random

import pytest

from eulerchi.catalog import FiniteIsotropy, O2, ProductIsotropy, SO3, TorusIsotropy, trivial_isotropy
from eulerchi.cells import CellSpace, chi, product
from eulerchi.errors import UnsupportedCombination, ValidationError
from eulerchi.groupoid import OrbitGroupoid, chi_gamma, validate_groupoid
from eulerchi.groups import Presentation, Z, cyclic_group, symmetric_group
from eulerchi import translation as tr
from eulerchi.translation import abelian_extension_chi, validate_extension
from test_catalog import ad_quotient_model, chi_by_cell_models
from test_jsonio import action_maps

T1 = TorusIsotropy(1)


def product_groupoid(a: OrbitGroupoid, b: OrbitGroupoid) -> OrbitGroupoid:
    """Product space with product labels; chi_gamma is multiplicative."""
    space = product(a.space, b.space)
    return OrbitGroupoid(space, tuple(ProductIsotropy((la, lb)) for la in a.isotropy for lb in b.isotropy))


def sub_groupoid(g: OrbitGroupoid, keep) -> OrbitGroupoid:
    """The strata in ``keep``, with their labels."""
    keep = set(keep)
    kept = [(c, label) for c, label in zip(g.space.cells, g.isotropy) if c.id in keep]
    return OrbitGroupoid(CellSpace(c for c, _ in kept), tuple(label for _, label in kept))


def sphere_rotation_groupoid() -> OrbitGroupoid:
    """Rotation action on the 2-sphere: orbit space a closed interval whose
    endpoints carry the full rotation group."""
    space = CellSpace.from_dims({"n": 0, "s": 0, "mid": 1})
    return validate_groupoid(space, {"n": T1, "s": T1, "mid": trivial_isotropy()})


def space_rotation_groupoid() -> OrbitGroupoid:
    """Rotations of 3-space: a ray with the full group at the origin."""
    space = CellSpace.from_dims({"origin": 0, "ray": 1})
    return validate_groupoid(space, {"origin": SO3, "ray": T1})


def test_labels_must_cover_space():
    space = CellSpace.from_dims({"a": 0, "b": 1})
    with pytest.raises(ValidationError, match="unlabeled"):
        validate_groupoid(space, {"a": T1})
    with pytest.raises(ValidationError, match="not a cell"):
        validate_groupoid(space, {"a": T1, "b": T1, "ghost": T1})


def test_sphere_free_abelian():
    g = sphere_rotation_groupoid()
    for ell in (1, 2, 3):
        assert chi_gamma(g, Presentation.free_abelian(ell)) == -1


def test_sphere_cyclic():
    g = sphere_rotation_groupoid()
    for k in range(1, 6):
        assert chi_gamma(g, Presentation.cyclic(k)) == 2 * k - 1


def test_point_with_trivial_label():
    g = validate_groupoid(CellSpace.from_dims({"pt": 0}), {"pt": trivial_isotropy()})
    for p in (Z, Presentation.trivial(), Presentation.cyclic(4)):
        assert chi_gamma(g, p) == 1


def test_half_open_axis_with_disk():
    space = CellSpace.from_dims({"a0": 0, "a1": 1, "d1": 1, "d0": 0})
    g = validate_groupoid(
        space, {"a0": T1, "a1": T1, "d1": trivial_isotropy(), "d0": trivial_isotropy()}
    )
    for p in (Z, Presentation.free_abelian(2), Presentation.cyclic(3)):
        assert chi_gamma(g, p) == 0


def test_chi_z_equals_chi_gamma_at_free_rank_one():
    for g in (sphere_rotation_groupoid(), space_rotation_groupoid()):
        assert chi_by_cell_models(g) == chi_gamma(g, Presentation.free_abelian(1))


def test_trivial_group_gives_space_chi():
    for g in (sphere_rotation_groupoid(), space_rotation_groupoid()):
        assert chi_gamma(g, Presentation.trivial()) == chi(g.space)


def test_unsupported_label_names_cell():
    g = space_rotation_groupoid()
    with pytest.raises(UnsupportedCombination) as err:
        chi_gamma(g, Presentation.cyclic(2))
    assert err.value.cell_id == "origin"


# --- product and restriction ---------------------------------------------------

def test_product_with_trivial_point():
    a = sphere_rotation_groupoid()
    point = validate_groupoid(CellSpace.from_dims({"pt": 0}), {"pt": trivial_isotropy()})
    prod = product_groupoid(a, point)
    for p in (Z, Presentation.cyclic(3)):
        assert chi_gamma(prod, p) == chi_gamma(a, p)


def test_product_two_z2_points():
    z2pt = validate_groupoid(
        CellSpace.from_dims({"pt": 0}), {"pt": FiniteIsotropy(cyclic_group(2))}
    )
    prod = product_groupoid(z2pt, z2pt)
    assert chi_gamma(prod, Z) == 4


def test_sphere_groupoid_squared():
    a = sphere_rotation_groupoid()
    sq = product_groupoid(a, a)
    for k in (1, 2, 3):
        assert chi_gamma(sq, Presentation.cyclic(k)) == (2 * k - 1) ** 2


def test_product_of_three_groupoids_multiplies():
    s3pt = validate_groupoid(CellSpace.from_dims({"pt": 0}), {"pt": FiniteIsotropy(symmetric_group(3))})
    z3pt = validate_groupoid(CellSpace.from_dims({"pt": 0}), {"pt": FiniteIsotropy(cyclic_group(3))})
    factors = (sphere_rotation_groupoid(), s3pt, z3pt)
    triple = product_groupoid(product_groupoid(factors[0], factors[1]), factors[2])
    for p in (Z, Presentation.cyclic(2), Presentation.cyclic(3), Presentation.free_abelian(2)):
        assert chi_gamma(triple, p) == math.prod(chi_gamma(g, p) for g in factors)


def test_restrict_identity_and_parts():
    g = space_rotation_groupoid()
    assert chi_gamma(sub_groupoid(g, g.space.ids()), Z) == chi_gamma(g, Z)
    assert chi_gamma(sub_groupoid(g, {"origin"}), Z) == 1
    assert chi_gamma(sub_groupoid(g, {"ray"}), Z) == 0


def test_additivity_over_random_bipartitions():
    g = product_groupoid(sphere_rotation_groupoid(), sphere_rotation_groupoid())
    rng = random.Random(5)
    ids = list(g.space.ids())
    for _ in range(20):
        part = {cid for cid in ids if rng.random() < 0.5}
        rest = set(ids) - part
        whole = chi_gamma(g, Presentation.cyclic(2))
        assert whole == chi_gamma(sub_groupoid(g, part), Presentation.cyclic(2)) + chi_gamma(
            sub_groupoid(g, rest), Presentation.cyclic(2)
        )


# --- atlas and extensions -------------------------------------------------------

def atlas_sum(pieces, p):
    """The atlas value: translation-groupoid values summed over chart pieces."""
    return sum(tr.chi_gamma_strata(p, piece) for piece in pieces)


def test_atlas_single_and_doubled():
    s3 = symmetric_group(3)
    pt = tr.point_complex(s3)
    single = atlas_sum([pt], Z)
    assert single == tr.chi_gamma_strata(Z, pt) == 3
    assert atlas_sum([pt, pt], Z) == 6


def test_atlas_matches_whole_complex_decomposition():
    s3 = symmetric_group(3)
    x = tr.coset_complex(s3, [0, 1], dim=1)
    y = tr.point_complex(s3)
    # saturated pieces of a disjoint union against the union itself
    cells = list(x.space.cells) + list(y.space.cells)
    action = {g: {**action_maps(x)[g], **action_maps(y)[g]} for g in s3.elements()}
    whole = tr.validate_complex(s3, CellSpace(tuple(cells)), action)
    p = Presentation.free_abelian(2)
    assert atlas_sum([x, y], p) == tr.chi_gamma_strata(p, whole)


def test_atlas_three_random_saturated_pieces():
    from eulerchi.harness import build_complex, random_case

    rng = random.Random(31)
    for _ in range(10):
        spec = random_case(rng, 12, 40)
        x = build_complex(spec)
        orbits = tr.cell_orbits(x)
        buckets = {r: rng.randrange(3) for r in orbits}
        pieces = []
        for b in range(3):
            keep = [i for r, orbit in orbits.items() if buckets[r] == b for i in orbit]
            pieces.append(tr.restrict_complex(x, keep))
        p = spec.presentation
        assert atlas_sum(pieces, p) == tr.chi_gamma_strata(p, x)


def test_extension_torus_fiber_kills_prediction():
    h = cyclic_group(2)
    x = tr.point_complex(h)
    pred = abelian_extension_chi(T1, x, 1)
    assert pred.factor_b == 0 and pred.factor_h == 2 and pred.predicted == 0


def test_extension_finite_fiber():
    h = cyclic_group(1)
    pred = abelian_extension_chi(FiniteIsotropy(cyclic_group(2)), tr.point_complex(h), 1)
    assert pred.predicted == 2


def test_extension_rejects_nonabelian_fiber():
    h = cyclic_group(2)
    with pytest.raises(ValidationError, match="not abelian"):
        validate_extension(
            FiniteIsotropy(symmetric_group(3)), h, tr.point_complex(h), 1
        )


def test_flip_extension_counterexample():
    """The plane-rotation group extended by a flip: the abelian prediction
    is 0 but the actual conjugation-quotient chi is 2, so the abelian
    factorization genuinely fails for nonabelian extensions."""
    h = cyclic_group(2)
    pred = abelian_extension_chi(T1, tr.point_complex(h), 1)
    actual = chi(ad_quotient_model(O2))
    assert actual == 2
    assert pred.predicted == 0
    assert actual != pred.predicted
