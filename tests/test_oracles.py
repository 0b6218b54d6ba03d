"""Heavier cross-checks against independent oracles.

The Smith normal form is compared against sympy's implementation; the
dihedral action on a subdivided square boundary is a hand-verified fixture
whose class-by-class value is derived in comments and asserted against all
three computation routes.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from eulerchi.cells import CellSpace, chi
from eulerchi.groups import (
    Presentation,
    Z,
    dihedral_group,
    smith_normal_form,
)
from eulerchi.translation import (
    RigidGComplex,
    chi_gamma_noniter,
    chi_gamma_strata,
    chi_order_ell,
    lambda_chi,
    orbit_groupoid,
    orbit_space,
    validate_complex,
)
from test_groups import conjugacy_classes


# --- Smith normal form vs sympy ---------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_matches_sympy(rows, cols, data):
    mat = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    ours = [d for d in smith_normal_form(mat) if d != 0]
    theirs = [
        int(x) for x in sympy_snf(Matrix(mat)).diagonal() if x != 0
    ]
    # sympy may emit negative units depending on version; compare magnitudes
    assert ours == [abs(t) for t in theirs]


def test_snf_divisibility_chain_random():
    rng = random.Random(303)
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(mat)
        nonzero = [d for d in diag if d != 0]
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


# --- dihedral action on the subdivided square boundary -------------------------

def subdivided_square_boundary() -> RigidGComplex:
    """The boundary circle of a square under its full symmetry group.

    The edges are subdivided at their midpoints so the action is rigid:
    corners v0..v3, midpoints m0..m3 (mi between vi and v_{i+1}), and
    half-edges ai (vi to mi) and bi (mi to v_{i+1}).  In the dihedral
    convention used by ``dihedral_group``, element i + 4j acts as the
    rotation r^i composed with j applications of the reflection s fixing
    v0, where r(vi) = v_{i+1} and s(vi) = v_{-i}.
    """
    d4 = dihedral_group(4)

    cells = {}
    for i in range(4):
        cells[f"v{i}"] = 0
        cells[f"m{i}"] = 0
        cells[f"a{i}"] = 1
        cells[f"b{i}"] = 1
    space = CellSpace.from_dims(cells)

    def act(elem: int, cid: str) -> str:
        k, j = elem % 4, elem // 4
        kind, i = cid[0], int(cid[1])
        if j:  # reflection first: s(vi)=v_{-i}, s(mi)=m_{-i-1}, s swaps a/b
            if kind == "v":
                i = (-i) % 4
            elif kind == "m":
                i = (-i - 1) % 4
            elif kind == "a":
                kind, i = "b", (-i - 1) % 4
            else:
                kind, i = "a", (-i - 1) % 4
        return f"{kind}{(i + k) % 4}"

    action = {
        e: {cid: act(e, cid) for cid in space.ids()} for e in d4.elements()
    }
    return validate_complex(d4, space, action)


def test_square_boundary_encoding_is_a_valid_action():
    x = subdivided_square_boundary()
    # one corner orbit, one midpoint orbit, one half-edge orbit of size 8
    quotient = orbit_space(x)
    assert sorted(c.dim for c in quotient.cells) == [0, 0, 1]
    assert chi(quotient) == 1


def test_square_boundary_stabilizers():
    x = subdivided_square_boundary()
    og = orbit_groupoid(x)
    orders = sorted(label.group.order for label in og.isotropy)
    # corners and midpoints keep a reflection, half-edges are free
    assert orders == [1, 2, 2]


def test_square_boundary_one_generator_value_by_hand():
    """Class-by-class value: identity contributes chi of the arc quotient
    (1); both rotation classes have empty fixed sets (0); the corner
    reflections fix two opposite corners forming one centralizer orbit (1);
    the edge reflections fix two opposite midpoints, again one orbit (1).
    Total 3."""
    x = subdivided_square_boundary()
    assert chi_order_ell(x, 1) == 3
    assert lambda_chi(Z, x) == 3
    assert chi_gamma_strata(Z, x) == 3
    assert chi_gamma_noniter(Z, x) == 3


def test_square_boundary_class_structure():
    d4 = dihedral_group(4)
    sizes = sorted(c.size for c in conjugacy_classes(d4))
    assert sizes == [1, 1, 2, 2, 2]


def test_square_boundary_two_generators():
    """Stratum route by hand: two point strata with 2-element stabilizers
    contribute 4 commuting pairs each (abelian, so no identification), the
    free 1-cell contributes -1: 4 + 4 - 1 = 7."""
    x = subdivided_square_boundary()
    p = Presentation.free_abelian(2)
    assert chi_gamma_strata(p, x) == 7
    assert lambda_chi(p, x) == 7
    assert chi_gamma_noniter(p, x) == 7
    assert chi_order_ell(x, 2) == 7


@pytest.mark.parametrize(
    "p",
    [
        Presentation.trivial(),
        Z,
        Presentation.cyclic(2),
        Presentation.cyclic(4),
        Presentation.free_abelian(2),
        Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2))),
    ],
)
def test_square_boundary_three_way(p):
    x = subdivided_square_boundary()
    assert chi_gamma_strata(p, x) == lambda_chi(p, x) == chi_gamma_noniter(p, x)
