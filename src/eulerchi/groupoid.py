"""Labeled cell spaces: a groupoid seen through its orbit space.

An ``OrbitGroupoid`` is a cell space with an isotropy model attached to
every cell.  The integrand "chi of the homomorphism quotient at the
isotropy of this stratum" is constant on each cell, so integrating it with
respect to chi is a finite signed sum; that sum, ``chi_gamma``, is the
groupoid's Euler characteristic for a chosen finitely presented group.  It
is the one route here: for a translation groupoid it is checked against the
Burnside count, and at one free generator the test suite checks it against
explicit cell models of the labels' conjugation quotients.

Labels are compared structurally, which refines the partition into
isomorphism classes of isotropy; the integrals are computed per cell, so
the refinement never changes a value.  Labels from outside are checked
once, by ``validate_groupoid``; ``OrbitGroupoid`` only stores its arguments.
"""

from __future__ import annotations

from typing import Mapping

from . import catalog
from .catalog import IsotropyModel, chi_hom_quotient
from .cells import CellSpace, ConstructibleFunction, integrate
from .errors import UnsupportedCombination, ValidationError
from .groups import FiniteGroup, Presentation
from .records import Frozen, Value


class OrbitGroupoid(Frozen):
    __slots__ = ("space", "isotropy")

    def __init__(self, space: CellSpace, isotropy: Mapping[str, IsotropyModel]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "isotropy", isotropy)

    def label(self, cell_id: str) -> IsotropyModel:
        return self.isotropy[cell_id]


def validate_groupoid(space: CellSpace, isotropy: Mapping[str, IsotropyModel]) -> OrbitGroupoid:
    """Check labels from outside: one per cell of the space."""
    iso = dict(isotropy)
    for cid in iso:
        if not space.has_cell(cid):
            raise ValidationError(f"isotropy: {cid!r} is not a cell of the space")
    missing = [cid for cid in space.ids() if cid not in iso]
    if missing:
        raise ValidationError(f"isotropy: unlabeled cells {missing}")
    return OrbitGroupoid(space, iso)


def integrand(g: OrbitGroupoid, p: Presentation) -> ConstructibleFunction:
    """The constructible function cell -> chi_hom_quotient(label, p)."""
    values = {}
    for cid in g.space.ids():
        try:
            values[cid] = chi_hom_quotient(g.label(cid), p)
        except UnsupportedCombination as exc:
            raise exc.with_cell(cid) from None
    return ConstructibleFunction(g.space, values)


def chi_gamma(g: OrbitGroupoid, p: Presentation) -> int:
    """Integral over the orbit space of the per-stratum homomorphism
    quotient chi.

    For a translation groupoid this is ``translation.chi_gamma_strata``;
    ``translation`` and ``verify`` check it against the Burnside count.
    """
    return integrate(integrand(g, p))


class ExtensionPrediction(Value):
    __slots__ = ("predicted", "factor_b", "factor_h")

    def __init__(self, predicted: int, factor_b: int, factor_h: int):
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "factor_b", factor_b)
        object.__setattr__(self, "factor_h", factor_h)


def validate_extension(bundle_fiber: IsotropyModel, h: FiniteGroup, x, ell: int) -> dict:
    """Check an extension from outside, the one place one is checked: the
    fiber is a finite abelian group or a torus, and x is an action of h."""
    if isinstance(bundle_fiber, catalog.FiniteIsotropy):
        b = bundle_fiber.group
        # abelian exactly when the table is its own transpose
        if b.table != tuple(zip(*b.table)):
            raise ValidationError("abelian_extension_chi: finite fiber is not abelian")
    elif not isinstance(bundle_fiber, catalog.TorusIsotropy):
        raise ValidationError(
            "abelian_extension_chi: fiber must be a finite abelian or torus entry"
        )
    if x.group != h:
        raise ValidationError("abelian_extension_chi: complex is not an action of the given group")
    return {"fiber": bundle_fiber, "group": h, "complex": x, "ell": ell}


def abelian_extension_chi(bundle_fiber: IsotropyModel, x, ell: int) -> ExtensionPrediction:
    """Prediction for a groupoid extending the action of ``x.group`` on x
    by a bundle with the given abelian fiber: the free-abelian chi of the
    fiber times the free-abelian chi of the base action.

    Both factors are reported so a disagreement with a directly computed
    value can be audited.  The factorization needs the abelian fiber that
    ``validate_extension`` checks for; it genuinely fails without one.
    """
    from . import translation

    za = Presentation.free_abelian(ell)
    if isinstance(bundle_fiber, catalog.FiniteIsotropy):
        factor_b = bundle_fiber.group.order ** ell
    else:
        factor_b = catalog.hom_chi_abelian(bundle_fiber, za)
    factor_h = translation.chi_gamma_strata(za, x)
    return ExtensionPrediction(factor_b * factor_h, factor_b, factor_h)
