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
Group actions, and the extension prediction over one, live in ``translation``.
"""

from __future__ import annotations

from typing import Mapping

from .catalog import IsotropyModel, chi_hom_quotient
from .cells import CellSpace, ConstructibleFunction, integrate
from .errors import UnsupportedCombination, ValidationError
from .groups import Presentation
from .records import Frozen


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
