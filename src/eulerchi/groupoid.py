"""Labeled cell spaces: a groupoid seen through its orbit space.

An ``OrbitGroupoid`` is a cell space with an isotropy model attached to
every cell, ``isotropy[k]`` the label of cell k.  The integrand "chi of the
homomorphism quotient at the isotropy of this stratum" is constant on each
cell, so integrating it with respect to chi is a finite signed sum; that
sum, ``chi_gamma``, is the groupoid's Euler characteristic for a chosen
finitely presented group.  It is the one route here: for a translation
groupoid it is checked against the Burnside count, and at one free
generator the test suite checks it against explicit cell models of the
labels' conjugation quotients.

Labels are compared structurally, which refines the partition into
isomorphism classes of isotropy; the integrals are computed per cell, so
the refinement never changes a value.  Labels from outside, keyed by cell
id, are checked and put in cell order once, by ``validate_groupoid``;
``OrbitGroupoid`` only stores its arguments, and an id is named again
only in a refusal.
Group actions, and the extension prediction over one, live in ``translation``.
"""

from __future__ import annotations

from typing import Mapping

from .catalog import IsotropyModel, chi_hom_quotient
from .cells import CellSpace, ConstructibleFunction, integrate
from .errors import UnsupportedCombination, ValidationError
from .groups import Presentation
from .records import Value


class OrbitGroupoid(Value):
    """A labeled orbit space: a cell space and ``isotropy``, a tuple of
    isotropy models in cell order."""

    __slots__ = ("space", "isotropy")


def validate_groupoid(space: CellSpace, isotropy: Mapping[str, IsotropyModel]) -> OrbitGroupoid:
    """Check labels from outside, keyed by cell id: one per cell of the space."""
    iso, pos = dict(isotropy), space.positions()
    for cid in iso:
        if cid not in pos:
            raise ValidationError(f"isotropy: {cid!r} is not a cell of the space")
    missing = [c.id for c in space.cells if c.id not in iso]
    if missing:
        raise ValidationError(f"isotropy: unlabeled cells {missing}")
    return OrbitGroupoid(space, tuple(iso[c.id] for c in space.cells))


def integrand(g: OrbitGroupoid, p: Presentation) -> ConstructibleFunction:
    """The constructible function cell -> chi_hom_quotient(label, p)."""
    values = []
    for c, label in zip(g.space.cells, g.isotropy):
        try:
            values.append(chi_hom_quotient(label, p))
        except UnsupportedCombination as exc:
            raise exc.with_cell(c.id) from None
    return ConstructibleFunction(g.space, tuple(values))


def chi_gamma(g: OrbitGroupoid, p: Presentation) -> int:
    """Integral over the orbit space of the per-stratum homomorphism
    quotient chi.

    For a translation groupoid this is ``translation.chi_gamma_strata``;
    ``translation`` and ``verify`` check it against the Burnside count.
    """
    return integrate(integrand(g, p))
