"""Symbolic catalog of compact isotropy groups.

Each entry answers one question exactly, for the presentation classes it
covers: ``chi_hom_quotient``, chi of the conjugation quotient of the space
of homomorphisms from a finitely presented group into the entry.

Finite entries count orbit representatives.  Torus entries reduce to
the abelianization: a homomorphism from a group into a torus factors
through the abelianization, so chi is 0 when the abelianization has free
rank and the torus positive dimension, and the torsion-point count
otherwise (the torus of dimension 0 is a point).  The two nonabelian
positive-dimensional entries, the rotation groups of the plane-with-
reflections and of 3-space, carry only the values their conjugation
quotients pin down: the one-generator free case (a closed interval,
respectively an interval plus an isolated point) and the trivial case.
Every other request is refused with UnsupportedCombination; the catalog
never extrapolates.

Custom entries let callers extend the catalog with externally computed
values keyed by presentation class; reports flag them as user-supplied.
"""

from __future__ import annotations

from functools import lru_cache

from . import groups
from .cells import CellSpace
from .errors import UnsupportedCombination, ValidationError
from .groups import FiniteGroup, Presentation, presentation_class
from .records import Value


class FiniteIsotropy(Value):
    """A finite isotropy group, given by its table (a ``FiniteGroup``)."""

    __slots__ = ("group",)


class TorusIsotropy(Value):
    """The torus of dimension ``n``."""

    __slots__ = ("n",)


class SO3Isotropy(Value):
    __slots__ = ()


class O2Isotropy(Value):
    __slots__ = ()


class ProductIsotropy(Value):
    """A product of isotropy models: ``factors`` is a tuple of them."""

    __slots__ = ("factors",)


class CustomIsotropy(Value):
    """User-supplied entry: chi values keyed by presentation class strings
    such as "Z" or "cyclic(3)".  Optional cell models, keyed the same way,
    are checked and kept with the entry (its repr shows them); no value is
    computed from them."""

    __slots__ = ("name", "chi_table", "cell_models")

    def __init__(
        self,
        name: str,
        chi_table: tuple[tuple[str, int], ...],
        cell_models: tuple[tuple[str, CellSpace], ...] = (),
    ):
        super().__init__(name, chi_table, cell_models)


IsotropyModel = (
    FiniteIsotropy | TorusIsotropy | SO3Isotropy | O2Isotropy | ProductIsotropy | CustomIsotropy
)

SO3 = SO3Isotropy()
O2 = O2Isotropy()

# The values the rotation groups' conjugation quotients pin down, by
# presentation class: at Z the classes of rotations of 3-space form a closed
# interval, and those of O(2) an interval of rotations and a point of
# reflections.
_ROTATION_CHI = {SO3Isotropy: {"trivial": 1, "Z": 1}, O2Isotropy: {"trivial": 1, "Z": 2}}


def trivial_isotropy() -> FiniteIsotropy:
    return FiniteIsotropy(groups.trivial_group())


@lru_cache(maxsize=None)
def _finite_chi(g: FiniteGroup, p: Presentation) -> int:
    return len(groups.hom_orbit_reps(p, g))


def hom_chi_abelian(m: TorusIsotropy, p: Presentation) -> int:
    """chi of the homomorphism space into a torus (conjugation is trivial,
    so this equals the quotient chi).

    Homomorphisms factor through the abelianization Z^r + sum Z/d_i; a free
    factor contributes a copy of the torus (chi 0, or 1 for the point T^0)
    and each torsion factor contributes its d_i^n torsion points.
    """
    if not isinstance(m, TorusIsotropy):
        raise ValidationError("hom_chi_abelian expects a torus entry")
    snf = groups.abelianize_snf(p)
    if snf.rank >= 1 and m.n >= 1:
        return 0
    total = 1
    for d in snf.torsion:
        total *= d
    return total ** m.n


def chi_hom_quotient(m: IsotropyModel, p: Presentation) -> int:
    """chi of (conjugation quotient of) the homomorphism space into m.

    Raises UnsupportedCombination when the catalog holds no exact value for
    the pair.
    """
    if isinstance(m, FiniteIsotropy):
        return _finite_chi(m.group, p)
    if isinstance(m, TorusIsotropy):
        return hom_chi_abelian(m, p)
    if isinstance(m, ProductIsotropy):
        total = 1
        for factor in m.factors:
            total *= chi_hom_quotient(factor, p)
        return total
    values = dict(m.chi_table) if isinstance(m, CustomIsotropy) else _ROTATION_CHI.get(type(m))
    if values is None:
        raise ValidationError(f"unknown isotropy model {m!r}")
    cls = presentation_class(p)
    if cls not in values:
        raise UnsupportedCombination(m, p)
    return values[cls]


def is_user_supplied(m: IsotropyModel) -> bool:
    """True when the model (or any product factor) is a custom entry."""
    if isinstance(m, CustomIsotropy):
        return True
    if isinstance(m, ProductIsotropy):
        return any(is_user_supplied(f) for f in m.factors)
    return False
