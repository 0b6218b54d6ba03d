"""Exact Euler-characteristic calculus for cell spaces, finite group
actions on rigid complexes, and groupoids with compact isotropy.

Every quantity is an exact integer computed by at least two independent
routes; the ``verify`` harness and the test suite cross-validate them on
randomized instances.

Each exported name is imported from its module on first use (PEP 562), and
so is each submodule read as an attribute, such as ``eulerchi.catalog``:
every command is a fresh process, and importing the package alone compiles
none of its modules.
"""

import sys

# each module of the package, with the names the package exports from it
_EXPORTS = {
    "catalog": """
        CustomIsotropy FiniteIsotropy IsotropyModel O2 O2Isotropy ProductIsotropy SO3
        SO3Isotropy TorusIsotropy chi_hom_quotient hom_chi_abelian trivial_isotropy
    """,
    "cells": """
        Cell CellMap CellSpace ConstructibleFunction RESERVED_SEPARATOR chi integrate
        integrate_levelset product pushforward validate_function validate_map validate_space
    """,
    "cli": "",
    "errors": """
        CrossCheckError EulerchiError RecursionCapExceeded ResourceLimitExceeded
        UnsupportedCombination ValidationError
    """,
    "groupoid": "OrbitGroupoid chi_gamma validate_groupoid",
    "groups": """
        FiniteGroup Presentation SnfResult Z abelianize_snf coset_action cyclic_group
        dihedral_group direct_product hom_enumerate hom_orbit_reps presentation_class
        product_presentation quaternion_group smith_normal_form subgroup_closure
        subgroup_group symmetric_group trivial_group validate_group validate_presentation
    """,
    "harness": "",
    "jsonio": "",
    "records": "",
    "report": "",
    "translation": """
        ExtensionPrediction InertiaComplex RigidGComplex abelian_extension_chi anchor_map
        cell_orbits chi_gamma_noniter chi_gamma_strata chi_order_ell coset_complex lambda_chi
        orbit_groupoid orbit_space point_complex product_complex restrict_complex
        validate_complex validate_extension
    """,
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _module(name: str):
    """The package's module ``name``, imported through ``__import__`` (not
    ``importlib.import_module``) so that ``-X importtime`` lists it."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_module(_HOME[name]), name)
    if name in _EXPORTS:
        return _module(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
