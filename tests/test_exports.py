"""The names the package exports, pinned so that adding or removing one is a
deliberate act: a change to this list is a change to the public API.

The package imports each name from its module on first use, so the names
are read from ``dir(eulerchi)`` and ``__all__``, not from the package's
namespace, which holds only the names already used."""

import importlib
import types
from pathlib import Path

import eulerchi

# each module, with the names the package exports from it
EXPORTS = {
    "catalog": """
        CustomIsotropy FiniteIsotropy IsotropyModel O2 O2Isotropy ProductIsotropy SO3
        SO3Isotropy TorusIsotropy chi_hom_quotient hom_chi_abelian trivial_isotropy
    """,
    "cells": """
        Cell CellMap CellSpace ConstructibleFunction RESERVED_SEPARATOR chi integrate
        integrate_levelset product pushforward validate_function validate_map validate_space
    """,
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
    "translation": """
        ExtensionPrediction InertiaComplex RigidGComplex abelian_extension_chi anchor_map
        cell_orbits chi_gamma_noniter chi_gamma_strata chi_order_ell coset_complex lambda_chi
        orbit_groupoid orbit_space point_complex product_complex restrict_complex
        validate_complex validate_extension
    """,
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they are left out
    names = sorted(
        name
        for name in dir(eulerchi)
        if not name.startswith("_") and not isinstance(getattr(eulerchi, name), types.ModuleType)
    )
    assert names == sorted(eulerchi.__all__) == sorted(HOME)
    assert len(HOME) == 73


def test_each_name_is_the_object_its_module_defines():
    for name, module in HOME.items():
        home = importlib.import_module(f"eulerchi.{module}")
        value = getattr(eulerchi, name)
        assert value is vars(home)[name], name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name


def test_every_module_is_an_attribute_of_the_package():
    for path in Path(eulerchi.__file__).parent.glob("*.py"):
        if not path.stem.startswith("_"):
            assert getattr(eulerchi, path.stem) is importlib.import_module(f"eulerchi.{path.stem}")
