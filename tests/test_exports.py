"""The names the package exports, pinned so that adding or removing one is a
deliberate act: a change to this list is a change to the public API."""

import types

import eulerchi

EXPORTS = """
    Cell CellMap CellSpace ConstructibleFunction CrossCheckError CustomIsotropy
    EulerchiError ExtensionPrediction FiniteGroup FiniteIsotropy InertiaComplex IsotropyModel
    O2 O2Isotropy OrbitGroupoid Presentation ProductIsotropy RESERVED_SEPARATOR
    RecursionCapExceeded ResourceLimitExceeded RigidGComplex SO3 SO3Isotropy SnfResult
    TorusIsotropy UnsupportedCombination ValidationError Z abelian_extension_chi abelianize_snf
    anchor_map cell_orbits chi chi_gamma chi_gamma_noniter chi_gamma_strata chi_hom_quotient
    chi_order_ell coset_action coset_complex cyclic_group dihedral_group
    direct_product hom_chi_abelian hom_enumerate hom_orbit_reps integrate integrate_levelset
    lambda_chi orbit_groupoid orbit_space point_complex presentation_class
    product product_complex product_presentation pushforward quaternion_group restrict_complex
    smith_normal_form subgroup_closure subgroup_group symmetric_group trivial_group
    trivial_isotropy validate_complex validate_extension validate_function validate_group
    validate_groupoid validate_map validate_presentation validate_space
""".split()


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they are left out
    names = sorted(
        name
        for name, value in vars(eulerchi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == EXPORTS
    assert len(EXPORTS) == 73
