"""Exact Euler-characteristic calculus for cell spaces, finite group
actions on rigid complexes, and groupoids with compact isotropy.

Every quantity is an exact integer computed by at least two independent
routes; the ``verify`` harness and the test suite cross-validate them on
randomized instances.
"""

from .cells import (
    Cell,
    CellMap,
    CellSpace,
    ConstructibleFunction,
    RESERVED_SEPARATOR,
    chi,
    integrate,
    integrate_levelset,
    product,
    pushforward,
    validate_function,
    validate_map,
    validate_space,
)
from .catalog import (
    CustomIsotropy,
    FiniteIsotropy,
    IsotropyModel,
    O2,
    O2Isotropy,
    ProductIsotropy,
    SO3,
    SO3Isotropy,
    TorusIsotropy,
    chi_hom_quotient,
    hom_chi_abelian,
    trivial_isotropy,
)
from .errors import (
    CrossCheckError,
    EulerchiError,
    RecursionCapExceeded,
    ResourceLimitExceeded,
    UnsupportedCombination,
    ValidationError,
)
from .groupoid import OrbitGroupoid, chi_gamma, validate_groupoid
from .groups import (
    FiniteGroup,
    Presentation,
    SnfResult,
    Z,
    abelianize_snf,
    coset_action,
    cyclic_group,
    dihedral_group,
    direct_product,
    hom_enumerate,
    hom_orbit_reps,
    presentation_class,
    product_presentation,
    quaternion_group,
    smith_normal_form,
    subgroup_closure,
    subgroup_group,
    symmetric_group,
    trivial_group,
    validate_group,
    validate_presentation,
)
from .translation import (
    ExtensionPrediction,
    InertiaComplex,
    RigidGComplex,
    abelian_extension_chi,
    anchor_map,
    cell_orbits,
    chi_gamma_noniter,
    chi_gamma_strata,
    chi_order_ell,
    coset_complex,
    lambda_chi,
    orbit_groupoid,
    orbit_space,
    point_complex,
    product_complex,
    restrict_complex,
    validate_complex,
    validate_extension,
)

__version__ = "0.1.0"
