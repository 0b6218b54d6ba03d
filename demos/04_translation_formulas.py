"""Finite group actions on rigid complexes: four formulas, one answer.

The same invariant is computed stratum-wise over the orbit space, through
an explicit inertia complex, and as a Burnside count over labels (the sum
over conjugation classes of labels, taken without walking any orbit); the
free-abelian cases also fall out of a recursion over centralizers.
"""

from eulerchi import (
    CellSpace,
    InertiaComplex,
    Presentation,
    Z,
    anchor_map,
    chi_gamma_noniter,
    chi_gamma_strata,
    chi_order_ell,
    coset_complex,
    cyclic_group,
    lambda_chi,
    orbit_space,
    point_complex,
    subgroup_closure,
    symmetric_group,
    validate_complex,
)
from eulerchi.cells import ConstructibleFunction, chi, integrate, pushforward

s3 = symmetric_group(3)

# The one-point action: everything reduces to counting conjugation orbits
# of commuting labels in the group itself.
pt = point_complex(s3)
print("S3 acting on a point:")
for p, name in [
    (Presentation.trivial(), "trivial"),
    (Z, "one free generator"),
    (Presentation.free_abelian(2), "two commuting generators"),
    (Presentation.cyclic(2), "one involution"),
]:
    print(
        f"  {name}: strata {chi_gamma_strata(p, pt)}"
        f" / inertia {lambda_chi(p, pt)}"
        f" / classes {chi_gamma_noniter(p, pt)}"
    )

print("  classical one-generator sum:", chi_order_ell(pt, 1))
print("  order-ell tower:", [chi_order_ell(pt, ell) for ell in range(4)])

# An order-two rotation of a circle: free action, quotient again a circle.
circle = CellSpace.from_dims({"v0": 0, "v1": 0, "e0": 1, "e1": 1})
rotate = {"v0": "v1", "v1": "v0", "e0": "e1", "e1": "e0"}
free = validate_complex(cyclic_group(2), circle, {1: rotate})
print("\nfree rotation of a circle:")
print("  orbit space chi:", chi(orbit_space(free)))
print("  one free generator:", lambda_chi(Z, free))

# Cosets of a 2-element subgroup of S3: the translation action on three
# points carries exactly the subgroup's data.
sub = subgroup_closure(s3, [1])
cosets = coset_complex(s3, sub)
print("\nS3 on three cosets, two commuting generators:",
      lambda_chi(Presentation.free_abelian(2), cosets))

# The inertia complex is an honest complex; its forgetful map down to the
# orbit space has fibers counting subgroup orbits, and pushing 1 forward
# recovers the inertia chi.
p = Presentation.free_abelian(2)
ic = InertiaComplex(p, cosets)
print("inertia complex size:", len(ic.space), "cells")
m = anchor_map(p, cosets)
pushed = pushforward(m, ConstructibleFunction.constant(m.source, 1))
print("pushforward of 1 integrates to:", integrate(pushed))
