"""Orbit spaces of compact-group actions as labeled cell spaces.

Three classical rotation actions, each encoded as its orbit space with an
isotropy label per stratum.  The bundled JSON files carry the same data;
here the groupoids are built in code.
"""

from eulerchi import (
    CellSpace,
    Presentation,
    ProductIsotropy,
    SO3,
    TorusIsotropy,
    chi_gamma,
    product,
    trivial_isotropy,
    validate_groupoid,
)

T1 = TorusIsotropy(1)

# Circle rotations of the 2-sphere about its axis: the orbit space is a
# closed interval, the poles keep the full circle as isotropy, every other
# orbit is free.
sphere = validate_groupoid(
    CellSpace.from_dims({"north": 0, "south": 0, "latitudes": 1}),
    {"north": T1, "south": T1, "latitudes": trivial_isotropy()},
)
print("sphere rotations:")
for ell in (1, 2, 3):
    print(f"  free abelian rank {ell}: {chi_gamma(sphere, Presentation.free_abelian(ell))}")
for k in (1, 2, 3, 4, 5):
    print(f"  cyclic({k}): {chi_gamma(sphere, Presentation.cyclic(k))}")

# Full rotation group acting on 3-space: a ray, with the whole group fixing
# the origin and circle isotropy on every sphere.
space3 = validate_groupoid(
    CellSpace.from_dims({"origin": 0, "spheres": 1}),
    {"origin": SO3, "spheres": T1},
)
Z = Presentation.free_abelian(1)
print("\nrotations of 3-space, one free generator:", chi_gamma(space3, Z))
# the value is additive over strata: each stratum on its own
origin = validate_groupoid(CellSpace.from_dims({"origin": 0}), {"origin": SO3})
spheres = validate_groupoid(CellSpace.from_dims({"spheres": 1}), {"spheres": T1})
print("  origin stratum alone:", chi_gamma(origin, Z))
print("  spheres stratum alone:", chi_gamma(spheres, Z))

# Circle rotations of a half-open axis with a disk attached: the axis is
# fixed pointwise, so its half-open chi of 0 kills every value.
axis_disk = validate_groupoid(
    CellSpace.from_dims({"a0": 0, "a1": 1, "disk1": 1, "disk0": 0}),
    {"a0": T1, "a1": T1, "disk1": trivial_isotropy(), "disk0": trivial_isotropy()},
)
print("\nhalf-open axis with disk, cyclic(3):", chi_gamma(axis_disk, Presentation.cyclic(3)))

# Replace the half-open axis by the full axis (chi -1) and the value
# becomes minus the label's homomorphism chi: -3 for cyclic(3).
full_axis_disk = validate_groupoid(
    CellSpace.from_dims({"a0": 0, "up": 1, "down": 1, "disk1": 1, "disk0": 0}),
    {
        "a0": T1, "up": T1, "down": T1,
        "disk1": trivial_isotropy(), "disk0": trivial_isotropy(),
    },
)
print("full axis with disk, cyclic(3):", chi_gamma(full_axis_disk, Presentation.cyclic(3)))

# Values multiply under products of groupoids: each cell of the product
# space (in factor order) is labeled by the product of its factors' labels,
# which the groupoid holds in cell order.
squared_space = product(sphere.space, sphere.space)
labels = [ProductIsotropy((a, b)) for a in sphere.isotropy for b in sphere.isotropy]
squared = validate_groupoid(squared_space, dict(zip(squared_space.ids(), labels)))
print("\nsphere groupoid squared, cyclic(3):", chi_gamma(squared, Presentation.cyclic(3)))
