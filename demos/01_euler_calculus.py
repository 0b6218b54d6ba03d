"""A tour of the exact Euler calculus: cells, integrals, and pushforwards.

Run as a script; every value printed is an exact integer.
"""

from eulerchi import (
    CellSpace,
    ConstructibleFunction,
    chi,
    integrate,
    integrate_levelset,
    product,
    pushforward,
    validate_function,
    validate_map,
)

# A space is just a list of open cells with dimensions.  The combinatorial
# Euler characteristic gives every open d-cell weight (-1)^d, so it is not
# homotopy invariant: the three interval flavors all differ.
closed_interval = CellSpace.from_dims({"v0": 0, "v1": 0, "e": 1})
half_open = CellSpace.from_dims({"v0": 0, "e": 1})
open_interval = CellSpace(c for c in closed_interval.cells if c.id == "e")

print("chi of a closed interval:", chi(closed_interval))   # 1
print("chi of a half-open interval:", chi(half_open))      # 0
print("chi of an open interval:", chi(open_interval))      # -1

# Products multiply chi; the square inherits the 9-cell product structure.
square = product(closed_interval, closed_interval)
print("\nthe square has", len(square), "cells and chi", chi(square))

# A constructible function assigns an integer to each cell; the validator
# checks one per cell id and keeps them in cell order.  Its integral with
# respect to chi weights each value by the cell's sign.
f = validate_function(half_open, {"v0": 2, "e": -1})
print("\nintegral of f:", integrate(f))
print("same integral via level sets:", integrate_levelset(f))

# Projecting the square onto its first factor: each product cell lands on
# the cell it came from, so corners and vertical edges sit over the
# endpoints while horizontal edges and the face sit over the open edge.
from eulerchi import RESERVED_SEPARATOR as SEP

projection = validate_map(
    square,
    closed_interval,
    {
        f"{a}{SEP}{b}": a
        for a in closed_interval.ids()
        for b in closed_interval.ids()
    },
)
# Pushing the constant 1 forward integrates it over each fiber, so its
# value on a target cell is chi of the fiber over that cell.
ones = ConstructibleFunction.constant(square, 1)
pushed = pushforward(projection, ones)
print("\nfiber chi over each interval cell:")
for cid, value in zip(closed_interval.ids(), pushed.values):
    print(f"  over {cid}: {value}")
print("pushforward of 1:", dict(sorted(zip(closed_interval.ids(), pushed.values))))
print("integral before:", integrate(ones), " after:", integrate(pushed))
