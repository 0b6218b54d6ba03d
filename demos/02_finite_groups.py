"""Finite groups from tables, homomorphism enumeration, and abelianization."""

from eulerchi import (
    Presentation,
    abelianize_snf,
    coset_action,
    hom_enumerate,
    hom_orbit_reps,
    quaternion_group,
    subgroup_closure,
    symmetric_group,
    validate_group,
)

# Any multiplication table with the identity at index 0 defines a group;
# validation checks the axioms and names the first failure.
z2 = validate_group([[0, 1], [1, 0]])
print("validated a group of order", z2.order)

# Conjugacy classes are the conjugation orbits of homomorphisms from the
# free group on one generator; a class has |G| / |centralizer| elements.
s3 = symmetric_group(3)
one = Presentation.free(1)
classes = hom_orbit_reps(one, s3)
print("\nconjugacy classes of S3 (rep, size):",
      [(a, s3.order // s3.centralizer_mask(a).bit_count()) for (a,) in classes])
q8 = quaternion_group()
print("conjugacy classes of Q8:", len(hom_orbit_reps(one, q8)))

# Homomorphisms from a presented group are tuples of generator images
# satisfying every relator.  Two commuting generators pick out the
# commuting pairs; the orbit walk gives the least pair of each orbit
# under simultaneous conjugation, without listing the others.
commuting = Presentation.free_abelian(2)
print("\ncommuting pairs in S3:", len(hom_enumerate(commuting, s3)))
reps = hom_orbit_reps(commuting, s3)
print("orbits under simultaneous conjugation:", len(reps))
print("first three representatives:", tuple(reps[:3]))

# Centralizers: a transposition commutes with 2 elements, a 3-cycle with 3.
print("\ncentralizer sizes:", s3.centralizer_mask(1).bit_count(), s3.centralizer_mask(3).bit_count())

# Cosets of the subgroup generated by a transposition give the natural
# 3-point action.
sub = subgroup_closure(s3, [1])
ca = coset_action(s3, sub)
print("cosets of a 2-element subgroup:", len(ca.reps))

# Abelianization via the exponent-sum matrix: the quotient with relators
# a^2, b^2, (ab)^2 abelianizes to Z/2 x Z/2.
snf = abelianize_snf(Presentation(2, ((1, 1), (2, 2), (1, 2, 1, 2))))
print("\nabelianization: free rank", snf.rank, "torsion", list(snf.torsion))
