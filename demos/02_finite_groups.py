"""Finite groups from tables, homomorphism enumeration, and abelianization."""

from eulerchi import (
    Presentation,
    abelianize_snf,
    conj_orbit_count,
    coset_action,
    hom_enumerate,
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
classes = conj_orbit_count(hom_enumerate(one, s3), s3)
print("\nconjugacy classes of S3 (rep, size):",
      [(a, s3.order // s3.centralizer_mask(a).bit_count()) for (a,) in classes.reps])
q8 = quaternion_group()
print("conjugacy classes of Q8:", conj_orbit_count(hom_enumerate(one, q8), q8).count)

# Homomorphisms from a presented group are tuples of generator images
# satisfying every relator.  Two commuting generators pick out the
# commuting pairs.
pairs = hom_enumerate(Presentation.free_abelian(2), s3)
print("\ncommuting pairs in S3:", len(pairs))
orbits = conj_orbit_count(pairs, s3)
print("orbits under simultaneous conjugation:", orbits.count)
print("first three representatives:", orbits.reps[:3])

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
