"""Groups that act on themselves: validation, subobjects, ideals, quotients.

A group with self-action pairs a Cayley table with a table act[g][h] for the
element written ^g h.  Three axioms: the identity acts trivially, the action
is compatible with the group operation, and every element acts by an
automorphism.  Conjugation is the classical example; the point of the
generalized theory is that any action qualifies.
"""

from genxmod import (
    conjugation_self_action,
    cyclic_group,
    is_ideal,
    is_subobject,
    parity_inversion_action,
    quotient_gwa,
    subgroup,
    symmetric_group,
    validate_gwa,
    validate_gwa_morphism,
)
from genxmod.fixtures import a3_members
from genxmod.gwa import gwa

# Z4 where odd elements invert: ^1 x = -x, ^2 x = x, ...
z4 = cyclic_group(4)
z4_inv = gwa(z4, parity_inversion_action(z4), "Z4-inv")
print("Z4 with parity-inversion action valid:", validate_gwa(z4_inv).ok)

# S3 with conjugation
s3 = symmetric_group(3)
s3_conj = gwa(s3, conjugation_self_action(s3), "S3-conj")
print("S3 with conjugation valid:", validate_gwa(s3_conj).ok)

# a broken action is reported with a witness, not an exception
from genxmod import GwaObject, SelfAction

idr = (0, 1, 2, 3)
mixed = GwaObject(z4, SelfAction(z4, (idr, idr, z4.inv, z4.inv)), "mixed")
report = validate_gwa(mixed)
print("\nmixed action report:")
print(report.summary())

# subobjects: subgroups invariant under the whole ambient action
print("\n{0,2} invariant in Z4-inv:", is_subobject(subgroup(z4, [0, 2]), z4_inv))
print("A3 invariant in S3-conj:", is_subobject(subgroup(s3, a3_members()), s3_conj))

# ideals add normality and the displacement condition (^n g) * g^-1 in N
print("\n{0,2} ideal in Z4-inv:", is_ideal(subgroup(z4, [0, 2]), z4_inv))
print("A3 ideal in S3-conj:", is_ideal(subgroup(s3, a3_members()), s3_conj))

# quotients inherit a self-action; the projection preserves it
q, proj = quotient_gwa(z4_inv, subgroup(z4, [0, 2]))
print("\nZ4-inv / {0,2}: order", q.group.order, "op", q.group.op)
print("projection preserves the action:", validate_gwa_morphism(proj, z4_inv, q).ok)
