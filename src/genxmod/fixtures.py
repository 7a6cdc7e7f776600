"""The shipped fixture set: small groups, groups with action, crossed modules,
cat1-groups, and one covering and lifting each.

gx1 is the identity crossed module on Z2 with trivial actions.  gx3 puts the
parity-inversion self-action on Z4 over Z2 via the mod-2 map, with the
nontrivial element of Z2 acting by inversion.  a3_s3 is the inclusion of the
alternating subgroup into S3 with conjugation everywhere.
"""

from __future__ import annotations

import itertools
from functools import partial

from .crossed import ExtAction, GXMod, from_invariant_subgroup
from .cat1 import GCat1
from .coverlift import Covering, Lifting, identity_covering, natural_lifting
from .groups import (
    GroupTable,
    Hom,
    automorphism_group,
    cyclic_group,
    identity_hom,
    klein_four_group,
    subgroup,
    symmetric_group,
    trivial_group,
    zero_hom,
)
from .gwa import (
    GwaObject,
    conjugation_self_action,
    gwa,
    parity_inversion_action,
)


def z4_inversion_gwa() -> GwaObject:
    """Z4 where odd elements act by inversion."""
    z4 = cyclic_group(4)
    return GwaObject(z4, parity_inversion_action(z4), "Z4-inv")


def s3_conjugation_gwa() -> GwaObject:
    s3 = symmetric_group(3)
    return GwaObject(s3, conjugation_self_action(s3), "S3-conj")


def a3_members() -> tuple[int, ...]:
    """Indices of the even permutations inside symmetric_group(3)."""
    return tuple(i for i in range(6) if _perm_sign(i) == 1)


def gx1() -> GXMod:
    """(Z2, Z2, id) with every action trivial."""
    z2 = gwa(cyclic_group(2))
    act = ExtAction(z2, z2, ((0, 1), (0, 1)))
    return GXMod(z2, z2, identity_hom(z2.group), act, "GX1")


def gx2() -> GXMod:
    """(Z4, Z2, mod 2) with every action trivial."""
    a = gwa(cyclic_group(4))
    b = gwa(cyclic_group(2))
    alpha = Hom(a.group, b.group, (0, 1, 0, 1), "mod2")
    act = ExtAction(b, a, ((0, 1, 2, 3), (0, 1, 2, 3)))
    return GXMod(a, b, alpha, act, "GX2")


def gx3() -> GXMod:
    """(Z4 with inversion self-action, Z2, mod 2); 1 in Z2 acts on Z4 by inversion."""
    a = z4_inversion_gwa()
    b = gwa(cyclic_group(2))
    alpha = Hom(a.group, b.group, (0, 1, 0, 1), "mod2")
    act = ExtAction(b, a, ((0, 1, 2, 3), (0, 3, 2, 1)))
    return GXMod(a, b, alpha, act, "GX3")


def a3_s3() -> GXMod:
    """The inclusion of A3 into S3 with conjugation self-actions throughout."""
    g = s3_conjugation_gwa()
    h = subgroup(g.group, a3_members())
    x = from_invariant_subgroup(g, h)
    return GXMod(x.A, x.B, x.alpha, x.action, "A3S3")


def inner_automorphism_gxmod(g: GroupTable | None = None) -> GXMod:
    """The map g -> conjugation-by-g into Aut(G), with Aut(G) acting naturally.

    Both groups carry conjugation self-actions; defaults to G = S3, whose
    automorphisms are exactly the inner ones.
    """
    if g is None:
        g = symmetric_group(3)
    aut_table, auts = automorphism_group(g)
    a = GwaObject(g, conjugation_self_action(g), f"{g.name}-conj")
    b = GwaObject(aut_table, conjugation_self_action(aut_table), f"Aut({g.name})-conj")
    index = {f.map: i for i, f in enumerate(auts)}
    alpha = Hom(
        g,
        aut_table,
        tuple(index[tuple(g.conjugate(x, h) for h in range(g.order))] for x in range(g.order)),
        "inner",
    )
    act = tuple(auts[i].map for i in range(aut_table.order))
    return GXMod(a, b, alpha, ExtAction(b, a, act), f"inner({g.name})")


def zero_module_gxmod() -> GXMod:
    """A module over a group via the zero map: Z3 acted on by S3 through the sign.

    Self-actions are conjugation (trivial on the abelian module), and the
    structure map sends everything to the identity.
    """
    m = gwa(cyclic_group(3), name="Z3")
    b = s3_conjugation_gwa()
    idr = (0, 1, 2)
    inv = (0, 2, 1)
    # odd permutations invert the module
    signs = [idr if _perm_sign(i) == 1 else inv for i in range(6)]
    return GXMod(m, b, zero_hom(m.group, b.group), ExtAction(b, m, tuple(signs)), "sign-module")


def _perm_sign(index: int) -> int:
    p = sorted(itertools.permutations(range(3)))[index]
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
    return 1 if inversions % 2 == 0 else -1


def v4_projection_cat1() -> GCat1:
    """V4 with trivial self-action; s = t = projection onto the first factor."""
    v4 = gwa(klein_four_group())
    proj = Hom(v4.group, v4.group, (0, 0, 2, 2), "proj")
    return GCat1(v4, proj, proj, "V4-proj")


def s3_identity_cat1() -> GCat1:
    """(S3, 1, 1) with conjugation: kernels are trivial, so the kernel law is vacuous."""
    g = s3_conjugation_gwa()
    return GCat1(g, identity_hom(g.group), identity_hom(g.group), "S3-id")


def z2_identity_cat1() -> GCat1:
    g = gwa(cyclic_group(2))
    return GCat1(g, identity_hom(g.group), identity_hom(g.group), "Z2-id")


def fixture_groups() -> tuple[GroupTable, ...]:
    return _built(".group.json")


def fixture_gwas() -> tuple[GwaObject, ...]:
    return (*map(gwa, fixture_groups()), *_built(".gwa.json"))


def fixture_gxmods() -> tuple[GXMod, ...]:
    return _built(".gxmod.json")


def fixture_cat1s() -> tuple[GCat1, ...]:
    return _built(".cat1.json")


def fixture_lifting() -> Lifting:
    return natural_lifting(gx3())


def fixture_covering() -> Covering:
    return identity_covering(gx1())


# file name -> the builder of the fixture it holds, the one list of the
# shipped fixtures: the CLI writes each to its file, and the fixture_*
# tuples above take theirs from it by suffix, in its order
FILES = {
    "trivial.group.json": trivial_group,
    "z2.group.json": partial(cyclic_group, 2),
    "z3.group.json": partial(cyclic_group, 3),
    "z4.group.json": partial(cyclic_group, 4),
    "v4.group.json": klein_four_group,
    "s3.group.json": partial(symmetric_group, 3),
    "z8.group.json": partial(cyclic_group, 8),
    "z4_inversion.gwa.json": z4_inversion_gwa,
    "s3_conjugation.gwa.json": s3_conjugation_gwa,
    "gx1.gxmod.json": gx1,
    "gx2.gxmod.json": gx2,
    "gx3.gxmod.json": gx3,
    "a3_s3.gxmod.json": a3_s3,
    "inner_s3.gxmod.json": inner_automorphism_gxmod,
    "sign_module.gxmod.json": zero_module_gxmod,
    "v4_projection.cat1.json": v4_projection_cat1,
    "s3_identity.cat1.json": s3_identity_cat1,
    "z2_identity.cat1.json": z2_identity_cat1,
    "gx1_identity.covering.json": fixture_covering,
    "gx3_natural.lifting.json": fixture_lifting,
}


def _built(suffix: str) -> tuple:
    """The fixtures of the files named with suffix, in FILES order."""
    return tuple(build() for name, build in FILES.items() if name.endswith(suffix))
