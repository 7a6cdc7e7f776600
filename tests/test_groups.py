from dataclasses import replace

import pytest

from genxmod.cat1 import GCat1, GCat1Morphism, cat1_functor_on_morphism, cat1_to_gxmod
from genxmod.crossed import ExtAction, GXMod, image_gxmod
from genxmod.fixtures import s3_conjugation_gwa, v4_projection_cat1
from genxmod.gwa import GwaObject, SelfAction, gwa, sub_gwa
from genxmod.groups import (
    GroupTable,
    Hom,
    all_homs,
    automorphism_group,
    automorphisms,
    compose_homs,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_op,
    homs_by_composite,
    identity_hom,
    image,
    inverse_hom,
    kernel,
    klein_four_group,
    map_through,
    quaternion_group,
    subgroup,
    symmetric_group,
    trivial_group,
    validate_group,
    validate_hom,
    zero_hom,
)
from genxmod.oracles import raw_associativity_witnesses, raw_aut_maps, raw_hom_maps
from genxmod.search import enumerate_gxmods
from genxmod.validation import StructuralError


def test_trivial_group_valid():
    assert validate_group(trivial_group()).ok


def test_z4_valid():
    assert validate_group(cyclic_group(4)).ok


def test_standard_groups_valid():
    for g in (
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(8),
        klein_four_group(),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        direct_product(cyclic_group(4), cyclic_group(2)),
    ):
        report = validate_group(g)
        assert report.ok, report.summary()


def test_corrupted_z4_associativity_witness():
    # spec example, expected value frozen from the triple-loop oracle:
    # with op(1,1) := 3 the lex-first failing triple is (1,1,2)
    z4 = cyclic_group(4)
    op = [list(row) for row in z4.op]
    op[1][1] = 3
    broken = GroupTable(4, tuple(tuple(r) for r in op), 0, z4.inv, "Z4broken")
    report = validate_group(broken)
    assert not report.ok
    v = report.first("associativity")
    assert v is not None
    assert v.witness == (1, 1, 2)
    assert raw_associativity_witnesses(op)[0] == (1, 1, 2)


def test_malformed_table_is_structural_not_axiomatic():
    bad = GroupTable(2, ((0, 5), (1, 0)), 0, (0, 1), "bad")
    with pytest.raises(StructuralError):
        validate_group(bad)


def test_group_from_op_requires_identity():
    with pytest.raises(StructuralError):
        group_from_op([[0, 0], [0, 0]])  # constant table has no identity
    # a shuffled table still works: identity found wherever it sits
    shuffled = group_from_op([[1, 0], [0, 1]])
    assert shuffled.identity == 1


def test_identity_and_inverse_violations_reported():
    # identity stays fine; break inverses by lying in the inv table
    z4 = cyclic_group(4)
    broken = GroupTable(4, z4.op, 0, (0, 1, 2, 3), "badinv")
    report = validate_group(broken)
    assert "inverse_law" in report.laws()


def test_hom_validation():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    mod2 = Hom(z4, z2, (0, 1, 0, 1))
    assert validate_hom(mod2).ok
    not_hom = Hom(z4, z2, (0, 1, 1, 0))
    report = validate_hom(not_hom)
    assert "homomorphism" in report.laws()


def test_inclusion_z2_in_z4_not_a_hom():
    # 1+1 = 0 in Z2 but 1+1 = 2 in Z4
    z2, z4 = cyclic_group(2), cyclic_group(4)
    incl = Hom(z2, z4, (0, 1))
    assert not validate_hom(incl).ok


def test_kernel_image():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    assert kernel(identity_hom(z4)).members == (0,)
    mod2 = Hom(z4, z2, (0, 1, 0, 1))
    assert kernel(mod2).members == (0, 2)
    assert image(mod2).members == (0, 1)
    assert image(zero_hom(z4, z2)).members == (0,)


def test_kernel_image_are_subgroups_for_all_small_homs():
    from genxmod.search import group_catalog

    for src in group_catalog():
        for tgt in group_catalog():
            for f in all_homs(src, tgt):
                subgroup(src, kernel(f).members)
                subgroup(tgt, image(f).members)


def test_compose_and_inverse():
    z4 = cyclic_group(4)
    neg = Hom(z4, z4, (0, 3, 2, 1))
    assert compose_homs(neg, neg) == identity_hom(z4)
    assert inverse_hom(neg) == neg


def test_all_homs_against_raw_oracle():
    cases = [
        (cyclic_group(2), cyclic_group(2)),
        (cyclic_group(4), cyclic_group(4)),
        (cyclic_group(4), cyclic_group(2)),
        (klein_four_group(), symmetric_group(3)),
        (symmetric_group(3), symmetric_group(3)),
        (cyclic_group(6), symmetric_group(3)),
    ]
    for src, tgt in cases:
        fast = {f.map for f in all_homs(src, tgt)}
        raw = set(raw_hom_maps(src.op, tgt.op))
        assert fast == raw, (src.name, tgt.name)


def test_end_s3_count():
    s3 = symmetric_group(3)
    assert len(all_homs(s3, s3)) == 10


def test_automorphisms_against_permutation_oracle():
    for g in (cyclic_group(4), klein_four_group(), symmetric_group(3),
              cyclic_group(8), quaternion_group()):
        fast = {f.map for f in automorphisms(g)}
        raw = set(raw_aut_maps(g.op))
        assert fast == raw, g.name


def test_automorphism_group_is_a_group():
    for g in (klein_four_group(), symmetric_group(3), quaternion_group()):
        aut_table, auts = automorphism_group(g)
        assert validate_group(aut_table).ok
        assert aut_table.order == len(auts)


def test_aut_orders():
    assert automorphism_group(cyclic_group(2))[0].order == 1
    assert automorphism_group(cyclic_group(4))[0].order == 2
    assert automorphism_group(klein_four_group())[0].order == 6
    assert automorphism_group(symmetric_group(3))[0].order == 6
    assert automorphism_group(quaternion_group())[0].order == 24


def test_the_table_caches_keep_each_callers_names():
    # groups compare by their tables alone, so a cache keyed by the tables
    # alone hands a second caller the homs and tables built for the first
    v4 = klein_four_group()
    k4 = replace(v4, name="K4")
    assert all_homs(v4, v4)[0].source.name == "V4"
    assert automorphism_group(v4)[0].name == "Aut(V4)"
    assert homs_by_composite(v4, v4, identity_hom(v4).map)[identity_hom(v4).map][0].source.name == "V4"
    v4_gwa = gwa(v4)
    assert enumerate_gxmods(v4_gwa, v4_gwa)[0].alpha.source.name == "V4"

    assert all_homs(k4, k4)[0].source.name == "K4"
    assert automorphisms(k4)[0].source.name == "K4"
    assert automorphism_group(k4)[0].name == "Aut(K4)"
    by_composite = homs_by_composite(k4, k4, identity_hom(k4).map)
    assert {h.source.name for homs in by_composite.values() for h in homs} == {"K4"}
    k4_gwa = gwa(k4)
    assert {x.alpha.source.name for x in enumerate_gxmods(k4_gwa, k4_gwa)} == {"K4"}


# every subgroup restriction goes through restrict_map / restrict_table: one
# escaping input per construction, each named by its witness and value.
# S3 numbers its permutations in ascending order: (01) is 2, (12) is 1, (02) is 5


def _s3_twisted_sub_gwa():
    # odd permutations act by conjugation by (02), even ones trivially, so
    # (01) sends itself to (02)(01)(02) = (12), outside {e, (01)}
    s3 = symmetric_group(3)
    ident, twist = tuple(range(6)), tuple(s3.conjugate(5, h) for h in range(6))
    act = tuple(twist if g in (1, 2, 5) else ident for g in range(6))
    return sub_gwa(GwaObject(s3, SelfAction(s3, act)), (0, 2))


def _z2_onto_transposition_image_gxmod():
    # {e, (01)} is a subgroup of S3, but conjugation by (12) sends (01) to (02)
    a, b = gwa(cyclic_group(2)), s3_conjugation_gwa()
    trivial = ExtAction(b, a, ((0, 1),) * 6)
    return image_gxmod(GXMod(a, b, Hom(a.group, b.group, (0, 2)), trivial))


def _t_escaping_cat1():
    # s = 0 and t = 1 on Z2: t(ker s) = Z2 is not inside im s = {0}
    g = gwa(cyclic_group(2))
    return cat1_to_gxmod(GCat1(g, Hom(g.group, g.group, (0, 0)), identity_hom(g.group)))


def _action_escaping_cat1():
    # s = t = the projection of V4 onto {0, 2}; 2 acts by swapping 1 and 3,
    # so ker s = {0, 1} is not invariant under im s
    v4 = klein_four_group()
    swap = (0, 3, 2, 1)
    g = GwaObject(v4, SelfAction(v4, ((0, 1, 2, 3),) * 2 + (swap,) * 2))
    proj = Hom(v4, v4, (0, 0, 2, 2))
    return cat1_to_gxmod(GCat1(g, proj, proj))


def _escaping_cat1_morphism(fm):
    c = v4_projection_cat1()  # ker s = {0, 1}, im s = {0, 2}
    return cat1_functor_on_morphism(GCat1Morphism(c, c, Hom(c.G.group, c.G.group, fm)))


@pytest.mark.parametrize(
    "build, message",
    [
        (_s3_twisted_sub_gwa, "restricted self-action fails at (2, 2): 1 lies outside"),
        (_z2_onto_transposition_image_gxmod, "ambient action fails at (1, 2): 5 lies outside"),
        (_t_escaping_cat1, "t maps ker s into im s fails at 1: 1 lies outside"),
        (_action_escaping_cat1, "ker s under im s fails at (2, 1): 3 lies outside"),
        (lambda: _escaping_cat1_morphism((0, 2, 1, 3)), "f maps ker s into ker s' fails at 1: 2 lies outside"),
        (lambda: _escaping_cat1_morphism((0, 1, 3, 2)), "f maps im s into im s' fails at 2: 3 lies outside"),
    ],
    ids=["sub_gwa", "image_gxmod", "cat1_t", "cat1_action", "cat1_morphism_ker", "cat1_morphism_im"],
)
def test_a_value_escaping_a_restriction_names_its_witness(build, message):
    with pytest.raises(StructuralError, match="lies outside") as exc:
        build()
    assert message in str(exc.value)


def test_map_through_defines_a_map_fibre_by_fibre():
    # Z4 -> Z2 mod 2 as the key, the values constant on each fibre
    assert map_through((0, 1, 0, 1), (5, 7, 5, 7), 2, "m") == (5, 7)


@pytest.mark.parametrize(
    "key, value, size, message",
    [
        ((0, 1, 0, 1), (5, 7, 6, 7), 2, "g' not well-defined over the fibre of 0: it carries 5 and 6"),
        ((0, 0, 2, 2), (5, 5, 7, 7), 3, "g' not defined at 1: its fibre is empty"),
    ],
    ids=["two_values", "empty_fibre"],
)
def test_map_through_names_the_map_and_the_element(key, value, size, message):
    with pytest.raises(StructuralError) as exc:
        map_through(key, value, size, "g'")
    assert message in str(exc.value)
