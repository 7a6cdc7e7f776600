from dataclasses import replace

import pytest

from genxmod.coverlift import (
    Covering,
    Inconclusive,
    Lifting,
    LiftingMorphism,
    WitnessFailure,
    compose_coverings,
    compose_liftings,
    covering_kernel_check,
    covering_to_lifting,
    covering_transport,
    extend_morphism_through_lifting,
    factor_through_covering,
    functor_on_covering_morphism,
    functor_on_lifting_morphism,
    identity_covering,
    identity_covering_morphism,
    image_lifting,
    lifting_as_gxmod,
    lifting_criterion,
    lifting_morphism_as_lifting,
    lifting_to_base_morphism,
    lifting_to_covering,
    lifting_transport,
    morphism_between_coverings,
    natural_lifting,
    quotient_lifting,
    self_lifting,
    validate_covering,
    validate_covering_morphism,
    validate_lifting,
    validate_lifting_morphism,
)
from genxmod.crossed import (
    ExtAction,
    GXMod,
    GXModMorphism,
    is_aspherical,
    is_simply_connected,
    transport_domain,
    validate_gxmod_morphism,
)
from genxmod.fixtures import gx1, gx2, gx3
from genxmod.groups import (
    Hom,
    cyclic_group,
    identity_hom,
    kernel,
    klein_four_group,
    subgroup,
    zero_hom,
)
from genxmod.gwa import gwa
from genxmod.oracles import search_extensions, search_factorizations, search_lifting_isomorphisms
from genxmod.search import enumerate_coverings, enumerate_liftings
from genxmod.validation import PreconditionError


def z8_base():
    """(Z8, Z2, mod 2) with every action trivial; ker alpha = {0,2,4,6}."""
    a = gwa(cyclic_group(8))
    b = gwa(cyclic_group(2))
    alpha = Hom(a.group, b.group, tuple(x % 2 for x in range(8)), "mod2")
    act = ExtAction(b, a, (tuple(range(8)), tuple(range(8))))
    return GXMod(a, b, alpha, act, "Z8mod2")


# ---------------------------------------------------------------------------
# coverings


def test_identity_covering_valid():
    c = identity_covering(gx3())
    assert validate_covering(c).ok


def test_transport_domain_gives_covering():
    x = gx3()
    inv = Hom(x.A.group, x.A.group, x.A.group.inv)
    transported, witness = transport_domain(x, inv, x.A)
    c = Covering(transported, x, witness.f, witness.g)
    assert validate_covering(c).ok


def test_non_injective_f_flagged():
    x = gx1()
    c = Covering(x, x, zero_hom(x.A.group, x.A.group), identity_hom(x.B.group))
    report = validate_covering(c)
    assert report.first("component_iso") is not None


def test_covering_kernel_check_identity():
    assert covering_kernel_check(identity_covering(gx3()))


def test_covering_kernel_check_enumerated_gx3(base_gx3, pool4):
    for c in enumerate_coverings(base_gx3, pool4):
        assert covering_kernel_check(c)


def test_aspherical_base_forces_aspherical_totals(base_a3s3, pool6):
    assert is_aspherical(base_a3s3)
    coverings = enumerate_coverings(base_a3s3, pool6)
    assert coverings
    for c in coverings:
        assert is_aspherical(c.total)


def test_compose_coverings_identity_laws():
    x = gx3()
    ident = identity_covering(x)
    inv = Hom(x.A.group, x.A.group, x.A.group.inv)
    transported, witness = transport_domain(x, inv, x.A)
    c = Covering(transported, x, witness.f, witness.g)
    assert compose_coverings(ident, c) == c
    ident_above = identity_covering(transported)
    assert compose_coverings(c, ident_above) == c


def test_compose_two_transport_coverings():
    x = gx3()
    inv = Hom(x.A.group, x.A.group, x.A.group.inv)
    mid, w1 = transport_domain(x, inv, x.A)
    top, w2 = transport_domain(mid, inv, mid.A)
    outer = Covering(mid, x, w1.f, w1.g)
    inner = Covering(top, mid, w2.f, w2.g)
    composed = compose_coverings(outer, inner)
    assert validate_covering(composed).ok
    assert composed.total == top and composed.base == x


def test_covering_transport_identity():
    c = identity_covering(gx3())
    moved = covering_transport(
        c, identity_hom(c.total.B.group), c.total.B, identity_hom(c.base.B.group), c.base.B
    )
    assert moved == c


def test_covering_transport_inner_automorphism(base_a3s3):
    c = identity_covering(base_a3s3)
    s3 = base_a3s3.B.group
    transposition = next(i for i in range(1, 6) if s3.op[i][i] == 0)
    conj = Hom(s3, s3, tuple(s3.conjugate(transposition, g) for g in range(6)))
    moved = covering_transport(c, conj, base_a3s3.B, conj, base_a3s3.B)
    assert validate_covering(moved).ok


def test_morphism_between_coverings_is_covering(base_gx1, pool4):
    coverings = enumerate_coverings(base_gx1, pool4)
    ident = identity_covering_morphism(coverings[0])
    as_cover = morphism_between_coverings(ident)
    assert validate_covering(as_cover).ok
    # a couple of non-identity morphisms from the enumerated pool
    from genxmod.search import covering_morphisms_between

    checked = 0
    for c1 in coverings[:6]:
        for c2 in coverings[:6]:
            for m in covering_morphisms_between(c1, c2):
                cover = morphism_between_coverings(m)
                assert validate_covering(cover).ok
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# factorization through a covering


def test_factor_identity_case():
    x = gx3()
    c = identity_covering(x)
    m = GXModMorphism(x, x, identity_hom(x.A.group), identity_hom(x.B.group))
    result = factor_through_covering(x, m, c)
    assert isinstance(result, GXModMorphism)
    assert result.f == identity_hom(x.A.group)
    assert result.g == identity_hom(x.B.group)


def test_factor_gx3_through_gx1_covering():
    x, y = gx3(), gx1()
    m = GXModMorphism(x, y, Hom(x.A.group, y.A.group, (0, 1, 0, 1)), identity_hom(y.B.group))
    c = identity_covering(y)
    result = factor_through_covering(x, m, c)
    assert isinstance(result, GXModMorphism)
    found = search_factorizations(x, m, c)
    assert any(r.f == result.f and r.g == result.g for r in found)


def test_factor_witness_failure_and_brute_force_agree():
    # covering of GX2 whose covered kernel is trivial, while GX2's own kernel is {0,2}
    base = gx2()
    z4 = gwa(cyclic_group(4))
    total = GXMod(z4, z4, identity_hom(z4.group), ExtAction(z4, z4, tuple(tuple(range(4)) for _ in range(4))))
    c = Covering(total, base, identity_hom(z4.group), base.alpha)
    assert validate_covering(c).ok
    m = GXModMorphism(base, base, identity_hom(base.A.group), identity_hom(base.B.group))
    result = factor_through_covering(base, m, c)
    assert isinstance(result, WitnessFailure)
    assert result.element == 2
    assert search_factorizations(base, m, c) == []


def test_factor_requires_simply_connected():
    base = gx1()
    src = gx2()  # simply connected, fine
    not_sc = GXMod(
        src.A, src.B, zero_hom(src.A.group, src.B.group),
        ExtAction(src.B, src.A, (tuple(range(4)), tuple(range(4)))),
    )
    m = GXModMorphism(not_sc, base, Hom(src.A.group, base.A.group, (0, 1, 0, 1)), zero_hom(src.B.group, base.B.group))
    with pytest.raises(PreconditionError):
        factor_through_covering(not_sc, m, identity_covering(base))


# ---------------------------------------------------------------------------
# liftings


def test_image_lifting_valid():
    for x in (gx1(), gx2(), gx3()):
        l = image_lifting(x)
        report = validate_lifting(l)
        assert report.ok, report.summary()


def test_codomain_transport_gives_lifting_over_the_iso():
    # the original module lifts its codomain-transported form over f
    from genxmod.crossed import transport_codomain
    from genxmod.fixtures import a3_s3

    x = a3_s3()
    s3 = x.B.group
    transposition = next(i for i in range(1, 6) if s3.op[i][i] == 0)
    conj = Hom(s3, s3, tuple(s3.conjugate(transposition, g) for g in range(6)))
    moved, _ = transport_codomain(x, conj, x.B)
    l = Lifting(moved, x.B, x.alpha, conj)
    assert validate_lifting(l).ok


def test_domain_transport_iso_is_a_lifting():
    # (A', A, g) lifts the domain-transported module over alpha
    x = gx3()
    inv = Hom(x.A.group, x.A.group, x.A.group.inv)
    moved, _ = transport_domain(x, inv, x.A)
    l = Lifting(moved, x.A, inv, x.alpha)
    assert validate_lifting(l).ok


def test_natural_lifting_gx3():
    l = natural_lifting(gx3())
    assert validate_lifting(l).ok
    assert l.X.group.order == 2
    assert kernel(l.phi).members == (0, 2)


def test_perturbed_phi_breaks_factorization():
    # flipping one phi entry of the natural lifting breaks omega o phi = alpha
    l = natural_lifting(gx3())
    bad_phi = list(l.phi.map)
    bad_phi[1] ^= 1
    bad = Lifting(l.base, l.X, Hom(l.phi.source, l.phi.target, tuple(bad_phi)), l.omega)
    report = validate_lifting(bad)
    assert report.first("factorization") is not None


def test_phi_equivariance_failure_with_witness():
    # X = V4 where elements (1,0) and (1,1) swap the two right involutions;
    # phi lands on a non-fixed involution, so phi(x.a) = ^x phi(a) fails
    base = gx1()
    v4_group = klein_four_group()
    act = ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2), (0, 1, 3, 2))
    from genxmod.gwa import GwaObject, SelfAction, validate_gwa

    x_gwa = GwaObject(v4_group, SelfAction(v4_group, act))
    assert validate_gwa(x_gwa).ok
    phi = Hom(base.A.group, v4_group, (0, 2))
    omega = Hom(v4_group, base.B.group, (0, 0, 1, 1))
    assert all(omega.map[phi.map[a]] == base.alpha.map[a] for a in range(2))
    assert not lifting_criterion(base, x_gwa, phi, omega)
    report = validate_lifting(Lifting(base, x_gwa, phi, omega))
    v = report.first("equivariance")
    assert v is not None
    assert v.witness == (2, 1)


def test_lifting_criterion_agrees_with_validator(base_gx3, pool4):
    # for every factorizing candidate (X, phi, omega), the equivariance
    # criterion coincides with full validation
    from genxmod.groups import all_homs
    from genxmod.search import gwa_objects

    base = base_gx3
    checked = agreed = 0
    for x_gwa in gwa_objects(pool4):
        for omega in all_homs(x_gwa.group, base.B.group):
            for phi in all_homs(base.A.group, x_gwa.group):
                if any(
                    omega.map[phi.map[a]] != base.alpha.map[a]
                    for a in range(base.A.order)
                ):
                    continue
                checked += 1
                crit = lifting_criterion(base, x_gwa, phi, omega)
                full = validate_lifting(Lifting(base, x_gwa, phi, omega)).ok
                agreed += crit == full
    assert checked > 0 and agreed == checked


def test_lifting_criterion_precondition():
    base = gx3()
    with pytest.raises(PreconditionError):
        lifting_criterion(base, base.B, zero_hom(base.A.group, base.B.group), identity_hom(base.B.group))


def test_lifting_to_base_morphism():
    for l in (natural_lifting(gx3()), image_lifting(gx3()), self_lifting(gx3())):
        m = lifting_to_base_morphism(l)
        assert validate_gxmod_morphism(m).ok
        ker_phi = set(kernel(l.phi).members)
        ker_alpha = set(kernel(l.base.alpha).members)
        assert ker_phi <= ker_alpha


def test_self_lifting_gives_identity_morphism():
    x = gx3()
    m = lifting_to_base_morphism(self_lifting(x))
    assert m.f == identity_hom(x.A.group)
    assert m.g == identity_hom(x.B.group)


def test_quotient_lifting_by_trivial_ideal():
    x = gx3()
    l = quotient_lifting(x, subgroup(x.A.group, [0]))
    assert validate_lifting(l).ok
    assert l.X.group.order == 4
    assert l.phi.is_bijective()
    assert l.omega.map == x.alpha.map


def test_quotient_lifting_equals_natural_for_full_kernel():
    x = gx3()
    q = quotient_lifting(x, subgroup(x.A.group, [0, 2]))
    n = natural_lifting(x)
    assert q == n
    assert kernel(q.phi).members == (0, 2)


def test_quotient_lifting_rejects_n_outside_kernel():
    x = gx3()
    with pytest.raises(PreconditionError) as err:
        quotient_lifting(x, subgroup(x.A.group, [0, 1, 2, 3]))
    assert err.value.condition == "contained_in_kernel"


def test_quotient_lifting_on_aspherical_base_forces_trivial_n(base_a3s3):
    l = quotient_lifting(base_a3s3, subgroup(base_a3s3.A.group, [0]))
    assert validate_lifting(l).ok
    with pytest.raises(PreconditionError):
        quotient_lifting(base_a3s3, subgroup(base_a3s3.A.group, [0, 1, 2]))


def test_lifting_transport_identity():
    l = natural_lifting(gx3())
    moved = lifting_transport(
        l, identity_hom(l.X.group), l.X, identity_hom(l.base.B.group), l.base.B
    )
    assert moved == Lifting(l.base, l.X, l.phi, l.omega)


def test_lifting_transport_nontrivial_x_automorphism():
    # V4-valued lifting of GX1 admits a nontrivial X automorphism fixing omega
    base = gx1()
    v4 = gwa(klein_four_group())
    phi = Hom(base.A.group, v4.group, (0, 2))
    omega = Hom(v4.group, base.B.group, (0, 0, 1, 1))
    l = Lifting(base, v4, phi, omega)
    assert validate_lifting(l).ok
    swap = Hom(v4.group, v4.group, (0, 1, 3, 2))  # swaps (1,0) and (1,1)
    moved = lifting_transport(l, swap, v4, identity_hom(base.B.group), base.B)
    assert validate_lifting(moved).ok
    assert moved.phi.map == (0, 3)


def test_compose_liftings_identity_inner():
    outer = natural_lifting(gx3())
    inner = self_lifting(lifting_as_gxmod(outer))
    composed = compose_liftings(outer, inner)
    assert composed == Lifting(outer.base, outer.X, outer.phi, outer.omega)


def test_compose_liftings_z8_ideal_chain():
    base = z8_base()
    outer = natural_lifting(base)  # through Z8/{0,2,4,6}
    mid = lifting_as_gxmod(outer)
    inner = quotient_lifting(mid, subgroup(base.A.group, [0, 4]))
    composed = compose_liftings(outer, inner)
    assert validate_lifting(composed).ok
    assert composed == quotient_lifting(base, subgroup(base.A.group, [0, 4]))


def test_lifting_morphism_between_quotients():
    base = z8_base()
    l1 = quotient_lifting(base, subgroup(base.A.group, [0, 4]))
    l2 = natural_lifting(base)
    # coset map Z8/{0,4} -> Z8/ker, well-defined since {0,4} <= ker
    f_map = []
    for c in range(l1.X.group.order):
        rep = l1.phi.map.index(c)
        f_map.append(l2.phi.map[rep])
    m = LiftingMorphism(l1, l2, Hom(l1.X.group, l2.X.group, tuple(f_map)))
    assert validate_lifting_morphism(m).ok
    lifted = lifting_morphism_as_lifting(m)
    assert isinstance(lifted, Lifting)
    assert validate_lifting(lifted).ok


def test_lifting_morphism_inconclusive_when_omega_not_injective():
    base = gx1()
    v4 = gwa(klein_four_group())
    phi = Hom(base.A.group, v4.group, (0, 2))
    omega = Hom(v4.group, base.B.group, (0, 0, 1, 1))  # not injective
    l = Lifting(base, v4, phi, omega)
    m = LiftingMorphism(l, l, identity_hom(v4.group))
    assert isinstance(lifting_morphism_as_lifting(m), Inconclusive)


def test_lifting_morphism_identity_case():
    l = natural_lifting(gx3())
    m = LiftingMorphism(l, l, identity_hom(l.X.group))
    lifted = lifting_morphism_as_lifting(m)
    assert isinstance(lifted, Lifting)


# ---------------------------------------------------------------------------
# extension through a lifting


def test_extend_identity_case():
    x = gx3()
    l = self_lifting(x)
    m = GXModMorphism(x, x, identity_hom(x.A.group), identity_hom(x.B.group))
    result = extend_morphism_through_lifting(m, l)
    assert isinstance(result, GXModMorphism)
    assert result.g == identity_hom(x.B.group)


def test_extend_gx3_through_natural_lifting_of_gx1():
    x, y = gx3(), gx1()
    m = GXModMorphism(x, y, Hom(x.A.group, y.A.group, (0, 1, 0, 1)), identity_hom(y.B.group))
    l = natural_lifting(y)
    result = extend_morphism_through_lifting(m, l)
    assert isinstance(result, GXModMorphism)
    found = search_extensions(m, l)
    assert any(r.g == result.g for r in found)


def test_extend_witness_failure_and_brute_force_agree():
    base = gx2()
    l = quotient_lifting(base, subgroup(base.A.group, [0]))  # ker phi = {0}
    m = GXModMorphism(base, base, identity_hom(base.A.group), identity_hom(base.B.group))
    result = extend_morphism_through_lifting(m, l)
    assert isinstance(result, WitnessFailure)
    assert result.element == 2
    assert search_extensions(m, l) == []


def test_extend_requires_simply_connected(base_a3s3):
    l = self_lifting(base_a3s3)
    m = GXModMorphism(
        base_a3s3, base_a3s3, identity_hom(base_a3s3.A.group), identity_hom(base_a3s3.B.group)
    )
    with pytest.raises(PreconditionError):
        extend_morphism_through_lifting(m, l)  # A3 -> S3 is not surjective


def test_simply_connected_liftings_isomorphic_iff_equal_kernels(base_gx3, pool4):
    liftings = [
        l for l in enumerate_liftings(base_gx3, pool4) if is_simply_connected(lifting_as_gxmod(l))
    ]
    assert liftings
    for l1 in liftings:
        for l2 in liftings:
            same_kernel = kernel(l1.phi).members == kernel(l2.phi).members
            isos = search_lifting_isomorphisms(l1, l2)
            assert same_kernel == bool(isos), (l1, l2)


# ---------------------------------------------------------------------------
# the equivalence functors


def test_lifting_to_covering_round_trips_exactly():
    for l in (natural_lifting(gx3()), image_lifting(gx3()), self_lifting(gx1())):
        c = lifting_to_covering(l)
        assert validate_covering(c).ok
        back = covering_to_lifting(c)
        assert back == Lifting(l.base, l.X, l.phi, l.omega)


def test_object_images_are_built_once_per_object(base_gx3, pool4):
    # each object keeps its own image; the image of an image is built fresh
    # on its own object, so a round trip yields a new object, equal for a lifting
    for l in enumerate_liftings(base_gx3, pool4):
        c = lifting_to_covering(l)
        assert lifting_to_covering(l) is c
        back = covering_to_lifting(c)
        assert covering_to_lifting(c) is back
        assert back == l and back is not l
        assert lifting_to_covering(back) is not c
    for c in enumerate_coverings(base_gx3, pool4):
        l = covering_to_lifting(c)
        assert covering_to_lifting(c) is l
        assert lifting_to_covering(l) is not c


def test_a_kept_image_leaves_eq_and_hash_alone(base_gx3, pool4):
    l = enumerate_liftings(base_gx3, pool4)[-1]
    c = lifting_to_covering(l)
    fresh = Lifting(l.base, l.X, l.phi, l.omega, l.name)
    assert l == fresh and fresh == l
    assert hash(l) == hash(fresh)
    assert repr(l) == repr(fresh)
    fresh_c = Covering(c.total, c.base, c.f, c.g, c.name)
    back = covering_to_lifting(c)
    assert c == fresh_c and hash(c) == hash(fresh_c)
    # a renamed copy starts without the kept image and builds its own
    renamed = replace(l, name="x")
    assert renamed == l and renamed._image is None
    renamed_c = lifting_to_covering(renamed)
    assert renamed_c is not c and renamed_c == c and renamed_c.name == "x"
    assert lifting_to_covering(renamed) is renamed_c and lifting_to_covering(l) is c
    renamed = replace(c, name="x")
    assert renamed == c and renamed._image is None
    renamed_l = covering_to_lifting(renamed)
    assert renamed_l is not back and renamed_l == back and renamed_l.name == "x"
    assert covering_to_lifting(renamed) is renamed_l and covering_to_lifting(c) is back


def test_natural_lifting_to_covering_has_iso_g():
    c = lifting_to_covering(natural_lifting(gx3()))
    assert c.g.is_bijective()


def test_image_lifting_of_a3s3_covering_g_is_inclusion(base_a3s3):
    c = lifting_to_covering(image_lifting(base_a3s3))
    assert c.g.is_injective() and not c.g.is_surjective()


def test_covering_to_lifting_identity_covering():
    x = gx3()
    l = covering_to_lifting(identity_covering(x))
    assert l == self_lifting(x)


def test_covering_to_lifting_transport_based():
    x = gx3()
    inv = Hom(x.A.group, x.A.group, x.A.group.inv)
    transported, witness = transport_domain(x, inv, x.A)
    c = Covering(transported, x, witness.f, witness.g)
    l = covering_to_lifting(c)
    assert validate_lifting(l).ok
    # phi = alpha~ o f^-1 recovers the base structure map composed with the iso
    assert l.phi.map == tuple(transported.alpha.map[inv.map[a]] for a in range(4))


def test_functors_on_morphisms():
    base = gx1()
    l1 = self_lifting(base)
    m = LiftingMorphism(l1, l1, identity_hom(l1.X.group))
    cm = functor_on_lifting_morphism(m)
    assert validate_covering_morphism(cm).ok
    back = functor_on_covering_morphism(cm)
    assert back.f == m.f


def test_simply_connected_covering_covers_another_iff_kernel_condition(base_gx3, pool4):
    # a simply connected covering factors through another covering of the same
    # base exactly when its pushed kernel sits inside the other's; on success
    # the factoring morphism is itself a covering morphism
    coverings = enumerate_coverings(base_gx3, pool4)
    checked = 0
    for src in coverings:
        if not is_simply_connected(src.total):
            continue
        for tgt in coverings[:20]:
            result = factor_through_covering(src.total, src.as_morphism(), tgt)
            src_kernel = {src.f.map[a] for a in kernel(src.total.alpha).members}
            tgt_kernel = {tgt.f.map[a] for a in kernel(tgt.total.alpha).members}
            if src_kernel <= tgt_kernel:
                assert isinstance(result, GXModMorphism)
                assert result.f.is_bijective()
                lifted = Covering(src.total, tgt.total, result.f, result.g)
                assert validate_covering(lifted).ok
            else:
                assert isinstance(result, WitnessFailure)
            checked += 1
    assert checked > 50
