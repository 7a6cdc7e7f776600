from genxmod.cat1 import (
    IMAGE_MEMO_SIZE,
    GCat1,
    GCat1Morphism,
    cat1_functor_on_morphism,
    cat1_to_gxmod,
    check_ordinary_cat1,
    compose_gcat1_morphisms,
    identity_gcat1_morphism,
    interchange_violations,
    validate_gcat1,
    validate_gcat1_morphism,
)
from genxmod.crossed import validate_gxmod_full, validate_gxmod_morphism
from genxmod.fixtures import (
    s3_conjugation_gwa,
    s3_identity_cat1,
    v4_projection_cat1,
    z2_identity_cat1,
)
from genxmod.groups import Hom, all_homs, cyclic_group, identity_hom, kernel, zero_hom
from genxmod.gwa import conjugation_self_action, gwa
from genxmod.oracles import replay_violation
from genxmod.validation import holds
from genxmod.search import _structure_map_pairs, enumerate_gcat1s, gcat1_morphisms_between, group_catalog


def test_identity_cat1_on_trivial_action_group():
    c = z2_identity_cat1()
    assert validate_gcat1(c).ok


def test_v4_projection_cat1_valid():
    c = v4_projection_cat1()
    report = validate_gcat1(c)
    assert report.ok, report.summary()


def test_conjugation_cat1_with_noncommuting_kernels_found_by_search():
    # search all order <= 8 groups with conjugation self-action for the first
    # (s, t) passing the composition identities whose kernels fail to commute
    found = None
    for g in group_catalog():
        conj = gwa(g, conjugation_self_action(g), f"{g.name}-conj")
        for s, t in _structure_map_pairs(g):
            ker_s = kernel(s).members
            ker_t = kernel(t).members
            bad = next(
                ((y, x) for y in ker_t for x in ker_s if g.conjugate(y, x) != x),
                None,
            )
            if bad is not None:
                found = (conj, s, t, bad)
                break
        if found:
            break
    assert found is not None, "expected a conjugation-action candidate violating the kernel law"
    conj, s, t, bad = found
    # first hit: S3 with s = t = 0, where both kernels are all of S3
    assert conj.group.name == "S3"
    assert s.map == (0,) * 6 and t.map == (0,) * 6
    cand = GCat1(conj, s, t)
    report = validate_gcat1(cand)
    v = report.first("kernel_action")
    assert v is not None and replay_violation(cand, v)


def test_check_ordinary_s3_identity():
    assert check_ordinary_cat1(s3_identity_cat1())


def test_check_ordinary_abelian_trivial_action_counts_as_conjugation():
    # on abelian groups conjugation and the trivial action coincide
    assert check_ordinary_cat1(v4_projection_cat1())


def test_check_ordinary_false_for_trivial_action_on_s3():
    g = gwa(s3_conjugation_gwa().group)  # trivial action on S3
    c = GCat1(g, identity_hom(g.group), identity_hom(g.group))
    assert not check_ordinary_cat1(c)


def test_cat1_to_gxmod_identity_maps():
    # (G, 1, 1): kernel is trivial, image is everything
    c = s3_identity_cat1()
    x = cat1_to_gxmod(c)
    assert x.A.group.order == 1
    assert x.B.group.order == 6
    assert validate_gxmod_full(x).ok


def test_cat1_to_gxmod_v4_projection():
    x = cat1_to_gxmod(v4_projection_cat1())
    assert x.A.group.order == 2 and x.B.group.order == 2
    assert x.alpha.map == (0, 0)  # t collapses the kernel
    assert validate_gxmod_full(x).ok


def test_cat1_to_gxmod_zero_structure_maps():
    # s = t = zero endomorphism on Z2 with trivial action
    g = gwa(cyclic_group(2))
    z = zero_hom(g.group, g.group)
    c = GCat1(g, z, z)
    assert validate_gcat1(c).ok
    x = cat1_to_gxmod(c)
    assert x.A.group.order == 2 and x.B.group.order == 1
    assert validate_gxmod_full(x).ok


def test_functor_on_identity_morphism():
    c = v4_projection_cat1()
    m = cat1_functor_on_morphism(identity_gcat1_morphism(c))
    assert m.f == identity_hom(m.source.A.group)
    assert m.g == identity_hom(m.source.B.group)


def test_functor_on_commuting_endomorphisms_of_v4_projection():
    c = v4_projection_cat1()
    endos = gcat1_morphisms_between(c, c)
    assert len(endos) >= 2  # identity plus collapsing endomorphisms at least
    for m in endos:
        image = cat1_functor_on_morphism(m)
        report = validate_gxmod_morphism(image)
        assert report.ok, report.summary()


def test_functor_into_trivial_target():
    c = v4_projection_cat1()
    g = gwa(cyclic_group(2))
    target = GCat1(g, identity_hom(g.group), identity_hom(g.group))
    for m in gcat1_morphisms_between(c, target):
        image = cat1_functor_on_morphism(m)
        assert validate_gxmod_morphism(image).ok
        # ker s' is trivial upstairs, so the kernel component collapses
        assert image.target.A.group.order == 1


def test_functor_composition_law_on_v4_pool():
    pool = enumerate_gcat1s(cyclic_group(4)) + enumerate_gcat1s(cyclic_group(2))
    morphisms = []
    for c1 in pool:
        for c2 in pool:
            morphisms.extend(gcat1_morphisms_between(c1, c2))
    by_source = {}
    for m in morphisms:
        by_source.setdefault(id_key(m.source), []).append(m)
    checked = 0
    for m1 in morphisms:
        for m2 in by_source.get(id_key(m1.target), []):
            left = cat1_functor_on_morphism(compose_gcat1_morphisms(m2, m1))
            right_outer = cat1_functor_on_morphism(m2)
            right_inner = cat1_functor_on_morphism(m1)
            assert left.f.map == tuple(right_outer.f.map[v] for v in right_inner.f.map)
            assert left.g.map == tuple(right_outer.g.map[v] for v in right_inner.g.map)
            checked += 1
    assert checked > 0


def id_key(c):
    return (c.G.group.op, c.G.self_action.act, c.s.map, c.t.map)


def test_morphism_validation_catches_non_commuting():
    c = v4_projection_cat1()
    swap = Hom(c.G.group, c.G.group, (0, 2, 1, 3))  # swaps the two factors
    m = GCat1Morphism(c, c, swap)
    report = validate_gcat1_morphism(m)
    # swapping coordinates does not commute with the first-factor projection
    assert "commutes_with_s" in report.laws() or "commutes_with_t" in report.laws()


def test_every_enumerated_cat1_is_valid():
    for g in (cyclic_group(4), cyclic_group(6)):
        for c in enumerate_gcat1s(g):
            assert validate_gcat1(c).ok


def test_conjugation_acceptance_matches_kernel_commutation():
    # with conjugation self-actions, the validator accepts exactly the
    # candidates whose kernels commute elementwise (the ordinary axioms)
    for g in group_catalog():
        conj = gwa(g, conjugation_self_action(g), f"{g.name}-conj")
        for s, t in _structure_map_pairs(g):
            cand = GCat1(conj, s, t)
            accepted = validate_gcat1(cand).ok
            ker_s = kernel(s).members
            ker_t = kernel(t).members
            commute = all(
                g.op[x][y] == g.op[y][x] for x in ker_s for y in ker_t
            )
            assert accepted == commute, (g.name, s.map, t.map)


def test_structure_map_pairs_match_the_brute_force_filter():
    # grouping idempotents by image keeps exactly the pairs, and the order,
    # of the interchange law over every ordered pair of endomorphisms
    for g in group_catalog():
        endos = all_homs(g, g)
        brute = tuple((s, t) for s in endos for t in endos if holds(interchange_violations(s.map, t.map)))
        assert _structure_map_pairs(g) == brute, g.name


def _all_cat1s():
    return [c for g in group_catalog() for c in enumerate_gcat1s(g)]


def test_cat1_image_memo_stays_bounded_over_the_catalog():
    cat1_to_gxmod.cache_clear()
    cats = _all_cat1s()
    assert len(cats) > IMAGE_MEMO_SIZE
    for c in cats:
        cat1_functor_on_morphism(identity_gcat1_morphism(c))
    info = cat1_to_gxmod.cache_info()
    assert info.currsize == info.maxsize == IMAGE_MEMO_SIZE
    assert info.misses == len(cats)


def test_cat1_image_memo_evicts_the_least_recently_used():
    cat1_to_gxmod.cache_clear()
    first, second, *rest = _all_cat1s()[: IMAGE_MEMO_SIZE + 1]
    for c in (first, second, *rest[:-1]):
        cat1_to_gxmod(c)
    cat1_to_gxmod(first)  # a hit, which makes second the oldest entry
    cat1_to_gxmod(rest[-1])  # a miss past the bound: evicts second
    cat1_to_gxmod(first)
    assert cat1_to_gxmod.cache_info()[:2] == (2, IMAGE_MEMO_SIZE + 1)
    cat1_to_gxmod(second)
    assert cat1_to_gxmod.cache_info()[:2] == (2, IMAGE_MEMO_SIZE + 2)


def test_cat1_image_is_keyed_by_identity_not_equality():
    c = v4_projection_cat1()
    twin = GCat1(c.G, c.s, c.t, "twin")
    assert twin == c and twin.name != c.name
    assert cat1_to_gxmod(c).name == f"from_cat1({c.name})"
    assert cat1_to_gxmod(twin).name == "from_cat1(twin)"


def test_cat1_image_memo_cache_clear_rebuilds_an_equal_image():
    c = v4_projection_cat1()
    before = cat1_to_gxmod(c)
    assert cat1_to_gxmod(c) is before
    cat1_to_gxmod.cache_clear()
    assert cat1_to_gxmod.cache_info() == (0, 0, IMAGE_MEMO_SIZE, 0)
    after = cat1_to_gxmod(c)
    assert after is not before and after == before and after.name == before.name
    assert cat1_to_gxmod.cache_info() == (0, 1, IMAGE_MEMO_SIZE, 1)
