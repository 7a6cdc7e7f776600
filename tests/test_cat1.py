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
    kernel_action_violations,
    validate_gcat1,
    validate_gcat1_morphism,
)
from genxmod.crossed import (
    GXModMorphism,
    gxmod_morphism_violations,
    validate_gxmod_full,
    validate_gxmod_morphism,
)
from genxmod.fixtures import (
    s3_conjugation_gwa,
    s3_identity_cat1,
    v4_projection_cat1,
    z2_identity_cat1,
)
from genxmod.groups import (
    Hom,
    all_homs,
    cyclic_group,
    identity_hom,
    kernel,
    klein_four_group,
    subgroup_embedding,
    zero_hom,
)
from genxmod.gwa import GwaObject, SelfAction, action_preserved_violations, conjugation_self_action, gwa
from genxmod.oracles import raw_gxmod_morphism_violations, raw_hom_maps, replay_violation
from genxmod.validation import holds
from genxmod.search import (
    _structure_map_pairs,
    enumerate_gcat1s,
    gcat1_morphisms_between,
    group_catalog,
    gwa_objects_for,
)


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


# cat1-groups per catalog group, 3471 in all
GCAT1_COUNTS = {
    "1": 1, "Z2": 2, "Z3": 2, "V4": 29, "Z4": 3, "Z5": 2, "S3": 23, "Z6": 6, "Z7": 2,
    "D4": 109, "Q8": 53, "Z2^3": 3145, "Z4xZ2": 89, "Z8": 5,
}
ORDER_8_SELF_ACTIONS = {"Z2^3": 736, "Q8": 52, "D4": 36, "Z4xZ2": 32, "Z8": 4}


def _every_self_action_and_pair(g):
    """(self-action name, s, t) of the cat1-groups on g, from the full laws
    on every self-action and every structure-map pair, with no lookup."""
    pairs = [(s.map, t.map, kernel(s).members, kernel(t).members) for s, t in _structure_map_pairs(g)]
    maps = {m for s, t, _, _ in pairs for m in (s, t)}
    found = []
    for gw in gwa_objects_for(g):
        preserved = {m: holds(action_preserved_violations(gw, gw, m)) for m in maps}
        for s, t, ker_s, ker_t in pairs:
            if preserved[s] and preserved[t] and holds(kernel_action_violations(gw.self_action.act, ker_s, ker_t)):
                found.append((gw.name, s, t))
    return found


def test_enumerate_gcat1s_matches_the_loop_over_every_self_action_and_pair():
    # the lookup of the self-actions each structure map preserves keeps
    # every cat1-group and the order of the loop it replaces
    counts = {}
    for g in group_catalog():
        found = [(c.G.name, c.s.map, c.t.map) for c in enumerate_gcat1s(g)]
        assert found == _every_self_action_and_pair(g), g.name
        counts[g.name] = len(found)
    assert counts == GCAT1_COUNTS
    assert sum(counts.values()) == 3471
    order_8 = {g.name: len(gwa_objects_for(g)) for g in group_catalog() if g.order == 8}
    assert order_8 == ORDER_8_SELF_ACTIONS


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


def _v4_swap_cat1():
    """V4 = {0, 1, 2, 3} where 2 and 3 swap 1 and 2, with s = t = (0, 1, 1, 0)."""
    v4 = klein_four_group()
    swap = (0, 2, 1, 3)
    act = (tuple(range(4)), tuple(range(4)), swap, swap)
    s = Hom(v4, v4, (0, 1, 1, 0))
    return GCat1(GwaObject(v4, SelfAction(v4, act), "V4-swap"), s, s, "v4-swap")


def test_cat1_functor_is_not_full_on_the_v4_swap_witness():
    # F c1 -> F c2 has two morphisms, but only the zero one comes from a
    # morphism c1 -> c2: the candidate preimage (0, 0, 1, 1) of the other
    # does not preserve the self-action of V4, which F c1 no longer sees
    c1 = _v4_swap_cat1()
    z2 = cyclic_group(2)
    c2 = GCat1(gwa(z2), zero_hom(z2, z2), zero_hom(z2, z2), "z2-zero")
    assert validate_gcat1(c1).ok and validate_gcat1(c2).ok
    x1, x2 = cat1_to_gxmod(c1), cat1_to_gxmod(c2)
    homs = {
        (f.map, g.map)
        for f in all_homs(x1.A.group, x2.A.group)
        for g in all_homs(x1.B.group, x2.B.group)
        if holds(gxmod_morphism_violations(x1, x2, f.map, g.map))
    }
    raw = {
        (fm, gm)
        for fm in raw_hom_maps(x1.A.group.op, x2.A.group.op)
        for gm in raw_hom_maps(x1.B.group.op, x2.B.group.op)
        if not raw_gxmod_morphism_violations(x1, x2, fm, gm)
    }
    assert homs == raw == {((0, 0), (0, 0)), ((0, 1), (0, 0))}
    images = {
        (fm.f.map, fm.g.map)
        for fm in map(cat1_functor_on_morphism, gcat1_morphisms_between(c1, c2))
    }
    assert images == {((0, 0), (0, 0))}


def _names_and_tables(x):
    """A crossed module or crossed module morphism with every name it carries."""
    if isinstance(x, GXModMorphism):
        return (
            x,
            x.name,
            x.f.name,
            x.g.name,
            _names_and_tables(x.source),
            _names_and_tables(x.target),
        )
    parts = [x, x.name, x.alpha.name]
    for side in (x.A, x.B):
        parts += [side.self_action.act, side.name, side.group, side.group.name]
    return tuple(parts)


def _fresh(build, arg):
    subgroup_embedding.cache_clear()
    cat1_to_gxmod.cache_clear()
    return _names_and_tables(build(arg))


def test_cat1_images_from_the_subgroup_cache_equal_fresh_builds():
    cats = _all_cat1s()
    subgroup_embedding.cache_clear()
    cat1_to_gxmod.cache_clear()
    warm = [_names_and_tables(cat1_to_gxmod(c)) for c in cats]
    # ker s and im s of the 3471 cat1-groups are 61 distinct subgroup tables
    info = subgroup_embedding.cache_info()
    assert (info.hits, info.misses) == (2 * len(cats) - 61, 61)
    assert [_fresh(cat1_to_gxmod, c) for c in cats] == warm

    pool = [c for c in cats if c.G.order <= 4]
    morphisms = [m for c1 in pool for c2 in pool for m in gcat1_morphisms_between(c1, c2)]
    assert len(morphisms) == 2895
    warm = [_names_and_tables(cat1_functor_on_morphism(m)) for m in morphisms]
    assert [_fresh(cat1_functor_on_morphism, m) for m in morphisms] == warm
