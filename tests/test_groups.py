import gc
import itertools
import sys
import threading
import weakref
from dataclasses import replace

import pytest

from genxmod import groups
from genxmod.cat1 import GCat1, GCat1Morphism, cat1_functor_on_morphism, cat1_to_gxmod
from genxmod.crossed import ExtAction, GXMod, image_gxmod
from genxmod.fixtures import s3_conjugation_gwa, v4_projection_cat1
from genxmod.gwa import GwaObject, SelfAction, gwa, sub_gwa
from genxmod.groups import (
    GroupTable,
    Hom,
    _generating_sequence,
    all_homs,
    automorphism_group,
    automorphisms,
    compose_homs,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_op,
    hom_violations,
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
from genxmod.search import enumerate_gxmods, group_catalog
from genxmod.validation import StructuralError, holds


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


def _searched_perm_group(perms, name):
    # a permutation group as it was built before group_from_op found its
    # identity and inverses: sort, compose, then search for both
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    op = tuple(tuple(index[tuple(p[q[k]] for k in range(len(p)))] for q in perms) for p in perms)
    identity = index[tuple(range(len(perms[0])))]
    inv = tuple(next(j for j in range(n) if op[i][j] == identity) for i in range(n))
    return n, op, identity, inv, name


def _closed_dihedral(n):
    # D_n as the closure of {rotation, reflection} from the identity
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    perms = set()
    frontier = [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        if p not in perms:
            perms.add(p)
            frontier.extend(tuple(gen[p[k]] for k in range(n)) for gen in (rot, ref))
    return _searched_perm_group(perms, f"D{n}")


def _fields(g):
    return g.order, g.op, g.identity, g.inv, g.name


@pytest.mark.parametrize("n", range(1, 9))
def test_dihedral_group_equals_the_closure_of_rotation_and_reflection(n):
    # D1 and D2 included: there the maps i -> +-i + k repeat some permutations
    assert _fields(dihedral_group(n)) == _closed_dihedral(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_symmetric_group_equals_the_searched_permutation_table(n):
    expected = _searched_perm_group(list(itertools.permutations(range(n))), f"S{n}")
    assert _fields(symmetric_group(n)) == expected


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
    # the range check reads no entry of an empty table
    with pytest.raises(StructuralError, match="^no identity element in op table$"):
        group_from_op([])
    for bad in ([[0, 2], [1, 0]], [[0, -1], [1, 0]]):
        with pytest.raises(StructuralError, match="^op table entry out of range$"):
            group_from_op(bad)


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
        (dihedral_group(4), klein_four_group()),
        (quaternion_group(), cyclic_group(4)),
        (direct_product(klein_four_group(), cyclic_group(2)), cyclic_group(2)),
    ]
    for src, tgt in cases:
        fast = {f.map for f in all_homs(src, tgt)}
        raw = set(raw_hom_maps(src.op, tgt.op))
        assert fast == raw, (src.name, tgt.name)


def _unpruned_homs(src, tgt):
    """Every hom src -> tgt from every tuple of generator images, each image
    of an order dividing its generator's, closed and checked in full."""
    gens = _generating_sequence(src)
    order = [tgt.element_order(h) for h in range(tgt.order)]
    options = [[h for h in range(tgt.order) if src.element_order(g) % order[h] == 0] for g in gens]
    elements = range(src.order)
    found = []
    for imgs in itertools.product(*options):
        m = {src.identity: tgt.identity}
        frontier = [src.identity]
        while frontier:  # the first value reached wins; the law below rejects a clash
            x = frontier.pop()
            for g, h in zip(gens, imgs):
                y = src.op[x][g]
                if y not in m:
                    m[y] = tgt.op[m[x]][h]
                    frontier.append(y)
        full = tuple(m[x] for x in range(src.order))
        if all(full[src.op[a][b]] == tgt.op[full[a]][full[b]] for a in elements for b in elements):
            found.append(full)
    return sorted(found)


@pytest.mark.parametrize("src", group_catalog(), ids=lambda g: g.name)
def test_all_homs_matches_an_unpruned_search(src):
    # all_homs drops a prefix of generator images that is already
    # inconsistent; the search over every tuple finds the same homs
    targets = [*group_catalog(), automorphism_group(src)[0]]
    for tgt in targets:
        assert [f.map for f in all_homs(src, tgt)] == _unpruned_homs(src, tgt), (src.name, tgt.name)


@pytest.mark.parametrize("src", group_catalog(), ids=lambda g: g.name)
def test_all_homs_and_automorphisms_return_only_homomorphisms(src):
    # the level walk's agreement steps are the only check a complete map
    # gets; the homomorphism law holds on every map it returns
    for tgt in [*group_catalog(), automorphism_group(src)[0]]:
        for f in all_homs(src, tgt):
            assert holds(hom_violations(src, tgt, f.map)), (src.name, tgt.name, f.map)
    for f in automorphisms(src):
        assert holds(hom_violations(src, src, f.map)), (src.name, f.map)


def test_all_homs_skips_images_that_break_commuting_generators(monkeypatch):
    # Z2^3's generators commute, so an image of the k-th generator that does
    # not commute with every earlier image is skipped before _extend_map runs;
    # without that skip the search closes 3762 prefixes
    z2_3 = next(g for g in group_catalog() if g.name == "Z2^3")
    aut = automorphism_group(z2_3)[0]
    calls = []
    extend_map = groups._extend_map
    monkeypatch.setattr(groups, "_extend_map", lambda *args: calls.append(1) or extend_map(*args))
    all_homs.cache_clear()
    try:
        assert len(all_homs(z2_3, aut)) == 736
    finally:
        all_homs.cache_clear()
    assert len(calls) == 906


def test_cached_per_identity_keys_each_structure_by_identity():
    # an equal but distinct structure gets its own entry; each entry holds
    # its argument, and the cache keeps lru_cache's bound and statistics
    cached = groups._cached_per_identity(lambda g: [g.name], maxsize=2)
    a, twin = cyclic_group(4), cyclic_group(4, "C4")
    assert a == twin and a is not twin
    assert cached(a) is cached(a) and cached(a) == ["Z4"]
    assert cached(twin) == ["C4"]
    assert cached.cache_info() == (2, 2, 2, 2)
    held = cached(cyclic_group(3))
    assert held == ["Z3"] and cached.cache_info().currsize == 2
    assert cached(a) == ["Z4"] and cached.cache_info().misses == 4
    cached.cache_clear()
    assert cached.cache_info() == (0, 0, 2, 0)
    g = cyclic_group(5)
    ref = weakref.ref(g)
    cached(g)
    del g
    cached(a)
    gc.collect()
    assert ref() is not None
    cached.cache_clear()
    gc.collect()
    assert ref() is None


def test_cached_per_identity_gives_each_thread_its_own_argument():
    # a miss reads its argument from a per-thread slot: with threads
    # switching every few bytecodes, each structure still gets its own result
    cached = groups._cached_per_identity(lambda g: g.name, maxsize=8)
    structures = [cyclic_group(2, f"T{i}") for i in range(64)]
    wrong = []

    def work(part):
        for _ in range(50):
            wrong.extend(g.name for g in part if cached(g) != g.name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(structures[i::4],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_end_s3_count():
    s3 = symmetric_group(3)
    assert len(all_homs(s3, s3)) == 10


def test_automorphisms_against_permutation_oracle():
    # every group of the catalog, Z2^3 included: 5040 permutations at order 8
    for g in group_catalog():
        fast = [f.map for f in automorphisms(g)]
        assert fast == sorted(raw_aut_maps(g.op)), g.name


def test_automorphisms_skip_images_inside_the_earlier_image(monkeypatch):
    # an image of a generator that lies in the image of the earlier
    # generators' subgroup is skipped before _extend_map runs: Z2^3 closes
    # 217 prefixes, and 168 complete maps pass the law, all of them bijective
    z2_3 = next(g for g in group_catalog() if g.name == "Z2^3")
    calls = []
    extend_map = groups._extend_map
    monkeypatch.setattr(groups, "_extend_map", lambda *args: calls.append(1) or extend_map(*args))
    automorphisms.cache_clear()
    try:
        assert len(automorphisms(z2_3)) == 168
    finally:
        automorphisms.cache_clear()
    assert len(calls) == 217


def test_automorphism_group_is_a_group():
    for g in group_catalog():
        aut_table, auts = automorphism_group(g)
        assert validate_group(aut_table).ok
        assert aut_table.order == len(auts)


def test_automorphism_group_table_is_full_map_composition():
    # the table looks composites up by their images of the generators
    for g in group_catalog():
        aut_table, auts = automorphism_group(g)
        index = {f.map: i for i, f in enumerate(auts)}
        composed = tuple(tuple(index[tuple(f.map[x] for x in h.map)] for h in auts) for f in auts)
        assert aut_table.op == composed, g.name


def test_aut_orders():
    # the trivial group has no generators, so its one automorphism has code 0
    assert automorphism_group(trivial_group())[0].op == ((0,),)
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
