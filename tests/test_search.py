import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache

from genxmod.crossed import (
    ExtAction,
    GXMod,
    check_alpha_gwa_morphism,
    check_kernel_acts_trivially,
    gxmod_violations,
    image_gxmod,
    is_aspherical,
    kernel_gxmod,
    square_violations,
    transport_both,
    validate_gxmod,
)
from genxmod.groups import (
    Hom,
    all_homs,
    automorphisms,
    cyclic_group,
    inverse_hom,
    klein_four_group,
    symmetric_group,
    trivial_group,
)
from genxmod.gwa import GwaObject, gwa, is_gwa_morphism, trivial_self_action
from genxmod.oracles import (
    raw_hom_maps,
    raw_is_gxmod,
    raw_self_action_tables,
    raw_self_action_tables_bruteforce,
)
from genxmod.search import (
    enumerate_coverings,
    enumerate_ext_actions,
    enumerate_gcat1s,
    enumerate_gxmods,
    enumerate_liftings,
    enumerate_self_actions,
    gwa_objects,
    group_catalog,
    standard_pool,
    verify_equivalence,
)
from genxmod import search, serialize
from genxmod.cat1 import cat1_to_gxmod
from genxmod.coverlift import (
    Covering,
    CoveringMorphism,
    Lifting,
    covering_morphism_violations,
    covering_violations,
    factorization_violations,
    image_lifting,
    lifting_violations,
    natural_lifting,
    self_lifting,
)
from genxmod.fixtures import a3_s3, gx1, gx2, gx3
import pytest

from genxmod.validation import StructuralError, holds


def test_self_action_counts_against_raw_row_oracle():
    for n, expected in ((2, 1), (3, 1), (4, 2)):
        g = cyclic_group(n)
        fast = enumerate_self_actions(g)
        raw = raw_self_action_tables(g.op)
        assert len(fast) == len(raw) == expected
        assert {s.act for s in fast} == set(raw)
    v4 = klein_four_group()
    fast = enumerate_self_actions(v4)
    raw = raw_self_action_tables(v4.op)
    assert len(fast) == len(raw) == 10
    assert {s.act for s in fast} == set(raw)


def test_self_action_full_table_oracle_small():
    for n in (2, 3):
        g = cyclic_group(n)
        assert {s.act for s in enumerate_self_actions(g)} == set(
            raw_self_action_tables_bruteforce(g.op)
        )


def test_self_action_count_s3():
    s3 = symmetric_group(3)
    fast = enumerate_self_actions(s3)
    raw = raw_self_action_tables(s3.op)
    assert len(fast) == len(raw) == 10


def test_self_action_count_equals_hom_count_into_aut():
    # the stated oracle: |self-actions| = |Hom(G, Aut(G))| by raw map search
    from genxmod.oracles import raw_aut_maps

    for g in (cyclic_group(2), cyclic_group(4), klein_four_group()):
        auts = raw_aut_maps(g.op)
        index = {m: i for i, m in enumerate(auts)}
        aut_op = [
            [index[tuple(a[b[x]] for x in range(g.order))] for b in auts] for a in auts
        ]
        count = len(raw_hom_maps(g.op, aut_op))
        assert len(enumerate_self_actions(g)) == count


def test_ext_action_counts():
    z2 = gwa(cyclic_group(2))
    z4 = gwa(cyclic_group(4))
    triv = gwa(trivial_group())
    assert len(enumerate_ext_actions(z2, z2)) == 1
    assert len(enumerate_ext_actions(z2, z4)) == 2
    assert len(enumerate_ext_actions(triv, z4)) == 1


def test_gxmod_count_z2_z2_trivial():
    z2 = gwa(cyclic_group(2))
    found = enumerate_gxmods(z2, z2)
    assert len(found) == 2
    maps = sorted(x.alpha.map for x in found)
    assert maps == [(0, 0), (0, 1)]


def test_enumerated_gxmods_include_gx3():
    a = gx3().A
    b = gx3().B
    found = enumerate_gxmods(a, b)
    assert any(x.alpha.map == gx3().alpha.map and x.action.act == gx3().action.act for x in found)


def test_gxmods_agree_with_raw_quadruple_loop_oracle():
    pool = standard_pool(4)
    for a in gwa_objects(pool):
        for b in gwa_objects(pool):
            enumerated = set()
            for x in enumerate_gxmods(a, b):
                assert raw_is_gxmod(x)
                enumerated.add((x.alpha.map, x.action.act))
            # independent recount from raw tables
            raw_count = 0
            for alpha in all_homs(a.group, b.group):
                for action in enumerate_ext_actions(b, a):
                    from genxmod.oracles import raw_gxmod_condition_violations

                    bad = raw_gxmod_condition_violations(
                        a.group.op, b.group.op,
                        a.self_action.act, b.self_action.act,
                        alpha.map, action.act,
                    )
                    if not bad:
                        raw_count += 1
                        assert (alpha.map, action.act) in enumerated
            assert raw_count == len(enumerated)


def test_zero_alpha_excluded_for_nontrivial_self_action():
    from genxmod.fixtures import z4_inversion_gwa

    a = z4_inversion_gwa()
    b = gwa(cyclic_group(2))
    for x in enumerate_gxmods(a, b):
        assert x.alpha.map != (0, 0, 0, 0)


def test_gxmod_pool_closed_under_automorphism_transport():
    pool = standard_pool(4)
    objs = [g for g in gwa_objects(pool) if g.order <= 4]
    for a in objs:
        for b in objs:
            found = enumerate_gxmods(a, b)
            keys = {(x.alpha.map, x.action.act) for x in found}
            for x in found:
                for f in automorphisms(b.group):
                    if not is_gwa_morphism(f, b, b):
                        continue
                    for g in automorphisms(a.group):
                        if not is_gwa_morphism(g, a, a):
                            continue
                        moved, _ = transport_both(x, f, b, g, a)
                        assert (moved.alpha.map, moved.action.act) in keys


def test_lemma_suite_on_enumerated_gxmods_order_4():
    pool = standard_pool(4)
    objs = gwa_objects(pool)
    checked = 0
    for a in objs:
        for b in objs:
            for x in enumerate_gxmods(a, b):
                assert check_alpha_gwa_morphism(x)
                assert check_kernel_acts_trivially(x)
                k = kernel_gxmod(x)
                assert validate_gxmod(k, max_violations=1).ok
                im = image_gxmod(x)
                assert validate_gxmod(im, max_violations=1).ok
                assert is_aspherical(im)
                checked += 1
    assert checked > 100


def test_enumerators_name_their_output_after_each_callers_objects():
    # equal tables under two names: each call's output carries its own names
    v4, z4 = klein_four_group(), cyclic_group(4)
    k4, c4 = replace(v4, name="K4"), replace(z4, name="C4")
    for group, name in ((v4, "V4"), (k4, "K4")):
        found = enumerate_gxmods(gwa(group), gwa(group))
        assert {(x.A.name, x.B.name) for x in found} == {(name, name)}
        assert {e.actor.name for e in enumerate_ext_actions(gwa(group), gwa(cyclic_group(2)))} == {name}
    for group, name in ((z4, "Z4"), (c4, "C4")):
        assert {sa.group.name for sa in enumerate_self_actions(group)} == {name}
        cats = enumerate_gcat1s(group)
        assert cats[0].G.name == f"{name}#sa0"
        assert {cat1_to_gxmod(c).name for c in cats} == {f"from_cat1({name})"}


def test_enumerate_liftings_contains_canonical_ones(base_gx1, base_gx3, pool4):
    for base in (base_gx1, base_gx3):
        liftings = enumerate_liftings(base, pool4)
        assert self_lifting(base) in liftings
        assert natural_lifting(base) in liftings
        assert image_lifting(base) in liftings


def test_enumerate_liftings_gx3_specific_members(base_gx3, pool4):
    liftings = enumerate_liftings(base_gx3, pool4)
    # quotient by the trivial ideal: X of order 4 with bijective phi
    assert any(l.X.order == 4 and l.phi.is_bijective() for l in liftings)
    # the natural one: X of order 2
    assert any(l.X.order == 2 for l in liftings)


def test_liftings_of_aspherical_base_are_aspherical(base_a3s3, pool6):
    from genxmod.coverlift import lifting_as_gxmod

    for l in enumerate_liftings(base_a3s3, pool6):
        assert is_aspherical(lifting_as_gxmod(l))


def test_enumerate_coverings_contains_identity(base_gx1, pool4):
    from genxmod.coverlift import identity_covering

    assert identity_covering(base_gx1) in enumerate_coverings(base_gx1, pool4)


def _single_loop_liftings(base, pool):
    """The liftings as one filter over every (X, omega, phi), X a group with
    one of its self-actions: the factorization, then every law of a lifting."""
    return tuple(
        Lifting(base, x, phi, omega)
        for x in gwa_objects(pool)
        for omega in all_homs(x.group, base.B.group)
        for phi in all_homs(base.A.group, x.group)
        if holds(factorization_violations(base, phi.map, omega.map))
        and holds(lifting_violations(base, x, phi.map, omega.map))
    )


def _single_loop_coverings(base, pool):
    """The coverings as one filter over every (f, B~, g, alpha~), B~ a group
    with one of its self-actions: the square, then the crossed module laws and
    every law of a covering on the built total."""
    a_group, n = base.A.group, base.A.order
    out = []
    for f in automorphisms(a_group):
        f_inv = inverse_hom(f).map
        a_tilde = GwaObject(a_group, search._pullback_self_action(base.A, f.map, f_inv))
        for b in gwa_objects(pool):
            for g in all_homs(b.group, base.B.group):
                forced = tuple(
                    tuple(f_inv[base.action.act[g.map[bt]][f.map[at]]] for at in range(n)) for bt in range(b.order)
                )
                for alpha_t in all_homs(a_group, b.group):
                    total = GXMod(a_tilde, b, alpha_t, ExtAction(b, a_tilde, forced))
                    if (
                        holds(square_violations(alpha_t.map, base.alpha.map, f.map, g.map))
                        and holds(gxmod_violations(alpha_t.map, forced, a_tilde.self_action.act, b.self_action.act))
                        and holds(covering_violations(total, base, f.map, g.map))
                    ):
                        out.append(Covering(total, base, f, g))
    return tuple(out)


@pytest.mark.parametrize("bound", [4, 6])
@pytest.mark.parametrize(
    "make_base",
    [gx1, gx2, gx3, a3_s3, lambda: _relabelled_gxmod(a3_s3(), random.Random(1))],
    ids=["gx1", "gx2", "gx3", "a3s3", "a3s3-relabelled"],
)
def test_enumerators_match_the_single_loop_filter(make_base, bound):
    # each law that ignores the self-action runs once per group, equivariance
    # once per self-action: the same objects as every law per self-action,
    # in the same order
    base, pool = make_base(), standard_pool(bound)
    assert enumerate_liftings(base, pool) == _single_loop_liftings(base, pool)
    assert enumerate_coverings(base, pool) == _single_loop_coverings(base, pool)


def _single_filter_covering_morphisms(c1, c2):
    """The morphisms c1 -> c2 as one filter: every law of <u, v> on each v."""
    u_map = tuple(c2.f.map.index(v) for v in c1.f.map)
    u = Hom(c1.total.A.group, c2.total.A.group, u_map)
    return tuple(
        CoveringMorphism(c1, c2, u, v)
        for v in all_homs(c1.total.B.group, c2.total.B.group)
        if holds(covering_morphism_violations(c1, c2, u_map, v.map))
    )


@pytest.mark.parametrize("make_base, bound", [(gx1, 4), (gx3, 4), (a3_s3, 6)], ids=["gx1-4", "gx3-4", "a3s3-6"])
def test_covering_morphisms_match_the_single_filter(make_base, bound):
    # the laws that read only the forced A-component u run once per pair,
    # the others once per v: the same morphisms as every law per v, in the
    # same order
    coverings = enumerate_coverings(make_base(), standard_pool(bound))
    for c1 in coverings:
        for c2 in coverings:
            assert search.covering_morphisms_between(c1, c2) == _single_filter_covering_morphisms(c1, c2)


def _enumeration(enumerate_objects):
    return lambda base, pool: lambda: enumerate_objects(base, pool)


def _covering_hom_sets(base, pool):
    """Every morphism between two coverings of base; the coverings are
    enumerated at once, before any law they need is patched."""
    coverings = enumerate_coverings(base, pool)
    return lambda: tuple(m for c1 in coverings for c2 in coverings for m in search.covering_morphisms_between(c1, c2))


# the laws each enumerator runs, as search looks them up; hom_violations
# runs on the A-component of a covering morphism
_ENUMERATOR_LAWS = [
    ("enumerate_liftings", _enumeration(enumerate_liftings), law)
    for law in ("factorization_violations", "peiffer_violations", "equivariance_violations")
] + [
    ("enumerate_coverings", _enumeration(enumerate_coverings), law)
    for law in ("square_violations", "peiffer_violations", "equivariance_violations")
] + [
    ("covering_morphisms_between", _covering_hom_sets, law)
    for law in (
        "hom_violations",
        "action_preserved_violations",
        "triangle_f_violations",
        "triangle_g_violations",
        "square_violations",
        "morphism_equivariance_violations",
    )
]


@pytest.mark.parametrize(
    "name, prepare, law", _ENUMERATOR_LAWS, ids=[f"{name}-{law}" for name, _, law in _ENUMERATOR_LAWS]
)
def test_every_enumerator_law_runs_on_every_candidate(base_gx3, pool4, monkeypatch, name, prepare, law):
    # a law that rejects everything leaves nothing, so no candidate skips it;
    # some of these laws never reject a candidate the others pass, so the
    # comparison with the single-loop filter alone would not show they run
    enumerate_objects = prepare(base_gx3, pool4)
    assert enumerate_objects()
    monkeypatch.setattr(search, law, lambda *args: iter([(law, (), "rejected", ())]))
    assert enumerate_objects() == ()


@pytest.mark.parametrize("make_base", [gx1, gx2, gx3, a3_s3], ids=["gx1", "gx2", "gx3", "a3s3"])
def test_covering_laws_enumerate_coverings_skips_hold_past_the_square(make_base):
    # enumerate_coverings runs only the square, Peiffer and equivariance;
    # every law of the covering <f, g> holds by construction on each
    # (f, B~, g, alpha~) past the square, whatever the self-action of B~
    base, pool = make_base(), standard_pool(6)
    a_group, n = base.A.group, base.A.order
    past_the_square = 0
    for f in automorphisms(a_group):
        f_inv = inverse_hom(f).map
        a_tilde = GwaObject(a_group, search._pullback_self_action(base.A, f.map, f_inv))
        for b_group in pool.groups:
            b = GwaObject(b_group, trivial_self_action(b_group))
            for g in all_homs(b_group, base.B.group):
                forced = tuple(
                    tuple(f_inv[base.action.act[g.map[bt]][f.map[at]]] for at in range(n)) for bt in range(b.order)
                )
                for alpha_t in all_homs(a_group, b_group):
                    if holds(square_violations(alpha_t.map, base.alpha.map, f.map, g.map)):
                        total = GXMod(a_tilde, b, alpha_t, ExtAction(b, a_tilde, forced))
                        assert list(covering_violations(total, base, f.map, g.map)) == []
                        past_the_square += 1
    assert past_the_square


def test_covering_and_lifting_iso_class_counts_match(base_gx1, base_gx3, pool4):
    from genxmod.oracles import search_covering_isomorphisms, search_lifting_isomorphisms

    for base in (base_gx1, base_gx3):
        liftings = enumerate_liftings(base, pool4)
        coverings = enumerate_coverings(base, pool4)
        assert _iso_class_count(liftings, search_lifting_isomorphisms) == _iso_class_count(
            coverings, search_covering_isomorphisms
        )


def _iso_class_count(objects, iso_search):
    classes = []
    for obj in objects:
        for cls in classes:
            if iso_search(cls[0], obj):
                cls.append(obj)
                break
        else:
            classes.append([obj])
    return len(classes)


def test_verify_equivalence_consistency(base_gx1, pool4):
    rep = verify_equivalence(base_gx1, pool4)
    assert rep.ok
    assert rep.consistent()
    assert rep.lifting_count == len(rep.lifting_to_covering_index)
    assert not rep.truncated


def test_functors_biject_hom_sets(base_gx3, pool4):
    # full and faithful on the enumerated pool: hom-set sizes agree under F
    from genxmod.coverlift import lifting_to_covering
    from genxmod.search import covering_morphisms_between, lifting_morphisms_between

    liftings = enumerate_liftings(base_gx3, pool4)
    for l1 in liftings[:8]:
        for l2 in liftings[:8]:
            n_l = len(lifting_morphisms_between(l1, l2))
            n_c = len(covering_morphisms_between(lifting_to_covering(l1), lifting_to_covering(l2)))
            assert n_l == n_c


def test_standard_pool_bounds():
    assert [g.name for g in standard_pool(1).groups] == ["1"]
    assert len(standard_pool(8).groups) == 14
    with pytest.raises(StructuralError):
        standard_pool(9)
    with pytest.raises(StructuralError):
        standard_pool(0)


def test_catalog_one_representative_per_order():
    by_order = {}
    for g in group_catalog():
        by_order.setdefault(g.order, []).append(g.name)
    assert by_order[1] == ["1"]
    assert sorted(by_order[4]) == ["V4", "Z4"]
    assert sorted(by_order[6]) == ["S3", "Z6"]
    assert sorted(by_order[8]) == ["D4", "Q8", "Z2^3", "Z4xZ2", "Z8"]


def test_catalog_representatives_pairwise_non_isomorphic():
    # element-order profile plus commutativity separates all 14 classes
    profiles = set()
    for g in group_catalog():
        profile = (
            g.order,
            tuple(sorted(g.element_order(x) for x in range(g.order))),
            g.is_abelian(),
        )
        assert profile not in profiles, g.name
        profiles.add(profile)


def test_max_morphism_cap_truncates(base_gx1, pool4):
    rep = verify_equivalence(base_gx1, pool4, max_morphisms=5)
    assert rep.truncated
    assert rep.lifting_morphism_count <= 5
    assert not rep.ok
    # pairs whose composite was cut off are skipped, not failed
    assert not rep.failures


def test_morphism_cap_applies_to_each_category_on_its_own(base_gx1, pool4):
    rep = verify_equivalence(base_gx1, pool4, max_morphisms=5)
    assert rep.lifting_morphism_count == rep.covering_morphism_count == 5


def test_canonical_construction_errors_propagate(base_gx1, pool4, monkeypatch):
    def broken(base):
        raise RuntimeError("defect in the construction")

    monkeypatch.setattr(search, "natural_lifting", broken)
    with pytest.raises(RuntimeError, match="defect in the construction"):
        verify_equivalence(base_gx1, pool4)


@pytest.mark.parametrize("base", ["base_gx1", "base_gx3"])
def test_functor_laws_visit_every_composable_pair(base, pool4, request):
    # one identity check per object, and one composition check per pair
    # m1 in Hom(-, j), m2 in Hom(j, -) of each category
    rep = verify_equivalence(request.getfixturevalue(base), pool4)
    pairs = 0
    for homs in (rep.lifting_homs, rep.covering_homs):
        into, out_of = Counter(), Counter()
        for (i, j), ms in homs.items():
            out_of[i] += len(ms)
            into[j] += len(ms)
        pairs += sum(into[j] * out_of[j] for j in into)
    assert rep.functor_law_checks_failed == 0
    assert rep.functor_law_checks_passed == rep.lifting_count + rep.covering_count + pairs


def _parallel_morphisms(base, pool, side):
    """The first hom-set Hom(o1, o2), o1 != o2, of side's category with two
    morphisms, and its endpoints."""
    enumerate_objects, between = {
        "covering": (enumerate_coverings, search.covering_morphisms_between),
        "lifting": (enumerate_liftings, search.lifting_morphisms_between),
    }[side]
    objects = enumerate_objects(base, pool)
    for o1 in objects:
        for o2 in objects:
            homs = between(o1, o2)
            if o1 != o2 and len(homs) == 2:
                return o1, o2, homs
    raise AssertionError("no hom-set with two morphisms")


@pytest.mark.parametrize("side", ["covering", "lifting"])
def test_composition_law_reads_the_functor_images(base_gx1, pool4, monkeypatch, side):
    # the functor out of side's category sends two parallel non-identity
    # morphisms to each other's image: every image stays a valid morphism and
    # identities stay preserved, so the composition law must notice
    _, _, (a, b) = _parallel_morphisms(base_gx1, pool4, side)
    name = f"functor_on_{side}_morphism"
    functor = getattr(search, name)
    swapped = {a: functor(b), b: functor(a)}
    monkeypatch.setattr(search, name, lambda m: swapped.get(m) or functor(m))
    rep = verify_equivalence(base_gx1, pool4)
    assert rep.functor_law_checks_failed > 0
    assert f"functor law: composition of {side} morphisms not preserved" in rep.failures
    assert not rep.ok


def _without_a_parallel_morphism(side):
    """A fault for side's *_morphisms_between: the hom-set of _parallel_morphisms
    loses the second of its two morphisms."""

    def make_fault(between):
        o1, o2, (_, dropped) = _parallel_morphisms(gx1(), standard_pool(4), side)
        return lambda s, t: tuple(m for m in between(s, t) if m != dropped) if (s, t) == (o1, o2) else between(s, t)

    return make_fault


def test_composition_law_requires_enumerated_composites(base_gx1, pool4, monkeypatch):
    fault = _without_a_parallel_morphism("covering")
    monkeypatch.setattr(search, "covering_morphisms_between", fault(search.covering_morphisms_between))
    rep = verify_equivalence(base_gx1, pool4)
    assert not rep.truncated
    assert "functor law: composite of covering morphisms not enumerated" in rep.failures
    assert not rep.ok


def _per_pair_composition_law(source, target, tally):
    """The composition law one composable pair at a time: for m1 in Hom(i, j)
    and m2 in Hom(j, k), the stored image of m2 o m1 against the composite
    of the stored images of m2 and m1."""
    out_of = {}
    for (j, k, c2), img2 in source.images.items():
        out_of.setdefault(j, []).append((k, c2, img2))
    for (i, j, c1), img1 in source.images.items():
        for k, c2, img2 in out_of.get(j, ()):
            img = source.images.get((i, k, source.maps[c2, c1]))
            if img is None:
                if not source.cut:
                    tally.check("functor_law", False, f"functor law: composite of {source.label} morphisms not enumerated")
            else:
                preserved = img == target.maps[img2, img1]
                tally.check("functor_law", preserved, f"functor law: composition of {source.label} morphisms not preserved")


@pytest.mark.parametrize("cut", [False, True], ids=["complete", "cut"])
def test_grouped_composition_law_matches_the_per_pair_loop(base_gx3, pool4, monkeypatch, cut):
    composition_law = search._composition_law
    categories = []
    monkeypatch.setattr(search, "_composition_law", lambda source, target, tally: categories.append((source, target)))
    verify_equivalence(base_gx3, pool4)
    source, target = categories[-1]
    assert source.label == "covering"
    # a class of parallel morphisms: one target j, map ids c1 and image, several sources
    classes = {}
    for (i, j, c1), img1 in source.images.items():
        classes.setdefault((j, c1, img1), []).append(i)
    (j, c1, img1), members = next((key, members) for key, members in classes.items() if len(members) > 2)
    # the image of one member corrupted to the zero map
    i = members[0]
    zero = target.maps.ids((0,) * source.objects[i].total.B.order)
    assert zero != img1
    source.images[i, j, c1] = zero
    # the composite m2 o m1 of another member with some m2 out of j deleted
    k, c2 = next((k, c2) for (j2, k, c2) in source.images if j2 == j)
    del source.images[members[1], k, source.maps[c2, c1]]
    source.cut = cut

    grouped, per_pair = search._Tally(), search._Tally()
    composition_law(source, target, grouped)
    _per_pair_composition_law(source, target, per_pair)
    assert grouped["functor_law", False] > 0 and grouped["functor_law", True] > 0
    assert grouped == per_pair
    assert Counter(grouped.failures) == Counter(per_pair.failures)
    assert ("functor law: composite of covering morphisms not enumerated" in grouped.failures) is not cut


# a group with self-action that no object enumerated at bound 4 is built on
_Z5 = gwa(cyclic_group(5))


def _lifting_over_z5(lifting):
    return replace(lifting, X=_Z5)


def _covering_over_z5(covering):
    return replace(covering, total=replace(covering.total, B=_Z5))


def _zero(h):
    return Hom(h.source, h.target, (h.target.identity,) * h.source.order)


def _zero_g(m):
    return replace(m, g=_zero(m.g))


def _zero_f(m):
    return replace(m, f=_zero(m.f))


def _swapped_endpoints(m):
    return replace(m, source=m.target, target=m.source)


def _faulty(fault):
    """Replace a function by one that applies fault to each of its results."""
    return lambda fn: lambda *args: fault(fn(*args))


# (function of search, fault built from it, the failure it must cause, the
# counter that must record a failed check).  An object functor that lands on
# the wrong group also breaks the identity law at the image, so the object
# checks, which have no counter of their own, show in the functor-law count.
_FAULTS = [
    ("lifting_to_covering", _faulty(_covering_over_z5),
     "lifting 0: functor image not among enumerated coverings", "functor_law"),
    ("covering_to_lifting", _faulty(_lifting_over_z5),
     "covering 0: functor image not among enumerated liftings", "functor_law"),
    ("covering_to_lifting", _faulty(_lifting_over_z5),
     "lifting 0: round trip is not table-identical", "functor_law"),
    ("lifting_to_covering", _faulty(_covering_over_z5),
     "covering 0: round-trip witness <f, 1> is not an isomorphism", "functor_law"),
    ("functor_on_lifting_morphism", _faulty(_zero_g),
     "lifting morphism: functor image invalid", "morphism"),
    ("functor_on_covering_morphism", _faulty(_zero_f),
     "covering morphism: functor image invalid", "morphism"),
    ("functor_on_covering_morphism", _faulty(_zero_f),
     "lifting morphism: round trip not exact", "morphism"),
    ("functor_on_lifting_morphism", _faulty(_zero_g),
     "covering morphism: naturality square broken", "naturality"),
    ("functor_on_lifting_morphism", _faulty(_zero_g),
     "functor law: identity lifting morphism not preserved", "functor_law"),
    ("functor_on_covering_morphism", _faulty(_zero_f),
     "functor law: identity covering morphism not preserved", "functor_law"),
    ("lifting_morphisms_between", _without_a_parallel_morphism("lifting"),
     "functor law: composite of lifting morphisms not enumerated", "functor_law"),
]


# an image whose maps do not fit the groups of its endpoints (between liftings
# whose X differ in order) is invalid too: it is rejected before any law
# indexes a group table with its entries
_SHAPE_FAULT = pytest.param(
    "functor_on_lifting_morphism", _faulty(_swapped_endpoints),
    "lifting morphism: functor image invalid", "morphism",
    id="lifting morphism: functor image of the wrong shape",
)


@pytest.mark.parametrize(
    "name, make_fault, message, counter", [*(pytest.param(*f, id=f[2]) for f in _FAULTS), _SHAPE_FAULT]
)
def test_every_equivalence_failure_path_is_reported(base_gx1, pool4, monkeypatch, name, make_fault, message, counter):
    # one faulty function that verify_equivalence looks up through search; the
    # check it feeds must name the fault and count it as failed
    monkeypatch.setattr(search, name, make_fault(getattr(search, name)))
    rep = verify_equivalence(base_gx1, pool4)
    assert message in rep.failures
    assert getattr(rep, f"{counter}_checks_failed") > 0
    assert not rep.ok


def _relabel_table(table, p_row, p_col, p_val):
    out = [[0] * len(table[0]) for _ in table]
    for r, row in enumerate(table):
        for c, v in enumerate(row):
            out[p_row[r]][p_col[c]] = p_val[v]
    return out


def _relabel_gwa_doc(doc, p):
    out = {**doc, "op": _relabel_table(doc["op"], p, p, p)}
    if "self_action" in doc:  # absent when the self-action is trivial
        out["self_action"] = _relabel_table(doc["self_action"], p, p, p)
    return out


def _relabelled_gxmod(x, rng):
    """x read back from its document with the elements of A renamed by a random
    permutation and those of B by one that changes B's tables."""
    doc = serialize.doc_for(x)
    pa = rng.sample(range(x.A.order), x.A.order)
    while True:
        pb = rng.sample(range(x.B.order), x.B.order)
        b_doc = _relabel_gwa_doc(doc["B"], pb)
        if b_doc != doc["B"]:
            break
    alpha = [0] * x.A.order
    for a, b in enumerate(doc["alpha"]):
        alpha[pa[a]] = pb[b]
    moved = {
        **doc,
        "A": _relabel_gwa_doc(doc["A"], pa),
        "B": b_doc,
        "alpha": alpha,
        "action": _relabel_table(doc["action"], pb, pa, pa),
    }
    return serialize.load_gxmod_doc(moved)


def _report_counts(x, bound):
    """Every scalar of x's equivalence report, and the length of every list in it."""
    doc = serialize.equivalence_report_doc(verify_equivalence(x, standard_pool(bound)))
    return {key: len(value) if isinstance(value, list) else value for key, value in doc.items()}


@lru_cache(maxsize=None)
def _shipped_report_counts(fixture, bound):
    return _report_counts(fixture(), bound)


@pytest.mark.parametrize(
    "fixture, bound, seed", [(gx1, 4, 1), (gx1, 4, 2), (gx3, 4, 1), (gx3, 4, 2), (a3_s3, 6, 1)]
)
def test_equivalence_report_counts_survive_relabelling(fixture, bound, seed):
    base = fixture()
    moved = _relabelled_gxmod(base, random.Random(seed))
    # Z2 has one table with identity 0; S3's relabelled table is not the pool's,
    # so its canonical liftings and identity covering are found up to isomorphism
    assert (moved.B.group.op != base.B.group.op) == (base.B.order > 2)
    counts = _report_counts(moved, bound)
    assert counts == _shipped_report_counts(fixture, bound)
    assert counts["ok"] is True and counts["truncated"] is False
