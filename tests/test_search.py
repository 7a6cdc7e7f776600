import random
from collections import Counter
from functools import lru_cache

from genxmod.crossed import (
    check_alpha_gwa_morphism,
    check_kernel_acts_trivially,
    image_gxmod,
    is_aspherical,
    kernel_gxmod,
    transport_both,
    validate_gxmod,
)
from genxmod.groups import all_homs, automorphisms, cyclic_group, klein_four_group, symmetric_group, trivial_group
from genxmod.gwa import gwa, is_gwa_morphism
from genxmod.oracles import (
    raw_hom_maps,
    raw_is_gxmod,
    raw_self_action_tables,
    raw_self_action_tables_bruteforce,
)
from genxmod.search import (
    enumerate_coverings,
    enumerate_ext_actions,
    enumerate_gxmods,
    enumerate_liftings,
    enumerate_self_actions,
    gwa_objects,
    group_catalog,
    standard_pool,
    verify_equivalence,
)
from genxmod import search, serialize
from genxmod.coverlift import image_lifting, natural_lifting, self_lifting
from genxmod.fixtures import a3_s3, gx1, gx3
import pytest

from genxmod.validation import StructuralError


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


def test_composition_law_requires_enumerated_composites(base_gx1, pool4, monkeypatch):
    c1, c2, (_, dropped) = _parallel_morphisms(base_gx1, pool4, "covering")
    between = search.covering_morphisms_between

    def without_dropped(s, t):
        return tuple(m for m in between(s, t) if m != dropped) if (s, t) == (c1, c2) else between(s, t)

    monkeypatch.setattr(search, "covering_morphisms_between", without_dropped)
    rep = verify_equivalence(base_gx1, pool4)
    assert not rep.truncated
    assert "functor law: composite of covering morphisms not enumerated" in rep.failures
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
