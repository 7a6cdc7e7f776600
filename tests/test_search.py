import json
import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache

from genxmod.crossed import (
    ExtAction,
    GXMod,
    check_alpha_gwa_morphism,
    check_kernel_acts_trivially,
    equivariance_violations,
    gxmod_violations,
    image_gxmod,
    is_aspherical,
    kernel_gxmod,
    peiffer_violations,
    square_violations,
    transport_both,
    validate_gxmod,
)
from genxmod.groups import (
    Hom,
    all_homs,
    automorphisms,
    cyclic_group,
    identity_hom,
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
    LiftingMorphism,
    covering_morphism_violations,
    covering_violations,
    factorization_violations,
    image_lifting,
    induced_action,
    lifting_morphism_violations,
    lifting_violations,
    natural_lifting,
    self_lifting,
)
from genxmod.fixtures import a3_s3, fixture_gxmods, gx1, gx2, gx3
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


@pytest.mark.parametrize("name", ["D4", "Q8", "Z4xZ2", "Z8"])
def test_order_8_self_actions_against_raw_row_oracle(name):
    g = next(g for g in group_catalog() if g.name == name)
    raw = raw_self_action_tables(g.op)
    assert sorted(s.act for s in enumerate_self_actions(g)) == sorted(raw)


@pytest.mark.slow
def test_z2_cubed_self_actions_against_raw_row_oracle():
    # the oracle's row search takes seconds on Z2^3: 168 automorphism rows
    # for each of 7 elements, 736 tables
    g = next(g for g in group_catalog() if g.name == "Z2^3")
    raw = raw_self_action_tables(g.op)
    assert len(raw) == 736
    assert sorted(s.act for s in enumerate_self_actions(g)) == sorted(raw)


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


def _v4_over_z2(i, alpha):
    """The gxmod V4#sa<i> -> Z2#sa0 with structure map alpha, as
    enumerate_gxmods finds it.  These are the only gxmods with |A| * |B| <= 8
    whose A has a self-action some automorphism of A moves, so the only ones
    with a covering whose A~ is not A."""
    v4, z2 = search.gwa_objects_for(klein_four_group())[i], search.gwa_objects_for(cyclic_group(2))[0]
    [x] = [x for x in enumerate_gxmods(v4, z2) if x.alpha.map == alpha]
    return x


_MOVED_SELF_ACTIONS = [(1, (0, 0, 1, 1)), (7, (0, 1, 1, 0)), (8, (0, 1, 0, 1))]


@pytest.mark.parametrize("bound", [4, 6])
@pytest.mark.parametrize(
    "make_base",
    [
        gx1, gx2, gx3, a3_s3, lambda: _relabelled_gxmod(a3_s3(), random.Random(1)),
        *(lambda i=i, alpha=alpha: _v4_over_z2(i, alpha) for i, alpha in _MOVED_SELF_ACTIONS),
    ],
    ids=["gx1", "gx2", "gx3", "a3s3", "a3s3-relabelled", *(f"V4#sa{i}-Z2#sa0" for i, _ in _MOVED_SELF_ACTIONS)],
)
def test_enumerators_match_the_single_loop_filter(make_base, bound):
    # each law that ignores the self-action runs once per group, equivariance
    # once per self-action: the same objects as every law per self-action,
    # in the same order
    base, pool = make_base(), standard_pool(bound)
    assert enumerate_liftings(base, pool) == _single_loop_liftings(base, pool)
    assert enumerate_coverings(base, pool) == _single_loop_coverings(base, pool)


def _lifting_candidates(base, pool):
    """Each group X of the pool with its candidates (phi, omega, act), those
    past the factorization and Peiffer."""
    sa = base.A.self_action.act
    for x_group in pool.groups:
        candidates = []
        for omega in all_homs(x_group, base.B.group):
            act = induced_action(base, omega.map)
            for phi in all_homs(base.A.group, x_group):
                if holds(factorization_violations(base, phi.map, omega.map)) and holds(
                    peiffer_violations(phi.map, act, sa)
                ):
                    candidates.append((phi, omega, act))
        yield x_group, candidates


def _covering_candidates(base, pool):
    """Each automorphism f, A~ and group B~ of the pool with the candidates
    (g, alpha~, forced action), those past the square and Peiffer."""
    a_group, n = base.A.group, base.A.order
    for f in automorphisms(a_group):
        f_inv = inverse_hom(f).map
        a_tilde = GwaObject(a_group, search._pullback_self_action(base.A, f.map, f_inv))
        for b_group in pool.groups:
            candidates = []
            for g in all_homs(b_group, base.B.group):
                forced = tuple(
                    tuple(f_inv[base.action.act[g.map[bt]][f.map[at]]] for at in range(n))
                    for bt in range(b_group.order)
                )
                for alpha_t in all_homs(a_group, b_group):
                    if holds(square_violations(alpha_t.map, base.alpha.map, f.map, g.map)) and holds(
                        peiffer_violations(alpha_t.map, forced, a_tilde.self_action.act)
                    ):
                        candidates.append((g, alpha_t, forced))
            yield f, a_tilde, b_group, candidates


def _per_self_action_liftings(base, pool):
    """The liftings as each group's candidates past the factorization and
    Peiffer, run through equivariance for every self-action of the group."""
    out = []
    for x_group, candidates in _lifting_candidates(base, pool):
        for x in search.gwa_objects_for(x_group):
            out.extend(
                Lifting(base, x, phi, omega)
                for phi, omega, act in candidates
                if holds(equivariance_violations(phi.map, act, x.self_action.act))
            )
    return tuple(out)


def _per_self_action_coverings(base, pool):
    """The coverings as the candidates past the square and Peiffer of each f
    and group, run through equivariance for every self-action of the group."""
    out = []
    for f, a_tilde, b_group, candidates in _covering_candidates(base, pool):
        for b in search.gwa_objects_for(b_group):
            for g, alpha_t, forced in candidates:
                if holds(equivariance_violations(alpha_t.map, forced, b.self_action.act)):
                    out.append(Covering(GXMod(a_tilde, b, alpha_t, ExtAction(b, a_tilde, forced)), base, f, g))
    return tuple(out)


def _per_table_gxmods(a, b):
    """The gxmods on (a, b) as both conditions run on every (alpha, action table)."""
    return tuple(
        GXMod(a, b, alpha, action)
        for alpha in all_homs(a.group, b.group)
        for action in enumerate_ext_actions(b, a)
        if holds(gxmod_violations(alpha.map, action.act, a.self_action.act, b.self_action.act))
    )


@pytest.mark.parametrize(
    "make_base",
    [gx1, gx3, a3_s3, lambda: _relabelled_gxmod(a3_s3(), random.Random(1))],
    ids=["gx1", "gx3", "a3s3", "a3s3-relabelled"],
)
def test_enumerators_match_the_per_self_action_filter_at_bound_8(make_base):
    # each candidate looks up the self-actions its equivariance allows: the
    # same objects as equivariance run for every self-action, in the same order
    base, pool = make_base(), standard_pool(8)
    assert enumerate_liftings(base, pool) == _per_self_action_liftings(base, pool)
    assert enumerate_coverings(base, pool) == _per_self_action_coverings(base, pool)


def _equivariance_runs(monkeypatch, base, pool):
    """How many times enumerate_liftings and enumerate_coverings each run
    equivariance on base over pool."""
    runs = Counter()
    law = search.equivariance_violations

    def counted(side):
        def run(*args):
            runs[side] += 1
            return law(*args)

        return run

    monkeypatch.setattr(search, "equivariance_violations", counted("lifting"))
    enumerate_liftings(base, pool)
    monkeypatch.setattr(search, "equivariance_violations", counted("covering"))
    enumerate_coverings(base, pool)
    return runs["lifting"], runs["covering"]


@pytest.mark.parametrize("bound", [4, 6])
@pytest.mark.parametrize("make_base", [gx1, gx3, a3_s3], ids=["gx1", "gx3", "a3s3"])
def test_equivariance_runs_once_per_shape(monkeypatch, make_base, bound):
    # a shape is an object without the self-action of its varying group: one
    # candidate past the other laws, run through equivariance once
    base, pool = make_base(), standard_pool(bound)
    rep = verify_equivalence(base, pool)
    shapes = len(set(rep.lifting_shapes)), len(set(rep.covering_shapes))
    assert _equivariance_runs(monkeypatch, base, pool) == shapes


@pytest.mark.parametrize(
    "make_base, runs", [(gx1, (51, 51)), (gx3, (77, 154)), (a3_s3, (10, 20))], ids=["gx1", "gx3", "a3s3"]
)
def test_equivariance_runs_once_per_shape_at_bound_8(monkeypatch, make_base, runs):
    # 363 runs in all, where a run per object was 33 785 (6625 + 6625,
    # 6787 + 13 574, 58 + 116)
    assert _equivariance_runs(monkeypatch, make_base(), standard_pool(8)) == runs


class _ReadRow:
    """A row of a table that records, in read, the entries (b, y) read from it."""

    def __init__(self, row, b, read):
        self.row, self.b, self.read = row, b, read

    def __getitem__(self, y):
        self.read.add((self.b, y))
        return self.row[y]


def _entries_equivariance_reads(alpha, act, sb):
    """The entries (b, y) of sb that equivariance_violations reads, run to the end."""
    read = set()
    list(equivariance_violations(alpha, act, [_ReadRow(row, b, read) for b, row in enumerate(sb)]))
    return read


@pytest.mark.parametrize(
    "make_base",
    [gx1, gx3, a3_s3, lambda: _relabelled_gxmod(a3_s3(), random.Random(1))],
    ids=["gx1", "gx3", "a3s3", "a3s3-relabelled"],
)
def test_the_equivariance_lookup_finds_one_verdict_per_candidate(make_base):
    # the enumerators run equivariance once per candidate, on the first
    # self-action the lookup finds, and share the verdict: this holds when
    # the lookup finds exactly the self-actions that pass the law, run on
    # every self-action, and those agree on every entry the law reads
    base, pool = make_base(), standard_pool(8)
    candidates = [(x_group, phi.map, act) for x_group, found in _lifting_candidates(base, pool) for phi, _, act in found]
    candidates += [
        (b_group, alpha_t.map, forced)
        for _, _, b_group, found in _covering_candidates(base, pool)
        for _, alpha_t, forced in found
    ]
    largest = 0
    for group, alpha, act in candidates:
        tables = [x.self_action.act for x in search.gwa_objects_for(group)]
        columns = search._action_table_lines(group, group, True)
        # equivariance pins column alpha(a) to (alpha(b . a) for each b)
        pinned = ((alpha[a], tuple(alpha[row[a]] for row in act)) for a in range(len(alpha)))
        found = list(search._bits(search._tables_with(columns, pinned)))
        assert found == [i for i, sb in enumerate(tables) if holds(equivariance_violations(alpha, act, sb))]
        read = sorted(_entries_equivariance_reads(alpha, act, tables[0]))
        assert len({tuple(tables[i][b][y] for b, y in read) for i in found}) <= 1
        largest = max(largest, len(found))
    # some lookup finds several self-actions, so the verdict is shared
    assert largest > 1


def test_gxmods_match_the_per_table_filter():
    # each alpha looks up the action tables whose rows on im(alpha) Peiffer
    # allows: the same gxmods as both conditions on every table, in the same order
    gwas = gwa_objects(standard_pool(6))
    assert len(gwas) == 28
    found = 0
    for a in gwas:
        for b in gwas:
            gxmods = enumerate_gxmods(a, b)
            assert gxmods == _per_table_gxmods(a, b)
            found += len(gxmods)
    assert found


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


def _single_filter_lifting_morphisms(l1, l2):
    """The morphisms l1 -> l2 as one filter: every law of f on each f of all_homs."""
    return tuple(
        LiftingMorphism(l1, l2, f)
        for f in all_homs(l1.X.group, l2.X.group)
        if holds(lifting_morphism_violations(l1, l2, f.map))
    )


@pytest.mark.parametrize(
    "make_base, bound",
    [(gx1, 4), (gx3, 4), (a3_s3, 6), (lambda: _relabelled_gxmod(a3_s3(), random.Random(1)), 6)],
    ids=["gx1-4", "gx3-4", "a3s3-6", "a3s3-relabelled-6"],
)
def test_lifting_morphisms_match_the_single_filter(make_base, bound):
    # the candidates are looked up by omega' o f rather than scanned: the same
    # morphisms as every law per f, in the same order
    liftings = enumerate_liftings(make_base(), standard_pool(bound))
    for l1 in liftings:
        for l2 in liftings:
            assert search.lifting_morphisms_between(l1, l2) == _single_filter_lifting_morphisms(l1, l2)


def _enumeration(enumerate_objects):
    return lambda base, pool: lambda: enumerate_objects(base, pool)


def _covering_hom_sets(base, pool):
    """Every morphism between two coverings of base; the coverings are
    enumerated at once, before any law they need is patched."""
    coverings = enumerate_coverings(base, pool)
    return lambda: tuple(m for c1 in coverings for c2 in coverings for m in search.covering_morphisms_between(c1, c2))


def _lifting_hom_sets(base, pool):
    """Every morphism between two liftings of base; the liftings are
    enumerated at once, before any law they need is patched."""
    liftings = enumerate_liftings(base, pool)
    return lambda: tuple(m for l1 in liftings for l2 in liftings for m in search.lifting_morphisms_between(l1, l2))


def _gxmod_enumeration(base, pool):
    return lambda: enumerate_gxmods(base.A, base.B)


def _gcat1_enumeration(base, pool):
    return lambda: tuple(c for g in pool.groups for c in enumerate_gcat1s(g))


# the laws each enumerator runs, as search looks them up; hom_violations
# runs on the A-component of a covering morphism
_ENUMERATOR_LAWS = [
    ("enumerate_liftings", _enumeration(enumerate_liftings), law)
    for law in ("factorization_violations", "peiffer_violations", "equivariance_violations")
] + [
    ("enumerate_coverings", _enumeration(enumerate_coverings), law)
    for law in ("factorization_violations", "peiffer_violations", "equivariance_violations")
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
] + [
    ("lifting_morphisms_between", _lifting_hom_sets, law)
    for law in ("triangle_omega_violations", "triangle_phi_violations")
] + [
    ("enumerate_gxmods", _gxmod_enumeration, "gxmod_violations"),
] + [
    ("enumerate_gcat1s", _gcat1_enumeration, law)
    for law in ("action_preserved_violations", "kernel_action_violations")
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
    for rows in (rep.lifting_morphisms(), rep.covering_morphisms()):
        into, out_of = Counter(), Counter()
        for i, j, _ in rows:
            out_of[i] += 1
            into[j] += 1
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


# a morphism's maps, and an object's shape: the object without the
# self-action of its varying group, which no morphism law reads
_MAPS = {"lifting": lambda m: (m.f,), "covering": lambda m: (m.f, m.g)}
_SHAPES = {
    "lifting": lambda o: (o.base, o.X.group, o.phi, o.omega),
    "covering": lambda o: (o.base, o.total.A, o.total.B.group, o.total.alpha, o.total.action.act, o.f, o.g),
}


def _without_a_parallel_morphism(side, fixture=gx1, bound=4):
    """A fault for side's *_morphisms_between: every hom-set whose endpoints
    have the shapes of those of _parallel_morphisms on fixture's base loses
    the morphism with the maps of the second of its two morphisms.
    verify_equivalence searches one pair of objects per pair of shapes, so
    the fault must not hang on which pair that is."""

    def make_fault(between):
        o1, o2, (_, dropped) = _parallel_morphisms(fixture(), standard_pool(bound), side)
        maps, shape = _MAPS[side], _SHAPES[side]
        ends = shape(o1), shape(o2)

        def faulty(s, t):
            found = between(s, t)
            if (shape(s), shape(t)) != ends:
                return found
            return tuple(m for m in found if maps(m) != maps(dropped))

        return faulty

    return make_fault


def test_composition_law_requires_enumerated_composites(base_gx1, pool4, monkeypatch):
    fault = _without_a_parallel_morphism("covering")
    monkeypatch.setattr(search, "covering_morphisms_between", fault(search.covering_morphisms_between))
    rep = verify_equivalence(base_gx1, pool4)
    assert not rep.truncated
    assert "functor law: composite of covering morphisms not enumerated" in rep.failures
    assert not rep.ok


# a group with self-action that no object enumerated at bound 4 is built on
_Z5 = gwa(cyclic_group(5))


def _lifting_over_z5(lifting):
    return replace(lifting, X=_Z5)


def _covering_over_z5(covering):
    return replace(covering, total=replace(covering.total, B=_Z5))


def _covering_over_gx2(covering):
    # the shape and the varying self-action leave out the base: the image
    # keys to an enumerated covering that it does not equal
    return replace(covering, base=gx2())


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
# One that lands on the right groups over another base breaks no law that
# has a counter (None): only the object checks see it.
_FAULTS = [
    ("lifting_to_covering", _faulty(_covering_over_z5),
     "lifting 0: functor image not among enumerated coverings", "functor_law"),
    ("lifting_to_covering", _faulty(_covering_over_gx2),
     "lifting 0: functor image not among enumerated coverings", None,
     "lifting 0: functor image over another base not among enumerated coverings"),
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
    ("lifting_morphisms_between", _faulty(lambda found: ()),
     "covering morphism: functor image not among enumerated lifting morphisms", "morphism"),
    ("covering_morphisms_between", _faulty(lambda found: ()),
     "lifting morphism: functor image not among enumerated covering morphisms", "morphism"),
]


def _fault_param(name, make_fault, message, counter, id=None):
    """A _FAULTS entry as a test parameter, named by its message, or by id
    where another entry causes the same message."""
    return pytest.param(name, make_fault, message, counter, id=id or message)


# an image whose maps do not fit the groups of its endpoints (between liftings
# whose X differ in order) is invalid too: it is rejected before any law
# indexes a group table with its entries
_SHAPE_FAULT = pytest.param(
    "functor_on_lifting_morphism", _faulty(_swapped_endpoints),
    "lifting morphism: functor image invalid", "morphism",
    id="lifting morphism: functor image of the wrong shape",
)


def _one_copy_over_z5(functor):
    """lifting_to_covering with the image of gx1/4's lifting 7, the first
    lifting that is not the first of its shape, and of it only, over Z5."""
    liftings = enumerate_liftings(gx1(), standard_pool(4))
    shape = _SHAPES["lifting"]
    copy = liftings[7]
    assert shape(copy) in {shape(o) for o in liftings[:7]}
    return lambda o: _covering_over_z5(functor(o)) if o == copy else functor(o)


# the checks of each shape read the images of its first object, so an
# object whose image has another shape than its first object's is reported
_IMAGE_SHAPE_FAULT = pytest.param(
    "lifting_to_covering", _one_copy_over_z5,
    "lifting 7: functor image shape differs within its shape", "functor_law",
    id="lifting 7: functor image shape differs within its shape",
)


@pytest.mark.parametrize(
    "name, make_fault, message, counter",
    [*(_fault_param(*f) for f in _FAULTS), _SHAPE_FAULT, _IMAGE_SHAPE_FAULT],
)
def test_every_equivalence_failure_path_is_reported(base_gx1, pool4, monkeypatch, name, make_fault, message, counter):
    # one faulty function that verify_equivalence looks up through search; the
    # check it feeds must name the fault and count it as failed
    monkeypatch.setattr(search, name, make_fault(getattr(search, name)))
    rep = verify_equivalence(base_gx1, pool4)
    assert message in rep.failures
    assert counter is None or getattr(rep, f"{counter}_checks_failed") > 0
    assert not rep.ok


def _dropping(drop):
    """Replace an enumerator by one that leaves out the objects drop(base, o) picks."""
    return lambda enumerate_: lambda base, pool: tuple(o for o in enumerate_(base, pool) if not drop(base, o))


# (enumerator of search, its fault, the canonical objects on gx1/4 that the
# fault leaves out of the pool)
_NOT_FOUND = [
    pytest.param(
        "enumerate_coverings", _dropping(lambda base, c: c.g.is_bijective()), ["identity covering"],
        id="identity covering",
    ),
    pytest.param(
        "enumerate_liftings", _dropping(lambda base, l: l.X.order == natural_lifting(base).X.order),
        ["natural lifting", "image lifting", "self lifting"],
        id="natural, image and self liftings",
    ),
]


@pytest.mark.parametrize("name, make_fault, labels", _NOT_FOUND)
def test_a_canonical_object_missing_from_the_pool_is_reported(base_gx1, pool4, monkeypatch, name, make_fault, labels):
    monkeypatch.setattr(search, name, make_fault(getattr(search, name)))
    rep = verify_equivalence(base_gx1, pool4)
    assert rep.incomplete == tuple(f"{label}: not found in the enumerated pool" for label in labels)
    assert not rep.truncated
    assert not rep.ok


def test_equivalence_runs_each_law_once_per_distinct_input(base_gx3, pool4, monkeypatch):
    # each hom-set search runs once per ordered pair of object shapes, and
    # each morphism-level check once per morphism of those hom-sets; every
    # morphism between objects is still counted
    searches = Counter()

    def count(name):
        between = getattr(search, name)

        def counted(*args):
            searches[name] += 1
            return between(*args)

        monkeypatch.setattr(search, name, counted)

    count("covering_morphisms_between")
    count("lifting_morphisms_between")
    validated = Counter()
    is_valid = search._Category.is_valid

    def counted_is_valid(category, m):
        validated[category.label] += 1
        return is_valid(category, m)

    monkeypatch.setattr(search._Category, "is_valid", counted_is_valid)
    looked_up = Counter()
    lists = search._Category.lists

    def counted_lists(category, ends, maps):
        looked_up[category.label] += 1
        return lists(category, ends, maps)

    monkeypatch.setattr(search._Category, "lists", counted_lists)
    rep = verify_equivalence(base_gx3, pool4)

    # the images <1_A, f> and the round-trip witnesses <f, 1> add no input
    inputs = {(c1.total.A, c2.total.A, c1.f.map, c2.f.map) for c1 in rep.coverings for c2 in rep.coverings}
    assert len(inputs) == 4
    # 54 coverings of 18 shapes and 27 liftings of 9
    assert (len(set(rep.covering_shapes)), len(set(rep.lifting_shapes))) == (18, 9)
    assert searches["covering_morphisms_between"] == 18 * 18
    assert searches["lifting_morphisms_between"] == 9 * 9
    # the 5020 covering morphisms between objects are 412 between the first
    # objects of each pair of shapes, and the 1255 lifting morphisms 103: the
    # images of those 412 are looked up among the lifting hom-sets, and of
    # those 103 among the covering hom-sets, and every one is listed there,
    # so no image runs the laws; only the round-trip witnesses are
    # validated, one per pair of shapes of a covering and its round-trip
    # image, 18 for the 54 coverings
    assert (rep.covering_morphism_count, rep.lifting_morphism_count) == (5020, 1255)
    assert (sum(map(len, rep.covering_homs.values())), sum(map(len, rep.lifting_homs.values()))) == (412, 103)
    assert looked_up == {"lifting": 412, "covering": 103}
    assert validated["lifting"] == 0
    assert validated["covering"] == 18
    assert len(rep.roundtrip_covering_witnesses) == 54
    assert rep.ok
    assert (rep.morphism_checks_passed, rep.functor_law_checks_passed, rep.naturality_checks_passed) == (
        7530, 546912, 5020
    )


def test_composites_are_built_once_per_distinct_pair_of_maps(base_gx3, pool4, monkeypatch):
    # the composition law composes each distinct pair of maps once, of the
    # morphisms and of their images, however many composable pairs of
    # shape-level morphisms carry it; every pair is still counted
    side = []
    composed = Counter()
    law, composite = search._composition_law, search._composite

    def counted_law(source, *args):
        side.append(source.label)
        return law(source, *args)

    def counted_composite(outer, inner):
        # a covering morphism has two maps and a lifting morphism one, so the
        # length tells the morphisms' composites from the images'
        composed[side[-1], {2: "covering", 1: "lifting"}[len(outer)]] += 1
        return composite(outer, inner)

    monkeypatch.setattr(search, "_composition_law", counted_law)
    monkeypatch.setattr(search, "_composite", counted_composite)
    rep = verify_equivalence(base_gx3, pool4)
    assert side == ["lifting", "covering"]
    # 10 152 composable covering pairs and 1269 lifting pairs at shape level
    assert composed == {
        ("covering", "covering"): 984,
        ("covering", "lifting"): 246,
        ("lifting", "lifting"): 246,
        ("lifting", "covering"): 246,
    }
    assert rep.ok
    assert rep.functor_law_checks_passed == 546912


def _checked_with_images(monkeypatch, base, pool):
    """verify_equivalence(base, pool), and (source, target, returned) for
    each of its _morphism_images calls, in call order."""
    calls = []
    morphism_images = search._morphism_images

    def recorded(source, target, *args):
        returned = morphism_images(source, target, *args)
        calls.append((source, target, returned))
        return returned

    monkeypatch.setattr(search, "_morphism_images", recorded)
    return verify_equivalence(base, pool), calls


_SHIPPED_CHECKS = pytest.mark.parametrize(
    "fixture, bound", [(gx1, 4), (gx3, 4), (a3_s3, 6)], ids=["gx1-4", "gx3-4", "a3s3-6"]
)


@_SHIPPED_CHECKS
def test_a_morphism_image_listed_between_its_shapes_is_valid(monkeypatch, fixture, bound):
    # the premise of deciding an image's validity by membership: a hom-set
    # holds only maps that pass every law between objects of its shapes, so
    # an image whose maps are listed between its endpoints' shapes is valid,
    # and the check need not run the laws on it
    rep, calls = _checked_with_images(monkeypatch, fixture(), standard_pool(bound))
    assert rep.ok
    assert [(source.label, target.label) for source, target, _ in calls] == [
        ("lifting", "covering"), ("covering", "lifting")
    ]
    for source, target, _ in calls:
        listed = 0
        for homs in source.homs.values():
            for m in homs:
                image = source.functor_on_morphism(m)
                ends = tuple(target.shapes[target.find(end)] for end in (image.source, image.target))
                if target.maps(image) in {target.maps(x) for x in target.homs.get(ends, ())}:
                    listed += 1
                    assert target.is_valid(image)
        # on a check that passes, every image is listed
        assert listed == sum(map(len, source.homs.values()))


@_SHIPPED_CHECKS
def test_a_morphism_image_is_a_function_of_its_maps(monkeypatch, fixture, bound):
    # each class is a distinct pair (maps, image maps) of a shape-level
    # morphism: as many classes as distinct maps means that the image's maps
    # depend on the morphism's maps alone, not on the shapes it lies between
    rep, calls = _checked_with_images(monkeypatch, fixture(), standard_pool(bound))
    assert rep.ok
    for _, _, (images, classes, source_ids, _) in calls:
        assert len(classes) == len(source_ids)
        # images[s1, s2] sends each class to the id of its maps
        assert {(c, k) for found in images.values() for k, c in found.items()} == {
            (c, k) for (c, _), k in classes.items()
        }


@pytest.mark.parametrize("side", ["lifting", "covering"])
@pytest.mark.parametrize("fixture, bound", [(gx1, 4), (gx3, 4)], ids=["gx1-4", "gx3-4"])
def test_an_image_that_reads_the_shapes_gives_more_classes_than_maps(monkeypatch, fixture, bound, side):
    # under the "shape pair" seeded fault one morphism's image maps differ
    # between pairs of shapes, so its maps fall in two classes; the
    # composition law on class ids still agrees with the reference
    base, pool = fixture(), standard_pool(bound)
    monkeypatch.setattr(search, *_seeded_fault("shape pair", fixture, bound, side))
    rep, calls = _checked_with_images(monkeypatch, base, pool)
    numbered = {source.label: (len(classes), len(ids)) for source, _, (_, classes, ids, _) in calls}
    assert numbered[side][0] > numbered[side][1]
    assert _summary(rep) == _reference_summary(base, pool)


@pytest.mark.parametrize("base, bound", [("base_gx1", 4), ("base_gx3", 4), ("base_a3s3", 4)])
def test_hom_sets_searched_per_shape_equal_the_direct_search(base, bound, request):
    # a hom-set is searched once per pair of object shapes, on the first
    # objects with them; the morphisms listed between any two objects must
    # have the maps of the search on that very pair, so no law may read what
    # the shape leaves out
    rep = verify_equivalence(request.getfixturevalue(base), standard_pool(bound))
    assert not rep.truncated
    for side, objects, shapes, rows, between in (
        ("lifting", rep.liftings, rep.lifting_shapes, rep.lifting_morphisms(), search.lifting_morphisms_between),
        ("covering", rep.coverings, rep.covering_shapes, rep.covering_morphisms(), search.covering_morphisms_between),
    ):
        maps = _MAPS[side]
        first = {}
        for o, s in zip(objects, shapes):
            first.setdefault(s, o)
        listed = {}
        for i, j, m in rows:
            assert m.source is first[shapes[i]] and m.target is first[shapes[j]]
            listed.setdefault((i, j), []).append(maps(m))
        for i, o1 in enumerate(objects):
            for j, o2 in enumerate(objects):
                assert listed.get((i, j), []) == [maps(m) for m in between(o1, o2)], (side, i, j)


def _zeroed(m):
    """m with every map sent to the identity."""
    return _zero_g(_zero_f(m)) if isinstance(m, CoveringMorphism) else _zero_f(m)


def _with_maps_of(m, other):
    """m with the maps of other, a morphism of the same kind."""
    if isinstance(m, CoveringMorphism):
        return replace(m, f=other.f, g=other.g)
    return replace(m, f=other.f)


@pytest.mark.parametrize("fixture, bound", [(gx1, 4), (gx3, 4), (a3_s3, 4)], ids=["gx1-4", "gx3-4", "a3s3-4"])
def test_functor_images_depend_only_on_shapes_and_maps(fixture, bound):
    # the morphism-side companion of the hom-set pin above: a morphism between
    # any two objects, built on them, has the image maps of the morphism with
    # its maps between the first objects of their shapes, and each object's
    # image has the shape of the image of its shape's first object
    rep = verify_equivalence(fixture(), standard_pool(bound))
    assert not rep.failures
    for side, other, objects, rows_of, homs, functor, on_morphism in (
        ("lifting", "covering", rep.liftings, rep.lifting_morphisms, rep.lifting_homs,
         search.lifting_to_covering, search.functor_on_lifting_morphism),
        ("covering", "lifting", rep.coverings, rep.covering_morphisms, rep.covering_homs,
         search.covering_to_lifting, search.functor_on_covering_morphism),
    ):
        shape, image_shape, image_maps = _SHAPES[side], _SHAPES[other], _MAPS[other]
        image_shapes = {}
        for o in objects:
            assert image_shapes.setdefault(shape(o), image_shape(functor(o))) == image_shape(functor(o))
        copies = 0
        for i, j, m in rows_of():
            image = on_morphism(replace(m, source=objects[i], target=objects[j]))
            first = on_morphism(m)
            assert [h.map for h in image_maps(image)] == [h.map for h in image_maps(first)]
            assert image_shape(image.source) == image_shape(first.source)
            assert image_shape(image.target) == image_shape(first.target)
            copies += m.source is not objects[i] or m.target is not objects[j]
        # every morphism but those between the first objects of their shapes is a copy
        assert copies == len(list(rows_of())) - sum(map(len, homs.values()))


def test_each_distinct_morphism_image_is_mapped_back_once(base_gx3, pool4, monkeypatch):
    # the lifting functor runs once per morphism of the hom-sets between the
    # first objects of each pair of shapes: on each lifting morphism there,
    # and on the image of each covering morphism there to map it back; and
    # once per lifting for the identity law
    calls = Counter()
    functor = search.functor_on_lifting_morphism

    def counted(m):
        calls["functor_on_lifting_morphism"] += 1
        return functor(m)

    monkeypatch.setattr(search, "functor_on_lifting_morphism", counted)
    rep = verify_equivalence(base_gx3, pool4)
    assert rep.ok
    shape_level = sum(map(len, rep.lifting_homs.values())) + sum(map(len, rep.covering_homs.values()))
    assert calls["functor_on_lifting_morphism"] == shape_level + rep.lifting_count == 103 + 412 + 27


# ---------------------------------------------------------------------------
# the object-level reference.  verify_equivalence runs each morphism-level
# check once per morphism between the first objects of a pair of shapes, and
# counts it for every pair of objects with those shapes.  The reference runs
# the same checks object by object: every hom-set searched on its own pair
# of objects and capped in object order, every morphism's image validated,
# looked up in the hom-set between its endpoints unless the image's category
# is cut, and mapped back, and every composable pair of morphisms between
# objects composed.  A category cut by the cap runs no morphism-level check
# of its own morphisms.  Functions are looked up through
# search on each call, so a fault patched in there reaches both verifiers.


class _ReferenceCategory:
    """One side of the equivalence, object by object."""

    def __init__(self, label, objects, between, cap, components, groups, law, identity, functor, on_morphism):
        self.label, self.objects = label, objects
        self.index = {o: i for i, o in enumerate(objects)}
        self.components, self.groups, self.law = components, groups, law
        self.identity, self.functor, self.on_morphism = identity, functor, on_morphism
        self.homs, self.cut = {}, False
        room = cap
        for i, o1 in enumerate(objects):
            for j, o2 in enumerate(objects):
                found = between(o1, o2)
                if found[:room]:
                    self.homs[i, j] = found[:room]
                if len(found) > room:
                    self.cut = True
                    return
                room -= len(found)

    def maps(self, m):
        return tuple(h.map for h in self.components(m))

    def is_valid(self, m):
        maps = self.maps(m)
        for fm, src, tgt in zip(maps, self.groups(m.source), self.groups(m.target)):
            if len(fm) != src.order or min(fm) < 0 or max(fm) >= tgt.order:
                return False
        return holds(self.law(m.source, m.target, *maps))


class _Numbering(dict):
    """Ids for map tuples, and the ids of their composites: self[outer, inner]
    is the id of outer o inner, component by component."""

    def __init__(self):
        super().__init__()
        self.ids, self.maps = {}, []

    def number(self, maps):
        if maps not in self.ids:
            self.ids[maps] = len(self.maps)
            self.maps.append(maps)
        return self.ids[maps]

    def __missing__(self, key):
        outer, inner = (self.maps[i] for i in key)
        self[key] = c = self.number(tuple(tuple(map(o.__getitem__, i)) for o, i in zip(outer, inner)))
        return c


_COUNTERS = [(kind, passed) for kind in ("morphism", "functor_law", "naturality") for passed in (True, False)]


def _reference_summary(base, pool, cap=search.DEFAULT_MAX_MORPHISMS):
    """_summary of the report verify_equivalence(base, pool, cap) must give,
    checked object by object."""
    counters, failures = Counter(), []

    def check(kind, passed, message):
        counters[kind, passed] += 1
        if not passed:
            failures.append(message)

    liftings = _ReferenceCategory(
        "lifting", search.enumerate_liftings(base, pool), search.lifting_morphisms_between, cap,
        lambda m: (m.f,), lambda o: (o.X.group,), search.lifting_morphism_violations,
        search.identity_lifting_morphism, search.lifting_to_covering, search.functor_on_lifting_morphism,
    )
    coverings = _ReferenceCategory(
        "covering", search.enumerate_coverings(base, pool), search.covering_morphisms_between, cap,
        lambda m: (m.f, m.g), lambda o: (o.total.A.group, o.total.B.group), search.covering_morphism_violations,
        search.identity_covering_morphism, search.covering_to_lifting, search.functor_on_covering_morphism,
    )
    sides = ((liftings, coverings), (coverings, liftings))
    indices, exact, witnesses = [], True, []
    for source, target in sides:
        positions = []
        for i, o in enumerate(source.objects):
            image = source.functor(o)
            positions.append(target.index.get(image, -1))
            if positions[-1] < 0:
                failures.append(f"{source.label} {i}: functor image not among enumerated {target.label}s")
            if source is liftings and search.covering_to_lifting(image) != o:
                exact = False
                failures.append(f"lifting {i}: round trip is not table-identical")
            if source is coverings:
                witness = CoveringMorphism(o, search.lifting_to_covering(image), o.f, identity_hom(o.total.B.group))
                if coverings.is_valid(witness) and witness.f.is_bijective() and witness.g.is_bijective():
                    witnesses.append(coverings.maps(witness))
                else:
                    failures.append(f"covering {i}: round-trip witness <f, 1> is not an isomorphism")
        indices.append(tuple(positions))
    images, numbering = {}, _Numbering()
    for source, target in sides:
        found = images[source.label] = {}
        for (i, j), homs in source.homs.items() if not source.cut else ():
            for m in homs:
                image = source.on_morphism(m)
                found[i, j, numbering.number(source.maps(m))] = numbering.number(target.maps(image))
                valid = target.is_valid(image)
                if valid and not target.cut:
                    ends = target.index.get(image.source, -1), target.index.get(image.target, -1)
                    listed = [target.maps(x) for x in target.homs.get(ends, ())]
                    check(
                        "morphism",
                        target.maps(image) in listed,
                        f"{source.label} morphism: functor image not among enumerated {target.label} morphisms",
                    )
                else:
                    check("morphism", valid, f"{source.label} morphism: functor image invalid")
                back = target.on_morphism(image)
                if source is liftings:
                    exact_back = back.f == m.f and back.source == m.source and back.target == m.target
                    check("morphism", exact_back, "lifting morphism: round trip not exact")
                else:
                    lhs_f = tuple(m.target.f.map[m.f.map[a]] for a in range(m.source.total.A.order))
                    natural = lhs_f == m.source.f.map and m.g.map == back.g.map
                    check("naturality", natural, "covering morphism: naturality square broken")
    for source, target in sides:
        for o in source.objects:
            image = source.on_morphism(source.identity(o))
            expected = target.identity(source.functor(o))
            preserved = target.components(image) == target.components(expected)
            check("functor_law", preserved, f"functor law: identity {source.label} morphism not preserved")
    for source, _ in sides:
        found = images[source.label]
        out_of = {}
        for (j, k, c2), img2 in found.items():
            out_of.setdefault(j, []).append((k, c2, img2))
        for (i, j, c1), img1 in found.items():
            for k, c2, img2 in out_of.get(j, ()):
                img = found.get((i, k, numbering[c2, c1]))
                if img is None:
                    check("functor_law", False, f"functor law: composite of {source.label} morphisms not enumerated")
                elif img == numbering[img2, img1]:
                    counters["functor_law", True] += 1
                else:
                    check("functor_law", False, f"functor law: composition of {source.label} morphisms not preserved")
    rows = tuple(
        [(i, j, side.maps(m)) for (i, j), homs in side.homs.items() for m in homs] for side in (liftings, coverings)
    )
    return {
        "objects": (len(liftings.objects), len(coverings.objects)),
        "indices": tuple(indices),
        "round trips": (exact, witnesses),
        "morphism counts": tuple(map(len, rows)),
        "morphisms": rows,
        "truncated": liftings.cut or coverings.cut,
        "counters": {key: counters[key] for key in _COUNTERS},
        "failures": set(failures),
    }


def _summary(rep):
    """What of rep the reference states: counts, counters, listed morphisms
    and the set of failure messages."""
    return {
        "objects": (rep.lifting_count, rep.covering_count),
        "indices": (rep.lifting_to_covering_index, rep.covering_to_lifting_index),
        "round trips": (
            rep.roundtrip_lifting_exact, [(w.f.map, w.g.map) for w in rep.roundtrip_covering_witnesses]
        ),
        "morphism counts": (rep.lifting_morphism_count, rep.covering_morphism_count),
        "morphisms": (
            [(i, j, (m.f.map,)) for i, j, m in rep.lifting_morphisms()],
            [(i, j, (m.f.map, m.g.map)) for i, j, m in rep.covering_morphisms()],
        ),
        "truncated": rep.truncated,
        "counters": {
            (kind, passed): getattr(rep, f"{kind}_checks_{'passed' if passed else 'failed'}")
            for kind, passed in _COUNTERS
        },
        "failures": set(rep.failures),
    }


@pytest.mark.parametrize(
    "base, bound",
    [*((x, 4) for x in fixture_gxmods()), (a3_s3(), 6)],
    ids=[*(f"{x.name}-4" for x in fixture_gxmods()), "A3S3-6"],
)
def test_verifier_matches_the_object_level_reference(base, bound):
    pool = standard_pool(bound)
    assert _summary(verify_equivalence(base, pool)) == _reference_summary(base, pool)


@pytest.mark.parametrize("name, make_fault, message, counter", [_fault_param(*f) for f in _FAULTS])
def test_verifier_matches_the_reference_under_each_fault(base_gx1, pool4, monkeypatch, name, make_fault, message, counter):
    monkeypatch.setattr(search, name, make_fault(getattr(search, name)))
    summary = _summary(verify_equivalence(base_gx1, pool4))
    assert summary == _reference_summary(base_gx1, pool4)
    assert message in summary["failures"]


def _seeded_fault(kind, fixture, bound, side):
    """(the name of a function of search, a faulty replacement) that breaks
    the composition law of side's category over fixture's base, seeded at
    the two parallel morphisms a, b of _parallel_morphisms.  Each fault is
    the same on every pair of objects with the shapes of their endpoints:
    - "map tuple": every morphism with b's maps, on any objects, gets the
      image with every map sent to the identity;
    - "shape pair": only those with the shapes of b's endpoints do, so the
      image is not a function of the maps alone;
    - "swap": the morphisms with a's maps and with b's maps there get each
      other's image maps;
    - "no composite": the morphisms with b's maps there are dropped from
      their hom-sets.
    """
    if kind == "no composite":
        name = f"{side}_morphisms_between"
        return name, _without_a_parallel_morphism(side, fixture, bound)(getattr(search, name))
    o1, o2, (a, b) = _parallel_morphisms(fixture(), standard_pool(bound), side)
    maps, shape = _MAPS[side], _SHAPES[side]
    ends = shape(o1), shape(o2)
    name = f"functor_on_{side}_morphism"
    functor = getattr(search, name)

    def at(m, seed):
        return maps(m) == maps(seed) and (kind == "map tuple" or (shape(m.source), shape(m.target)) == ends)

    def faulty(m):
        image = functor(m)
        if kind == "swap":
            for x, y in ((a, b), (b, a)):
                if at(m, x):
                    return _with_maps_of(image, functor(y))
            return image
        return _zeroed(image) if at(m, b) else image

    return name, faulty


@pytest.mark.parametrize("kind", ["map tuple", "shape pair", "swap", "no composite"])
@pytest.mark.parametrize("side", ["lifting", "covering"])
@pytest.mark.parametrize("fixture, bound", [(gx1, 4), (gx3, 4)], ids=["gx1-4", "gx3-4"])
def test_composition_law_matches_the_reference_under_seeded_faults(monkeypatch, fixture, bound, side, kind):
    base, pool = fixture(), standard_pool(bound)
    monkeypatch.setattr(search, *_seeded_fault(kind, fixture, bound, side))
    summary = _summary(verify_equivalence(base, pool))
    assert summary == _reference_summary(base, pool)
    assert summary["counters"]["functor_law", False] > 0


@pytest.mark.parametrize(
    "fixture, cap", [(gx1, 5), (gx1, 100), (gx1, 1000), (gx3, 5), (gx3, 100), (gx3, 1000), (gx3, 3000)]
)
def test_a_cut_category_lists_its_first_morphisms_and_checks_none(fixture, cap, pool4):
    base = fixture()
    summary = _summary(verify_equivalence(base, pool4, cap))
    assert summary == _reference_summary(base, pool4, cap)
    assert summary["truncated"] and summary["morphism counts"][1] == cap


@pytest.mark.slow
def test_the_uncapped_bound_8_check_on_gx1():
    # with the cap lifted the library checks gx1/8 in full: 6625 objects a
    # side, 51 shapes each
    rep = verify_equivalence(gx1(), standard_pool(8), max_morphisms=10**12)
    assert rep.ok and not rep.truncated
    assert (rep.lifting_count, rep.covering_count) == (6625, 6625)
    assert (len(set(rep.lifting_shapes)), len(set(rep.covering_shapes))) == (51, 51)
    assert (rep.lifting_morphism_count, rep.covering_morphism_count) == (681_561_681, 681_561_681)
    assert rep.functor_law_checks_passed == 141_839_233_731_652
    assert rep.morphism_checks_passed == 2_044_685_043
    assert rep.naturality_checks_passed == 681_561_681
    assert (rep.functor_law_checks_failed, rep.morphism_checks_failed, rep.naturality_checks_failed) == (0, 0, 0)
    assert rep.failures == ()


@pytest.mark.slow
def test_the_uncapped_bound_8_check_on_gx3():
    # gx3/8 in full, which the command line cuts at the default cap: 77
    # lifting and 154 covering shapes
    rep = verify_equivalence(gx3(), standard_pool(8), max_morphisms=10**12)
    assert rep.ok and not rep.truncated
    assert (len(set(rep.lifting_shapes)), len(set(rep.covering_shapes))) == (77, 154)
    assert (rep.lifting_morphism_count, rep.covering_morphism_count) == (685_799_223, 2_743_196_892)
    assert rep.functor_law_checks_passed == 642_211_673_089_296
    assert rep.morphism_checks_passed == 4_114_795_338
    assert rep.naturality_checks_passed == 2_743_196_892
    assert (rep.functor_law_checks_failed, rep.morphism_checks_failed, rep.naturality_checks_failed) == (0, 0, 0)
    assert rep.failures == ()


def test_the_library_cap_ignores_the_environment(monkeypatch):
    # GXMOD_MAX_MORPHISMS is read by the command line only
    monkeypatch.setenv("GXMOD_MAX_MORPHISMS", "3")
    rep = verify_equivalence(gx1(), standard_pool(4))
    assert not rep.truncated
    assert rep.lifting_morphism_count == 1201


def test_no_law_verdict_outlives_its_equivalence_check(base_gx3, pool4, monkeypatch):
    # a square that rejects everything, patched in between two checks in one
    # process: the second check must run it rather than reuse the first's verdicts
    assert verify_equivalence(base_gx3, pool4).covering_morphism_count == 5020
    c = enumerate_coverings(base_gx3, pool4)[0]
    monkeypatch.setattr(search, "square_violations", lambda *args: iter([("square", (), "rejected", ())]))
    rep = verify_equivalence(base_gx3, pool4)
    assert rep.covering_morphism_count == 0
    assert not rep.ok
    assert search.covering_morphisms_between(c, c) == ()


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
    doc = json.loads(serialize.equivalence_report_json(verify_equivalence(x, standard_pool(bound))))
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


def test_canonical_liftings_are_looked_for_once_per_object_shape(monkeypatch):
    # a relabelled S3 base's canonical liftings are in the pool only up to
    # isomorphism: each is looked for on the first object of each shape,
    # not on every object, and found as the scan over every object finds it
    moved = _relabelled_gxmod(a3_s3(), random.Random(1))
    pool = standard_pool(6)
    liftings = enumerate_liftings(moved, pool)
    enumerated = set(liftings)
    between = search.lifting_morphisms_between
    calls = Counter()

    def counted(source, target):
        if source not in enumerated:
            calls[source] += 1
        return between(source, target)

    monkeypatch.setattr(search, "lifting_morphisms_between", counted)
    rep = verify_equivalence(moved, pool)
    assert not rep.incomplete
    looked_for = [w for w in (natural_lifting(moved), image_lifting(moved), self_lifting(moved)) if w not in enumerated]
    assert looked_for
    for wanted in looked_for:
        assert 0 < calls[wanted] <= len(set(rep.lifting_shapes)) < len(liftings)
        assert any(m.f.is_bijective() for o in liftings for m in between(wanted, o))
