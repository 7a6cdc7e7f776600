import random

import pytest

from genxmod.crossed import EXT_ACTION_DETAILS, ExtAction, GXMod, validate_ext_action
from genxmod.groups import (
    GroupTable,
    Hom,
    cyclic_group,
    identity_hom,
    kernel,
    self_maps,
    subgroup,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
    zero_hom,
)
from genxmod.gwa import (
    SELF_ACTION_DETAILS,
    GwaObject,
    SelfAction,
    action_violations,
    conjugation_self_action,
    gwa,
    is_ideal,
    is_subobject,
    quotient_gwa,
    sub_gwa,
    trivial_self_action,
    validate_gwa,
    validate_gwa_morphism,
    validate_ideal,
)
from genxmod.fixtures import a3_members, s3_conjugation_gwa, z4_inversion_gwa
from genxmod.oracles import replay_violation
from genxmod.search import _action_tables, group_catalog
from genxmod.validation import PreconditionError, StructuralError, report


def test_trivial_action_valid():
    assert validate_gwa(gwa(cyclic_group(2))).ok


def test_s3_conjugation_valid():
    assert validate_gwa(s3_conjugation_gwa()).ok


def test_z4_inversion_valid():
    assert validate_gwa(z4_inversion_gwa()).ok


def test_mixed_z4_action_compatibility_violation():
    # rows: 0 -> id, 1 -> id, 2 -> inversion, 3 -> inversion.
    # 1+1 = 2 but act[1] o act[1] = id != act[2]; exhaustive scan finds (1,1,1) first.
    z4 = cyclic_group(4)
    idr = (0, 1, 2, 3)
    act = SelfAction(z4, (idr, idr, z4.inv, z4.inv))
    report = validate_gwa(GwaObject(z4, act, "mixed"))
    assert not report.ok
    v = report.first("action_compatibility")
    assert v is not None
    assert v.witness == (1, 1, 1)
    assert replay_violation(GwaObject(z4, act), v)


def test_gwa_morphism_identity():
    g = z4_inversion_gwa()
    assert validate_gwa_morphism(identity_hom(g.group), g, g).ok


def test_mod2_is_gwa_morphism_from_inversion_to_trivial():
    # check all 16 pairs: f(^g h) = f(h) since Z2 target is trivial and parity kills inversion
    a = z4_inversion_gwa()
    b = gwa(cyclic_group(2))
    mod2 = Hom(a.group, b.group, (0, 1, 0, 1))
    assert validate_gwa_morphism(mod2, a, b).ok


def test_non_preserving_map_rejected():
    # identity map from conjugation S3 to trivial S3 does not preserve the action
    s3 = symmetric_group(3)
    src = gwa(s3, conjugation_self_action(s3))
    tgt = gwa(s3)
    report = validate_gwa_morphism(identity_hom(s3), src, tgt)
    assert "action_preserved" in report.laws()


def test_subobject_trivial_subgroup():
    g = s3_conjugation_gwa()
    assert is_subobject(subgroup(g.group, [0]), g)


def test_subobject_z4_inversion():
    g = z4_inversion_gwa()
    assert is_subobject(subgroup(g.group, [0, 2]), g)


def test_transposition_subgroup_not_subobject():
    # conjugating one transposition by another lands outside the subgroup
    g = s3_conjugation_gwa()
    s3 = g.group
    transposition = next(
        i for i in range(6) if i not in a3_members() and s3.op[i][i] == 0
    )
    h = subgroup(s3, [0, transposition])
    assert not is_subobject(h, g)


def test_ideal_trivial():
    g = s3_conjugation_gwa()
    assert is_ideal(subgroup(g.group, [0]), g)


def test_ideal_z4_inversion():
    g = z4_inversion_gwa()
    assert validate_ideal(subgroup(g.group, [0, 2]), g).ok


def test_ideal_a3_in_s3():
    g = s3_conjugation_gwa()
    assert validate_ideal(subgroup(g.group, a3_members()), g).ok


def test_is_ideal_requires_subgroup():
    g = s3_conjugation_gwa()
    from genxmod.groups import Subgroup

    with pytest.raises(StructuralError):
        # two distinct transpositions generate a 3-cycle: not closed
        is_ideal(Subgroup(g.group, (0, 1, 2)), g)


def test_quotient_by_trivial_is_isomorphic_copy():
    g = z4_inversion_gwa()
    q, proj = quotient_gwa(g, subgroup(g.group, [0]))
    assert q.group.op == g.group.op
    assert q.self_action.act == g.self_action.act
    assert proj.map == tuple(range(4))


def test_quotient_z4_inversion_by_02():
    g = z4_inversion_gwa()
    q, proj = quotient_gwa(g, subgroup(g.group, [0, 2]))
    assert q.group.order == 2
    assert q.group.op == ((0, 1), (1, 0))
    # induced action on the two cosets is trivial
    assert q.self_action.act == ((0, 1), (0, 1))
    assert validate_gwa(q).ok
    assert validate_gwa_morphism(proj, g, q).ok
    assert kernel(proj).members == (0, 2)


def test_quotient_s3_by_a3():
    g = s3_conjugation_gwa()
    q, proj = quotient_gwa(g, subgroup(g.group, a3_members()))
    assert q.group.order == 2
    assert q.self_action.act == ((0, 1), (0, 1))
    assert validate_gwa(q).ok
    assert validate_gwa_morphism(proj, g, q).ok


def test_quotient_requires_ideal():
    g = s3_conjugation_gwa()
    s3 = g.group
    transposition = next(
        i for i in range(6) if i not in a3_members() and i != 0 and s3.op[i][i] == 0
    )
    with pytest.raises(PreconditionError):
        quotient_gwa(g, subgroup(s3, [0, transposition]))


def test_action_rows_are_bijections_with_inverse_rows():
    # for valid gwa objects, h -> ^g h is a bijection and act[inv g] undoes it
    for g in (gwa(trivial_group()), gwa(cyclic_group(4)), z4_inversion_gwa(), s3_conjugation_gwa()):
        act = g.self_action.act
        inv = g.group.inv
        n = g.group.order
        for a in range(n):
            assert sorted(act[a]) == list(range(n))
            assert all(act[inv[a]][act[a][h]] == h for h in range(n))


def test_sub_gwa_reindexes():
    g = s3_conjugation_gwa()
    sub, emb = sub_gwa(g, a3_members())
    assert sub.group.order == 3
    assert validate_gwa(sub).ok
    assert emb.map == a3_members()
    # A3 is abelian, so restricted conjugation is trivial
    assert sub.self_action.act == trivial_self_action(sub.group).act



def test_sub_gwa_tables_are_cached_per_group_name():
    z4 = cyclic_group(4)
    twin = GroupTable(z4.order, z4.op, z4.identity, z4.inv, "twin")
    assert twin == z4
    for g in (z4, twin, z4):
        sub, emb = sub_gwa(gwa(g, name=f"{g.name}-gwa"), [2, 0, 2])
        assert sub.group.name == emb.source.name == f"{g.name}|sub"
        assert sub.name == f"{g.name}-gwa|sub"
        assert emb.map == (0, 2) and emb.target.name == g.name
    assert subgroup_embedding(z4, (0, 2))[0] is subgroup_embedding(z4, (0, 2))[0]


def test_subgroup_embedding_caches_no_failure():
    subgroup_embedding.cache_clear()
    s3 = symmetric_group(3)
    for _ in range(2):
        with pytest.raises(StructuralError) as err:
            sub_gwa(gwa(s3), (0, 1, 3))
        assert str(err.value) == "subgroup not closed under op at (1,3)"
    assert subgroup_embedding.cache_info().currsize == 0


def test_subgroup_embedding_is_a_cache_the_benchmark_clears():
    assert callable(subgroup_embedding.cache_clear)
    assert subgroup_embedding.__module__.startswith("genxmod.")

def _all_subgroups(g):
    import itertools

    out = []
    rest = [x for x in range(g.order) if x != g.identity]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            members = (g.identity,) + combo
            try:
                out.append(subgroup(g, members))
            except StructuralError:
                pass
    return out


def test_every_ideal_quotient_is_valid_over_small_pool():
    # universal form: every ideal of every gwa object of order <= 6 yields a
    # valid quotient whose projection preserves the action, with kernel N
    from genxmod.search import gwa_objects, standard_pool

    checked = 0
    for gw in gwa_objects(standard_pool(6)):
        for n in _all_subgroups(gw.group):
            if not is_ideal(n, gw):
                continue
            q, proj = quotient_gwa(gw, n)
            assert validate_gwa(q).ok
            assert validate_gwa_morphism(proj, gw, q).ok
            assert kernel(proj).members == n.members
            checked += 1
    assert checked > 50


def _raw_ideal_laws(gw, members):
    # each ideal law as its check at one witness and its witnesses, read off
    # the raw tables
    op, inv, act = gw.group.op, gw.group.inv, gw.self_action.act
    inside = set(members)
    x_n = [(x, n) for x in range(gw.order) for n in members]
    n_x = [(n, x) for n in members for x in range(gw.order)]
    return {
        "normal": (lambda x, n: op[op[x][n]][inv[x]] in inside, x_n),
        "action_closed": (lambda x, n: act[x][n] in inside, x_n),
        "displacement_closed": (lambda n, x: op[act[n][x]][inv[x]] in inside, n_x),
    }


def test_every_ideal_violation_fails_the_law_it_names():
    # every proper subgroup N of every gwa object of order <= 8: each reported
    # witness fails its law, and the reported laws are the failing conditions
    from genxmod.search import gwa_objects, standard_pool

    proper = {}
    pairs = non_ideals = 0
    for gw in gwa_objects(standard_pool(8)):
        if gw.group.name not in proper:
            proper[gw.group.name] = [n for n in _all_subgroups(gw.group) if len(n.members) < gw.order]
        for n in proper[gw.group.name]:
            laws = _raw_ideal_laws(gw, n.members)
            failing = {law for law, (check, witnesses) in laws.items() if not all(check(*w) for w in witnesses)}
            report = validate_ideal(n, gw)
            assert not any(laws[v.law][0](*v.witness) for v in report.violations), (gw.name, n.members)
            assert report.laws() == failing
            assert is_ideal(n, gw) is report.ok is (not failing)
            pairs += 1
            non_ideals += not report.ok
    assert (pairs, non_ideals) == (11964, 8113)


def test_quotient_by_a_non_ideal_names_a_failing_witness():
    # {0, 1} in S3#sa4 fails all three laws, normal first; normality holds
    # at (1, 1), where action closure fails
    from genxmod.search import gwa_objects_for

    gw = next(g for g in gwa_objects_for(symmetric_group(3)) if g.name == "S3#sa4")
    n = subgroup(gw.group, [0, 1])
    with pytest.raises(PreconditionError) as err:
        quotient_gwa(gw, n)
    assert err.value.condition == "normal"
    witness = validate_ideal(n, gw).first("normal").witness
    assert f"normal fails at {witness}" in str(err.value)
    assert not _raw_ideal_laws(gw, n.members)["normal"][0](*witness)


def _per_element_action_violations(act, actor, space_op, details):
    # the law as a scan of every element, the reference for action_violations
    identity, compatibility, automorphism = details
    op, e = actor.op, actor.identity
    for h, y in enumerate(act[e]):
        if y != h:
            yield "action_identity", (h,), identity, (e, y)
    ns = len(space_op)
    for g1, row1 in enumerate(act):
        for g2, row2 in enumerate(act):
            row12 = act[op[g1][g2]]
            for h in range(ns):
                if row12[h] != row1[row2[h]]:
                    yield "action_compatibility", (g1, g2, h), compatibility, (row12[h], row1[row2[h]])
                    break
    for a, row in enumerate(act):
        for h1 in range(ns):
            for h2 in range(ns):
                if row[space_op[h1][h2]] != space_op[row[h1]][row[h2]]:
                    values = (row[space_op[h1][h2]], space_op[row[h1]][row[h2]])
                    yield "action_automorphism", (a, h1, h2), automorphism, values
                    break


def _perturbed(act, modulus, rng):
    # a copy of act with up to three changed entries, and some rows replaced
    # by a new tuple equal to another row, so equal rows are not one object
    rows = [list(row) for row in act]
    for _ in range(rng.randrange(4)):
        rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] = rng.randrange(modulus)
    for _ in range(rng.randrange(3)):
        rows[rng.randrange(len(rows))] = list(rows[rng.randrange(len(rows))])
    return tuple(tuple(row) for row in rows)


def _check_against_the_per_element_scan(act, actor, space):
    # the report of action_violations equals the scan's, and every witness
    # replays; the laws that fail
    details = SELF_ACTION_DETAILS if actor is space else EXT_ACTION_DETAILS
    got = report("act", action_violations(act, actor, space.op, details), 1000)
    want = report("act", _per_element_action_violations(act, actor, space.op, details), 1000)
    assert got.violations == want.violations
    if actor is space:
        replayed = [replay_violation(GwaObject(space, SelfAction(space, act)), v) for v in got.violations]
    else:
        a, b = gwa(space), gwa(actor)
        x = GXMod(a, b, zero_hom(space, actor), ExtAction(b, a, act))
        replayed = [replay_violation(x, v.prefixed("action")) for v in got.violations]
    assert all(replayed)
    return got.laws()


@pytest.mark.parametrize(
    "actor_name, space_name",
    [("Z2^3", "Z2^3"), ("D4", "D4"), ("S3", "S3"), ("Q8", "Z4"), ("Z4xZ2", "Z2^3"), ("Z6", "S3")],
)
def test_action_violations_match_the_per_element_scan(actor_name, space_name):
    # every violation, witness, detail and their order, on seeded corruptions
    # of catalog self-actions and ext-actions, first with groups.self_maps
    # cold, then warm
    self_maps.cache_clear()
    by_name = {g.name: g for g in group_catalog()}
    actor, space = by_name[actor_name], by_name[space_name]
    rng = random.Random(f"{actor_name}-{space_name}")
    tables = _action_tables(actor, space)
    acts = [_perturbed(tables[i % len(tables)], space.order, rng) for i in range(40)]
    laws = set()
    for act in acts:
        laws |= _check_against_the_per_element_scan(act, actor, space)
    assert laws == {"action_identity", "action_compatibility", "action_automorphism"}
    # again in reverse order, each followed by an action of the other kind
    # (self-action or ext-action) on the same space table
    other = by_name["Z2"] if actor is space else space
    other_tables = _action_tables(other, space)
    for i, act in enumerate(reversed(acts)):
        _check_against_the_per_element_scan(act, actor, space)
        other_act = _perturbed(other_tables[i % len(other_tables)], space.order, rng)
        _check_against_the_per_element_scan(other_act, other, space)


def _listed(table):
    return [list(row) for row in table]


def test_list_valued_tables_give_the_reports_of_their_tuple_twins():
    # GroupTable, SelfAction and ExtAction take lists through the public API;
    # groups.self_maps keys a space table by a tuple copy of it
    by_name = {g.name: g for g in group_catalog()}
    listed = {name: GroupTable(g.order, _listed(g.op), g.identity, list(g.inv), name) for name, g in by_name.items()}
    verdicts = set()
    for actor, space in (("Z2", "Z2"), ("S3", "S3"), ("Z2", "S3")):
        tables = _action_tables(by_name[actor], by_name[space])
        rng = random.Random(f"{actor}-{space}-lists")
        for i in range(8):
            act = _perturbed(tables[i % len(tables)], by_name[space].order, rng) if i else tables[0]
            if actor == space:
                g, h = by_name[space], listed[space]
                want = validate_gwa(GwaObject(g, SelfAction(g, act)))
                got = validate_gwa(GwaObject(h, SelfAction(h, _listed(act))))
            else:
                want = validate_ext_action(ExtAction(gwa(by_name[actor]), gwa(by_name[space]), act))
                got = validate_ext_action(ExtAction(gwa(listed[actor]), gwa(listed[space]), _listed(act)))
            assert got == want
            verdicts.add(got.ok)
    assert verdicts == {True, False}
