"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact (discrete structures).  Expected enumeration counts
are recomputed by raw table oracles inside the tests before being asserted.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import hashlib
import json

import pytest

from genxmod.cat1 import cat1_to_gxmod, identity_gcat1_morphism, cat1_functor_on_morphism, compose_gcat1_morphisms
from genxmod.cli import main
from genxmod.coverlift import (
    covering_kernel_check,
    extend_morphism_through_lifting,
    factor_through_covering,
    lifting_as_gxmod,
    lifting_to_base_morphism,
    WitnessFailure,
)
from genxmod.crossed import (
    GXModMorphism,
    check_kernel_acts_trivially,
    image_gxmod,
    is_aspherical,
    is_simply_connected,
    kernel_gxmod,
    transport_codomain,
    transport_domain,
    validate_gxmod,
    validate_gxmod_full,
    validate_gxmod_morphism,
)
from genxmod.fixtures import (
    fixture_cat1s,
    fixture_covering,
    fixture_gwas,
    fixture_gxmods,
    fixture_lifting,
)
from genxmod.groups import Hom, all_homs, automorphisms, cyclic_group, kernel, klein_four_group
from genxmod.gwa import GwaObject, SelfAction, gwa, is_gwa_morphism, validate_gwa
from genxmod.cat1 import GCat1, validate_gcat1
from genxmod.coverlift import Covering, Lifting, validate_covering, validate_lifting
from genxmod.crossed import ExtAction, GXMod
from genxmod.oracles import (
    raw_self_action_tables,
    replay_violation,
    search_extensions,
    search_factorizations,
)
from genxmod.search import (
    enumerate_coverings,
    enumerate_gcat1s,
    enumerate_gxmods,
    enumerate_liftings,
    enumerate_self_actions,
    gcat1_morphisms_between,
    group_catalog,
    gwa_objects,
    standard_pool,
    verify_equivalence,
)


def report(criterion: str, passed: bool):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion failed: {criterion}"


# ---------------------------------------------------------------------------
# 1. axiom suite: fixtures validate cleanly; corruptions are caught with
#    witnesses that replay


def _first_effective_corruption(obj, tables, rebuild, validator):
    """Corrupt one table entry (first spot, in lex order, that produces a
    violation) and return the broken object with its report."""
    for ti, table in enumerate(tables):
        for i, row in enumerate(table):
            for j in range(len(row)):
                for delta in range(1, len(row)):
                    new_val = (row[j] + delta) % len(row)
                    if new_val == row[j]:
                        continue
                    mutated = [list(r) for r in table]
                    mutated[i][j] = new_val
                    broken = rebuild(obj, ti, tuple(tuple(r) for r in mutated))
                    try:
                        rep = validator(broken)
                    except Exception:
                        continue
                    if not rep.ok:
                        return broken, rep
    return None, None


def test_acceptance_1_axiom_suite():
    ok = True
    for gw in fixture_gwas():
        ok &= validate_gwa(gw).ok
    for x in fixture_gxmods():
        ok &= validate_gxmod_full(x).ok
    for c in fixture_cat1s():
        ok &= validate_gcat1(c).ok
    ok &= validate_covering(fixture_covering()).ok
    ok &= validate_lifting(fixture_lifting()).ok

    # one-entry corruption per fixture kind, witness replayed independently
    def rebuild_gwa(gw, ti, table):
        return GwaObject(gw.group, SelfAction(gw.group, table), "corrupt")

    def rebuild_gxmod(x, ti, table):
        return GXMod(x.A, x.B, x.alpha, ExtAction(x.B, x.A, table), "corrupt")

    def rebuild_cat1(c, ti, table):
        flat = table[0]
        return GCat1(c.G, Hom(c.s.source, c.s.target, flat), c.t, "corrupt")

    for gw in fixture_gwas():
        if gw.order == 1:
            continue
        broken, rep = _first_effective_corruption(
            gw, [gw.self_action.act], rebuild_gwa, validate_gwa
        )
        ok &= broken is not None and all(replay_violation(broken, v) for v in rep.violations)

    for x in fixture_gxmods():
        broken, rep = _first_effective_corruption(
            x, [x.action.act], rebuild_gxmod, validate_gxmod_full
        )
        ok &= broken is not None and all(replay_violation(broken, v) for v in rep.violations)

    for c in fixture_cat1s():
        if c.G.order == 1:
            continue
        broken, rep = _first_effective_corruption(
            c, [(c.s.map,)], rebuild_cat1, validate_gcat1
        )
        ok &= broken is not None and all(replay_violation(broken, v) for v in rep.violations)

    # covering: corrupt the g component; lifting: corrupt omega
    cov = fixture_covering()
    broken_cov = Covering(cov.total, cov.base, cov.f, Hom(cov.g.source, cov.g.target, (0, 0)))
    rep = validate_covering(broken_cov)
    ok &= not rep.ok and all(replay_violation(broken_cov, v) for v in rep.violations)

    lift = fixture_lifting()
    broken_lift = Lifting(lift.base, lift.X, lift.phi, Hom(lift.omega.source, lift.omega.target, (0, 0)))
    rep = validate_lifting(broken_lift)
    ok &= not rep.ok and all(replay_violation(broken_lift, v) for v in rep.violations)

    report("1 (axiom suite)", ok)


# ---------------------------------------------------------------------------
# 2. lemma suite over the enumerated pool, order <= 6


@pytest.fixture(scope="module")
def gxmod_pool6():
    pool = standard_pool(6)
    objs = gwa_objects(pool)
    found = []
    for a in objs:
        for b in objs:
            found.extend(enumerate_gxmods(a, b))
    return found


def test_acceptance_2_lemma_suite(gxmod_pool6, base_gx1, base_gx3, base_a3s3, pool4, pool6):
    ok = True
    for x in gxmod_pool6:
        k = kernel_gxmod(x)
        im = image_gxmod(x)
        ok &= validate_gxmod(k, max_violations=1).ok
        ok &= validate_gxmod(im, max_violations=1).ok
        ok &= is_aspherical(im)
        ok &= check_kernel_acts_trivially(x)

        # transport along the first nontrivial self-action-preserving
        # automorphisms, then back: tables must return exactly
        f = next(
            (h for h in automorphisms(x.B.group)
             if h.map != tuple(range(x.B.order)) and is_gwa_morphism(h, x.B, x.B)),
            None,
        )
        if f is not None:
            moved, wit = transport_codomain(x, f, x.B)
            ok &= validate_gxmod(moved, max_violations=1).ok
            ok &= validate_gxmod_morphism(wit, max_violations=1).ok
            f_inv = Hom(x.B.group, x.B.group, tuple(f.map.index(v) for v in range(x.B.order)))
            back, _ = transport_codomain(moved, f_inv, x.B)
            ok &= back == x
        g = next(
            (h for h in automorphisms(x.A.group)
             if h.map != tuple(range(x.A.order)) and is_gwa_morphism(h, x.A, x.A)),
            None,
        )
        if g is not None:
            moved, wit = transport_domain(x, g, x.A)
            ok &= validate_gxmod(moved, max_violations=1).ok
            ok &= validate_gxmod_morphism(wit, max_violations=1).ok
            g_inv = Hom(x.A.group, x.A.group, tuple(g.map.index(v) for v in range(x.A.order)))
            back, _ = transport_domain(moved, g_inv, x.A)
            ok &= back == x

    # covering and lifting kernel lemmas over the fixture bases
    for base, pool in ((base_gx1, pool4), (base_gx3, pool4), (base_a3s3, pool6)):
        ker_alpha = set(kernel(base.alpha).members)
        for c in enumerate_coverings(base, pool):
            ok &= covering_kernel_check(c)
            if is_aspherical(base):
                ok &= is_aspherical(c.total)
        for l in enumerate_liftings(base, pool):
            ok &= set(kernel(l.phi).members) <= ker_alpha
            ok &= validate_gxmod_morphism(lifting_to_base_morphism(l), max_violations=1).ok

    report("2 (lemma suite)", ok)


# ---------------------------------------------------------------------------
# 3. functor suite: cat1 -> gxmod on all enumerated cat1-groups, order <= 8


def test_acceptance_3_functor_suite():
    ok = True
    count = 0
    for g in group_catalog():
        for c in enumerate_gcat1s(g):
            x = cat1_to_gxmod(c)
            ok &= validate_gxmod(x, max_violations=1).ok
            count += 1
            # identity law on every enumerated object
            ident = cat1_functor_on_morphism(identity_gcat1_morphism(c))
            ok &= ident.f.map == tuple(range(ident.f.source.order))
            ok &= ident.g.map == tuple(range(ident.g.source.order))
    assert count > 3000

    # composition law over all composable pairs on the order <= 4 sub-pool
    small_pool = []
    for g in group_catalog():
        if g.order <= 4:
            small_pool.extend(enumerate_gcat1s(g))
    morphisms = []
    for c1 in small_pool:
        for c2 in small_pool:
            morphisms.extend(gcat1_morphisms_between(c1, c2))
    by_source = {}
    for m in morphisms:
        by_source.setdefault(id(m.source), []).append(m)
    pairs = 0
    for m1 in morphisms:
        for m2 in by_source.get(id(m1.target), ()):
            left = cat1_functor_on_morphism(compose_gcat1_morphisms(m2, m1))
            f1 = cat1_functor_on_morphism(m1)
            f2 = cat1_functor_on_morphism(m2)
            ok &= left.f.map == tuple(f2.f.map[v] for v in f1.f.map)
            ok &= left.g.map == tuple(f2.g.map[v] for v in f1.g.map)
            pairs += 1
    assert pairs > 1000

    report("3 (functor suite)", ok)


# ---------------------------------------------------------------------------
# 4. criterion theorems agree with exhaustive search


def _simply_connected_sources(base, pool):
    sources = []
    for l in enumerate_liftings(base, pool):
        x = lifting_as_gxmod(l)
        if is_simply_connected(x) and x not in sources:
            sources.append(x)
    if is_simply_connected(base) and base not in sources:
        sources.append(base)
    return sources


def _morphisms_into(src, base):
    out = []
    for f in all_homs(src.A.group, base.A.group):
        for g in all_homs(src.B.group, base.B.group):
            m = GXModMorphism(src, base, f, g)
            if validate_gxmod_morphism(m, max_violations=1).ok:
                out.append(m)
    return out


def test_acceptance_4_criterion_vs_brute_force(base_gx1, base_gx3, base_a3s3, pool4, pool6):
    ok = True
    factor_instances = 0
    extend_instances = 0
    for base, pool in ((base_gx1, pool4), (base_gx3, pool4), (base_a3s3, pool6)):
        coverings = enumerate_coverings(base, pool)
        liftings = enumerate_liftings(base, pool)
        for src in _simply_connected_sources(base, pool):
            for m in _morphisms_into(src, base):
                for c in coverings:
                    got = factor_through_covering(src, m, c)
                    found = search_factorizations(src, m, c)
                    if isinstance(got, WitnessFailure):
                        ok &= not found
                    else:
                        ok &= any(r.f == got.f and r.g == got.g for r in found)
                    factor_instances += 1
                for l in liftings:
                    got = extend_morphism_through_lifting(m, l)
                    found = search_extensions(m, l)
                    if isinstance(got, WitnessFailure):
                        ok &= not found
                    else:
                        ok &= any(r.g == got.g for r in found)
                    extend_instances += 1
    assert factor_instances > 500 and extend_instances > 500
    report("4 (criterion vs brute force)", ok)


# ---------------------------------------------------------------------------
# 5. the equivalence theorem on the shipped bases


def test_acceptance_5_equivalence_theorem(base_gx1, base_gx3, base_a3s3, pool4, pool6):
    ok = True
    for base, pool in ((base_gx1, pool4), (base_gx3, pool4), (base_a3s3, pool6)):
        rep = verify_equivalence(base, pool)
        ok &= rep.ok
        ok &= rep.roundtrip_lifting_exact
        ok &= len(rep.roundtrip_covering_witnesses) == rep.covering_count
        ok &= rep.morphism_checks_failed == 0
        ok &= rep.functor_law_checks_failed == 0
        ok &= rep.naturality_checks_failed == 0
        ok &= not rep.truncated
        # the index tables and the witness list match the object lists
        ok &= len(rep.lifting_to_covering_index) == len(rep.liftings)
        ok &= len(rep.covering_to_lifting_index) == len(rep.coverings)
    report("5 (equivalence theorem)", ok)


# ---------------------------------------------------------------------------
# 6. enumeration counts recomputed by raw oracles


def test_acceptance_6_enumeration_counts():
    ok = True
    expected = {2: 1, 4: 2}
    for n, want in expected.items():
        g = cyclic_group(n)
        raw = raw_self_action_tables(g.op)
        ok &= len(raw) == want
        ok &= len(enumerate_self_actions(g)) == len(raw)
    v4 = klein_four_group()
    raw = raw_self_action_tables(v4.op)
    ok &= len(raw) == 10
    ok &= len(enumerate_self_actions(v4)) == 10
    z2 = gwa(cyclic_group(2))
    found = enumerate_gxmods(z2, z2)
    ok &= len(found) == 2
    report("6 (enumeration counts vs oracles)", ok)


# ---------------------------------------------------------------------------
# 7. determinism of the equivalence command


# sha256 of `genxmod equivalence --bound 4` on the seeded fixtures
EQUIVALENCE_SHA256 = {
    "gx1": "1a3378e011f28ca6475872191bad45bf0a13387e6487f7847c24722489976309",
    "gx3": "3b12e88c423b1f2cd2c49a383018abb347a983f552167ec5d743291aeba24dae",
}


def test_acceptance_7_determinism(tmp_path):
    fx = tmp_path / "fx"
    assert main(["--seed-fixtures", "--out", str(fx)]) == 0
    out1, out2, out_gx1 = tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "gx1.json"
    rc1 = main(["equivalence", "--in", str(fx / "gx3.gxmod.json"), "--bound", "4", "--out", str(out1)])
    rc2 = main(["equivalence", "--in", str(fx / "gx3.gxmod.json"), "--bound", "4", "--out", str(out2)])
    rc3 = main(["equivalence", "--in", str(fx / "gx1.gxmod.json"), "--bound", "4", "--out", str(out_gx1)])
    identical = out1.read_bytes() == out2.read_bytes()
    parsed = json.loads(out1.read_text())
    pinned = {
        "gx1": hashlib.sha256(out_gx1.read_bytes()).hexdigest(),
        "gx3": hashlib.sha256(out1.read_bytes()).hexdigest(),
    } == EQUIVALENCE_SHA256
    report("7 (determinism)", rc1 == rc2 == rc3 == 0 and identical and pinned and parsed["ok"])
