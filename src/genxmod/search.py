"""Exhaustive enumeration of structures over small group pools, and the
brute-force verification of the covering/lifting equivalence.

Pools are finite lists of group tables (one representative per isomorphism
class up to the order bound), which makes the categories of coverings and
liftings of a fixed base finite.  Both equivalence functors preserve the
underlying group of the varying component, so restricting to a pool restricts
both categories consistently.

All enumerations iterate in a canonical sorted order, so output lists (and
the JSON reports built from them) are deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from .cat1 import (
    GCat1,
    GCat1Morphism,
    commutes_violations,
    interchange_violations,
    kernel_action_violations,
)
from .crossed import ExtAction, GXMod, gxmod_violations, square_violations
from .coverlift import (
    Covering,
    CoveringMorphism,
    Lifting,
    LiftingMorphism,
    covering_morphism_violations,
    covering_to_lifting,
    covering_violations,
    factorization_violations,
    functor_on_covering_morphism,
    functor_on_lifting_morphism,
    identity_covering,
    identity_covering_morphism,
    identity_lifting_morphism,
    image_lifting,
    lifting_morphism_violations,
    lifting_to_covering,
    lifting_violations,
    natural_lifting,
    self_lifting,
    triangle_g_violations,
    triangle_omega_violations,
    triangle_phi_violations,
)
from .groups import (
    GroupTable,
    Hom,
    Map,
    all_homs,
    automorphism_group,
    automorphisms,
    cyclic_group,
    dihedral_group,
    direct_product,
    identity_hom,
    klein_four_group,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from .gwa import GwaObject, SelfAction, is_gwa_morphism
from .validation import PreconditionError, StructuralError, holds

MAX_MORPHISMS_ENV = "GXMOD_MAX_MORPHISMS"
DEFAULT_MAX_MORPHISMS = 20000
MAX_CATALOG_ORDER = 8


@lru_cache(maxsize=None)
def group_catalog() -> tuple[GroupTable, ...]:
    """One representative per isomorphism class of groups of order <= 8."""
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    groups = [
        trivial_group(),
        z2,
        cyclic_group(3),
        z4,
        klein_four_group(),
        cyclic_group(5),
        cyclic_group(6),
        symmetric_group(3),
        cyclic_group(7),
        cyclic_group(8),
        direct_product(z4, z2, "Z4xZ2"),
        direct_product(klein_four_group(), z2, "Z2^3"),
        dihedral_group(4),
        quaternion_group(),
    ]
    groups.sort(key=lambda g: (g.order, g.name))
    return tuple(groups)


@dataclass(frozen=True)
class SearchPool:
    """The finite universe of groups that enumerations draw from."""

    groups: tuple[GroupTable, ...]
    order_bound: int


def standard_pool(order_bound: int = 8) -> SearchPool:
    if order_bound < 1:
        raise StructuralError("order bound must be >= 1")
    if order_bound > MAX_CATALOG_ORDER:
        raise StructuralError(f"group catalog covers orders up to {MAX_CATALOG_ORDER}")
    return SearchPool(
        tuple(g for g in group_catalog() if g.order <= order_bound), order_bound
    )


@lru_cache(maxsize=None)
def enumerate_self_actions(g: GroupTable) -> tuple[SelfAction, ...]:
    """All self-action tables on g, via homomorphisms into Aut(g).

    The identity law, compatibility law and automorphism law pin these down
    exactly; tests cross-check the count against a raw table search.
    """
    aut_table, auts = automorphism_group(g)
    actions = []
    for rho in all_homs(g, aut_table):
        act = tuple(auts[rho.map[x]].map for x in range(g.order))
        actions.append(SelfAction(g, act))
    actions.sort(key=lambda s: s.act)
    return tuple(actions)


@lru_cache(maxsize=None)
def gwa_objects_for(g: GroupTable) -> tuple[GwaObject, ...]:
    out = []
    for i, sa in enumerate(enumerate_self_actions(g)):
        out.append(GwaObject(g, sa, f"{g.name}#sa{i}"))
    return tuple(out)


def gwa_objects(pool: SearchPool) -> tuple[GwaObject, ...]:
    """Every group in the pool equipped with each of its self-actions."""
    out: list[GwaObject] = []
    for g in pool.groups:
        out.extend(gwa_objects_for(g))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_ext_actions(b: GwaObject, a: GwaObject) -> tuple[ExtAction, ...]:
    """All actions of b's group on a's group by automorphisms.

    These depend only on the underlying groups; the self-actions of a and b
    matter later, in the crossed module conditions.
    """
    aut_table, auts = automorphism_group(a.group)
    out = []
    for rho in all_homs(b.group, aut_table):
        act = tuple(auts[rho.map[x]].map for x in range(b.order))
        out.append(ExtAction(b, a, act))
    out.sort(key=lambda e: e.act)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_gxmods(a: GwaObject, b: GwaObject) -> tuple[GXMod, ...]:
    """All pairs (alpha, action) making (a, b) a generalized crossed module."""
    sa, sb = a.self_action.act, b.self_action.act
    out = []
    for alpha in all_homs(a.group, b.group):
        for action in enumerate_ext_actions(b, a):
            if holds(gxmod_violations(alpha.map, action.act, sa, sb)):
                out.append(GXMod(a, b, alpha, action))
    return tuple(out)


def enumerate_liftings(base: GXMod, pool: SearchPool) -> tuple[Lifting, ...]:
    """All liftings of base whose middle object is drawn from the pool."""
    out: list[Lifting] = []
    for x_gwa in gwa_objects(pool):
        for omega in all_homs(x_gwa.group, base.B.group):
            om = omega.map
            for phi in all_homs(base.A.group, x_gwa.group):
                pm = phi.map
                if holds(factorization_violations(base, pm, om)) and holds(
                    lifting_violations(base, x_gwa, pm, om)
                ):
                    out.append(Lifting(base, x_gwa, phi, omega))
    return tuple(out)


def _pullback_self_action(a: GwaObject, f_map: tuple[int, ...], f_inv: tuple[int, ...]) -> SelfAction:
    act = a.self_action.act
    n = a.order
    rows = tuple(
        tuple(f_inv[act[f_map[x]][f_map[y]]] for y in range(n)) for x in range(n)
    )
    return SelfAction(a.group, rows)


def enumerate_coverings(base: GXMod, pool: SearchPool) -> tuple[Covering, ...]:
    """All coverings of base with the top-right group drawn from the pool.

    The covering's A-component shares the underlying group of base.A, with f
    ranging over its automorphisms; the self-action upstairs and the action
    of the top-right group are both forced by the morphism conditions, so
    only the structure map upstairs is searched.
    """
    a_group = base.A.group
    na = a_group.order
    base_act = base.action.act
    out: list[Covering] = []
    for f0 in automorphisms(a_group):
        f_map = f0.map
        f_inv = tuple(f_map.index(i) for i in range(na))
        a_tilde = GwaObject(a_group, _pullback_self_action(base.A, f_map, f_inv))
        f = Hom(a_group, a_group, f_map)
        for b_gwa in gwa_objects(pool):
            nb = b_gwa.order
            for g in all_homs(b_gwa.group, base.B.group):
                gm = g.map
                forced = tuple(
                    tuple(f_inv[base_act[gm[bt]][f_map[at]]] for at in range(na))
                    for bt in range(nb)
                )
                action = ExtAction(b_gwa, a_tilde, forced)
                for alpha_t in all_homs(a_group, b_gwa.group):
                    atm = alpha_t.map
                    if not holds(square_violations(atm, base.alpha.map, f_map, gm)):
                        continue
                    if not holds(gxmod_violations(atm, forced, a_tilde.self_action.act, b_gwa.self_action.act)):
                        continue
                    total = GXMod(a_tilde, b_gwa, alpha_t, action)
                    if holds(covering_violations(total, base, f_map, gm)):
                        out.append(Covering(total, base, f, g))
    return tuple(out)


@lru_cache(maxsize=None)
def _structure_map_pairs(g: GroupTable) -> tuple[tuple[Hom, Hom], ...]:
    """All endomorphism pairs (s, t) with s o t = t and t o s = s, in all_homs order.

    Filtered before any action is considered.  Such s and t are idempotent
    with a common image: s o s = s o (t o s) = (s o t) o s = t o s = s, the
    same for t, and im s = im(t o s) lies in im t and vice versa.
    Conversely, an idempotent s fixes its image pointwise, so it fixes im t
    when im t = im s.  Only idempotents with the same image set are paired
    (226 of the 262 144 endomorphism pairs of Z2^3 pass), and the interchange
    law still decides each of those pairs.
    """
    idempotents = [h for h in all_homs(g, g) if holds(interchange_violations(h.map, h.map))]
    by_image: dict[frozenset[int], list[Hom]] = {}
    for h in idempotents:
        by_image.setdefault(frozenset(h.map), []).append(h)
    return tuple(
        (s, t)
        for s in idempotents
        for t in by_image[frozenset(s.map)]
        if holds(interchange_violations(s.map, t.map))
    )


@lru_cache(maxsize=None)
def enumerate_gcat1s(g: GroupTable) -> tuple[GCat1, ...]:
    """Every generalized cat1-group structure on g: all self-actions, all (s, t).

    The composition identities are filtered first (they do not involve the
    action), then self-action preservation of s and t, then the kernel action
    law, memoized per kernel pair.
    """
    from .groups import kernel

    pairs = _structure_map_pairs(g)
    out: list[GCat1] = []
    for gw in gwa_objects_for(g):
        act = gw.self_action.act
        preserving: dict[tuple[int, ...], bool] = {}

        def ok_endo(h: Hom) -> bool:
            cached = preserving.get(h.map)
            if cached is None:
                cached = is_gwa_morphism(h, gw, gw)
                preserving[h.map] = cached
            return cached

        kernel_cond: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
        for s, t in pairs:
            if not ok_endo(s) or not ok_endo(t):
                continue
            key = (kernel(s).members, kernel(t).members)
            res = kernel_cond.get(key)
            if res is None:
                res = kernel_cond[key] = holds(kernel_action_violations(act, *key))
            if res:
                out.append(GCat1(gw, s, t))
    return tuple(out)


def gcat1_morphisms_between(c1: GCat1, c2: GCat1) -> tuple[GCat1Morphism, ...]:
    """All cat1-group morphisms c1 -> c2."""
    s1, t1 = c1.s.map, c1.t.map
    s2, t2 = c2.s.map, c2.t.map
    return tuple(
        GCat1Morphism(c1, c2, f)
        for f in all_homs(c1.G.group, c2.G.group)
        if holds(commutes_violations(f.map, s1, t1, s2, t2)) and is_gwa_morphism(f, c1.G, c2.G)
    )


def lifting_morphisms_between(l1: Lifting, l2: Lifting) -> tuple[LiftingMorphism, ...]:
    """All morphisms l1 -> l2: homs between the X parts commuting with both triangles."""
    return tuple(
        LiftingMorphism(l1, l2, f)
        for f in all_homs(l1.X.group, l2.X.group)
        if holds(triangle_omega_violations(l1, l2, f.map)) and holds(triangle_phi_violations(l1, l2, f.map))
    )


def covering_morphisms_between(c1: Covering, c2: Covering) -> tuple[CoveringMorphism, ...]:
    """All morphisms c1 -> c2 over the common base.

    The A-component is forced to (f2)^-1 o f1 by the f-triangle; only the
    B-component is searched.
    """
    u_map = tuple(c2.f.map.index(v) for v in c1.f.map)
    u = Hom(c1.total.A.group, c2.total.A.group, u_map)
    return tuple(
        CoveringMorphism(c1, c2, u, v)
        for v in all_homs(c1.total.B.group, c2.total.B.group)
        if holds(triangle_g_violations(c1, c2, v.map))
        and holds(covering_morphism_violations(c1, c2, u_map, v.map))
    )


# ---------------------------------------------------------------------------
# the equivalence verifier


@dataclass(frozen=True)
class EquivalenceReport:
    """Everything verify_equivalence checked, with counts and failure details.

    ok means zero failed checks, a pool rich enough to contain the canonical
    liftings (natural, image, self) and the identity covering, each up to
    isomorphism, and no morphism category cut short by the morphism cap.
    """

    base_name: str
    order_bound: int
    pool_groups: tuple[str, ...]
    liftings: tuple[Lifting, ...] = field(repr=False, default=())
    coverings: tuple[Covering, ...] = field(repr=False, default=())
    lifting_to_covering_index: tuple[int, ...] = ()
    covering_to_lifting_index: tuple[int, ...] = ()
    roundtrip_lifting_exact: bool = True
    roundtrip_covering_witnesses: tuple[CoveringMorphism, ...] = field(repr=False, default=())
    # non-empty hom-sets keyed by the (source, target) positions in liftings / coverings
    lifting_homs: dict[tuple[int, int], tuple[LiftingMorphism, ...]] = field(repr=False, default_factory=dict)
    covering_homs: dict[tuple[int, int], tuple[CoveringMorphism, ...]] = field(repr=False, default_factory=dict)
    morphism_checks_passed: int = 0
    morphism_checks_failed: int = 0
    functor_law_checks_passed: int = 0
    functor_law_checks_failed: int = 0
    naturality_checks_passed: int = 0
    naturality_checks_failed: int = 0
    truncated: bool = False
    incomplete: tuple[str, ...] = ()
    failures: tuple[str, ...] = ()

    @property
    def lifting_count(self) -> int:
        return len(self.liftings)

    @property
    def covering_count(self) -> int:
        return len(self.coverings)

    @property
    def lifting_morphisms(self) -> tuple[LiftingMorphism, ...]:
        return tuple(m for homs in self.lifting_homs.values() for m in homs)

    @property
    def covering_morphisms(self) -> tuple[CoveringMorphism, ...]:
        return tuple(m for homs in self.covering_homs.values() for m in homs)

    @property
    def lifting_morphism_count(self) -> int:
        return sum(map(len, self.lifting_homs.values()))

    @property
    def covering_morphism_count(self) -> int:
        return sum(map(len, self.covering_homs.values()))

    @property
    def ok(self) -> bool:
        return not self.failures and not self.incomplete and not self.truncated

    def consistent(self) -> bool:
        """Internal consistency: index tables and witness lists match the object lists."""
        if len(self.lifting_to_covering_index) != len(self.liftings):
            return False
        if len(self.covering_to_lifting_index) != len(self.coverings):
            return False
        if not self.failures and len(self.roundtrip_covering_witnesses) != len(self.coverings):
            return False
        return True


def morphism_cap(explicit: int | None = None) -> int:
    """The morphism cap: explicit, else GXMOD_MAX_MORPHISMS, else the default.

    A malformed environment value raises StructuralError.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get(MAX_MORPHISMS_ENV)
    if not env:
        return DEFAULT_MAX_MORPHISMS
    try:
        return max(1, int(env))
    except ValueError:
        raise StructuralError(f"{MAX_MORPHISMS_ENV} must be an integer, got {env!r}") from None


def verify_equivalence(
    base: GXMod, pool: SearchPool, max_morphisms: int | None = None
) -> EquivalenceReport:
    """Enumerate both categories over the pool and check the equivalence explicitly.

    Object level: every lifting maps to an enumerated covering and back to
    itself table-for-table; every covering maps to an enumerated lifting and
    back to a covering isomorphic to the original, with the witness morphism
    <f, 1> recorded and validated.

    Morphism level: each category is enumerated as hom-sets keyed by the
    (source, target) positions of the enumerated objects.  Both functors send
    every enumerated morphism to a valid morphism, preserve identities, and
    satisfy the naturality square of the covering-side unit.  Composition:
    for every composable pair m1 in Hom(i, j), m2 in Hom(j, k), the composite
    m2 o m1 must be an enumerated morphism of Hom(i, k) (the category is
    closed under composition), and the functor's image of that morphism must
    equal the composite of the images of m2 and m1.  Both sides come from the
    functors applied once per enumerated morphism.  Each category numbers its
    raw maps once, as the morphism checks store the functor images, so a
    morphism and its image are tuples of map ids and each distinct pair of
    them is composed once.
    """
    cap = morphism_cap(max_morphisms)
    failures: list[str] = []
    incomplete: list[str] = []

    liftings = enumerate_liftings(base, pool)
    coverings = enumerate_coverings(base, pool)

    # canonical members the pool must support
    for label, wanted in (
        ("natural lifting", _try(natural_lifting, base)),
        ("image lifting", _try(image_lifting, base)),
        ("self lifting", _try(self_lifting, base)),
    ):
        if wanted is None:
            incomplete.append(f"{label}: construction not available")
        elif wanted.X.order > pool.order_bound:
            incomplete.append(
                f"{label}: requires a group of order {wanted.X.order} beyond bound {pool.order_bound}"
            )
        elif not _found_up_to_iso(wanted, liftings, lifting_morphisms_between, _is_lifting_iso):
            incomplete.append(f"{label}: not found in the enumerated pool")
    if base.B.order <= pool.order_bound:
        if not _found_up_to_iso(identity_covering(base), coverings, covering_morphisms_between, _is_covering_iso):
            incomplete.append("identity covering: not found in the enumerated pool")
    else:
        incomplete.append(
            f"identity covering: requires a group of order {base.B.order} beyond bound {pool.order_bound}"
        )

    lifting_index = {l: i for i, l in enumerate(liftings)}
    covering_index = {c: i for i, c in enumerate(coverings)}

    l2c: list[int] = []
    rt_lifting_exact = True
    for i, lift in enumerate(liftings):
        cov = lifting_to_covering(lift)
        j = covering_index.get(cov)
        if j is None:
            failures.append(f"lifting {i}: functor image not among enumerated coverings")
            l2c.append(-1)
        else:
            l2c.append(j)
        back = covering_to_lifting(cov)
        if back != lift:
            rt_lifting_exact = False
            failures.append(f"lifting {i}: round trip is not table-identical")

    c2l: list[int] = []
    rt_witnesses: list[CoveringMorphism] = []
    for i, cov in enumerate(coverings):
        lift = covering_to_lifting(cov)
        j = lifting_index.get(lift)
        if j is None:
            failures.append(f"covering {i}: functor image not among enumerated liftings")
            c2l.append(-1)
        else:
            c2l.append(j)
        back = lifting_to_covering(lift)
        witness = CoveringMorphism(cov, back, cov.f, identity_hom(cov.total.B.group))
        valid = holds(covering_morphism_violations(cov, back, witness.f.map, witness.g.map))
        if not valid or not witness.f.is_bijective() or not witness.g.is_bijective():
            failures.append(f"covering {i}: round-trip witness <f, 1> is not an isomorphism")
        else:
            rt_witnesses.append(witness)

    # morphisms as hom-sets, each category capped on its own
    lifting_homs, lifting_cut = _capped_morphisms(liftings, lifting_morphisms_between, cap)
    covering_homs, covering_cut = _capped_morphisms(coverings, covering_morphisms_between, cap)
    truncated = lifting_cut or covering_cut

    # one numbering of the raw maps per category; (i, j, component ids of a
    # morphism of Hom(i, j)) -> the component ids of its functor image
    lifting_maps = _MapNumbering()
    covering_maps = _MapNumbering()
    lifting_images: dict[tuple[int, int, tuple[int, ...]], tuple[int, ...]] = {}
    covering_images: dict[tuple[int, int, tuple[int, ...]], tuple[int, ...]] = {}
    checks_passed = 0
    checks_failed = 0
    nat_passed = 0
    nat_failed = 0
    for (i, j), homs in lifting_homs.items():
        for m in homs:
            cm = functor_on_lifting_morphism(m)
            lifting_images[i, j, lifting_maps.ids(m.f.map)] = covering_maps.ids(cm.f.map, cm.g.map)
            if holds(covering_morphism_violations(cm.source, cm.target, cm.f.map, cm.g.map)):
                checks_passed += 1
            else:
                checks_failed += 1
                failures.append("lifting morphism: functor image invalid")
            back = functor_on_covering_morphism(cm)
            if back.f == m.f and back.source == m.source and back.target == m.target:
                checks_passed += 1
            else:
                checks_failed += 1
                failures.append("lifting morphism: round trip not exact")
    for (i, j), homs in covering_homs.items():
        for m in homs:
            lm = functor_on_covering_morphism(m)
            covering_images[i, j, covering_maps.ids(m.f.map, m.g.map)] = lifting_maps.ids(lm.f.map)
            if holds(lifting_morphism_violations(lm.source, lm.target, lm.f.map)):
                checks_passed += 1
            else:
                checks_failed += 1
                failures.append("covering morphism: functor image invalid")
            # naturality of the covering-side unit: <f2, 1> o m = F(G(m)) o <f1, 1>
            lhs_f = tuple(m.target.f.map[m.f.map[a]] for a in range(m.source.total.A.order))
            rhs_f = m.source.f.map
            lhs_g = m.g.map
            rhs_g = functor_on_lifting_morphism(lm).g.map
            if lhs_f == rhs_f and lhs_g == rhs_g:
                nat_passed += 1
            else:
                nat_failed += 1
                failures.append("covering morphism: naturality square broken")

    law_passed = 0
    law_failed = 0
    for lift in liftings:
        ident = identity_lifting_morphism(lift)
        fid = functor_on_lifting_morphism(ident)
        expect = identity_covering_morphism(lifting_to_covering(lift))
        if fid.f == expect.f and fid.g == expect.g:
            law_passed += 1
        else:
            law_failed += 1
            failures.append("functor law: identity lifting morphism not preserved")
    for cov in coverings:
        ident = identity_covering_morphism(cov)
        gid = functor_on_covering_morphism(ident)
        expect = identity_lifting_morphism(covering_to_lifting(cov))
        if gid.f == expect.f:
            law_passed += 1
        else:
            law_failed += 1
            failures.append("functor law: identity covering morphism not preserved")

    for label, images, maps, image_maps, cut in (
        ("lifting", lifting_images, lifting_maps, covering_maps, lifting_cut),
        ("covering", covering_images, covering_maps, lifting_maps, covering_cut),
    ):
        passed, failed = _composition_law(label, images, maps, image_maps, cut, failures)
        law_passed += passed
        law_failed += failed

    return EquivalenceReport(
        base_name=base.name or f"({base.A.group.name},{base.B.group.name})",
        order_bound=pool.order_bound,
        pool_groups=tuple(g.name for g in pool.groups),
        liftings=liftings,
        coverings=coverings,
        lifting_to_covering_index=tuple(l2c),
        covering_to_lifting_index=tuple(c2l),
        roundtrip_lifting_exact=rt_lifting_exact,
        roundtrip_covering_witnesses=tuple(rt_witnesses),
        lifting_homs=lifting_homs,
        covering_homs=covering_homs,
        morphism_checks_passed=checks_passed,
        morphism_checks_failed=checks_failed,
        functor_law_checks_passed=law_passed,
        functor_law_checks_failed=law_failed,
        naturality_checks_passed=nat_passed,
        naturality_checks_failed=nat_failed,
        truncated=truncated,
        incomplete=tuple(incomplete),
        failures=tuple(failures),
    )


def _found_up_to_iso(wanted, objects, between, is_iso) -> bool:
    """wanted is one of objects, or some object has an isomorphism from wanted.

    The pool holds one group table per isomorphism class, so a canonical
    object built on a relabelled base (an S3 whose elements are numbered
    differently from the pool's S3) is in the pool only up to isomorphism.
    """
    if wanted in objects:
        return True
    return any(is_iso(m) for o in objects for m in between(wanted, o))


def _is_lifting_iso(m: LiftingMorphism) -> bool:
    return m.f.is_bijective()


def _is_covering_iso(m: CoveringMorphism) -> bool:
    return m.f.is_bijective() and m.g.is_bijective()


def _capped_morphisms(objects, between, cap: int) -> tuple[dict, bool]:
    """The non-empty hom-sets between(objects[i], objects[j]), keyed by (i, j),
    holding at most cap morphisms in all; the flag says more existed."""
    homs = {}
    room = cap
    for i, o1 in enumerate(objects):
        for j, o2 in enumerate(objects):
            found = between(o1, o2)
            if found[:room]:
                homs[(i, j)] = found[:room]
            if len(found) > room:
                return homs, True
            room -= len(found)
    return homs, False


class _MapNumbering(dict):
    """One numbering of the raw maps of a category.

    A morphism given by its component maps is numbered as the tuple of their
    ids, one shared tuple per distinct result, so the thousands of morphisms
    of a category hold a few dozen id tuples between them.  The dict itself
    is the memo of composites: (outer, inner) -> the ids of outer o inner,
    component by component, computed on the first lookup.
    """

    def __init__(self) -> None:
        super().__init__()
        self._ids: dict[Map, int] = {}
        self._maps: list[Map] = []
        self._shared: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _id(self, m: Map) -> int:
        i = self._ids.get(m)
        if i is None:
            i = self._ids[m] = len(self._maps)
            self._maps.append(m)
        return i

    def ids(self, *components: Map) -> tuple[int, ...]:
        """The ids of components; a map not seen before gets a fresh id."""
        t = tuple(map(self._id, components))
        return self._shared.setdefault(t, t)

    def __missing__(self, key: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[int, ...]:
        """The ids of outer o inner for key (outer, inner), computed once."""
        maps = self._maps
        self[key] = c = self.ids(*(tuple(map(maps[o].__getitem__, maps[i])) for o, i in zip(*key)))
        return c


def _composition_law(
    label: str, images: dict, maps: _MapNumbering, image_maps: _MapNumbering, cut: bool, failures: list[str]
) -> tuple[int, int]:
    """F(m2 o m1) = F(m2) o F(m1) for every m1 in Hom(i, j) and m2 in Hom(j, k).

    images maps (i, j, component ids) of each morphism of Hom(i, j) to the
    component ids of its functor image; maps numbers the components and
    image_maps the images' components.  Each composite is computed once per
    distinct pair of id tuples, so a composable pair costs a few lookups.
    Looking m2 o m1 up in Hom(i, k) also checks that the category is closed
    under composition: a composite map that no enumerated morphism has gets a
    fresh id, which no key holds.  A missing composite is skipped when the
    cap cut the category short.  Failures are appended; returns the passed
    and failed counts.
    """
    by_source: dict[int, tuple[list, list]] = {}
    for key, img in images.items():
        keys, imgs = by_source.setdefault(key[0], ([], []))
        keys.append(key)
        imgs.append(img)
    passed = failed = 0
    for (i, j, c1), img1 in images.items():
        for (_, k, c2), img2 in zip(*by_source.get(j, ((), ()))):
            img = images.get((i, k, maps[c2, c1]))
            if img is None:
                if cut:
                    continue
                failed += 1
                failures.append(f"functor law: composite of {label} morphisms not enumerated")
            elif img == image_maps[img2, img1]:
                passed += 1
            else:
                failed += 1
                failures.append(f"functor law: composition of {label} morphisms not preserved")
    return passed, failed


def _try(fn, *args):
    """fn(*args), or None when its construction precondition fails."""
    try:
        return fn(*args)
    except (PreconditionError, StructuralError):
        return None
