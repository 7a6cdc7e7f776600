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
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .cat1 import (
    GCat1,
    GCat1Morphism,
    commutes_violations,
    interchange_violations,
    kernel_action_violations,
)
from .crossed import (
    ExtAction,
    GXMod,
    equivariance_violations,
    gxmod_violations,
    morphism_equivariance_violations,
    peiffer_violations,
    square_violations,
)
from .coverlift import (
    Covering,
    CoveringMorphism,
    Lifting,
    LiftingMorphism,
    covering_morphism_violations,
    covering_to_lifting,
    factorization_violations,
    functor_on_covering_morphism,
    functor_on_lifting_morphism,
    identity_covering,
    identity_covering_morphism,
    identity_lifting_morphism,
    image_lifting,
    induced_action,
    lifting_morphism_violations,
    lifting_to_covering,
    natural_lifting,
    self_lifting,
    triangle_f_violations,
    triangle_g_violations,
    triangle_omega_violations,
    triangle_phi_violations,
)
from .groups import (
    GroupTable,
    Hom,
    Map,
    Table,
    _cached_per_name,
    all_homs,
    automorphism_group,
    automorphisms,
    cyclic_group,
    dihedral_group,
    direct_product,
    hom_violations,
    homs_by_composite,
    identity_hom,
    kernel,
    klein_four_group,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from .gwa import GwaObject, SelfAction, action_preserved_violations, is_gwa_morphism
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
def _action_tables(actor: GroupTable, space: GroupTable) -> tuple[Table, ...]:
    """The tables act[x][y] = rho(x)(y) of the homomorphisms rho: actor -> Aut(space), sorted."""
    aut_table, auts = automorphism_group(space)
    tables = (tuple(auts[rho.map[x]].map for x in range(actor.order)) for rho in all_homs(actor, aut_table))
    return tuple(sorted(tables))


def enumerate_self_actions(g: GroupTable) -> tuple[SelfAction, ...]:
    """All self-action tables on g, via homomorphisms into Aut(g).

    The identity law, compatibility law and automorphism law pin these down
    exactly; tests cross-check the count against a raw table search.
    """
    return tuple(SelfAction(g, act) for act in _action_tables(g, g))


@_cached_per_name
def gwa_objects_for(g: GroupTable) -> tuple[GwaObject, ...]:
    """g with each of its self-actions, the i-th named <g.name>#sa<i>."""
    return tuple(GwaObject(g, sa, f"{g.name}#sa{i}") for i, sa in enumerate(enumerate_self_actions(g)))


def gwa_objects(pool: SearchPool) -> tuple[GwaObject, ...]:
    """Every group in the pool equipped with each of its self-actions."""
    out: list[GwaObject] = []
    for g in pool.groups:
        out.extend(gwa_objects_for(g))
    return tuple(out)


def enumerate_ext_actions(b: GwaObject, a: GwaObject) -> tuple[ExtAction, ...]:
    """All actions of b's group on a's group by automorphisms.

    These depend only on the underlying groups; the self-actions of a and b
    matter later, in the crossed module conditions.
    """
    return tuple(ExtAction(b, a, act) for act in _action_tables(b.group, a.group))


def enumerate_gxmods(a: GwaObject, b: GwaObject) -> tuple[GXMod, ...]:
    """All pairs (alpha, action) making (a, b) a generalized crossed module."""
    sa, sb = a.self_action.act, b.self_action.act
    tables = _action_tables(b.group, a.group)
    return tuple(
        GXMod(a, b, alpha, ExtAction(b, a, act))
        for alpha in all_homs(a.group, b.group)
        for act in tables
        if holds(gxmod_violations(alpha.map, act, sa, sb))
    )


def enumerate_liftings(base: GXMod, pool: SearchPool) -> tuple[Lifting, ...]:
    """All liftings of base whose middle object is drawn from the pool.

    Of the laws of a lifting (A, X, phi) over omega, only the equivariance of
    phi, phi(x . a) = ^x phi(a), reads the self-action of X: the
    factorization omega o phi = alpha, the homomorphism laws of phi and omega
    and the Peiffer condition alpha(a) . a1 = ^a a1 (with x acting through
    omega) read only the group of X.  So each group of the pool collects once
    the pairs (omega, phi) passing the factorization and Peiffer, and each
    of its self-actions keeps the pairs whose phi is equivariant for it.
    The liftings come out by group, then self-action, then omega, then phi.

    The homomorphism laws are not run: phi and omega come from all_homs,
    which returns only maps that pass them.  Peiffer is run, as it follows
    from the factorization only for a valid base, and base is not validated
    here.
    """
    a_group, b_group = base.A.group, base.B.group
    sa = base.A.self_action.act
    out: list[Lifting] = []
    for x_group in pool.groups:
        candidates = []
        for omega in all_homs(x_group, b_group):
            om = omega.map
            act = induced_action(base, om)
            for phi in all_homs(a_group, x_group):
                pm = phi.map
                if holds(factorization_violations(base, pm, om)) and holds(peiffer_violations(pm, act, sa)):
                    candidates.append((phi, omega, act))
        for x_gwa in gwa_objects_for(x_group):
            sx = x_gwa.self_action.act
            out.extend(
                Lifting(base, x_gwa, phi, omega)
                for phi, omega, act in candidates
                if holds(equivariance_violations(phi.map, act, sx))
            )
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

    Of the laws of a covering <f, g> by (A~, B~, alpha~), only the
    equivariance of alpha~, alpha~(b . a) = ^b alpha~(a), reads the
    self-action of B~: the square g o alpha~ = alpha o f and the Peiffer
    condition read only the group of B~.  So for each f and each group of
    the pool the pairs (g, alpha~) passing those laws are collected once,
    the forced action built only for a g with some alpha~ past the square,
    and each self-action of the group keeps the pairs whose alpha~ is
    equivariant for it.  The coverings come out by f, then group, then
    self-action, then g, then alpha~.

    The other laws of a covering hold by construction, so they are not run:
    f is an automorphism; g and alpha~ come from all_homs; the square is the
    one checked; the forced action b . a = f^-1(g(b) . f(a)) makes
    f(b . a) = g(b) . f(a); and f preserves the self-action of A~, pulled
    back through f.  Peiffer is run, as it follows only from a valid base,
    and base is not validated here.
    """
    a_group = base.A.group
    na = a_group.order
    base_act = base.action.act
    out: list[Covering] = []
    for f0 in automorphisms(a_group):
        f_map = f0.map
        f_inv = tuple(f_map.index(i) for i in range(na))
        a_tilde = GwaObject(a_group, _pullback_self_action(base.A, f_map, f_inv))
        sa_tilde = a_tilde.self_action.act
        f = Hom(a_group, a_group, f_map)
        for b_group in pool.groups:
            candidates = []
            for g in all_homs(b_group, base.B.group):
                gm = g.map
                forced = None
                for alpha_t in all_homs(a_group, b_group):
                    atm = alpha_t.map
                    if not holds(square_violations(atm, base.alpha.map, f_map, gm)):
                        continue
                    if forced is None:
                        forced = tuple(
                            tuple(f_inv[base_act[gm[bt]][f_map[at]]] for at in range(na))
                            for bt in range(b_group.order)
                        )
                    if holds(peiffer_violations(atm, forced, sa_tilde)):
                        candidates.append((g, alpha_t, forced))
            for b_gwa in gwa_objects_for(b_group):
                sb = b_gwa.self_action.act
                for g, alpha_t, forced in candidates:
                    if holds(equivariance_violations(alpha_t.map, forced, sb)):
                        total = GXMod(a_tilde, b_gwa, alpha_t, ExtAction(b_gwa, a_tilde, forced))
                        out.append(Covering(total, base, f, g))
    return tuple(out)


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


def enumerate_gcat1s(g: GroupTable) -> tuple[GCat1, ...]:
    """Every generalized cat1-group structure on g: all self-actions, all (s, t).

    The composition identities are filtered first (they do not involve the
    action), then self-action preservation of s and t, then the kernel action
    law, memoized per kernel pair.
    """
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
    """All morphisms l1 -> l2: homs f between the X parts commuting with both triangles.

    The candidates are the homs with omega' o f = omega, looked up in
    homs_by_composite rather than found by scanning all_homs; both triangles
    still run on each of them.  The homomorphism law of f is not run, as f
    comes from all_homs, which returns only maps that pass it.
    """
    candidates = homs_by_composite(l1.X.group, l2.X.group, l2.omega.map).get(l1.omega.map, ())
    return tuple(
        LiftingMorphism(l1, l2, f)
        for f in candidates
        if holds(triangle_omega_violations(l1, l2, f.map)) and holds(triangle_phi_violations(l1, l2, f.map))
    )


def covering_morphisms_between(c1: Covering, c2: Covering) -> tuple[CoveringMorphism, ...]:
    """All morphisms c1 -> c2 over the common base.

    The A-component is forced to u = (f2)^-1 o f1 by the f-triangle; only the
    B-component v is searched.  The candidates v are the homs with
    g2 o v = g1, looked up in homs_by_composite rather than found by scanning
    all_homs.  When there are any, the laws of <u, v> that read u alone (the
    homomorphism law of u, u preserving the self-action of A~, the
    f-triangle) run once for the pair; they hold whenever c1 and c2 are
    valid coverings, which is not checked here.  Then each candidate runs the
    g-triangle and the laws that read v, the square and equivariance.  The
    homomorphism law of v is not run, as v comes from all_homs, which
    returns only maps that pass it.
    """
    src, tgt = c1.total, c2.total
    candidates = homs_by_composite(src.B.group, tgt.B.group, c2.g.map).get(c1.g.map)
    if candidates is None:
        return ()
    u_map = tuple(c2.f.map.index(v) for v in c1.f.map)
    if not (
        holds(hom_violations(src.A.group, tgt.A.group, u_map))
        and holds(action_preserved_violations(src.A, tgt.A, u_map))
        and holds(triangle_f_violations(c1, c2, u_map))
    ):
        return ()
    u = Hom(src.A.group, tgt.A.group, u_map)
    alpha, tgt_alpha = src.alpha.map, tgt.alpha.map
    act, tgt_act = src.action.act, tgt.action.act
    return tuple(
        CoveringMorphism(c1, c2, u, v)
        for v in candidates
        if holds(triangle_g_violations(c1, c2, v.map))
        and holds(square_violations(alpha, tgt_alpha, u_map, v.map))
        and holds(morphism_equivariance_violations(act, tgt_act, u_map, v.map))
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

    Each side is a _Category record: its objects, its hom-sets keyed by the
    positions of source and target and capped on their own, one numbering of
    its raw maps, and the functor out of it.  The hom-sets come from
    lifting_morphisms_between and covering_morphisms_between, which look up
    the candidates of each pair by its triangle and run every law on each
    candidate.  One check path runs from liftings to coverings and from
    coverings to liftings: object images, morphism images, the identity and
    composition laws, and the search for the canonical liftings (natural,
    image, self) and the identity covering, each up to isomorphism.  The
    composition law reads the numbered images the morphism check stored and
    holds positions as bitmasks, so each pair of classes of morphisms with
    one map tuple and one image is composed once and checked by one AND.

    The unit of the equivalence differs between the sides, so two checks stay
    per side and report apart.  Object round trip: a lifting comes back
    table-for-table (roundtrip_lifting_exact); a covering comes back through
    the isomorphism <f, 1>, validated and recorded
    (roundtrip_covering_witnesses).  Unit square: a lifting morphism comes
    back exactly, endpoints included (morphism_checks); a covering morphism
    passes the naturality square of <f, 1> (naturality_checks).
    """
    cap = morphism_cap(max_morphisms)
    tally = _Tally()
    incomplete: list[str] = []
    liftings = _Category(
        "lifting", enumerate_liftings(base, pool), lifting_morphisms_between, cap,
        components=lambda m: (m.f,),
        groups=lambda o: (o.X.group,),
        identity=identity_lifting_morphism,
        law=lifting_morphism_violations,
        functor=lifting_to_covering,
        functor_on_morphism=functor_on_lifting_morphism,
    )
    coverings = _Category(
        "covering", enumerate_coverings(base, pool), covering_morphisms_between, cap,
        components=lambda m: (m.f, m.g),
        groups=lambda o: (o.total.A.group, o.total.B.group),
        identity=identity_covering_morphism,
        law=covering_morphism_violations,
        functor=covering_to_lifting,
        functor_on_morphism=functor_on_covering_morphism,
    )

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
        elif not liftings.has_up_to_iso(wanted):
            incomplete.append(f"{label}: not found in the enumerated pool")
    if base.B.order <= pool.order_bound:
        if not coverings.has_up_to_iso(identity_covering(base)):
            incomplete.append("identity covering: not found in the enumerated pool")
    else:
        incomplete.append(
            f"identity covering: requires a group of order {base.B.order} beyond bound {pool.order_bound}"
        )

    inexact: list[int] = []
    witnesses: list[CoveringMorphism] = []

    def lifting_round_trip(i: int, lift: Lifting, cov: Covering) -> None:
        if covering_to_lifting(cov) != lift:
            inexact.append(i)
            tally.failures.append(f"lifting {i}: round trip is not table-identical")

    def covering_round_trip(i: int, cov: Covering, lift: Lifting) -> None:
        back = lifting_to_covering(lift)
        witness = CoveringMorphism(cov, back, cov.f, identity_hom(cov.total.B.group))
        if coverings.is_valid(witness) and coverings.is_iso(witness):
            witnesses.append(witness)
        else:
            tally.failures.append(f"covering {i}: round-trip witness <f, 1> is not an isomorphism")

    def lifting_unit_square(m: LiftingMorphism, cm: CoveringMorphism) -> None:
        back = functor_on_covering_morphism(cm)
        exact = back.f == m.f and back.source == m.source and back.target == m.target
        tally.check("morphism", exact, "lifting morphism: round trip not exact")

    def covering_unit_square(m: CoveringMorphism, lm: LiftingMorphism) -> None:
        # naturality of the covering-side unit: <f2, 1> o m = F(G(m)) o <f1, 1>
        lhs_f = tuple(m.target.f.map[m.f.map[a]] for a in range(m.source.total.A.order))
        natural = lhs_f == m.source.f.map and m.g.map == functor_on_lifting_morphism(lm).g.map
        tally.check("naturality", natural, "covering morphism: naturality square broken")

    l2c = _object_images(liftings, coverings, lifting_round_trip, tally)
    c2l = _object_images(coverings, liftings, covering_round_trip, tally)
    _morphism_images(liftings, coverings, lifting_unit_square, tally)
    _morphism_images(coverings, liftings, covering_unit_square, tally)
    for law in (_identity_law, _composition_law):
        for source, target in ((liftings, coverings), (coverings, liftings)):
            law(source, target, tally)

    return EquivalenceReport(
        base_name=base.name or f"({base.A.group.name},{base.B.group.name})",
        order_bound=pool.order_bound,
        pool_groups=tuple(g.name for g in pool.groups),
        liftings=liftings.objects,
        coverings=coverings.objects,
        lifting_to_covering_index=l2c,
        covering_to_lifting_index=c2l,
        roundtrip_lifting_exact=not inexact,
        roundtrip_covering_witnesses=tuple(witnesses),
        lifting_homs=liftings.homs,
        covering_homs=coverings.homs,
        morphism_checks_passed=tally["morphism", True],
        morphism_checks_failed=tally["morphism", False],
        functor_law_checks_passed=tally["functor_law", True],
        functor_law_checks_failed=tally["functor_law", False],
        naturality_checks_passed=tally["naturality", True],
        naturality_checks_failed=tally["naturality", False],
        truncated=liftings.cut or coverings.cut,
        incomplete=tuple(incomplete),
        failures=tuple(tally.failures),
    )


class _Tally(Counter):
    """Counts of passed and failed checks, keyed by (kind, passed), and the
    failure messages in the order the checks ran."""

    def __init__(self) -> None:
        super().__init__()
        self.failures: list[str] = []

    def check(self, kind: str, passed: bool, message: str) -> None:
        self[kind, passed] += 1
        if not passed:
            self.failures.append(message)


class _Category:
    """One side of the equivalence over a given list of objects, with the functor out of it.

    between enumerates Hom(o1, o2), components gives a morphism's maps, (f)
    or (f, g), groups an object's groups those maps run between, law their
    violations, and identity an object's identity morphism.  images maps
    (i, j, component ids) of each morphism of Hom(i, j) to the component ids
    of its image in the other side's numbering.
    """

    def __init__(
        self, label: str, objects: tuple, between, cap: int, *,
        components, groups, identity, law, functor, functor_on_morphism,
    ) -> None:
        self.label = label
        self.objects = objects
        self.index = {o: i for i, o in enumerate(objects)}
        self.between = between
        self.components = components
        self.groups = groups
        self.identity = identity
        self.law = law
        self.functor = functor
        self.functor_on_morphism = functor_on_morphism
        self.homs, self.cut = _capped_morphisms(objects, between, cap)
        self.maps = _MapNumbering()
        self.images: dict[tuple[int, int, tuple[int, ...]], tuple[int, ...]] = {}

    def ids(self, m) -> tuple[int, ...]:
        return self.maps.ids(*[h.map for h in self.components(m)])

    def is_valid(self, m) -> bool:
        """m's maps fit the groups of its endpoints, and its laws hold.

        The laws index the groups' tables with the maps' entries, so a map
        of the wrong shape is rejected before they run.
        """
        maps = [h.map for h in self.components(m)]
        for fm, src, tgt in zip(maps, self.groups(m.source), self.groups(m.target)):
            if len(fm) != src.order or min(fm) < 0 or max(fm) >= tgt.order:
                return False
        return holds(self.law(m.source, m.target, *maps))

    def is_iso(self, m) -> bool:
        return all(h.is_bijective() for h in self.components(m))

    def has_up_to_iso(self, wanted) -> bool:
        """wanted is an object, or some object has an isomorphism from wanted.

        The pool holds one group table per isomorphism class, so a canonical
        object built on a relabelled base (an S3 whose elements are numbered
        differently from the pool's S3) is in the pool only up to isomorphism.
        """
        if wanted in self.index:
            return True
        return any(self.is_iso(m) for o in self.objects for m in self.between(wanted, o))


def _object_images(source: _Category, target: _Category, round_trip, tally: _Tally) -> tuple[int, ...]:
    """The position in target of each source object's image, -1 when it is
    not enumerated; round_trip(i, object, image) checks the way back."""
    positions = []
    for i, o in enumerate(source.objects):
        image = source.functor(o)
        j = target.index.get(image, -1)
        if j < 0:
            tally.failures.append(f"{source.label} {i}: functor image not among enumerated {target.label}s")
        positions.append(j)
        round_trip(i, o, image)
    return tuple(positions)


def _morphism_images(source: _Category, target: _Category, unit_square, tally: _Tally) -> None:
    """Each morphism's image is a valid morphism of target; the numbered
    images are stored, and unit_square(m, image) checks the way back."""
    invalid = f"{source.label} morphism: functor image invalid"
    for (i, j), homs in source.homs.items():
        for m in homs:
            image = source.functor_on_morphism(m)
            source.images[i, j, source.ids(m)] = target.ids(image)
            tally.check("morphism", target.is_valid(image), invalid)
            unit_square(m, image)


def _identity_law(source: _Category, target: _Category, tally: _Tally) -> None:
    """The image of the identity of each object is the identity of its image."""
    for o in source.objects:
        image = source.functor_on_morphism(source.identity(o))
        expected = target.identity(source.functor(o))
        preserved = target.components(image) == target.components(expected)
        tally.check("functor_law", preserved, f"functor law: identity {source.label} morphism not preserved")


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


def _composition_law(source: _Category, target: _Category, tally: _Tally) -> None:
    """F(m2 o m1) = F(m2) o F(m1) for every m1 in Hom(i, j) and m2 in Hom(j, k).

    Reads the images that _morphism_images stored: source's maps number the
    components and target's maps the images' components.  Positions are held
    as integer bitmasks.  The morphisms out of i with one map tuple c and one
    image are told apart only by their targets: holding[i][c, img] is the
    mask of those k.  The morphisms into j with one map tuple and one image
    form a class, told apart only by their sources S.

    For a class (j, c1, img1, S) and an out-class (c2, img2, K) of j, the
    composite c2 o c1 and the composite of the images are computed once.  The
    law holds at (i, k) when k is in holding[i][composite, expected image];
    the AND of those masks over S, memoized per (S, composite, expected), is
    the targets at which every source passes, and when it covers K all
    |S| * |K| pairs pass at once.  Otherwise each source's failing targets
    are reported one by one.  One whose Hom(i, k) has no morphism with the
    composite maps shows the category is not closed under composition (a
    composite map that no enumerated morphism has gets a fresh id, which no
    key holds); it is skipped when the cap cut the category short.  One that
    has it with another image breaks the law.  The classes are keyed by
    image, so nothing assumes the image is a function of the map ids.
    """
    images, maps, image_maps = source.images, source.maps, target.maps
    holding: dict[int, dict[tuple, int]] = {}
    sources: dict[tuple, int] = {}
    for (i, j, c), img in images.items():
        out = holding.setdefault(i, {})
        out[c, img] = out.get((c, img), 0) | 1 << j
        sources[j, c, img] = sources.get((j, c, img), 0) | 1 << i
    missing = f"functor law: composite of {source.label} morphisms not enumerated"
    broken = f"functor law: composition of {source.label} morphisms not preserved"
    allowed_at: dict[tuple, int] = {}
    passed = 0
    for (j, c1, img1), s_mask in sources.items():
        for (c2, img2), k_mask in holding.get(j, {}).items():
            composite, expected = maps[c2, c1], image_maps[img2, img1]
            key = (s_mask, composite, expected)
            allowed = allowed_at.get(key)
            if allowed is None:
                allowed = -1
                for i in _bits(s_mask):
                    allowed &= holding[i].get((composite, expected), 0)
                allowed_at[key] = allowed
            if not k_mask & ~allowed:
                passed += s_mask.bit_count() * k_mask.bit_count()
                continue
            for i in _bits(s_mask):
                held = holding[i].get((composite, expected), 0) & k_mask
                passed += held.bit_count()
                for k in _bits(k_mask & ~held):
                    if (i, k, composite) in images:
                        tally.check("functor_law", False, broken)
                    elif not source.cut:
                        tally.check("functor_law", False, missing)
    tally["functor_law", True] += passed


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _try(fn, *args):
    """fn(*args), or None when its construction precondition fails."""
    try:
        return fn(*args)
    except (PreconditionError, StructuralError):
        return None
