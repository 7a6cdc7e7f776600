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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

from .cat1 import (
    GCat1,
    GCat1Morphism,
    commutes_violations,
    interchange_violations,
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
    _generating_sequence,
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
    restrict_table,
    symmetric_group,
    trivial_group,
)
from .gwa import GwaObject, SelfAction, action_preserved_violations, is_gwa_morphism, kernel_action_violations
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


# lines[k][line]: the positions i of some action tables whose k-th row (or
# column) is line, as the bitmask of the 1 << i
_Lines = tuple[dict[tuple[int, ...], int], ...]


@_cached_per_name
def _action_table_lines(actor: GroupTable, space: GroupTable, columns: bool) -> _Lines:
    """The tables of _action_tables(actor, space) indexed by their rows, or by
    their columns when columns is set."""
    lines: list[dict[tuple[int, ...], int]] = [{} for _ in range(space.order if columns else actor.order)]
    for i, act in enumerate(_action_tables(actor, space)):
        for found, line in zip(lines, zip(*act) if columns else act):
            found[line] = found.get(line, 0) | 1 << i
    return tuple(lines)


def _tables_with(lines: _Lines, pinned: Iterable[tuple[int, tuple[int, ...]]]) -> Iterator[int]:
    """The positions, ascending, of the tables whose k-th line is line for
    every (k, line) in pinned, which holds at least one pair.

    Looking up the lines a law pins gives the tables that agree with them
    without testing the others; the caller still runs the law on those.  Two
    lines pinned at one k leave no table.
    """
    allowed = -1
    for k, line in pinned:
        allowed &= lines[k].get(line, 0)
        if not allowed:
            return iter(())
    return _bits(allowed)


def _equivariant_self_actions(columns: _Lines, alpha: Map, act: Table) -> Iterator[int]:
    """The positions in gwa_objects_for(g) of the self-actions sb of g that
    agree with alpha(b . a) = ^b alpha(a), b acting by act, where columns is
    _action_table_lines(g, g, True).

    The law pins column alpha(a) of sb to (alpha(b . a) for each b of g), so
    sb is fixed on g x im(alpha); when two a with one image pin different
    columns, no self-action passes.
    """
    return _tables_with(columns, ((alpha[a], tuple([alpha[row[a]] for row in act])) for a in range(len(alpha))))


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
    """All pairs (alpha, action) making (a, b) a generalized crossed module.

    The Peiffer condition alpha(a) . a1 = ^a a1 pins the action's rows on
    im(alpha): row alpha(a) is row a of the self-action of a.  So for each
    alpha the action tables are looked up by those rows, and both conditions
    still run on each table found.  When two a with one image have different
    rows, no table passes.  The crossed modules come out by alpha, then
    action table.
    """
    sa, sb = a.self_action.act, b.self_action.act
    tables = _action_tables(b.group, a.group)
    rows = _action_table_lines(b.group, a.group, False)
    out = []
    for alpha in all_homs(a.group, b.group):
        am = alpha.map
        for i in _tables_with(rows, zip(am, sa)):
            act = tables[i]
            if holds(gxmod_violations(am, act, sa, sb)):
                out.append(GXMod(a, b, alpha, ExtAction(b, a, act)))
    return tuple(out)


def enumerate_liftings(base: GXMod, pool: SearchPool) -> tuple[Lifting, ...]:
    """All liftings of base whose middle object is drawn from the pool.

    Of the laws of a lifting (A, X, phi) over omega, only the equivariance of
    phi, phi(x . a) = ^x phi(a), reads the self-action of X: the
    factorization omega o phi = alpha, the homomorphism laws of phi and omega
    and the Peiffer condition alpha(a) . a1 = ^a a1 (with x acting through
    omega) read only the group of X.  So each group of the pool collects once
    the pairs (omega, phi) passing the factorization and Peiffer.
    Equivariance pins the self-action of X on X x im(phi), so each pair looks
    up the self-actions that agree there (_equivariant_self_actions) and joins
    their buckets; each self-action then runs equivariance on its bucket.
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
        x_gwas = gwa_objects_for(x_group)
        columns = _action_table_lines(x_group, x_group, True)
        buckets: list[list] = [[] for _ in x_gwas]
        for omega in all_homs(x_group, b_group):
            om = omega.map
            act = induced_action(base, om)
            for phi in all_homs(a_group, x_group):
                pm = phi.map
                if holds(factorization_violations(base, pm, om)) and holds(peiffer_violations(pm, act, sa)):
                    for i in _equivariant_self_actions(columns, pm, act):
                        buckets[i].append((phi, omega, act))
        for x_gwa, bucket in zip(x_gwas, buckets):
            sx = x_gwa.self_action.act
            out.extend(
                Lifting(base, x_gwa, phi, omega)
                for phi, omega, act in bucket
                if holds(equivariance_violations(phi.map, act, sx))
            )
    return tuple(out)


def _pullback_self_action(a: GwaObject, f_map: tuple[int, ...], f_inv: tuple[int, ...]) -> SelfAction:
    """The self-action ^x y = f^-1(^f(x) f(y)) of a's group, pulled back
    through the automorphism f_map with inverse f_inv."""
    return SelfAction(a.group, restrict_table(a.self_action.act, f_map, f_map, f_inv, "pullback through f"))


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
    the forced action built only for a g with some alpha~ past the square.
    Equivariance pins the self-action of B~ on B~ x im(alpha~), so each pair
    looks up the self-actions that agree there (_equivariant_self_actions)
    and joins their buckets; each self-action then runs equivariance on its
    bucket.  The coverings come out by f, then group, then self-action, then
    g, then alpha~.

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
            b_gwas = gwa_objects_for(b_group)
            columns = _action_table_lines(b_group, b_group, True)
            buckets: list[list] = [[] for _ in b_gwas]
            for g in all_homs(b_group, base.B.group):
                gm = g.map
                forced = None
                for alpha_t in all_homs(a_group, b_group):
                    atm = alpha_t.map
                    if not holds(square_violations(atm, base.alpha.map, f_map, gm)):
                        continue
                    if forced is None:
                        forced = restrict_table(base_act, gm, f_map, f_inv, "forced action")
                    if holds(peiffer_violations(atm, forced, sa_tilde)):
                        for i in _equivariant_self_actions(columns, atm, forced):
                            buckets[i].append((g, alpha_t, forced))
            for b_gwa, bucket in zip(b_gwas, buckets):
                sb = b_gwa.self_action.act
                for g, alpha_t, forced in bucket:
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


def _preserving_self_actions(rows: _Lines, gens, h: Map) -> int:
    """The positions in gwa_objects_for(g) of the self-actions sa of g that
    the endomorphism h preserves at each x of gens, as a bitmask, where rows
    is _action_table_lines(g, g, False).

    At x the law h(^x y) = ^h(x) h(y) says row h(x) of sa composed with h
    equals h composed with row x, so the rows at h(x) are keyed by the first
    composite and looked up by the second.  x -> ^x is a homomorphism into
    Aut(g), so the law at x1 and x2 gives it at x1 * x2, and the bitmask is
    exact on a generating sequence gens; the caller still runs the law.
    """
    allowed = -1
    for x in gens:
        after_h: dict[tuple[int, ...], int] = {}
        for row, mask in rows[h[x]].items():
            key = tuple([row[y] for y in h])
            after_h[key] = after_h.get(key, 0) | mask
        at_x = 0
        for row, mask in rows[x].items():
            at_x |= mask & after_h.get(tuple([h[y] for y in row]), 0)
        allowed &= at_x
    return allowed


def enumerate_gcat1s(g: GroupTable) -> tuple[GCat1, ...]:
    """Every generalized cat1-group structure on g: all self-actions, all (s, t).

    The pairs (s, t) come from _structure_map_pairs, which runs the
    interchange law without any action.  Each distinct structure map h then
    looks up the self-actions it preserves at the generators of g
    (_preserving_self_actions), and each pair joins the buckets of the
    self-actions both its maps preserve there.  Each self-action runs the full
    preservation law on the maps of its bucket, once per map, and the kernel
    action law on each pair whose maps pass, once per kernel pair.  The
    kernels of each pair are taken once, before the self-actions.  The
    cat1-groups come out by self-action, then pair, as from a loop over every
    self-action and every pair.
    """
    gwas = gwa_objects_for(g)
    rows = _action_table_lines(g, g, False)
    gens = _generating_sequence(g)
    everyone = (1 << len(gwas)) - 1
    preserving: dict[Map, int] = {}
    buckets: list[list] = [[] for _ in gwas]
    for s, t in _structure_map_pairs(g):
        for h in (s.map, t.map):
            if h not in preserving:
                preserving[h] = everyone & _preserving_self_actions(rows, gens, h)
        mask = preserving[s.map] & preserving[t.map]
        if mask:
            kernels = (kernel(s).members, kernel(t).members)
            for i in _bits(mask):
                buckets[i].append((s, t, kernels))
    out: list[GCat1] = []
    for gw, bucket in zip(gwas, buckets):
        act = gw.self_action.act
        preserved: dict[Map, bool] = {}

        def ok_endo(h: Hom) -> bool:
            cached = preserved.get(h.map)
            if cached is None:
                cached = preserved[h.map] = holds(action_preserved_violations(gw, gw, h.map))
            return cached

        kernel_cond: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
        for s, t, key in bucket:
            if not ok_endo(s) or not ok_endo(t):
                continue
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

    Each side's morphisms are held by shape (see verify_equivalence): the
    shape id of each object, and the hom-sets between the first objects of
    each pair of shapes.  lifting_morphisms() and covering_morphisms() list
    them object by object.
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
    # the shape id of each object in liftings / coverings
    lifting_shapes: tuple[int, ...] = field(repr=False, default=())
    covering_shapes: tuple[int, ...] = field(repr=False, default=())
    # the hom-sets searched, keyed by the (source, target) shape ids
    lifting_homs: dict[tuple[int, int], tuple[LiftingMorphism, ...]] = field(repr=False, default_factory=dict)
    covering_homs: dict[tuple[int, int], tuple[CoveringMorphism, ...]] = field(repr=False, default_factory=dict)
    lifting_morphism_count: int = 0
    covering_morphism_count: int = 0
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

    def lifting_morphisms(self) -> Iterator[tuple[int, int, LiftingMorphism]]:
        """The listed lifting morphisms as (source, target, m), in (source,
        target) order, where m is the morphism with their maps between the
        first objects of their shapes."""
        return _object_level(self.lifting_shapes, self.lifting_homs, self.lifting_morphism_count)

    def covering_morphisms(self) -> Iterator[tuple[int, int, CoveringMorphism]]:
        """The listed covering morphisms, as lifting_morphisms lists those of liftings."""
        return _object_level(self.covering_shapes, self.covering_homs, self.covering_morphism_count)

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


def morphism_cap() -> int:
    """The morphism cap the command line runs with: GXMOD_MAX_MORPHISMS, else
    the default.  The library never reads the variable; verify_equivalence
    takes its cap as an argument.

    An environment value that is not an integer, or is below 1, raises
    StructuralError.
    """
    env = os.environ.get(MAX_MORPHISMS_ENV)
    if not env:
        return DEFAULT_MAX_MORPHISMS
    try:
        cap = int(env)
    except ValueError:
        raise StructuralError(f"{MAX_MORPHISMS_ENV} must be an integer, got {env!r}") from None
    if cap < 1:
        raise StructuralError(f"{MAX_MORPHISMS_ENV} must be at least 1, got {env!r}")
    return cap


def verify_equivalence(
    base: GXMod, pool: SearchPool, max_morphisms: int = DEFAULT_MAX_MORPHISMS
) -> EquivalenceReport:
    """Enumerate both categories over the pool and check the equivalence explicitly.

    Each side is a _Category record: its objects, the quotient of its
    morphisms by object shape, and the functor out of it.  One check path
    runs from liftings to coverings and from coverings to liftings: object
    images, morphism images, the identity and composition laws, and the
    search for the canonical liftings (natural, image, self) and the
    identity covering, each up to isomorphism.

    An object's shape is the object without the self-action of its varying
    group (X of a lifting, B~ of a covering's total), which no morphism law
    reads.  So two pairs of objects with the same shapes have hom-sets with
    the same maps, and every morphism-level check reads only the shapes of
    the endpoints and the maps.  Each hom-set is searched once per ordered
    pair of shapes, on their first objects (_shape_homs), and each
    morphism-level check runs once per morphism of those hom-sets,
    counting for the n(s1) * n(s2) morphisms between objects of shapes s1
    and s2 (n(s) objects have shape s); a composable pair s1 -> s2 -> s3
    counts for n(s1) * n(s2) * n(s3) pairs, and the composition law runs on
    integer ids of the maps, composing each distinct pair of maps once
    (_composition_law).  This rests on the functors
    sending objects of one shape to objects of one shape, which is checked
    object by object, and morphisms with the same maps between objects of
    the same shapes to morphisms with the same maps.  A category with more
    than max_morphisms morphisms between objects is cut: it lists its first
    max_morphisms, and no morphism-level check runs on it.

    The unit of the equivalence differs between the sides, so two checks stay
    per side and report apart.  Object round trip: a lifting comes back
    table-for-table (roundtrip_lifting_exact); a covering comes back through
    the isomorphism <f, 1>, recorded for each covering
    (roundtrip_covering_witnesses) and validated once per pair of shapes of
    the covering and its round-trip image.  Unit square: a lifting morphism comes
    back exactly, endpoints included (morphism_checks); a covering morphism
    passes the naturality square of <f, 1> (naturality_checks).
    """
    tally = _Tally()
    incomplete: list[str] = []
    # No morphism law reads the self-action an object's shape leaves out: a
    # lifting morphism's laws read only X's group, phi and omega, and a
    # covering morphism <u, v> is a gxmod morphism plus the f- and
    # g-triangles, where crossed.gxmod_morphism_violations does not ask v to
    # preserve the self-action of B~.  If it ever has to, the covering shape
    # must keep that self-action.
    liftings = _Category(
        "lifting", enumerate_liftings(base, pool), lifting_morphisms_between, max_morphisms,
        shape=lambda o: (o.base, o.X.group, o.phi, o.omega),
        components=lambda m: (m.f,),
        groups=lambda o: (o.X.group,),
        identity=identity_lifting_morphism,
        law=lifting_morphism_violations,
        functor=lifting_to_covering,
        functor_on_morphism=functor_on_lifting_morphism,
    )
    coverings = _Category(
        "covering", enumerate_coverings(base, pool), covering_morphisms_between, max_morphisms,
        shape=lambda o: (o.base, o.total.A, o.total.B.group, o.total.alpha, o.total.action.act, o.f, o.g),
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
    # the witness's verdict, keyed by the shapes of the covering and of its
    # round-trip image: the maps (f, 1) are read off the covering's shape
    witness_verdicts: dict[tuple, bool] = {}

    def lifting_round_trip(i: int, lift: Lifting, cov: Covering) -> None:
        if covering_to_lifting(cov) != lift:
            inexact.append(i)
            tally.failures.append(f"lifting {i}: round trip is not table-identical")

    def covering_round_trip(i: int, cov: Covering, lift: Lifting) -> None:
        back = lifting_to_covering(lift)
        witness = CoveringMorphism(cov, back, cov.f, identity_hom(cov.total.B.group))
        key = coverings.shapes[i], coverings.shape(back)
        verdict = witness_verdicts.get(key)
        if verdict is None:
            verdict = witness_verdicts[key] = coverings.is_valid(witness) and coverings.is_iso(witness)
        if verdict:
            witnesses.append(witness)
        else:
            tally.failures.append(f"covering {i}: round-trip witness <f, 1> is not an isomorphism")

    def lifting_unit_square(m: LiftingMorphism, back: LiftingMorphism, weight: int) -> None:
        # the endpoints of m are the first objects of their shapes; each
        # other object's own round trip is the object check above
        exact = back.f == m.f and back.source == m.source and back.target == m.target
        tally.check("morphism", exact, "lifting morphism: round trip not exact", weight)

    def covering_unit_square(m: CoveringMorphism, back: CoveringMorphism, weight: int) -> None:
        # naturality of the covering-side unit: <f2, 1> o m = F(G(m)) o <f1, 1>
        lhs_f = tuple(m.target.f.map[m.f.map[a]] for a in range(m.source.total.A.order))
        natural = lhs_f == m.source.f.map and m.g.map == back.g.map
        tally.check("naturality", natural, "covering morphism: naturality square broken", weight)

    l2c = _object_images(liftings, coverings, lifting_round_trip, tally)
    c2l = _object_images(coverings, liftings, covering_round_trip, tally)
    lifting_images = _morphism_images(liftings, coverings, lifting_unit_square, tally)
    covering_images = _morphism_images(coverings, liftings, covering_unit_square, tally)
    for source, target in ((liftings, coverings), (coverings, liftings)):
        _identity_law(source, target, tally)
    _composition_law(liftings, lifting_images, tally)
    _composition_law(coverings, covering_images, tally)

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
        lifting_shapes=liftings.shapes,
        covering_shapes=coverings.shapes,
        lifting_homs=liftings.homs,
        covering_homs=coverings.homs,
        lifting_morphism_count=liftings.count,
        covering_morphism_count=coverings.count,
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

    def check(self, kind: str, passed: bool, message: str, weight: int = 1) -> None:
        """One check that stands for weight checks with the same verdict; a
        failure's message is recorded once."""
        self[kind, passed] += weight
        if not passed:
            self.failures.append(message)


class _Category:
    """One side of the equivalence over a given list of objects, with the
    functor out of it, and its morphisms by shape.

    between enumerates Hom(o1, o2), shape gives what of an object between
    and law read, components gives a morphism's maps, (f) or (f, g), groups
    an object's groups those maps run between, law their violations, and
    identity an object's identity morphism.  shapes numbers each object's
    shape, in object order; reps holds the first object of each shape and
    counts the number of objects with it.  homs holds between(reps[s1],
    reps[s2]) keyed by (s1, s2), count the number of morphisms between
    objects it lists, and cut says there were more than the cap
    (_shape_homs).
    """

    def __init__(
        self, label: str, objects: tuple, between, cap: int, *,
        shape, components, groups, identity, law, functor, functor_on_morphism,
    ) -> None:
        self.label = label
        self.objects = objects
        self.index = {o: i for i, o in enumerate(objects)}
        self.between = between
        self.shape = shape
        self.components = components
        self.groups = groups
        self.identity = identity
        self.law = law
        self.functor = functor
        self.functor_on_morphism = functor_on_morphism
        shape_ids: dict = {}
        self.shapes = tuple(shape_ids.setdefault(shape(o), len(shape_ids)) for o in objects)
        reps: dict[int, object] = {}
        for s, o in zip(self.shapes, objects):
            reps.setdefault(s, o)
        self.reps = tuple(reps.values())
        self.counts = tuple(Counter(self.shapes).values())
        self.homs, self.count, self.cut = _shape_homs(self.shapes, self.reps, between, cap)

    def maps(self, m) -> tuple[Map, ...]:
        return tuple(h.map for h in self.components(m))

    def is_valid(self, m) -> bool:
        """m's maps fit the groups of its endpoints, and its laws hold.

        The laws index the groups' tables with the maps' entries, so a map
        of the wrong shape is rejected before they run.
        """
        maps = self.maps(m)
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
        between reads only the target's shape, so the first object of each
        shape stands for all of them.
        """
        if wanted in self.index:
            return True
        return any(self.is_iso(m) for rep in self.reps for m in self.between(wanted, rep))


def _shape_homs(shapes: tuple[int, ...], reps: tuple, between, cap: int) -> tuple[dict, int, bool]:
    """The hom-sets between(reps[s1], reps[s2]) searched, keyed by (s1, s2);
    the number of morphisms between objects, at most cap; and whether there
    were more than cap.

    between runs once per ordered pair of shape ids, so the shape must keep
    everything of an object that between reads.  The morphisms between
    objects are counted row by row, in object order, one row total per
    shape, and the count stops once it passes cap: a cut category holds the
    hom-sets its first cap morphisms lie in, and no others are searched.
    """
    searched: dict[tuple[int, int], tuple] = {}
    row_totals: dict[int, int] = {}
    room = cap
    for s1 in shapes:
        total = row_totals.get(s1)
        if total is None:
            total = 0
            for s2 in shapes:
                found = searched.get((s1, s2))
                if found is None:
                    found = searched[s1, s2] = between(reps[s1], reps[s2])
                total += len(found)
                if total > room:
                    break
            row_totals[s1] = total
        if total > room:
            return searched, cap, True
        room -= total
    return searched, cap - room, False


def _object_level(shapes: tuple[int, ...], homs: dict, count: int) -> Iterator[tuple[int, int, object]]:
    """The first count morphisms between objects, in (i, j) order, as
    (i, j, m) with m in homs[shapes[i], shapes[j]]."""

    def every() -> Iterator[tuple[int, int, object]]:
        rows: dict[int, list] = {}
        for i, s1 in enumerate(shapes):
            row = rows.get(s1)
            if row is None:
                row = rows[s1] = [(j, found) for j, s2 in enumerate(shapes) if (found := homs.get((s1, s2)))]
            for j, found in row:
                for m in found:
                    yield i, j, m

    return islice(every(), count)


def _object_images(source: _Category, target: _Category, round_trip, tally: _Tally) -> tuple[int, ...]:
    """Each source object's image's position in target, -1 when it is not
    enumerated; round_trip(i, object, image) checks the way back.

    The morphism-level checks read the images of the first object of each
    shape only, so each object's image must have the shape of its first
    object's image.
    """
    positions = []
    image_shapes: dict[int, object] = {}
    for i, (o, s) in enumerate(zip(source.objects, source.shapes)):
        image = source.functor(o)
        j = target.index.get(image, -1)
        if j < 0:
            tally.failures.append(f"{source.label} {i}: functor image not among enumerated {target.label}s")
        image_shape = target.shape(image)
        if image_shapes.setdefault(s, image_shape) != image_shape:
            tally.failures.append(f"{source.label} {i}: functor image shape differs within its shape")
        positions.append(j)
        round_trip(i, o, image)
    return tuple(positions)


def _morphism_images(source: _Category, target: _Category, unit_square, tally: _Tally) -> tuple[dict, dict, dict]:
    """Each morphism of source.homs has a valid morphism of target as image,
    and unit_square(m, back, weight) checks the image's way back,
    back = target.functor_on_morphism(image), against m.  Each check stands
    for the n(s1) * n(s2) morphisms of Hom(s1, s2) between objects.

    Returns (images, source_ids, image_ids): each distinct maps tuple of a
    morphism is numbered in source_ids, and of an image in image_ids, and
    images[s1, s2][id of m's maps] is the id of its image's maps.  A cut
    category runs no morphism-level check, and has no images.
    """
    invalid = f"{source.label} morphism: functor image invalid"
    images: dict[tuple[int, int], dict[int, int]] = {}
    source_ids: dict[tuple[Map, ...], int] = {}
    image_ids: dict[tuple[Map, ...], int] = {}
    for (s1, s2), homs in () if source.cut else source.homs.items():
        weight = source.counts[s1] * source.counts[s2]
        found = images[s1, s2] = {}
        for m in homs:
            image = source.functor_on_morphism(m)
            found[source_ids.setdefault(source.maps(m), len(source_ids))] = image_ids.setdefault(
                target.maps(image), len(image_ids)
            )
            tally.check("morphism", target.is_valid(image), invalid, weight)
            unit_square(m, target.functor_on_morphism(image), weight)
    return images, source_ids, image_ids


def _identity_law(source: _Category, target: _Category, tally: _Tally) -> None:
    """The image of the identity of each object is the identity of its image."""
    for o in source.objects:
        image = source.functor_on_morphism(source.identity(o))
        expected = target.identity(source.functor(o))
        preserved = target.components(image) == target.components(expected)
        tally.check("functor_law", preserved, f"functor law: identity {source.label} morphism not preserved")


def _composition_law(source: _Category, numbered: tuple[dict, dict, dict], tally: _Tally) -> None:
    """F(m2 o m1) = F(m2) o F(m1) for every m1 in Hom(i, j) and m2 in Hom(j, k).

    numbered is what _morphism_images returns: images[s1, s2] sends the id
    of each morphism's maps to the id of its image's maps.  The law runs
    once per composable pair of morphisms of Hom(s1, s2) and Hom(s2, s3),
    and stands for the n(s1) * n(s2) * n(s3) pairs between objects with
    their maps.  The composite's maps are looked up among those of
    Hom(s1, s3): a composite with none shows the category is not closed
    under composition, and one whose image is not the composite of the
    images breaks the law.

    Composites are memoized by the ids of their two maps, one memo for the
    morphisms and one for the images, so each distinct pair of maps is
    composed once however many composable pairs carry it.  A composite that
    no morphism has, or no image, gets the id -1, which no hom-set holds.
    """
    images, source_ids, image_ids = numbered
    out_of: dict[int, list] = {}
    for (s2, s3), second in images.items():
        out_of.setdefault(s2, []).append((s3, second))
    missing = f"functor law: composite of {source.label} morphisms not enumerated"
    broken = f"functor law: composition of {source.label} morphisms not preserved"
    n = source.counts
    # the pair of ids (outer, inner) is keyed inner * (number of ids) + outer
    source_maps, image_maps = list(source_ids), list(image_ids)
    ns, ni = len(source_maps), len(image_maps)
    composites: dict[int, int] = {}
    image_composites: dict[int, int] = {}
    passed = 0
    for (s1, s2), first in images.items():
        for s3, second in out_of.get(s2, ()):
            weight = n[s1] * n[s2] * n[s3]
            direct = images.get((s1, s3), {})
            for c1, img1 in first.items():
                c1_key, img1_key = c1 * ns, img1 * ni
                for c2, img2 in second.items():
                    c = composites.get(c1_key + c2)
                    if c is None:
                        c = composites[c1_key + c2] = source_ids.get(_composite(source_maps[c2], source_maps[c1]), -1)
                    img = direct.get(c)
                    if img is None:
                        tally.check("functor_law", False, missing, weight)
                        continue
                    expected = image_composites.get(img1_key + img2)
                    if expected is None:
                        expected = image_composites[img1_key + img2] = image_ids.get(
                            _composite(image_maps[img2], image_maps[img1]), -1
                        )
                    if img == expected:
                        passed += weight
                    else:
                        tally.check("functor_law", False, broken, weight)
    tally["functor_law", True] += passed


def _composite(outer: tuple[Map, ...], inner: tuple[Map, ...]) -> tuple[Map, ...]:
    """The maps of outer o inner, component by component."""
    return tuple(tuple(map(o.__getitem__, i)) for o, i in zip(outer, inner))


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
