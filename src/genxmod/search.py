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
    transport_domain,
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
    inverse_hom,
    kernel,
    klein_four_group,
    quaternion_group,
    restrict_table,
    symmetric_group,
    trivial_group,
)
from .gwa import GwaObject, SelfAction, action_preserved_violations, is_gwa_morphism, kernel_action_violations
from .validation import PreconditionError, StructuralError, holds

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


def _tables_with(lines: _Lines, pinned: Iterable[tuple[int, tuple[int, ...]]]) -> int:
    """The positions of the tables whose k-th line is line for every
    (k, line) in pinned, which holds at least one pair, as a bitmask.

    Looking up the lines a law pins gives the tables that agree with them
    without testing the others.  Two lines pinned at one k leave no table.
    A law that reads nothing but the pinned lines gives every table found
    the same verdict, so it runs once per lookup, on one of them; a law that
    reads any other entry still runs on each table found.
    """
    allowed = -1
    for k, line in pinned:
        allowed &= lines[k].get(line, 0)
        if not allowed:
            return 0
    return allowed


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
        for i in _bits(_tables_with(rows, zip(am, sa))):
            act = tables[i]
            if holds(gxmod_violations(am, act, sa, sb)):
                out.append(GXMod(a, b, alpha, ExtAction(b, a, act)))
    return tuple(out)


def _lifting_parts(base: GXMod, pool: SearchPool) -> Iterator[tuple[GwaObject, Hom, Hom, Table]]:
    """The liftings of base whose middle object X is drawn from the pool, as
    (X, phi, omega, act), act the action x . a = omega(x) . a of X on A.

    Of the laws of a lifting (A, X, phi) over omega, only the equivariance of
    phi, phi(x . a) = ^x phi(a), reads the self-action of X: the
    factorization omega o phi = alpha, the homomorphism laws of phi and omega
    and the Peiffer condition alpha(a) . a1 = ^a a1 (with x acting through
    omega) read only the group of X.  So each group of the pool collects once
    the pairs (omega, phi) passing the factorization and Peiffer.
    Equivariance pins column phi(a) of the self-action of X to
    (phi(x . a) for each x), so it is fixed on X x im(phi), and each pair
    looks up the self-actions with those columns (_tables_with); when two a
    with one image pin different columns, none has them.  The law reads
    nothing but the pinned columns, so every self-action found gets the same
    verdict: the law runs once per pair, on the first self-action found, and
    the pair joins the buckets of all of them or of none.  Each self-action
    then yields the parts of its bucket.  The parts come out by group, then
    self-action, then omega, then phi.

    The homomorphism laws are not run: phi and omega come from all_homs,
    which returns only maps that pass them.  Peiffer is run, as it follows
    from the factorization only for a valid base, and base is not validated
    here.

    A covering <f, g> of a base by (A~, B~, alpha~) is the same data as the
    lifting (B~, phi = alpha~, omega = g) of the base transported along f
    onto A~ (crossed.transport_domain), whose alpha is alpha o f and whose
    action is b . a = f^-1(b . f(a)); A~ is A with its self-action pulled
    back through f.  Its factorization g o alpha~ = alpha o f is the
    covering's square, its induced action f^-1(g(b) . f(a)) is the action
    the covering forces on A~, and Peiffer and equivariance are the same
    laws.  So enumerate_coverings runs this search once per automorphism f.
    """
    a_group, b_group = base.A.group, base.B.group
    sa = base.A.self_action.act
    for x_group in pool.groups:
        x_gwas = gwa_objects_for(x_group)
        tables = _action_tables(x_group, x_group)
        columns = _action_table_lines(x_group, x_group, True)
        buckets: list[list] = [[] for _ in x_gwas]
        for omega in all_homs(x_group, b_group):
            om = omega.map
            act = induced_action(base, om)
            for phi in all_homs(a_group, x_group):
                pm = phi.map
                if holds(factorization_violations(base, pm, om)) and holds(peiffer_violations(pm, act, sa)):
                    pinned = ((pm[a], tuple([pm[row[a]] for row in act])) for a in range(len(pm)))
                    found = _tables_with(columns, pinned)
                    if found and holds(equivariance_violations(pm, act, tables[_lowest_bit(found)])):
                        for i in _bits(found):
                            buckets[i].append((phi, omega, act))
        for x_gwa, bucket in zip(x_gwas, buckets):
            for phi, omega, act in bucket:
                yield x_gwa, phi, omega, act


def enumerate_liftings(base: GXMod, pool: SearchPool) -> tuple[Lifting, ...]:
    """All liftings of base whose middle object is drawn from the pool, by
    group, then self-action, then omega, then phi (_lifting_parts)."""
    return tuple(Lifting(base, x, phi, omega) for x, phi, omega, _ in _lifting_parts(base, pool))


def _pullback_self_action(a: GwaObject, f_map: tuple[int, ...], f_inv: tuple[int, ...]) -> SelfAction:
    """The self-action ^x y = f^-1(^f(x) f(y)) of a's group, pulled back
    through the automorphism f_map with inverse f_inv."""
    return SelfAction(a.group, restrict_table(a.self_action.act, f_map, f_map, f_inv, "pullback through f"))


def enumerate_coverings(base: GXMod, pool: SearchPool) -> tuple[Covering, ...]:
    """All coverings of base with the top-right group drawn from the pool.

    The covering's A-component A~ is the group of base.A with its
    self-action pulled back through f, for each automorphism f of it; the
    action of B~ on A~ is forced by the morphism conditions.  The coverings
    over f are the liftings of base transported along f onto A~
    (_lifting_parts), so they come out by f, then group, then self-action,
    then g, then alpha~.

    The laws of a covering that no lifting law stands for hold by
    construction, so they are not run: f is an automorphism; the forced
    action makes f(b . a) = g(b) . f(a); and f preserves the self-action of
    A~, pulled back through f.
    """
    a_group = base.A.group
    out: list[Covering] = []
    for f in automorphisms(a_group):
        a_tilde = GwaObject(a_group, _pullback_self_action(base.A, f.map, inverse_hom(f).map))
        moved, _ = transport_domain(base, f, a_tilde)
        out.extend(
            Covering(GXMod(a_tilde, b_gwa, alpha_t, ExtAction(b_gwa, a_tilde, act)), base, f, g)
            for b_gwa, alpha_t, g, act in _lifting_parts(moved, pool)
        )
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
    Aut(g), and h is a homomorphism, so the law at x1 and x2 gives it at
    x1 * x2: the bitmask is exact on a generating sequence gens, and the
    caller runs no law of its own.
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
    looks up the self-actions it preserves (_preserving_self_actions, exact
    on the generators of g), and each pair joins the buckets of the
    self-actions both its maps preserve.  Each self-action runs the kernel
    action law on the pairs of its bucket, once per kernel pair.  The
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
        kernel_cond: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
        for s, t, key in bucket:
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


def verify_equivalence(
    base: GXMod, pool: SearchPool, max_morphisms: int = DEFAULT_MAX_MORPHISMS
) -> EquivalenceReport:
    """Enumerate both categories over the pool and check the equivalence explicitly.

    Each side is a _Category record: its objects, the quotient of its
    morphisms by object shape, and the functor out of it.  One check path
    runs from liftings to coverings and from coverings to liftings: object
    images, with the identity law on each object in the same pass
    (_object_images), morphism images, the composition law, and the search
    for the canonical liftings (natural, image, self) and the identity
    covering, each up to isomorphism, in one loop over both sides.

    An object's shape is the object without the self-action of its varying
    group (X of a lifting, B~ of a covering's total), which no morphism law
    reads.  So two pairs of objects with the same shapes have hom-sets with
    the same maps, and every morphism-level check reads only the shapes of
    the endpoints and the maps.  Each hom-set is searched once per ordered
    pair of shapes, on their first objects (_shape_homs), and each
    morphism-level check runs once per morphism of those hom-sets,
    counting for the n(s1) * n(s2) morphisms between objects of shapes s1
    and s2 (n(s) objects have shape s); a composable pair s1 -> s2 -> s3
    counts for n(s1) * n(s2) * n(s3) pairs.  A morphism's image is valid
    when its maps are listed in the target hom-set between its endpoints'
    shapes, and the laws run only on an image that is not listed
    (_morphism_images).  The composition law runs on the class ids of
    (maps, image maps) pairs, composing each distinct pair of maps once
    and deciding each composable pair by one lookup and one membership
    test (_composition_law).  This rests on the functors
    sending objects of one shape to objects of one shape, which is checked
    object by object, and morphisms with the same maps between objects of
    the same shapes to morphisms with the same maps.  A category with more
    than max_morphisms morphisms between objects is cut: it lists its first
    max_morphisms, and no morphism-level check runs on it.

    The covering side's morphism-level checks run on its f = id slice, once
    per Aut(A)-orbit of shapes.  Each covering c is isomorphic to its
    round-trip image back(c), which lies over f = id, through the witness
    <f, 1>, so Hom(s1, s2) is the transport of the slice hom-set
    Hom(b s1, b s2), where b(s) is the shape of back of the first object of
    s.  The morphism images and the composition law then run on the hom-sets
    between slice shapes r, each r standing for the N(r) objects whose shape
    s has b(s) = r, and every count comes out as per shape.  This rests on
    three premises, each checked on the shapes off the slice, in time linear
    in their shape-level morphisms:
    - P1: every witness <f, 1> is a valid isomorphism, and each b(s) is a
      covering shape with b(b(s)) = b(s) (_covering_slice);
    - P2: each hom-set off the slice is the transport of its slice partner:
      as long, with the v of the partner's morphism at each position and
      u = f2^-1 o f1 (_covering_slice);
    - P3: each morphism off the slice has the image maps, the image endpoint
      shapes and the way-back maps of its partner (_morphism_images).
    Under them a pair of morphisms off the slice passes each check iff its
    partner does: the slice's naturality squares give the slice morphisms
    u = f2^-1 o f1 too.  When a premise fails, when the covering category is
    cut, or when the run on the slice records any failure, the checks run per
    shape, so a failing report has the messages, counts and order of a run
    per shape.  Every shape of a base whose A has one automorphism is on its
    slice, and the lifting side is always checked per shape.

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
    # must keep that self-action.  The shape holds the raw maps, not their
    # Hom wrappers, and leaves out the base: every object and image of one
    # check shares it, and each Hom's groups are those the shape holds, so
    # hashing a shape walks no table twice.
    liftings = _Category(
        "lifting", enumerate_liftings(base, pool), lifting_morphisms_between, max_morphisms,
        shape=lambda o: (o.X.group, o.phi.map, o.omega.map),
        varying=lambda o: o.X.self_action.act,
        components=lambda m: (m.f,),
        groups=lambda o: (o.X.group,),
        identity=identity_lifting_morphism,
        law=lifting_morphism_violations,
        functor=lifting_to_covering,
        functor_on_morphism=functor_on_lifting_morphism,
    )
    coverings = _Category(
        "covering", enumerate_coverings(base, pool), covering_morphisms_between, max_morphisms,
        shape=lambda o: (o.total.A, o.total.B.group, o.total.alpha.map, o.total.action.act, o.f.map, o.g.map),
        varying=lambda o: o.total.B.self_action.act,
        components=lambda m: (m.f, m.g),
        groups=lambda o: (o.total.A.group, o.total.B.group),
        identity=identity_covering_morphism,
        law=covering_morphism_violations,
        functor=covering_to_lifting,
        functor_on_morphism=functor_on_covering_morphism,
    )

    # canonical members the pool must support, each in its own category; the
    # pool must hold its varying group, X or B~, the last of its groups
    for label, build, category in (
        ("natural lifting", natural_lifting, liftings),
        ("image lifting", image_lifting, liftings),
        ("self lifting", self_lifting, liftings),
        ("identity covering", identity_covering, coverings),
    ):
        wanted = _try(build, base)
        if wanted is None:
            incomplete.append(f"{label}: construction not available")
        elif (order := category.groups(wanted)[-1].order) > pool.order_bound:
            incomplete.append(f"{label}: requires a group of order {order} beyond bound {pool.order_bound}")
        elif not category.has_up_to_iso(wanted):
            incomplete.append(f"{label}: not found in the enumerated pool")

    inexact: list[int] = []
    witnesses: list[CoveringMorphism] = []
    # the witness's verdict, keyed by the shapes of the covering and of its
    # round-trip image: the maps (f, 1) are read off the covering's shape
    witness_verdicts: dict[tuple, bool] = {}
    # the shape id of the round-trip image of each covering shape's first object
    backs: dict[int, int] = {}

    def lifting_round_trip(i: int, lift: Lifting, cov: Covering) -> None:
        if covering_to_lifting(cov) != lift:
            inexact.append(i)
            tally.failures.append(f"lifting {i}: round trip is not table-identical")

    def covering_round_trip(i: int, cov: Covering, lift: Lifting) -> None:
        back = lifting_to_covering(lift)
        witness = CoveringMorphism(cov, back, cov.f, identity_hom(cov.total.B.group))
        key = coverings.shapes[i], coverings.shape(back)
        backs.setdefault(key[0], coverings.shape_ids.get(key[1], -1))
        verdict = witness_verdicts.get(key)
        if verdict is None:
            verdict = witness_verdicts[key] = coverings.is_valid(witness) and coverings.is_iso(witness)
        if verdict:
            witnesses.append(witness)
        else:
            tally.failures.append(f"covering {i}: round-trip witness <f, 1> is not an isomorphism")

    # each unit square gives the (kind, verdict, message) of its check
    def lifting_unit_square(m: LiftingMorphism, back: LiftingMorphism) -> tuple[str, bool, str]:
        # the endpoints of m are the first objects of their shapes; each
        # other object's own round trip is the object check above
        exact = back.f == m.f and back.source == m.source and back.target == m.target
        return "morphism", exact, "lifting morphism: round trip not exact"

    def covering_unit_square(m: CoveringMorphism, back: CoveringMorphism) -> tuple[str, bool, str]:
        # naturality of the covering-side unit: <f2, 1> o m = F(G(m)) o <f1, 1>
        lhs_f = tuple(m.target.f.map[m.f.map[a]] for a in range(m.source.total.A.order))
        natural = lhs_f == m.source.f.map and m.g.map == back.g.map
        return "naturality", natural, "covering morphism: naturality square broken"

    l2c = _object_images(liftings, coverings, lifting_round_trip, tally)
    c2l = _object_images(coverings, liftings, covering_round_trip, tally)
    # the covering side's morphism-level checks run on the f = id slice
    # when its premises hold, and again per shape when any of them fails;
    # the phases after the lifting side's images keep tallies of their own,
    # added in the order of the phases, so a failing report lists the
    # messages of a run per shape in their order
    witnessed = len(witnesses) == len(coverings.objects) and not coverings.cut
    slice_of = _covering_slice(coverings, backs) if witnessed else None
    lifting_images = _morphism_images(liftings, coverings, l2c, lifting_unit_square, tally)
    covering_checks, lifting_law, covering_law = _Tally(), _Tally(), _Tally()
    covering_images = _morphism_images(coverings, liftings, c2l, covering_unit_square, covering_checks, slice_of)
    _composition_law(liftings, lifting_images, lifting_law)
    _composition_law(coverings, covering_images, covering_law, slice_of)
    if slice_of is not None and (covering_checks.failures or covering_law.failures):
        del covering_images
        covering_checks, covering_law = _Tally(), _Tally()
        covering_images = _morphism_images(coverings, liftings, c2l, covering_unit_square, covering_checks)
        _composition_law(coverings, covering_images, covering_law)
    for phase in (covering_checks, lifting_law, covering_law):
        tally.update(phase)
        tally.failures += phase.failures

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
    and law read, varying the self-action the shape leaves out, components
    gives a morphism's maps, (f) or (f, g), groups an object's groups those
    maps run between, its varying group (X or B~) last, law their violations, and identity an object's
    identity morphism.  shapes numbers each object's shape, in object order
    (shape_ids), and positions gives each object's position by its shape id
    and varying self-action (find); firsts and reps hold the position and
    the object of the first object of each shape, and counts the number of
    objects with it.  homs holds between(reps[s1], reps[s2]) keyed by
    (s1, s2), count the number of morphisms between objects it lists, and
    cut says there were more than the cap (_shape_homs).  listed keeps the
    set of maps of each hom-set that lists has been asked about, until
    _morphism_images is done with it.

    homs holds every ordered pair of shapes, on the covering side too, where
    the checks run on the f = id slice: P2 and P3 (verify_equivalence)
    compare each hom-set off the slice with its slice partner, and the run
    per shape that a failure falls back to reads them all.
    """

    def __init__(
        self, label: str, objects: tuple, between, cap: int, *,
        shape, varying, components, groups, identity, law, functor, functor_on_morphism,
    ) -> None:
        self.label = label
        self.objects = objects
        self.between = between
        self.shape = shape
        self.varying = varying
        self.components = components
        self.groups = groups
        self.identity = identity
        self.law = law
        self.functor = functor
        self.functor_on_morphism = functor_on_morphism
        self.shape_ids: dict = {}
        self.shapes = tuple(self.shape_ids.setdefault(shape(o), len(self.shape_ids)) for o in objects)
        self.positions = {(s, varying(o)): i for i, (s, o) in enumerate(zip(self.shapes, objects))}
        firsts: dict[int, int] = {}
        for i, s in enumerate(self.shapes):
            firsts.setdefault(s, i)
        self.firsts = tuple(firsts.values())
        self.reps = tuple(objects[i] for i in self.firsts)
        self.counts = tuple(Counter(self.shapes).values())
        self.homs, self.count, self.cut = _shape_homs(self.shapes, self.reps, between, cap)
        self.listed: dict[tuple[int, int], set[tuple[Map, ...]]] = {}

    def find(self, o, shape=None) -> int:
        """o's position among the objects, -1 when it is none of them; shape
        is self.shape(o), when the caller has it.

        The position is looked up by o's shape id and varying self-action,
        and the object there is compared with o: a key that is too coarse
        can only miss, never find another object.  No whole object is
        hashed.
        """
        key = self.shape_ids.get(self.shape(o) if shape is None else shape), self.varying(o)
        i = self.positions.get(key, -1)
        return i if i >= 0 and self.objects[i] == o else -1

    def maps(self, m) -> tuple[Map, ...]:
        return tuple(h.map for h in self.components(m))

    def lists(self, ends: tuple[int, int], maps: tuple[Map, ...]) -> bool:
        """Some morphism of homs[ends] has these maps; no hom-set is keyed
        by a shape id of -1, so an end that is no object's shape lists none.

        A hom-set holds every map that passes the laws between objects of
        those shapes and fits their groups, and no other, so maps listed
        here are valid between any objects of those shapes.
        """
        listed = self.listed.get(ends)
        if listed is None:
            listed = self.listed[ends] = {self.maps(x) for x in self.homs.get(ends, ())}
        return maps in listed

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
        if self.find(wanted) >= 0:
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


def _covering_slice(coverings: _Category, backs: dict[int, int]) -> tuple[int, ...] | None:
    """The slice shape b(s) of each covering shape s, backs[s] being the
    shape id of the round-trip image of its first object, when P1 and P2
    (verify_equivalence) hold and some shape lies off the slice; else None.
    The caller has checked that every witness is an isomorphism and that
    the category is not cut, so each f is a bijection.
    """
    slice_of = tuple(backs.get(s, -1) for s in range(len(coverings.reps)))
    if any(r < 0 or slice_of[r] != r for r in slice_of):
        return None
    if slice_of == tuple(range(len(slice_of))):
        return None
    for (s1, s2), homs in coverings.homs.items():
        ends = slice_of[s1], slice_of[s2]
        if ends == (s1, s2):
            continue
        partner = coverings.homs.get(ends)
        if partner is None or len(partner) != len(homs):
            return None
        f1, f2 = coverings.reps[s1].f.map, coverings.reps[s2].f.map
        u = tuple(f2.index(x) for x in f1)
        if any(m.f.map != u or m.g.map != p.g.map for m, p in zip(homs, partner)):
            return None
    return slice_of


def _orbit_weights(counts: tuple[int, ...], slice_of: tuple[int, ...] | None) -> tuple[int, ...]:
    """N(r), the number of objects whose shape s has slice shape
    slice_of[s] = r, for each shape r; 0 off the slice.  Without slice_of
    each shape is its own slice shape, and N = counts."""
    if slice_of is None:
        return counts
    weights = [0] * len(counts)
    for s, r in enumerate(slice_of):
        weights[r] += counts[s]
    return tuple(weights)


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
    object's image.  The same pass checks the identity law on every object:
    the image of its identity morphism is the identity of its image.  The
    law stays per object, not per shape: a functor can break it on one
    object of a shape and on no other.
    """
    identity_broken = f"functor law: identity {source.label} morphism not preserved"
    positions = []
    image_shapes: dict[int, object] = {}
    for i, (o, s) in enumerate(zip(source.objects, source.shapes)):
        image = source.functor(o)
        image_shape = target.shape(image)
        j = target.find(image, image_shape)
        if j < 0:
            tally.failures.append(f"{source.label} {i}: functor image not among enumerated {target.label}s")
        if image_shapes.setdefault(s, image_shape) != image_shape:
            tally.failures.append(f"{source.label} {i}: functor image shape differs within its shape")
        positions.append(j)
        round_trip(i, o, image)
        identity_image = source.functor_on_morphism(source.identity(o))
        preserved = target.components(identity_image) == target.components(target.identity(image))
        tally.check("functor_law", preserved, identity_broken)
    return tuple(positions)


def _morphism_images(
    source: _Category, target: _Category, image_positions: tuple[int, ...], unit_square, tally: _Tally,
    slice_of: tuple[int, ...] | None = None,
) -> tuple[dict, dict, dict, dict]:
    """Each morphism of source.homs has as image a valid morphism of target
    whose maps are among those of the target hom-set between the shapes of
    the image's endpoints, and unit_square(m, back) decides the check of
    the image's way back, back = target.functor_on_morphism(image), against m.
    Each check stands for the n(s1) * n(s2) morphisms of Hom(s1, s2) between
    objects.  image_positions gives each source object's image's position
    in target, as _object_images returns them.

    With slice_of (_covering_slice), the checks run on the hom-sets between
    slice shapes only, each standing for N(r1) * N(r2) morphisms
    (_orbit_weights), and each morphism off the slice is checked against
    its partner, the morphism at its position in Hom(b s1, b s2) (P3): its
    image has the partner image's maps and endpoint shapes, and its way back
    the partner's maps.  A morphism that fails P3 records a failure, so the
    caller runs the checks again per shape.

    Validity is decided by membership: the target hom-set between two
    shapes holds exactly the maps that pass every law between objects of
    those shapes (target.lists), so a listed image is valid, and
    target.is_valid runs only on an image that is not listed, to tell an
    invalid image from a valid one that is not enumerated.  An endpoint that
    is not an enumerated object has no shape, so no image with it is
    listed.  A cut target lists only some of its morphisms, so there every
    image is checked for validity alone.

    Returns (images, classes, source_ids, image_ids): each distinct maps
    tuple of a morphism is numbered in source_ids, and of an image in
    image_ids; each distinct pair (id of m's maps, id of its image's maps)
    is numbered in classes, and images[s1, s2] sends the class of each
    morphism of Hom(s1, s2), in hom-set order, to the id of its maps.  A
    cut category runs no morphism-level check, and has no images.
    """
    invalid = f"{source.label} morphism: functor image invalid"
    unlisted = f"{source.label} morphism: functor image not among enumerated {target.label} morphisms"
    images: dict[tuple[int, int], dict[int, int]] = {}
    classes: dict[tuple[int, int], int] = {}
    source_ids: dict[tuple[Map, ...], int] = {}
    image_ids: dict[tuple[Map, ...], int] = {}
    # the endpoints of each morphism of source.homs are the first objects of
    # their shapes, and the functor keeps each object's image on the object:
    # an image endpoint that is the kept image of the first object of shape
    # s has the shape of the position _object_images found for it, and any
    # other endpoint is looked up
    kept = tuple(source.functor(o) for o in source.reps)
    kept_shapes = tuple(target.shapes[j] if (j := image_positions[i]) >= 0 else -1 for i in source.firsts)

    def shape_id(end, s: int) -> int:
        if end is kept[s]:
            return kept_shapes[s]
        j = target.find(end)
        return target.shapes[j] if j >= 0 else -1

    def image_of(m, s1: int, s2: int) -> tuple:
        """m's image, its maps, the shapes of its endpoints and its way back."""
        image = source.functor_on_morphism(m)
        ends = shape_id(image.source, s1), shape_id(image.target, s2)
        return image, target.maps(image), ends, target.functor_on_morphism(image)

    weights = _orbit_weights(source.counts, slice_of)
    # (image maps, image endpoint shapes, maps of the way back) of each
    # morphism of each slice hom-set, for P3
    seen: dict[tuple[int, int], list] = {}
    for (s1, s2), homs in () if source.cut else source.homs.items():
        weight = weights[s1] * weights[s2]
        if not weight:
            continue
        found = images[s1, s2] = {}
        seen_here = seen[s1, s2] = []
        for m in homs:
            image, maps, ends, back = image_of(m, s1, s2)
            c = source_ids.setdefault(source.maps(m), len(source_ids))
            found[classes.setdefault((c, image_ids.setdefault(maps, len(image_ids))), len(classes))] = c
            if target.cut:
                tally.check("morphism", target.is_valid(image), invalid, weight)
            else:
                listed = target.lists(ends, maps)
                tally.check("morphism", listed, unlisted if listed or target.is_valid(image) else invalid, weight)
            tally.check(*unit_square(m, back), weight)
            if slice_of is not None:
                seen_here.append((maps, ends, source.maps(back)))

    def like_partners(s1: int, s2: int, homs: tuple) -> bool:
        partners = seen[slice_of[s1], slice_of[s2]]
        for m, expected in zip(homs, partners):
            _, maps, ends, back = image_of(m, s1, s2)
            if (maps, ends, source.maps(back)) != expected:
                return False
        return True

    # P3 on the hom-sets off the slice, none without slice_of
    if slice_of is not None and not all(
        like_partners(s1, s2, homs) for (s1, s2), homs in source.homs.items() if not weights[s1] * weights[s2]
    ):
        tally.failures.append(f"{source.label} morphism: image differs from its slice partner's")
    # no later check looks an image up, and the sets would outlive the
    # composition law's memos
    target.listed.clear()
    return images, classes, source_ids, image_ids


def _composition_law(
    source: _Category, numbered: tuple[dict, dict, dict, dict], tally: _Tally,
    slice_of: tuple[int, ...] | None = None,
) -> None:
    """F(m2 o m1) = F(m2) o F(m1) for every m1 in Hom(i, j) and m2 in Hom(j, k).

    numbered is what _morphism_images returns, with the same slice_of:
    images[s1, s2] holds the class, a numbered pair (maps, image maps), of
    each morphism of Hom(s1, s2).  The law runs once per composable pair of
    morphisms of Hom(s1, s2) and Hom(s2, s3), and stands for the
    n(s1) * n(s2) * n(s3) pairs between objects with their maps, or for
    N(s1) * N(s2) * N(s3) with slice_of (_orbit_weights).  A pair passes
    iff the class of (composite of the maps, composite of the images) is
    among those of Hom(s1, s3): some morphism there has the composite's
    maps, and its image is the composite of the images.  A failing pair is told apart
    only then: a composite whose maps no morphism of Hom(s1, s3) has shows
    the category is not closed under composition, and any other failure
    breaks the law.

    The composite class is memoized by the two classes for the rest of the
    check, so each pair passes or fails with one lookup and one membership
    test.  The composites of the images are memoized by the ids of their
    maps, so each distinct pair of maps, of the morphisms or of the images,
    is composed once however many composable pairs carry it while the
    image is a function of the maps.  A composite that no morphism has, or
    no image, or whose pair is no class, gets -1, which no hom-set holds.
    """
    images, classes, source_ids, image_ids = numbered
    out_of: dict[int, list] = {}
    for (s2, s3), second in images.items():
        out_of.setdefault(s2, []).append((s3, second))
    missing = f"functor law: composite of {source.label} morphisms not enumerated"
    broken = f"functor law: composition of {source.label} morphisms not preserved"
    n = _orbit_weights(source.counts, slice_of)
    pairs, source_maps, image_maps = list(classes), list(source_ids), list(image_ids)
    # a pair of classes (outer, inner) is keyed inner * (number of classes)
    # + outer, and a pair of image ids so too
    nk, ni = len(pairs), len(image_maps)
    composites: dict[int, int] = {}
    image_composites: dict[int, int] = {}

    def composite_maps(k1: int, k2: int) -> int:
        return source_ids.get(_composite(source_maps[pairs[k2][0]], source_maps[pairs[k1][0]]), -1)

    def composite_class(k1: int, k2: int) -> int:
        c = composite_maps(k1, k2)
        if c < 0:
            return -1
        img_key = pairs[k1][1] * ni + pairs[k2][1]
        img = image_composites.get(img_key)
        if img is None:
            img = image_composites[img_key] = image_ids.get(
                _composite(image_maps[pairs[k2][1]], image_maps[pairs[k1][1]]), -1
            )
        return classes.get((c, img), -1)

    passed = 0
    for (s1, s2), first in images.items():
        for s3, second in out_of.get(s2, ()):
            weight = n[s1] * n[s2] * n[s3]
            direct = images.get((s1, s3), {})
            for k1 in first:
                k1_key = k1 * nk
                for k2 in second:
                    k = composites.get(k1_key + k2)
                    if k is None:
                        k = composites[k1_key + k2] = composite_class(k1, k2)
                    if k in direct:
                        passed += weight
                    else:
                        closed = composite_maps(k1, k2) in direct.values()
                        tally.check("functor_law", False, broken if closed else missing, weight)
    tally["functor_law", True] += passed


def _composite(outer: tuple[Map, ...], inner: tuple[Map, ...]) -> tuple[Map, ...]:
    """The maps of outer o inner, component by component."""
    return tuple(tuple(map(o.__getitem__, i)) for o, i in zip(outer, inner))


def _lowest_bit(mask: int) -> int:
    """The position of the lowest set bit of mask, which is not 0."""
    return (mask & -mask).bit_length() - 1


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
