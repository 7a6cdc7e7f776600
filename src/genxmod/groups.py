"""Finite groups as dense Cayley tables, homomorphisms between them, and subgroups.

Elements are integer indices 0..order-1.  All values are immutable after
construction (tuples throughout), so instances are hashable, structurally
comparable, and safe to share across threads.  Orders stay small (<= 16), so
every check is a direct exhaustive loop.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, wraps

from .validation import (
    DEFAULT_MAX_VIOLATIONS,
    RawViolation,
    StructuralError,
    ValidationReport,
    report,
    structure,
)

Table = tuple[tuple[int, ...], ...]
Map = tuple[int, ...]


def _freeze(rows) -> Table:
    return tuple(tuple(map(int, row)) for row in rows)


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table.

    op[g][h] is the index of g*h, identity the index of the neutral element
    and inv[g] the index of the inverse of g.  Constructors in this module
    always place the identity at index 0.

    A plain frozen dataclass, not a @structure: a slotted dataclass takes no
    weak reference before Python 3.11's weakref_slot, the identity-keyed
    caches are tested by a weak reference to a table, and a run builds only
    some fifty tables.
    """

    order: int
    op: Table
    identity: int
    inv: tuple[int, ...]
    name: str = field(default="", compare=False)

    def conjugate(self, g: int, h: int) -> int:
        """g * h * g^-1."""
        return self.op[self.op[g][h]][self.inv[g]]

    def element_order(self, g: int) -> int:
        x, n = g, 1
        while x != self.identity:
            x = self.op[x][g]
            n += 1
        return n

    def __repr__(self) -> str:
        return f"GroupTable({self.name or 'order ' + str(self.order)})"


def _cached_per_name(fn):
    """An lru_cache of fn keyed by the names of its GroupTable arguments as
    well as by the arguments.

    GroupTables compare by their tables alone, so a plain lru_cache would hand
    every caller the Homs and tables built for the first equal table it saw,
    with that table's name.  The wrapper has the cache's cache_info() and
    cache_clear().
    """
    cached = lru_cache(maxsize=None)(lambda names, *args: fn(*args))

    @wraps(fn)
    def per_name(*args):
        return cached(tuple([a.name for a in args if isinstance(a, GroupTable)]), *args)

    per_name.cache_info, per_name.cache_clear = cached.cache_info, cached.cache_clear
    return per_name


def _cached_per_identity(fn, maxsize=None):
    """An lru_cache of the one-argument fn keyed by the identity of its argument.

    Structures compare by their tables alone, and hashing a nested one walks
    every table; keyed by id(), an equal structure with another name gets its
    own result, and a lookup hashes one int.  A miss reads its argument from
    a per-thread slot set just before the lookup, and its entry holds the
    argument, so the argument's id cannot pass to another object while the
    entry lives.  maxsize bounds the cache as lru_cache's does.  The wrapper
    has the cache's cache_info() and cache_clear().
    """
    pending = threading.local()

    @lru_cache(maxsize=maxsize)
    def by_id(key):
        arg = pending.arg
        return arg, fn(arg)

    @wraps(fn)
    def per_identity(arg):
        pending.arg = arg
        return by_id(id(arg))[1]

    per_identity.cache_info, per_identity.cache_clear = by_id.cache_info, by_id.cache_clear
    return per_identity


def group_from_op(op, name: str = "") -> GroupTable:
    """Build a GroupTable from a raw table, deriving identity and inverses.

    Raises StructuralError when no identity exists or some element has no
    two-sided inverse; associativity is *not* checked here (see
    validate_group).
    """
    table = _freeze(op)
    n = len(table)
    if any(len(row) != n for row in table):
        raise StructuralError("op table is not square")
    if table and (min(map(min, table)) < 0 or max(map(max, table)) >= n):
        raise StructuralError("op table entry out of range")
    identity = None
    for e in range(n):
        if all(table[e][g] == g == table[g][e] for g in range(n)):
            identity = e
            break
    if identity is None:
        raise StructuralError("no identity element in op table")
    inv = []
    for g in range(n):
        gi = None
        for h in range(n):
            if table[g][h] == identity == table[h][g]:
                gi = h
                break
        if gi is None:
            raise StructuralError(f"element {g} has no inverse")
        inv.append(gi)
    return GroupTable(n, table, identity, tuple(inv), name)


def validate_group(t: GroupTable, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Check every group axiom, returning a witnessed report.

    Malformed tables (wrong dimensions, out-of-range indices) raise
    StructuralError; the report only ever contains axiom failures.
    """
    n = t.order
    if n <= 0:
        raise StructuralError("order must be positive")
    if len(t.op) != n or any(len(row) != n for row in t.op):
        raise StructuralError("op table dimensions do not match order")
    if any(x < 0 or x >= n for row in t.op for x in row):
        raise StructuralError("op table entry out of range")
    if len(t.inv) != n or any(x < 0 or x >= n for x in t.inv):
        raise StructuralError("inv table malformed")
    if not (0 <= t.identity < n):
        raise StructuralError("identity index out of range")

    return report(t.name or "group", group_violations(t), max_violations)


def group_violations(t: GroupTable) -> Iterator[RawViolation]:
    """The identity, inverse and associativity laws of t's tables."""
    n, op, e = t.order, t.op, t.identity
    for g in range(n):
        if op[e][g] != g or op[g][e] != g:
            yield "identity_law", (g,), "op({1},{0})={2}, op({0},{1})={3}, expected {0}", (e, op[e][g], op[g][e])
    for g in range(n):
        gi = t.inv[g]
        if op[g][gi] != e or op[gi][g] != e:
            values = (gi, op[g][gi], op[gi][g], e)
            yield "inverse_law", (g,), "op({0},{1})={2}, op({1},{0})={3}, expected {4}", values
    for a in range(n):
        for b in range(n):
            ab = op[a][b]
            row_a = op[a]
            for c in range(n):
                if op[ab][c] != row_a[op[b][c]]:
                    template = "op(op({0},{1}),{2})={3} != op({0},op({1},{2}))={4}"
                    yield "associativity", (a, b, c), template, (op[ab][c], row_a[op[b][c]])


# ---------------------------------------------------------------------------
# standard groups


def trivial_group() -> GroupTable:
    return GroupTable(1, ((0,),), 0, (0,), "1")


def cyclic_group(n: int, name: str = "") -> GroupTable:
    op = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((n - i) % n for i in range(n))
    return GroupTable(n, op, 0, inv, name or f"Z{n}")


def direct_product(a: GroupTable, b: GroupTable, name: str = "") -> GroupTable:
    """Direct product with indices packed as i*|b| + j; identity stays at 0."""
    nb = b.order
    n = a.order * nb
    op = [[0] * n for _ in range(n)]
    for i1 in range(a.order):
        for j1 in range(nb):
            x = i1 * nb + j1
            for i2 in range(a.order):
                for j2 in range(nb):
                    op[x][i2 * nb + j2] = a.op[i1][i2] * nb + b.op[j1][j2]
    inv = tuple(a.inv[x // nb] * nb + b.inv[x % nb] for x in range(n))
    return GroupTable(n, _freeze(op), 0, inv, name or f"{a.name}x{b.name}")


def _perm_group(perms, name: str) -> GroupTable:
    """perms in sorted order, p * q applying q first; group_from_op finds the
    identity and the inverses."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return group_from_op([[index[tuple(p[k] for k in q)] for q in perms] for p in perms], name)


def symmetric_group(n: int) -> GroupTable:
    """S_n on points 0..n-1; composition applies the right factor first.

    The identity permutation is lexicographically least, so it lands at
    index 0.
    """
    return _perm_group([tuple(p) for p in itertools.permutations(range(n))], f"S{n}")


def klein_four_group() -> GroupTable:
    return direct_product(cyclic_group(2), cyclic_group(2), "V4")


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group of order 2n as permutations of the n-gon's vertices,
    i -> i + k and i -> k - i; for n <= 2 some of these coincide."""
    perms = {tuple((s * i + k) % n for i in range(n)) for s in (1, -1) for k in range(n)}
    return _perm_group(perms, f"D{n}")


def quaternion_group() -> GroupTable:
    """Q8 with elements ordered 1, -1, i, -i, j, -j, k, -k."""

    def unpack(x):  # (axis 0..3 for 1,i,j,k ; sign)
        return x // 2, x % 2

    def pack(axis, sign):
        return axis * 2 + sign

    # axis multiplication table for 1,i,j,k with result sign
    mul = {}
    names = range(4)
    for a in names:
        mul[(0, a)] = (a, 0)
        mul[(a, 0)] = (a, 0)
    for a in (1, 2, 3):
        mul[(a, a)] = (0, 1)
    mul[(1, 2)] = (3, 0)
    mul[(2, 3)] = (1, 0)
    mul[(3, 1)] = (2, 0)
    mul[(2, 1)] = (3, 1)
    mul[(3, 2)] = (1, 1)
    mul[(1, 3)] = (2, 1)
    op = [[0] * 8 for _ in range(8)]
    for x in range(8):
        ax, sx = unpack(x)
        for y in range(8):
            ay, sy = unpack(y)
            az, extra = mul[(ax, ay)]
            op[x][y] = pack(az, (sx + sy + extra) % 2)
    return group_from_op(op, "Q8")


# ---------------------------------------------------------------------------
# homomorphisms


@structure
class Hom:
    """A map between two GroupTables, given elementwise.

    Use validate_hom to check the homomorphism property and check_hom_shape
    to check that the map fits the two groups.
    """

    source: GroupTable
    target: GroupTable
    map: tuple[int, ...]
    name: str = field(default="", compare=False)

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and len(set(self.map)) == self.source.order

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    def __repr__(self) -> str:
        return f"Hom({self.source.name}->{self.target.name}, {list(self.map)})"


def check_hom_shape(*homs: Hom) -> None:
    """Raise StructuralError unless each map sends every source element into its target."""
    for f in homs:
        if len(f.map) != f.source.order:
            raise StructuralError("hom map length does not match source order")
        if any(x < 0 or x >= f.target.order for x in f.map):
            raise StructuralError("hom map entry out of range")


def validate_hom(f: Hom, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    check_hom_shape(f)
    return report(f.name or "hom", hom_violations(f.source, f.target, f.map), max_violations)


def hom_violations(src: GroupTable, tgt: GroupTable, m: Map) -> Iterator[RawViolation]:
    """The map m: src -> tgt preserves the identity and the operation."""
    if m[src.identity] != tgt.identity:
        yield "identity_preserved", (src.identity,), "f(e)={1} != {2}", (m[src.identity], tgt.identity)
    sop, top = src.op, tgt.op
    for g in range(src.order):
        row, trow = sop[g], top[m[g]]
        for h in range(src.order):
            if m[row[h]] != trow[m[h]]:
                yield "homomorphism", (g, h), "f({0}*{1})={2} != f({0})*f({1})={3}", (m[row[h]], trow[m[h]])


def identity_hom(g: GroupTable) -> Hom:
    return Hom(g, g, tuple(range(g.order)), "id")


def compose_homs(outer: Hom, inner: Hom) -> Hom:
    """outer after inner."""
    if inner.target != outer.source:
        raise StructuralError("hom composition mismatch: inner.target != outer.source")
    return Hom(inner.source, outer.target, tuple(outer.map[x] for x in inner.map))


def inverse_hom(f: Hom) -> Hom:
    if not f.is_bijective():
        raise StructuralError("cannot invert a non-bijective hom")
    inv = [0] * f.target.order
    for g, h in enumerate(f.map):
        inv[h] = g
    return Hom(f.target, f.source, tuple(inv))


def zero_hom(source: GroupTable, target: GroupTable) -> Hom:
    return Hom(source, target, (target.identity,) * source.order, "zero")


# ---------------------------------------------------------------------------
# subgroups


@structure
class Subgroup:
    """The subgroup of parent with the given members."""

    parent: GroupTable
    members: tuple[int, ...]  # sorted

    def __contains__(self, g: int) -> bool:
        return g in self.members


def subgroup(parent: GroupTable, members) -> Subgroup:
    """Build a Subgroup after checking closure; raises StructuralError otherwise."""
    ms = sorted(set(int(x) for x in members))
    if any(x < 0 or x >= parent.order for x in ms):
        raise StructuralError("subgroup member out of range")
    s = set(ms)
    if parent.identity not in s:
        raise StructuralError("subgroup does not contain the identity")
    for a in ms:
        if parent.inv[a] not in s:
            raise StructuralError(f"subgroup not closed under inverse at {a}")
        for b in ms:
            if parent.op[a][b] not in s:
                raise StructuralError(f"subgroup not closed under op at ({a},{b})")
    return Subgroup(parent, tuple(ms))


def restrict_map(m, domain, pos: dict[int, int] | Map, what: str) -> Map:
    """m on the members domain, each value renumbered through pos.

    pos takes each member of the subgroup the values must lie in to its
    position in ascending order.  Raises StructuralError naming the rule
    what, the element and its value when a value lies outside that subgroup.
    For a total renumbering, one that every value has, pos may be a tuple
    indexed by the values; nothing can escape it.
    """
    try:
        return tuple([pos[m[x]] for x in domain])
    except KeyError:
        x = next(x for x in domain if m[x] not in pos)
        raise _escape(what, x, m[x]) from None


def restrict_table(table, rows, cols, pos: dict[int, int] | Map, what: str) -> Table:
    """restrict_map of each row table[r], for r in rows, to cols; an escape is named by (r, c).

    As for restrict_map, pos may be a tuple for a total renumbering.
    """
    try:
        return tuple([restrict_map(table[r], cols, pos, what) for r in rows])
    except StructuralError:
        r, c = next((r, c) for r in rows for c in cols if table[r][c] not in pos)
        raise _escape(what, (r, c), table[r][c]) from None


@_cached_per_name
def subgroup_embedding(parent: GroupTable, members: tuple[int, ...]) -> tuple[Hom, dict[int, int]]:
    """The inclusion of the subgroup on members into parent, and the position of each member.

    The subgroup's table, named '<parent>|sub', numbers the members in
    ascending order.  Cached per parent name and member tuple, so callers
    pass the members sorted and treat the position dict as read-only.
    Raises StructuralError, and caches nothing, when members do not form a
    subgroup.
    """
    ms = subgroup(parent, members).members
    pos = {m: i for i, m in enumerate(ms)}
    op = restrict_table(parent.op, ms, ms, pos, "closure under the operation")
    inv = restrict_map(parent.inv, ms, pos, "closure under inverses")
    sg = GroupTable(len(ms), op, pos[parent.identity], inv, f"{parent.name}|sub")
    return Hom(sg, parent, ms, "incl"), pos


def _escape(what: str, at, value: int) -> StructuralError:
    return StructuralError(f"{what} fails at {at}: {value} lies outside the subgroup")


def map_through(key, value, size: int, what: str) -> Map:
    """The map m on range(size) with m[key[x]] = value[x] for every x.

    key and value run over one domain.  Raises StructuralError naming the
    map what and the element d when the fibre of d under key carries two
    values, or none.
    """
    out: list = [None] * size
    for d, v in zip(key, value):
        if out[d] is None:
            out[d] = v
        elif out[d] != v:
            raise StructuralError(f"{what} not well-defined over the fibre of {d}: it carries {out[d]} and {v}")
    if None in out:
        raise StructuralError(f"{what} not defined at {out.index(None)}: its fibre is empty")
    return tuple(out)


def kernel(f: Hom) -> Subgroup:
    e = f.target.identity
    return Subgroup(f.source, tuple(g for g in range(f.source.order) if f.map[g] == e))


def image(f: Hom) -> Subgroup:
    return Subgroup(f.target, tuple(sorted(set(f.map))))


# ---------------------------------------------------------------------------
# enumeration of homomorphisms and automorphisms


# a step (x, i, y) of a closure: y = x * gens[i]
_Step = tuple[int, int, int]


def _closure_levels(g: GroupTable) -> list[tuple[int, list[_Step], list[_Step]]]:
    """One level (gen, new, agree) per generator of a generating sequence of g.

    The generators are taken as the least element the earlier ones do not
    generate, so none lies in the subgroup of those before it.  Level k
    closes the subgroup of the first k generators by right multiplication
    from that of the first k - 1: the old members by the new generator,
    each newly reached member by every generator so far.  new lists the
    steps that first reach each new member, in an order in which every x is
    reached before its step; agree lists the steps whose y was reached
    already.  A map defined on the old members extends to a homomorphism of
    the larger subgroup with given generator images exactly when the
    values the new steps give it agree at every agreement step.
    """
    op = g.op
    reached = [False] * g.order
    reached[g.identity] = True
    members = [g.identity]
    gens: list[int] = []
    levels = []
    for gen in range(g.order):
        if reached[gen]:
            continue
        k, old = len(gens), len(members)
        gens.append(gen)
        new: list[_Step] = []
        agree: list[_Step] = []
        j = 0
        while j < len(members):
            x = members[j]
            for i in range(k, k + 1) if j < old else range(k + 1):
                y = op[x][gens[i]]
                if reached[y]:
                    agree.append((x, i, y))
                else:
                    reached[y] = True
                    members.append(y)
                    new.append((x, i, y))
            j += 1
        levels.append((gen, new, agree))
        if len(members) == g.order:
            break
    return levels


def _generating_sequence(g: GroupTable) -> list[int]:
    return [gen for gen, _, _ in _closure_levels(g)]


def _extend_map(top: Table, m: list, imgs: tuple[int, ...], new: list[_Step], agree: list[_Step]) -> list | None:
    """The map m, a homomorphism of the subgroup of the first k - 1
    generators, extended along level k's new steps with gens[i] sent to
    imgs[i].

    Each new step sets m[x * gens[i]] = m[x] * imgs[i].  Returns the
    extended map, a new list, when every agreement step agrees with it,
    which makes it a homomorphism on the subgroup of the first k
    generators; else None, and then no homomorphism of any larger subgroup
    sends the generators to imgs.  At the last level that subgroup is the
    whole group.
    """
    m = m.copy()
    for x, i, y in new:
        m[y] = top[m[x]][imgs[i]]
    for x, i, y in agree:
        if m[y] != top[m[x]][imgs[i]]:
            return None
    return m


def _homs(src: GroupTable, tgt: GroupTable, injective: bool) -> list[Hom]:
    """The homomorphisms src -> tgt sorted by map tuple, found level by level
    (see all_homs); when injective is set, an image of a generator that
    already lies in the image of the earlier generators' subgroup is skipped,
    along with every map it would start."""
    levels = _closure_levels(src)
    gens = [gen for gen, _, _ in levels]
    sop, top = src.op, tgt.op
    tgt_orders = [tgt.element_order(h) for h in range(tgt.order)]
    # a map is a list over src with None off the subgroup it is defined on,
    # so its set of values is its image and None
    start: list = [None] * src.order
    start[src.identity] = tgt.identity
    prefixes: list[tuple[tuple[int, ...], list]] = [((), start)]
    for k, (g, new, agree) in enumerate(levels):
        og = src.element_order(g)
        options = [h for h in range(tgt.order) if og % tgt_orders[h] == 0]
        commuting = [j for j in range(k) if sop[gens[j]][g] == sop[g][gens[j]]]
        grown = []
        for imgs, m in prefixes:
            partners = [imgs[j] for j in commuting]
            taken = set(m) if injective else ()
            for h in options:
                if h in taken or any(top[x][h] != top[h][x] for x in partners):
                    continue
                extended = _extend_map(top, m, imgs + (h,), new, agree)
                if extended is not None:
                    grown.append((imgs + (h,), extended))
        prefixes = grown
    return sorted((Hom(src, tgt, tuple(m)) for _, m in prefixes), key=lambda f: f.map)


@_cached_per_name
def all_homs(src: GroupTable, tgt: GroupTable) -> tuple[Hom, ...]:
    """Every homomorphism src -> tgt, sorted by map tuple.

    Walks src once (_closure_levels), one level per generator of a
    generating sequence, and grows the images of the generators one at a
    time, each image drawn from the elements whose order divides the
    generator's.  A prefix of k images extends its parent's map along level
    k's new steps only and is kept only when that map agrees at level k's
    agreement steps (_extend_map), that is, when it is a homomorphism on the
    subgroup the first k generators generate; an inconsistent prefix is
    dropped with all its extensions.  Before that, an image h of the k-th
    generator is skipped when some earlier generator commutes with it in
    src but the earlier image does not commute with h in tgt: the walk
    reaches that product by both orders and would reject the prefix, so the
    skip drops exactly prefixes it would drop.

    A complete map needs no further check: every step x -> x * g_i of the
    whole group, for every element x and generator g_i, is a new or an
    agreement step of some level, and the map has m(x * g_i) = m(x) * m(g_i)
    at each one, so it respects every product of generators.
    """
    return tuple(_homs(src, tgt, injective=False))


@_cached_per_name
def automorphisms(g: GroupTable) -> tuple[Hom, ...]:
    """Every automorphism of g, sorted by map tuple.

    The all_homs search from g to itself, except that an image of the k-th
    generator is skipped when it already lies in the image of the subgroup
    of the first k - 1: no generator lies in the subgroup of those before
    it, so such a map is not injective.  Each complete map, a homomorphism
    as in all_homs, is kept when it is bijective: the skip alone does not
    make a map injective (x -> 2x on Z4).
    """
    return tuple(f for f in _homs(g, g, injective=True) if f.is_bijective())


@_cached_per_name
def automorphism_group(g: GroupTable) -> tuple[GroupTable, tuple[Hom, ...]]:
    """Aut(g) as a GroupTable over the sorted automorphism list.

    The table index of (f o h) is op[i][j] where i, j index f and h; the
    identity automorphism sorts first, keeping the identity at index 0.
    Only the automorphisms that generate Aut(g), each the first one in
    sorted order that the earlier ones do not generate, get their rows
    looked up: an automorphism is fixed by its images of a generating
    sequence, so each composite f o h is looked up by the integer whose
    base-|g| digits are those images.  Every other row is a composite:
    row(s o c) = [row_s[x] for x in row_c], s o c reached by right
    multiplication closure from the identity, as _closure_levels reaches
    group elements.  The trivial group has no generators: its one code is 0.
    """
    auts = automorphisms(g)
    columns = [[h.map[x] for h in auts] for x in _generating_sequence(g)]

    def codes(fmap) -> list[int]:
        """The code of f o h for every h, f given by its map."""
        out = [0] * len(auts)
        for column in columns:
            out = [code * g.order + fmap[y] for code, y in zip(out, column)]
        return out

    index = {code: i for i, code in enumerate(codes(range(g.order)))}
    rows: list = [None] * len(auts)
    rows[0] = list(range(len(auts)))
    members, gens = [0], []
    for c in range(len(auts)):
        if rows[c] is not None:
            continue
        rows[c] = [index[code] for code in codes(auts[c].map)]
        old = len(members)
        members.append(c)
        gens.append(c)
        j = 0
        while j < len(members):
            row_s = rows[members[j]]
            for d in gens[-1:] if j < old else gens:
                sd = row_s[d]
                if rows[sd] is None:
                    rows[sd] = [row_s[x] for x in rows[d]]
                    members.append(sd)
            j += 1
    return group_from_op(rows, f"Aut({g.name})"), auts


class SelfMaps:
    """The maps of a group's elements to themselves met so far, by number.

    Each map, a tuple m with m[x] the image of x, gets a number once, in
    the order it is met.  automorphism[n] is whether map n is an
    automorphism of the group, and composite[n1, n2] the number of the map
    x -> m1[m2[x]].  Both read only the group's table and the maps, so one
    SelfMaps serves every caller on that table.  An entry is written only
    once it is fully computed.
    """

    __slots__ = ("op", "numbers", "maps", "automorphism", "composite")

    def __init__(self, op: Table) -> None:
        self.op = op
        self.numbers: dict[Map, int] = {}
        self.maps: list[Map] = []
        self.automorphism: dict[int, bool] = {}
        self.composite: dict[tuple[int, int], int] = {}

    def number(self, m: Map) -> int:
        n = self.numbers.setdefault(m, len(self.maps))
        if n == len(self.maps):
            self.maps.append(m)
        return n

    def composite_of(self, n1: int, n2: int) -> int:
        c = self.composite.get((n1, n2))
        if c is None:
            m1 = self.maps[n1]
            c = self.composite[n1, n2] = self.number(tuple([m1[x] for x in self.maps[n2]]))
        return c

    def is_automorphism(self, n: int) -> bool:
        verdict = self.automorphism.get(n)
        if verdict is None:
            m, op = self.maps[n], self.op
            verdict = self.automorphism[n] = all(
                [m[y] for y in op[x]] == [op[m[x]][y] for y in m] for x in range(len(op))
            )
        return verdict


@lru_cache(maxsize=None)
def self_maps(op: Table) -> SelfMaps:
    """The SelfMaps of the group with table op, a tuple of tuples, kept
    until self_maps.cache_clear()."""
    return SelfMaps(op)


@_cached_per_name
def homs_by_composite(src: GroupTable, tgt: GroupTable, outer: Map) -> dict[Map, tuple[Hom, ...]]:
    """The homs h of all_homs(src, tgt) keyed by the composite map outer o h,
    each key's homs in all_homs order.

    Looking up a map m gives the h with outer o h = m without scanning the
    others; the caller still has to check whatever else it needs of them.
    """
    out: dict[Map, list[Hom]] = {}
    for h in all_homs(src, tgt):
        out.setdefault(tuple(map(outer.__getitem__, h.map)), []).append(h)
    return {m: tuple(hs) for m, hs in out.items()}
