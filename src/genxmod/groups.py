"""Finite groups as dense Cayley tables, homomorphisms between them, and subgroups.

Elements are integer indices 0..order-1.  All values are immutable after
construction (tuples throughout), so instances are hashable, structurally
comparable, and safe to share across threads.  Orders stay small (<= 16), so
every check is a direct exhaustive loop.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, wraps

from .validation import (
    DEFAULT_MAX_VIOLATIONS,
    RawViolation,
    StructuralError,
    ValidationReport,
    holds,
    report,
)

Table = tuple[tuple[int, ...], ...]
Map = tuple[int, ...]


def _freeze(rows) -> Table:
    return tuple(tuple(int(x) for x in row) for row in rows)


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table.

    op[g][h] is the index of g*h, identity the index of the neutral element
    and inv[g] the index of the inverse of g.  Constructors in this module
    always place the identity at index 0.
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

    def is_abelian(self) -> bool:
        op = self.op
        return all(op[a][b] == op[b][a] for a in range(self.order) for b in range(self.order))

    def __repr__(self) -> str:
        return f"GroupTable({self.name or 'order ' + str(self.order)})"


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
    if any(x < 0 or x >= n for row in table for x in row):
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


def _perm_group(perms: list[tuple[int, ...]], name: str) -> GroupTable:
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    op = [[0] * n for _ in range(n)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            op[i][j] = index[tuple(p[q[k]] for k in range(len(p)))]
    table = _freeze(op)
    identity = index[tuple(range(len(perms[0])))]
    inv = []
    for i in range(n):
        inv.append(next(j for j in range(n) if table[i][j] == identity))
    return GroupTable(n, table, identity, tuple(inv), name)


def symmetric_group(n: int) -> GroupTable:
    """S_n on points 0..n-1; composition applies the right factor first.

    The identity permutation is lexicographically least, so it lands at
    index 0.
    """
    return _perm_group([tuple(p) for p in itertools.permutations(range(n))], f"S{n}")


def klein_four_group() -> GroupTable:
    return direct_product(cyclic_group(2), cyclic_group(2), "V4")


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group of order 2n as permutations of the n-gon's vertices."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    perms = set()
    frontier = [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        if p in perms:
            continue
        perms.add(p)
        for gen in (rot, ref):
            frontier.append(tuple(gen[p[k]] for k in range(n)))
    return _perm_group(sorted(perms), f"D{n}")


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


@dataclass(frozen=True)
class Hom:
    """A map between two GroupTables, given elementwise.

    Use validate_hom to check the homomorphism property; constructors here do
    only structural checks.
    """

    source: GroupTable
    target: GroupTable
    map: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __call__(self, g: int) -> int:
        return self.map[g]

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and len(set(self.map)) == self.source.order

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order

    def __repr__(self) -> str:
        return f"Hom({self.source.name}->{self.target.name}, {list(self.map)})"


def hom(source: GroupTable, target: GroupTable, mapping, name: str = "") -> Hom:
    f = Hom(source, target, tuple(int(x) for x in mapping), name)
    check_hom_shape(f)
    return f


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


@dataclass(frozen=True)
class Subgroup:
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


def restrict_map(m, domain, pos: dict[int, int], what: str) -> Map:
    """m on the members domain, each value renumbered through pos.

    pos takes each member of the subgroup the values must lie in to its
    position in ascending order.  Raises StructuralError naming the rule
    what, the element and its value when a value lies outside that subgroup.
    """
    try:
        return tuple([pos[m[x]] for x in domain])
    except KeyError:
        x = next(x for x in domain if m[x] not in pos)
        raise _escape(what, x, m[x]) from None


def restrict_table(table, rows, cols, pos: dict[int, int], what: str) -> Table:
    """restrict_map of each row table[r], for r in rows, to cols; an escape is named by (r, c)."""
    try:
        return tuple([restrict_map(table[r], cols, pos, what) for r in rows])
    except StructuralError:
        r, c = next((r, c) for r in rows for c in cols if table[r][c] not in pos)
        raise _escape(what, (r, c), table[r][c]) from None


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


def subgroup_closure(parent: GroupTable, gens) -> Subgroup:
    s = {parent.identity}
    frontier = list(s)
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (parent.op[x][g], parent.op[g][x]):
                if y not in s:
                    s.add(y)
                    frontier.append(y)
    return Subgroup(parent, tuple(sorted(s)))


def kernel(f: Hom) -> Subgroup:
    e = f.target.identity
    return Subgroup(f.source, tuple(g for g in range(f.source.order) if f.map[g] == e))


def image(f: Hom) -> Subgroup:
    return Subgroup(f.target, tuple(sorted(set(f.map))))


# ---------------------------------------------------------------------------
# enumeration of homomorphisms and automorphisms


def _generating_sequence(g: GroupTable) -> list[int]:
    gens: list[int] = []
    have = {g.identity}
    for x in range(g.order):
        if x in have:
            continue
        gens.append(x)
        have = set(subgroup_closure(g, gens).members)
        if len(have) == g.order:
            break
    return gens


def _extend_map(src: GroupTable, tgt: GroupTable, gens: list[int], imgs: list[int]):
    """Grow the partial map determined on gens by right-multiplication closure.

    Returns the full map when the assignment is consistent on the subgroup
    generated by gens (the whole group for a generating sequence), else None.
    """
    m = {src.identity: tgt.identity}
    frontier = [src.identity]
    while frontier:
        x = frontier.pop()
        fx = m[x]
        for gi, hi in zip(gens, imgs):
            y = src.op[x][gi]
            fy = tgt.op[fx][hi]
            seen = m.get(y)
            if seen is None:
                m[y] = fy
                frontier.append(y)
            elif seen != fy:
                return None
    if len(m) != src.order:
        return None
    return tuple(m[x] for x in range(src.order))


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


@_cached_per_name
def all_homs(src: GroupTable, tgt: GroupTable) -> tuple[Hom, ...]:
    """Every homomorphism src -> tgt, sorted by map tuple.

    Searches images of a generating sequence (pruned by element order
    divisibility), completes each candidate by closure, then re-verifies the
    homomorphism property on the full table.
    """
    gens = _generating_sequence(src)
    if not gens:  # trivial source
        return (Hom(src, tgt, (tgt.identity,) * src.order),)
    tgt_orders = [tgt.element_order(h) for h in range(tgt.order)]
    candidates: list[list[int]] = []
    for g in gens:
        og = src.element_order(g)
        candidates.append([h for h in range(tgt.order) if og % tgt_orders[h] == 0])
    found = []
    for imgs in itertools.product(*candidates):
        m = _extend_map(src, tgt, gens, list(imgs))
        if m is not None and holds(hom_violations(src, tgt, m)):
            found.append(Hom(src, tgt, m))
    found.sort(key=lambda f: f.map)
    return tuple(found)


@_cached_per_name
def automorphisms(g: GroupTable) -> tuple[Hom, ...]:
    return tuple(f for f in all_homs(g, g) if f.is_bijective())


@_cached_per_name
def automorphism_group(g: GroupTable) -> tuple[GroupTable, tuple[Hom, ...]]:
    """Aut(g) as a GroupTable over the sorted automorphism list.

    The table index of (f o h) is op[i][j] where i, j index f and h; the
    identity automorphism sorts first, keeping the identity at index 0.
    """
    auts = automorphisms(g)
    index = {f.map: i for i, f in enumerate(auts)}
    n = len(auts)
    op = [[0] * n for _ in range(n)]
    for i, f in enumerate(auts):
        for j, h in enumerate(auts):
            op[i][j] = index[tuple(f.map[x] for x in h.map)]
    return group_from_op(op, f"Aut({g.name})"), auts


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
