"""Groups acting on themselves by automorphisms, their subobjects, ideals and quotients.

A self-action table act[g][h] encodes the element usually written ^g h.  The
three axioms enforced throughout: the identity acts trivially, the action is
compatible with the group operation (act[g1*g2] = act[g1] o act[g2]), and
every act[g] distributes over the operation, i.e. acts by automorphisms.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import field

from .groups import (
    GroupTable,
    Hom,
    Map,
    Subgroup,
    Table,
    _freeze,
    restrict_map,
    restrict_table,
    self_maps,
    subgroup,
    subgroup_embedding,
)
from .validation import (
    DEFAULT_MAX_VIOLATIONS,
    PreconditionError,
    RawViolation,
    StructuralError,
    ValidationReport,
    holds,
    report,
    structure,
)


@structure
class SelfAction:
    """A self-action of group: act[g][h] is the index of ^g h."""

    group: GroupTable
    act: Table


@structure
class GwaObject:
    """A group together with a self-action: an object of the category of groups with action."""

    group: GroupTable
    self_action: SelfAction
    name: str = field(default="", compare=False)

    @property
    def order(self) -> int:
        return self.group.order

    def __repr__(self) -> str:
        return f"GwaObject({self.name or self.group.name})"


def trivial_self_action(g: GroupTable) -> SelfAction:
    row = tuple(range(g.order))
    return SelfAction(g, tuple(row for _ in range(g.order)))


def conjugation_self_action(g: GroupTable) -> SelfAction:
    return SelfAction(
        g, tuple(tuple(g.conjugate(a, b) for b in range(g.order)) for a in range(g.order))
    )


def parity_inversion_action(g: GroupTable) -> SelfAction:
    """Even elements of an even cyclic group act trivially, odd ones by inversion."""
    rows = []
    for a in range(g.order):
        if a % 2 == 0:
            rows.append(tuple(range(g.order)))
        else:
            rows.append(g.inv)
    return SelfAction(g, _freeze(rows))


def gwa(group: GroupTable, action: SelfAction | None = None, name: str = "") -> GwaObject:
    if action is None:
        action = trivial_self_action(group)
    if action.group != group:
        raise StructuralError("self-action built over a different group table")
    return GwaObject(group, action, name or group.name)


def validate_gwa(g: GwaObject, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Check the three self-action axioms with witnesses."""
    n = g.group.order
    act = g.self_action.act
    if g.self_action.group != g.group:
        raise StructuralError("self-action group reference mismatch")
    if len(act) != n or any(len(row) != n for row in act):
        raise StructuralError("self-action table dimensions do not match order")
    if n and (min(map(min, act)) < 0 or max(map(max, act)) >= n):
        raise StructuralError("self-action table entry out of range")
    violations = action_violations(act, g.group, g.group.op, SELF_ACTION_DETAILS)
    return report(g.name or "gwa", violations, max_violations)


# detail templates of action_violations for a self-action, written ^x y
SELF_ACTION_DETAILS = (
    "^{1} {0} = {2}, expected {0}",
    "^({0}*{1}) {2} = {3} != ^{0}(^{1} {2}) = {4}",
    "^{0}({1}*{2}) = {3} != (^{0} {1})*(^{0} {2}) = {4}",
)


def action_violations(act: Table, actor: GroupTable, space_op: Table, details) -> Iterator[RawViolation]:
    """The identity, compatibility and automorphism laws of an action.

    act[x][y] is x . y for x in actor and y in the group with table space_op;
    details holds the three laws' detail templates.  Only the first failing y
    is witnessed for each (x1, x2) and each (x, y1).

    The compatibility and automorphism laws read act through its distinct
    rows.  Compatibility compares the number of row x1*x2 with that of the
    composite of rows x1 and x2; the automorphism law asks whether each
    distinct row is an automorphism.  Both results read only the space
    table and the rows, so they come from groups.self_maps, the cache keyed
    by a tuple-of-tuples copy of space_op: each composite is built and each
    row's automorphism law run once per space table while the cache lives,
    until self_maps.cache_clear().  Only a pair or a row that fails is
    scanned element by element, so every violation, its witness and its
    order are those of the scan over every element.  Callers check act's
    shape and range first.
    """
    identity, compatibility, automorphism = details
    op, e = actor.op, actor.identity
    for h, y in enumerate(act[e]):
        if y != h:
            yield "action_identity", (h,), identity, (e, y)
    ns = len(space_op)
    maps = self_maps(tuple(map(tuple, space_op)))
    num = [maps.number(tuple(row)) for row in act]
    distinct = dict.fromkeys(num)
    composite = {n1: {n2: maps.composite_of(n1, n2) for n2 in distinct} for n1 in distinct}
    for g1, row1 in enumerate(act):
        expected, op1 = composite[num[g1]], op[g1]
        for g2, row2 in enumerate(act):
            if num[op1[g2]] == expected[num[g2]]:
                continue
            row12 = act[op1[g2]]
            h = next(h for h in range(ns) if row12[h] != row1[row2[h]])
            yield "action_compatibility", (g1, g2, h), compatibility, (row12[h], row1[row2[h]])
    for a, row in enumerate(act):
        if maps.is_automorphism(num[a]):
            continue
        for h1 in range(ns):
            for h2 in range(ns):
                if row[space_op[h1][h2]] != space_op[row[h1]][row[h2]]:
                    values = (row[space_op[h1][h2]], space_op[row[h1]][row[h2]])
                    yield "action_automorphism", (a, h1, h2), automorphism, values
                    break


def validate_gwa_morphism(
    f: Hom, src: GwaObject, tgt: GwaObject, max_violations: int = DEFAULT_MAX_VIOLATIONS
) -> ValidationReport:
    """Check that f preserves the self-action: f(^g g1) = ^f(g) f(g1)."""
    if f.source != src.group or f.target != tgt.group:
        raise StructuralError("hom endpoints do not match the given gwa objects")
    return report("gwa morphism", action_preserved_violations(src, tgt, f.map), max_violations)


def action_preserved_violations(
    src: GwaObject, tgt: GwaObject, m: Map, law: str = "action_preserved"
) -> Iterator[RawViolation]:
    """m(^g g1) = ^m(g) m(g1): the map m of groups preserves the self-actions."""
    template = "f(^{0} {1}) = {2} != ^f({0}) f({1}) = {3}"
    return intertwining_violations(law, template, src.self_action.act, tgt.self_action.act, m, m)


def intertwining_violations(
    law: str, template: str, src_act: Table, tgt_act: Table, actor_map: Map, space_map: Map
) -> Iterator[RawViolation]:
    """space_map(x . y) = actor_map(x) . space_map(y) for every x and y, witnessed by (x, y)."""
    for x, row in enumerate(src_act):
        tgt_row = tgt_act[actor_map[x]]
        for y, xy in enumerate(row):
            if space_map[xy] != tgt_row[space_map[y]]:
                yield law, (x, y), template, (space_map[xy], tgt_row[space_map[y]])


def kernel_action_violations(act: Table, ker_s, ker_t) -> Iterator[RawViolation]:
    """Every y in ker_t acts trivially on every x in ker_s under act, witnessed by (y, x).

    The kernel law of a cat1-group (G, s, t); with ker_s all of A and ker_t
    the kernel of alpha, the law that ker alpha acts trivially on A.
    """
    for y in ker_t:
        row = act[y]
        for x in ker_s:
            if row[x] != x:
                yield "kernel_action", (y, x), "^{0} {1} = {2} != {1} (x in ker s, y in ker t)", (row[x],)


def is_gwa_morphism(f: Hom, src: GwaObject, tgt: GwaObject) -> bool:
    return holds(action_preserved_violations(src, tgt, f.map))


def is_subobject(h: Subgroup, g: GwaObject) -> bool:
    """True when h is invariant under the self-action of every element of g.

    This is the stronger of the two readings of closure under the ambient
    action; it is the one required for ideals and quotients.
    """
    return holds(subobject_violations(h, g))


def subobject_violations(h: Subgroup, g: GwaObject) -> Iterator[RawViolation]:
    """The invariance of h under g's self-action, witnessed by (x, n)."""
    if h.parent != g.group:
        raise StructuralError("subgroup parent is not the gwa object's group")
    return invariance_violations("subobject", "^{0} {1} = {2} is not in the subgroup", g.self_action.act, h.members)


def invariance_violations(law: str, template: str, act: Iterable, members) -> Iterator[RawViolation]:
    """^x n lies in N for every row x of act and every n in N = members, witnessed by (x, n).

    A row need only hold its entries at the members, as a dict keyed by them can.
    """
    inside = set(members)
    for x, row in enumerate(act):
        for n in members:
            if row[n] not in inside:
                yield law, (x, n), template, (row[n],)


def displacement_violations(g: GwaObject, members) -> Iterator[RawViolation]:
    """(^n x) * x^-1 lies in N = members for every n in N and x in g, witnessed by (n, x)."""
    op, inv = g.group.op, g.group.inv
    inside = set(members)
    for n in members:
        for x, nx in enumerate(g.self_action.act[n]):
            displacement = op[nx][inv[x]]
            if displacement not in inside:
                yield "displacement_closed", (n, x), "(^{0} {1}) * {1}^-1 = {2} is not in N", (displacement,)


def ideal_violations(g: GwaObject, members) -> Iterator[RawViolation]:
    """The three ideal laws of N = members in g, each in turn.

    normal:              x * n * x^-1 lies in N for every x in g, n in N
    action_closed:       ^x n lies in N for every x in g, n in N
    displacement_closed: (^n x) * x^-1 lies in N for every n in N, x in g
    """
    # the rows of the conjugation table at the members of N only
    group = g.group
    conjugation = ({n: group.conjugate(x, n) for n in members} for x in range(group.order))
    yield from invariance_violations("normal", "{0} * {1} * {0}^-1 = {2} is not in N", conjugation, members)
    yield from invariance_violations("action_closed", "^{0} {1} = {2} is not in N", g.self_action.act, members)
    yield from displacement_violations(g, members)


def _ideal_candidate(n: Subgroup, g: GwaObject) -> tuple[int, ...]:
    """n's members; raises StructuralError unless n is a subgroup of g's group."""
    if n.parent != g.group:
        raise StructuralError("subgroup parent is not the gwa object's group")
    return subgroup(g.group, n.members).members


def validate_ideal(n: Subgroup, g: GwaObject, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Check the three ideal laws of n in g with witnesses."""
    return report(f"{g.name} ideal", ideal_violations(g, _ideal_candidate(n, g)), max_violations)


def is_ideal(n: Subgroup, g: GwaObject) -> bool:
    return holds(ideal_violations(g, _ideal_candidate(n, g)))


def quotient_gwa(g: GwaObject, n: Subgroup) -> tuple[GwaObject, Hom]:
    """Quotient group with the induced self-action, plus the canonical projection.

    Cosets are indexed by ascending minimal member, which keeps the identity
    coset at index 0 whenever the identity is element 0.  The quotient's
    operation, self-action and inverses are those of the minimal members,
    renumbered through the projection (groups.restrict_table).
    """
    violation = next(ideal_violations(g, _ideal_candidate(n, g)), None)
    if violation is not None:
        law, witness, _, _ = violation
        raise PreconditionError(law, f"subgroup is not an ideal: {law} fails at {witness}")
    op = g.group.op
    members = n.members
    coset_of: dict[int, frozenset] = {}
    cosets: list[frozenset] = []
    for x in range(g.order):
        if x in coset_of:
            continue
        c = frozenset(op[x][m] for m in members)
        for y in c:
            coset_of[y] = c
        cosets.append(c)
    cosets.sort(key=min)
    index = {c: i for i, c in enumerate(cosets)}
    pm = tuple(index[coset_of[x]] for x in range(g.order))
    reps = [min(c) for c in cosets]
    what = "projection to the cosets"
    q_group = GroupTable(
        len(cosets),
        restrict_table(op, reps, reps, pm, what),
        pm[g.group.identity],
        restrict_map(g.group.inv, reps, pm, what),
        f"{g.group.name}/N",
    )
    q_act = restrict_table(g.self_action.act, reps, reps, pm, what)
    return GwaObject(q_group, SelfAction(q_group, q_act), f"{g.name}/N"), Hom(g.group, q_group, pm, "proj")


def sub_gwa(g: GwaObject, members) -> tuple[GwaObject, Hom]:
    """The gwa object on a subgroup with the restricted self-action, plus its embedding.

    Members are renumbered 0..k-1 in ascending order.  The subgroup's table
    and embedding come from groups.subgroup_embedding's cache; only the
    restricted self-action is built per call.  Raises StructuralError when
    the subset is not a subgroup or not closed under the restricted action.
    """
    emb, pos = subgroup_embedding(g.group, tuple(sorted({int(x) for x in members})))
    return restricted_gwa(g, emb, pos), emb


def restricted_gwa(g: GwaObject, emb: Hom, pos: dict[int, int]) -> GwaObject:
    """g's self-action restricted to the subgroup that emb includes, named '<g>|sub'.

    emb and pos are a result of groups.subgroup_embedding for g's group.
    Raises StructuralError when the subgroup is not closed under the action.
    """
    ms = emb.map
    act = restrict_table(g.self_action.act, ms, ms, pos, "closure under the restricted self-action")
    return GwaObject(emb.source, SelfAction(emb.source, act), f"{g.name}|sub")
