"""Groups acting on themselves by automorphisms, their subobjects, ideals and quotients.

A self-action table act[g][h] encodes the element usually written ^g h.  The
three axioms enforced throughout: the identity acts trivially, the action is
compatible with the group operation (act[g1*g2] = act[g1] o act[g2]), and
every act[g] distributes over the operation, i.e. acts by automorphisms.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .groups import GroupTable, Hom, Map, Subgroup, Table, _freeze, restrict_map, restrict_table, subgroup
from .validation import (
    DEFAULT_MAX_VIOLATIONS,
    PreconditionError,
    RawViolation,
    StructuralError,
    ValidationReport,
    holds,
    report,
)


@dataclass(frozen=True)
class SelfAction:
    group: GroupTable
    act: Table

    def __call__(self, g: int, h: int) -> int:
        return self.act[g][h]


@dataclass(frozen=True)
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
    if any(x < 0 or x >= n for row in act for x in row):
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
    """
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


def is_gwa_morphism(f: Hom, src: GwaObject, tgt: GwaObject) -> bool:
    return holds(action_preserved_violations(src, tgt, f.map))


def is_subobject(h: Subgroup, g: GwaObject) -> bool:
    """True when h is invariant under the self-action of every element of g.

    This is the stronger of the two readings of closure under the ambient
    action; it is the one required for ideals and quotients.
    """
    if h.parent != g.group:
        raise StructuralError("subgroup parent is not the gwa object's group")
    act = g.self_action.act
    members = set(h.members)
    return all(act[x][n] in members for x in range(g.order) for n in h.members)


@dataclass(frozen=True)
class IdealReport:
    """The three ideal conditions for a subgroup N of a group with action G.

    normal:             N is a normal subgroup of G
    action_closed:      ^g n lies in N for every g in G, n in N
    displacement_closed: (^n g) * g^-1 lies in N for every n in N, g in G
    """

    normal: bool
    action_closed: bool
    displacement_closed: bool
    witness: tuple[int, ...] = ()

    @property
    def is_ideal(self) -> bool:
        return self.normal and self.action_closed and self.displacement_closed

    def failed_condition(self) -> str | None:
        if not self.normal:
            return "normal"
        if not self.action_closed:
            return "action_closed"
        if not self.displacement_closed:
            return "displacement_closed"
        return None


def is_ideal(n: Subgroup, g: GwaObject) -> IdealReport:
    if n.parent != g.group:
        raise StructuralError("subgroup parent is not the gwa object's group")
    subgroup(g.group, n.members)  # raises StructuralError when not a subgroup
    members = set(n.members)
    op, inv, act = g.group.op, g.group.inv, g.self_action.act
    normal = True
    action_closed = True
    displacement_closed = True
    witness: tuple[int, ...] = ()
    for x in range(g.order):
        for m in n.members:
            if g.group.conjugate(x, m) not in members:
                if normal:
                    witness = witness or (x, m)
                normal = False
            if act[x][m] not in members:
                action_closed = False
                witness = witness or (x, m)
    for m in n.members:
        row = act[m]
        for x in range(g.order):
            if op[row[x]][inv[x]] not in members:
                displacement_closed = False
                witness = witness or (m, x)
    return IdealReport(normal, action_closed, displacement_closed, witness)


def quotient_gwa(g: GwaObject, n: Subgroup) -> tuple[GwaObject, Hom]:
    """Quotient group with the induced self-action, plus the canonical projection.

    Cosets are indexed by ascending minimal member, which keeps the identity
    coset at index 0 whenever the identity is element 0.
    """
    ideal = is_ideal(n, g)
    if not ideal.is_ideal:
        raise PreconditionError(
            ideal.failed_condition() or "ideal",
            f"subgroup is not an ideal: {ideal.failed_condition()} fails at {ideal.witness}",
        )
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
    k = len(cosets)
    reps = [min(c) for c in cosets]
    q_op = [[0] * k for _ in range(k)]
    q_act = [[0] * k for _ in range(k)]
    act = g.self_action.act
    for i, ri in enumerate(reps):
        for j, rj in enumerate(reps):
            q_op[i][j] = index[coset_of[op[ri][rj]]]
            q_act[i][j] = index[coset_of[act[ri][rj]]]
    q_identity = index[coset_of[g.group.identity]]
    q_inv = [0] * k
    for i in range(k):
        q_inv[i] = next(j for j in range(k) if q_op[i][j] == q_identity)
    q_group = GroupTable(k, _freeze(q_op), q_identity, tuple(q_inv), f"{g.group.name}/N")
    q = GwaObject(q_group, SelfAction(q_group, _freeze(q_act)), f"{g.name}/N")
    proj = Hom(g.group, q_group, tuple(index[coset_of[x]] for x in range(g.order)), "proj")
    return q, proj


def sub_gwa(g: GwaObject, members) -> tuple[GwaObject, Hom]:
    """The gwa object on a subgroup with the restricted self-action, plus its embedding.

    Members are renumbered 0..k-1 in ascending order.  Raises StructuralError
    when the subset is not closed under the restricted action.
    """
    ms = subgroup(g.group, members).members
    pos = {m: i for i, m in enumerate(ms)}
    op = restrict_table(g.group.op, ms, ms, pos, "closure under the operation")
    act = restrict_table(g.self_action.act, ms, ms, pos, "closure under the restricted self-action")
    inv = restrict_map(g.group.inv, ms, pos, "closure under inverses")
    sg = GroupTable(len(ms), op, pos[g.group.identity], inv, f"{g.group.name}|sub")
    sgwa = GwaObject(sg, SelfAction(sg, act), f"{g.name}|sub")
    emb = Hom(sg, g.group, ms, "incl")
    return sgwa, emb
