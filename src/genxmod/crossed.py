"""Generalized crossed modules: a homomorphism alpha: A -> B between groups
with self-action, plus an action of B on A, subject to two conditions:

    equivariance:  alpha(b . a)  = ^b alpha(a)
    peiffer:       alpha(a) . a1 = ^a a1

Both A and B carry arbitrary self-actions (not just conjugation), which is
what the "generalized" qualifier refers to.  Morphisms are pairs of group
homomorphisms <f, g> making the alpha-square commute and respecting the
external action; preservation of the domain self-action by f is a consequence
of the axioms and is asserted, not assumed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from .groups import (
    Hom,
    Map,
    Subgroup,
    Table,
    check_hom_shape,
    compose_homs,
    hom_violations,
    identity_hom,
    image,
    inverse_hom,
    kernel,
    restrict_table,
    validate_group,
    validate_hom,
)
from .gwa import (
    GwaObject,
    action_preserved_violations,
    action_violations,
    intertwining_violations,
    is_gwa_morphism,
    is_subobject,
    sub_gwa,
    validate_gwa,
)
from .validation import (
    DEFAULT_MAX_VIOLATIONS,
    PreconditionError,
    RawViolation,
    StructuralError,
    ValidationReport,
    holds,
    prefixed,
    report,
)


@dataclass(frozen=True)
class ExtAction:
    """An action of the group of `actor` on the group of `space` by automorphisms.

    act[b][a] is the index of b . a.
    """

    actor: GwaObject
    space: GwaObject
    act: Table

    def __call__(self, b: int, a: int) -> int:
        return self.act[b][a]


def validate_ext_action(
    x: ExtAction, max_violations: int = DEFAULT_MAX_VIOLATIONS
) -> ValidationReport:
    nb, na = x.actor.order, x.space.order
    if len(x.act) != nb or any(len(row) != na for row in x.act):
        raise StructuralError("external action table dimensions mismatch")
    if any(v < 0 or v >= na for row in x.act for v in row):
        raise StructuralError("external action entry out of range")
    violations = action_violations(x.act, x.actor.group, x.space.group.op, EXT_ACTION_DETAILS)
    return report("ext action", violations, max_violations)


# detail templates of action_violations for an action of B on A, written b.a
EXT_ACTION_DETAILS = (
    "{1}.{0} = {2}, expected {0}",
    "({0}*{1}).{2} = {3} != {0}.({1}.{2}) = {4}",
    "{0}.({1}*{2}) = {3} != ({0}.{1})*({0}.{2}) = {4}",
)


@dataclass(frozen=True)
class GXMod:
    """A generalized crossed module (A, B, alpha) with the action of B on A."""

    A: GwaObject
    B: GwaObject
    alpha: Hom
    action: ExtAction
    name: str = field(default="", compare=False)

    def __repr__(self) -> str:
        return f"GXMod({self.name or (self.A.group.name + '->' + self.B.group.name)})"


def gxmod(A: GwaObject, B: GwaObject, alpha: Hom, action: ExtAction, name: str = "") -> GXMod:
    x = GXMod(A, B, alpha, action, name)
    _check_gxmod_wiring(x)
    return x


def _check_gxmod_wiring(x: GXMod) -> None:
    if x.alpha.source != x.A.group or x.alpha.target != x.B.group:
        raise StructuralError("alpha endpoints do not match A and B")
    if x.action.actor != x.B or x.action.space != x.A:
        raise StructuralError("external action endpoints do not match A and B")


def validate_gxmod(x: GXMod, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Check the two defining conditions; components are assumed valid.

    Witnesses are (b, a) for equivariance and (a, a1) for the peiffer
    condition.
    """
    _check_gxmod_wiring(x)
    violations = gxmod_violations(x.alpha.map, x.action.act, x.A.self_action.act, x.B.self_action.act)
    return report(x.name or "gxmod", violations, max_violations)


def gxmod_violations(alpha: Map, act: Table, sa: Table, sb: Table) -> Iterator[RawViolation]:
    """Both defining conditions of alpha: A -> B with B acting on A by act.

    sa and sb are the self-actions of A and B.  Only equivariance reads sb.
    """
    yield from equivariance_violations(alpha, act, sb)
    yield from peiffer_violations(alpha, act, sa)


def peiffer_violations(alpha: Map, act: Table, sa: Table) -> Iterator[RawViolation]:
    """alpha(a) . a1 = ^a a1, witnessed by (a, a1)."""
    for a, sa_row in enumerate(sa):
        row = act[alpha[a]]
        for a1, y in enumerate(sa_row):
            if row[a1] != y:
                yield "peiffer", (a, a1), "alpha({0}).{1} = {2} != ^{0} {1} = {3}", (row[a1], y)


def equivariance_violations(alpha: Map, act: Table, sb: Table) -> Iterator[RawViolation]:
    """alpha(b . a) = ^b alpha(a), witnessed by (b, a); of the two conditions,
    the only one that reads sb, the self-action of B."""
    for b, row in enumerate(act):
        sb_row = sb[b]
        for a, ba in enumerate(row):
            if alpha[ba] != sb_row[alpha[a]]:
                template = "alpha({0}.{1}) = {2} != ^{0} alpha({1}) = {3}"
                yield "equivariance", (b, a), template, (alpha[ba], sb_row[alpha[a]])


def validate_gxmod_full(x: GXMod, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Validate every layer: groups, self-actions, alpha, external action, conditions."""
    full = ValidationReport(x.name or "gxmod")
    full = full.merged(validate_group(x.A.group, max_violations), "A.group")
    full = full.merged(validate_gwa(x.A, max_violations), "A")
    full = full.merged(validate_group(x.B.group, max_violations), "B.group")
    full = full.merged(validate_gwa(x.B, max_violations), "B")
    full = full.merged(validate_hom(x.alpha, max_violations), "alpha")
    full = full.merged(validate_ext_action(x.action, max_violations), "action")
    return full.merged(validate_gxmod(x, max_violations))


@dataclass(frozen=True)
class GXModMorphism:
    source: GXMod
    target: GXMod
    f: Hom  # A -> A'
    g: Hom  # B -> B'
    name: str = field(default="", compare=False)


def validate_gxmod_morphism(
    m: GXModMorphism, max_violations: int = DEFAULT_MAX_VIOLATIONS
) -> ValidationReport:
    """Check the commuting square and action equivariance of <f, g>.

    Also re-checks that f preserves the domain self-action (a consequence of
    the crossed module axioms, kept as a consistency probe).  Preservation of
    the codomain self-action by g is not part of the morphism notion.
    """
    check_gxmod_morphism_shape(m)
    violations = gxmod_morphism_violations(m.source, m.target, m.f.map, m.g.map)
    return report(m.name or "gxmod morphism", violations, max_violations)


def check_gxmod_morphism_shape(m: GXModMorphism) -> None:
    """Raise StructuralError unless f: A -> A' and g: B -> B' are total maps."""
    if m.f.source != m.source.A.group or m.f.target != m.target.A.group:
        raise StructuralError("f endpoints do not match the A components")
    if m.g.source != m.source.B.group or m.g.target != m.target.B.group:
        raise StructuralError("g endpoints do not match the B components")
    check_hom_shape(m.f, m.g)


def gxmod_morphism_violations(src: GXMod, tgt: GXMod, fm: Map, gm: Map) -> Iterator[RawViolation]:
    """The laws of <f, g>: src -> tgt for the maps fm: A -> A' and gm: B -> B'."""
    yield from prefixed("f", hom_violations(src.A.group, tgt.A.group, fm))
    yield from prefixed("g", hom_violations(src.B.group, tgt.B.group, gm))
    yield from square_violations(src.alpha.map, tgt.alpha.map, fm, gm)
    yield from morphism_equivariance_violations(src.action.act, tgt.action.act, fm, gm)
    yield from action_preserved_violations(src.A, tgt.A, fm, "domain_action_preserved")


def morphism_equivariance_violations(act: Table, tgt_act: Table, fm: Map, gm: Map) -> Iterator[RawViolation]:
    """f(b . a) = g(b) . f(a), witnessed by (b, a)."""
    template = "f({0}.{1}) = {2} != g({0}).f({1}) = {3}"
    return intertwining_violations("equivariance", template, act, tgt_act, gm, fm)


def square_violations(src_alpha: Map, tgt_alpha: Map, fm: Map, gm: Map) -> Iterator[RawViolation]:
    """g o alpha = alpha' o f, witnessed by a."""
    for a, b in enumerate(src_alpha):
        if gm[b] != tgt_alpha[fm[a]]:
            yield "square", (a,), "g(alpha({0})) = {1} != alpha'(f({0})) = {2}", (gm[b], tgt_alpha[fm[a]])


def identity_gxmod_morphism(x: GXMod) -> GXModMorphism:
    return GXModMorphism(x, x, identity_hom(x.A.group), identity_hom(x.B.group), "id")


def compose_gxmod_morphisms(outer: GXModMorphism, inner: GXModMorphism) -> GXModMorphism:
    if inner.target != outer.source:
        raise StructuralError("gxmod morphism composition mismatch")
    return GXModMorphism(
        inner.source,
        outer.target,
        compose_homs(outer.f, inner.f),
        compose_homs(outer.g, inner.g),
    )


# ---------------------------------------------------------------------------
# basic invariants


def check_alpha_gwa_morphism(x: GXMod) -> bool:
    """alpha preserves self-actions; a redundant probe, true for every valid input."""
    return is_gwa_morphism(x.alpha, x.A, x.B)


def is_aspherical(x: GXMod) -> bool:
    return len(kernel(x.alpha).members) == 1


def is_simply_connected(x: GXMod) -> bool:
    return len(set(x.alpha.map)) == x.B.order


def check_kernel_acts_trivially(x: GXMod) -> bool:
    """Elements of ker alpha act trivially on A; true for every valid input."""
    sa = x.A.self_action.act
    for k in kernel(x.alpha).members:
        row = sa[k]
        if any(row[a] != a for a in range(x.A.order)):
            return False
    return True


# ---------------------------------------------------------------------------
# derived crossed modules


def _inclusion_gxmod(outer: GwaObject, members, name: str) -> GXMod:
    """(H, outer, incl) for the subgroup H on members, renumbered, with outer
    acting on it through its self-action."""
    h, emb = sub_gwa(outer, members)
    pos = {m: i for i, m in enumerate(emb.map)}
    what = "invariance under the ambient action"
    act = restrict_table(outer.self_action.act, range(outer.order), emb.map, pos, what)
    return GXMod(h, outer, emb, ExtAction(outer, h, act), name)


def from_invariant_subgroup(g: GwaObject, h: Subgroup) -> GXMod:
    """(H, G, incl) for a subgroup invariant under the whole ambient self-action."""
    if not is_subobject(h, g):
        act = g.self_action.act
        wit = next((x, n) for x in range(g.order) for n in h.members if act[x][n] not in h)
        raise PreconditionError(
            "subobject", f"subgroup is not invariant under the ambient action at {wit}"
        )
    x = _inclusion_gxmod(g, h.members, "")
    return replace(x, name=f"({x.A.group.name},{g.group.name},incl)")


def kernel_gxmod(x: GXMod) -> GXMod:
    """(ker alpha, A, incl): A acts on its kernel through the self-action."""
    return _inclusion_gxmod(x.A, kernel(x.alpha).members, "kernel")


def image_gxmod(x: GXMod) -> GXMod:
    """(alpha(A), B, incl): B acts on the image through the self-action."""
    return _inclusion_gxmod(x.B, image(x.alpha).members, "image")


# ---------------------------------------------------------------------------
# transport along isomorphisms


def _require_gwa_iso(f: Hom, src: GwaObject, tgt: GwaObject, label: str) -> None:
    if f.source != src.group or f.target != tgt.group:
        raise StructuralError(f"{label} endpoints mismatch")
    if not holds(hom_violations(f.source, f.target, f.map)):
        raise PreconditionError(label, f"{label} is not a homomorphism")
    if not f.is_bijective():
        raise PreconditionError(label, f"{label} is not bijective")
    if not is_gwa_morphism(f, src, tgt):
        raise PreconditionError(label, f"{label} does not preserve the self-action")


def transport_codomain(x: GXMod, f: Hom, new_b: GwaObject) -> tuple[GXMod, GXModMorphism]:
    """Replace B by an isomorphic gwa object along f: B -> B'.

    The new structure map is f o alpha and b' acts as its f-preimage did.
    Returns the transported module and the isomorphism <1_A, f> from x to it.
    """
    _require_gwa_iso(f, x.B, new_b, "codomain iso")
    finv = inverse_hom(f)
    act = tuple(x.action.act[finv.map[bp]] for bp in range(new_b.order))
    result = GXMod(
        x.A,
        new_b,
        compose_homs(f, x.alpha),
        ExtAction(new_b, x.A, act),
        f"{x.name}~cod" if x.name else "",
    )
    witness = GXModMorphism(x, result, identity_hom(x.A.group), f)
    return result, witness


def transport_domain(x: GXMod, g: Hom, new_a: GwaObject) -> tuple[GXMod, GXModMorphism]:
    """Replace A by an isomorphic gwa object along g: A' -> A.

    The new structure map is alpha o g and the action is pulled back through
    g.  Returns the transported module and the isomorphism <g, 1_B> from it
    to x.
    """
    _require_gwa_iso(g, new_a, x.A, "domain iso")
    ginv = inverse_hom(g)
    act = tuple(
        tuple(ginv.map[x.action.act[b][g.map[ap]]] for ap in range(new_a.order))
        for b in range(x.B.order)
    )
    result = GXMod(
        new_a,
        x.B,
        compose_homs(x.alpha, g),
        ExtAction(x.B, new_a, act),
        f"{x.name}~dom" if x.name else "",
    )
    witness = GXModMorphism(result, x, g, identity_hom(x.B.group))
    return result, witness


def transport_both(
    x: GXMod, f: Hom, new_b: GwaObject, g: Hom, new_a: GwaObject
) -> tuple[GXMod, GXModMorphism]:
    """Transport both ends: the result is (A', B', f o alpha o g).

    Equals transport_codomain after transport_domain.  Returns the transported
    module and the isomorphism <g, f^-1> from it to x.
    """
    mid, _ = transport_domain(x, g, new_a)
    result, _ = transport_codomain(mid, f, new_b)
    witness = GXModMorphism(result, x, g, inverse_hom(f))
    return result, witness
