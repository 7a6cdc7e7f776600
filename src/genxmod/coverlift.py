"""Coverings and liftings of a generalized crossed module, and the functors between them.

A covering of (A, B, alpha) is a crossed module morphism <f, g> into it whose
A-component f is an isomorphism.  A lifting factors alpha through a group
with self-action X as omega o phi, such that (A, X, phi) is itself a
generalized crossed module under the action pulled back along omega.

The two constructions are functorially equivalent: a lifting becomes the
covering <1_A, omega>, and a covering <f, g> becomes the lifting through its
top-right corner with phi = alpha~ o f^-1.  The lifting-side round trip
reproduces the lifting table-for-table; the covering-side round trip is
isomorphic to the original via <f, 1>.

Criterion theorems (factorization through a covering, extension through a
lifting) return either the constructed morphism or a WitnessFailure value
carrying a concrete counterexample element, so both directions of each
if-and-only-if are testable.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import wraps

from .crossed import (
    ExtAction,
    GXMod,
    GXModMorphism,
    _require_gwa_iso,
    check_gxmod_morphism_shape,
    equivariance_violations,
    gxmod_morphism_violations,
    gxmod_violations,
    is_simply_connected,
    transport_codomain,
    validate_gxmod_morphism,
)
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
    map_through,
    restrict_map,
)
from .gwa import GwaObject, quotient_gwa, sub_gwa
from .validation import (
    DEFAULT_MAX_VIOLATIONS,
    PreconditionError,
    RawViolation,
    StructuralError,
    ValidationReport,
    holds,
    prefixed,
    report,
    structure,
)


@structure
class Covering:
    """A crossed module morphism <f, g>: total -> base with f an isomorphism."""

    total: GXMod
    base: GXMod
    f: Hom
    g: Hom
    name: str = field(default="", compare=False)
    # covering_to_lifting(self), once built (see _kept_on_object)
    _image: object = field(default=None, init=False, compare=False, repr=False)

    def as_morphism(self) -> GXModMorphism:
        return GXModMorphism(self.total, self.base, self.f, self.g)


@structure
class CoveringMorphism:
    """A crossed module morphism between the totals of two coverings of one base,
    commuting with both covering projections."""

    source: Covering
    target: Covering
    f: Hom
    g: Hom
    name: str = field(default="", compare=False)


@structure
class Lifting:
    """A factorization of base.alpha as omega o phi through the gwa object X."""

    base: GXMod
    X: GwaObject
    phi: Hom
    omega: Hom
    name: str = field(default="", compare=False)
    # lifting_to_covering(self), once built (see _kept_on_object)
    _image: object = field(default=None, init=False, compare=False, repr=False)


@structure
class LiftingMorphism:
    """A homomorphism between the X components commuting with both triangles.

    Commutation with the omega legs alone does not determine a functorial
    morphism notion (a V4-based counterexample exists); the phi triangle
    f o phi = phi' is part of the definition here, matching the commutative
    diagram rather than the bare slice condition.
    """

    source: Lifting
    target: Lifting
    f: Hom
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class WitnessFailure:
    """A concrete element witnessing that a criterion's kernel condition fails."""

    element: int
    description: str = ""


@dataclass(frozen=True)
class Inconclusive:
    """Returned where the theory makes no claim (e.g. omega' not injective)."""

    reason: str = ""


def triangle_violations(
    law: str, template: str, outer: Map, inner: Map, expected: Map
) -> Iterator[RawViolation]:
    """outer(inner(i)) = expected(i) for every i, witnessed by i."""
    for i, want in enumerate(expected):
        if outer[inner[i]] != want:
            yield law, (i,), template, (outer[inner[i]], want)


# ---------------------------------------------------------------------------
# coverings


def validate_covering(c: Covering, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    if c.f.source != c.total.A.group or c.f.target != c.base.A.group:
        raise StructuralError("covering f endpoints mismatch")
    if c.g.source != c.total.B.group or c.g.target != c.base.B.group:
        raise StructuralError("covering g endpoints mismatch")
    check_hom_shape(c.f, c.g)
    violations = covering_violations(c.total, c.base, c.f.map, c.g.map)
    return report(c.name or "covering", violations, max_violations)


def covering_violations(total: GXMod, base: GXMod, fm: Map, gm: Map) -> Iterator[RawViolation]:
    """The laws of the covering <f, g>: total -> base for the maps fm and gm."""
    yield from gxmod_morphism_violations(total, base, fm, gm)
    if not len(fm) == len(set(fm)) == base.A.order:
        yield "component_iso", (), "f is not a bijection", ()


def identity_covering(x: GXMod) -> Covering:
    return Covering(x, x, identity_hom(x.A.group), identity_hom(x.B.group), "id")


def covering_kernel_check(c: Covering) -> bool:
    """f maps ker of the total structure map into ker of the base one.

    Holds for every valid covering; exposed as a probe.
    """
    base_ker = set(kernel(c.base.alpha).members)
    return all(c.f.map[a] in base_ker for a in kernel(c.total.alpha).members)


def compose_coverings(outer: Covering, inner: Covering) -> Covering:
    """Cover the base of outer by the total of inner (inner covers outer's total)."""
    if inner.base != outer.total:
        raise StructuralError("covering composition mismatch: inner.base != outer.total")
    return Covering(
        inner.total,
        outer.base,
        compose_homs(outer.f, inner.f),
        compose_homs(outer.g, inner.g),
    )


def covering_transport(
    c: Covering, h: Hom, new_total_b: GwaObject, k: Hom, new_base_b: GwaObject
) -> Covering:
    """Transport the B components of total and base along isomorphisms h and k.

    The transported covering pair is <f, k o g o h^-1>.
    """
    total2, _ = transport_codomain(c.total, h, new_total_b)
    base2, _ = transport_codomain(c.base, k, new_base_b)
    g2 = compose_homs(compose_homs(k, c.g), inverse_hom(h))
    return Covering(total2, base2, c.f, g2)


def validate_covering_morphism(
    m: CoveringMorphism, max_violations: int = DEFAULT_MAX_VIOLATIONS
) -> ValidationReport:
    if m.source.base != m.target.base:
        raise StructuralError("covering morphism endpoints cover different bases")
    check_gxmod_morphism_shape(GXModMorphism(m.source.total, m.target.total, m.f, m.g))
    violations = covering_morphism_violations(m.source, m.target, m.f.map, m.g.map)
    return report(m.name or "covering morphism", violations, max_violations)


def covering_morphism_violations(c1: Covering, c2: Covering, um: Map, vm: Map) -> Iterator[RawViolation]:
    """The laws of <u, v>: c1 -> c2 for the maps um and vm."""
    yield from gxmod_morphism_violations(c1.total, c2.total, um, vm)
    yield from triangle_f_violations(c1, c2, um)
    yield from triangle_g_violations(c1, c2, vm)


def triangle_f_violations(c1: Covering, c2: Covering, um: Map) -> Iterator[RawViolation]:
    """f' o u = f~ for the A-component um of a covering morphism, witnessed by a."""
    return triangle_violations("triangle_f", "f'(f({0})) = {1} != f~({0}) = {2}", c2.f.map, um, c1.f.map)


def triangle_g_violations(c1: Covering, c2: Covering, vm: Map) -> Iterator[RawViolation]:
    """g' o v = g~ for the B-component vm of a covering morphism, witnessed by b."""
    return triangle_violations("triangle_g", "g'(g({0})) = {1} != g~({0}) = {2}", c2.g.map, vm, c1.g.map)


def identity_covering_morphism(c: Covering) -> CoveringMorphism:
    return CoveringMorphism(c, c, identity_hom(c.total.A.group), identity_hom(c.total.B.group), "id")


def morphism_between_coverings(m: CoveringMorphism) -> Covering:
    """A morphism of coverings is itself a covering of the target's total.

    Its A-component is forced to be (f')^-1 o f~, hence bijective; the
    bijectivity is asserted.
    """
    check = validate_covering_morphism(m)
    if not check.ok:
        raise PreconditionError("covering_morphism", check.summary())
    if not m.f.is_bijective():
        raise StructuralError("covering morphism A-component failed to be bijective")
    return Covering(m.source.total, m.target.total, m.f, m.g)


def factor_through_covering(
    src: GXMod, m: GXModMorphism, c: Covering
) -> GXModMorphism | WitnessFailure:
    """Factor m: src -> base through the covering c when the kernel condition allows.

    src must be simply connected.  Returns <f', g'> with c composed after it
    equal to m, where f' = f~^-1 o f and g' takes d to alpha~(f'(c0)) for any
    preimage c0 of d; or a WitnessFailure element of f(ker gamma) outside
    f~(ker alpha~).  Well-definedness of g' is asserted over every preimage.
    """
    if m.source != src or m.target != c.base:
        raise StructuralError("morphism endpoints do not match src and the covering base")
    if not is_simply_connected(src):
        raise PreconditionError("simply_connected", "source crossed module is not simply connected")
    gamma = src.alpha
    f_tilde, g_tilde = c.f, c.g
    ker_gamma = kernel(gamma).members
    covered_kernel = {f_tilde.map[a] for a in kernel(c.total.alpha).members}
    for x in ker_gamma:
        if m.f.map[x] not in covered_kernel:
            return WitnessFailure(
                m.f.map[x],
                f"f({x}) = {m.f.map[x]} lies in f(ker gamma) but not in f~(ker alpha~)",
            )
    f_tilde_inv = inverse_hom(f_tilde)
    f_prime = compose_homs(f_tilde_inv, m.f)
    alpha_tilde = c.total.alpha
    g_prime_map = map_through(gamma.map, [alpha_tilde.map[x] for x in f_prime.map], src.B.order, "factorization g'")
    g_prime = Hom(src.B.group, c.total.B.group, g_prime_map)
    result = GXModMorphism(src, c.total, f_prime, g_prime)
    check = validate_gxmod_morphism(result)
    if not check.ok:
        raise StructuralError("constructed factorization is not a morphism:\n" + check.summary())
    for a in range(src.A.order):
        if f_tilde.map[f_prime.map[a]] != m.f.map[a]:
            raise StructuralError("factorization does not recompose to m on A")
    for d in range(src.B.order):
        if g_tilde.map[g_prime.map[d]] != m.g.map[d]:
            raise StructuralError("factorization does not recompose to m on B")
    return result


# ---------------------------------------------------------------------------
# liftings


def induced_action(base: GXMod, om: Map) -> Table:
    """The action table of X on A obtained through the map om: x . a = omega(x) . a."""
    return tuple(base.action.act[b] for b in om)


def lifting_as_gxmod(l: Lifting) -> GXMod:
    """(A, X, phi) with the omega-induced action, as a crossed module in its own right."""
    return GXMod(
        l.base.A,
        l.X,
        l.phi,
        ExtAction(l.X, l.base.A, induced_action(l.base, l.omega.map)),
        f"lifting({l.name})" if l.name else "",
    )


def validate_lifting(l: Lifting, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Check omega o phi = alpha and the crossed module axioms of (A, X, phi)."""
    if l.phi.source != l.base.A.group or l.phi.target != l.X.group:
        raise StructuralError("phi endpoints mismatch")
    if l.omega.source != l.X.group or l.omega.target != l.base.B.group:
        raise StructuralError("omega endpoints mismatch")
    check_hom_shape(l.phi, l.omega)
    return report(l.name or "lifting", lifting_violations(l.base, l.X, l.phi.map, l.omega.map), max_violations)


def lifting_violations(base: GXMod, x_obj: GwaObject, pm: Map, om: Map) -> Iterator[RawViolation]:
    """The laws of the lifting of base through x_obj for the maps pm: A -> X and om: X -> B."""
    yield from prefixed("phi", hom_violations(base.A.group, x_obj.group, pm))
    yield from prefixed("omega", hom_violations(x_obj.group, base.B.group, om))
    yield from factorization_violations(base, pm, om)
    act = induced_action(base, om)
    yield from prefixed("induced", gxmod_violations(pm, act, base.A.self_action.act, x_obj.self_action.act))


def factorization_violations(base: GXMod, pm: Map, om: Map) -> Iterator[RawViolation]:
    """omega o phi = alpha, witnessed by a."""
    template = "omega(phi({0})) = {1} != alpha({0}) = {2}"
    return triangle_violations("factorization", template, om, pm, base.alpha.map)


def lifting_criterion(base: GXMod, x_obj: GwaObject, phi: Hom, omega: Hom) -> bool:
    """Equivariance of phi for the induced action decides liftinghood.

    Requires omega o phi = alpha (PreconditionError otherwise).  Returns True
    exactly when phi(x . a) = ^x phi(a) for all x, a; the peiffer condition is
    automatic given the factorization.
    """
    for _, (a,), _, _ in factorization_violations(base, phi.map, omega.map):
        raise PreconditionError("factorization", f"omega o phi != alpha at {a}")
    return holds(equivariance_violations(phi.map, induced_action(base, omega.map), x_obj.self_action.act))


def self_lifting(x: GXMod) -> Lifting:
    """(A, B, alpha) as a lifting of itself over the identity."""
    return Lifting(x, x.B, x.alpha, identity_hom(x.B.group), "self")


def image_lifting(x: GXMod) -> Lifting:
    """The lifting through the image of alpha, over the inclusion."""
    i_gwa, emb = sub_gwa(x.B, image(x.alpha).members)
    pos = {v: i for i, v in enumerate(emb.map)}
    what = "alpha maps A into im alpha"
    phi = Hom(x.A.group, i_gwa.group, restrict_map(x.alpha.map, range(x.A.order), pos, what))
    return Lifting(x, i_gwa, phi, emb, "image")


def quotient_lifting(x: GXMod, n: Subgroup) -> Lifting:
    """Lift through A/N for an ideal N of A contained in ker alpha.

    phi is the canonical projection, omega sends a coset to alpha of any
    representative, and ker phi = N.
    """
    if n.parent != x.A.group:
        raise StructuralError("subgroup parent is not A")
    ker_a = set(kernel(x.alpha).members)
    if not set(n.members) <= ker_a:
        raise PreconditionError(
            "contained_in_kernel", "N is not contained in the kernel of alpha"
        )
    # quotient_gwa raises the PreconditionError of an N that is not an ideal
    q_gwa, proj = quotient_gwa(x.A, n)
    omega = Hom(q_gwa.group, x.B.group, map_through(proj.map, x.alpha.map, q_gwa.order, "omega"))
    return Lifting(x, q_gwa, proj, omega, "quotient")


def natural_lifting(x: GXMod) -> Lifting:
    """The quotient lifting by the full kernel of alpha."""
    lift = quotient_lifting(x, kernel(x.alpha))
    return Lifting(lift.base, lift.X, lift.phi, lift.omega, "natural")


def lifting_to_base_morphism(l: Lifting) -> GXModMorphism:
    """<1_A, omega>: (A, X, phi) -> (A, B, alpha); ker phi <= ker alpha is asserted."""
    ker_alpha = set(kernel(l.base.alpha).members)
    for a in kernel(l.phi).members:
        if a not in ker_alpha:
            raise StructuralError(f"ker phi escapes ker alpha at {a}")
    return GXModMorphism(
        lifting_as_gxmod(l), l.base, identity_hom(l.base.A.group), l.omega
    )


def lifting_transport(
    l: Lifting, f: Hom, new_x: GwaObject, g: Hom, new_b: GwaObject
) -> Lifting:
    """Transport a lifting along isomorphisms f: X -> X' and g: B -> B'.

    The result lifts the codomain-transported base over omega' = g o omega o f^-1
    with phi' = f o phi.
    """
    _require_gwa_iso(f, l.X, new_x, "X iso")
    base2, _ = transport_codomain(l.base, g, new_b)
    phi2 = compose_homs(f, l.phi)
    omega2 = compose_homs(compose_homs(g, l.omega), inverse_hom(f))
    return Lifting(base2, new_x, phi2, omega2)


def compose_liftings(outer: Lifting, inner: Lifting) -> Lifting:
    """Chain a lifting of outer's crossed module into a lifting of outer's base.

    inner must lift (A, X, phi) of outer; the result keeps inner's phi and
    composes the omegas.
    """
    if inner.base != lifting_as_gxmod(outer):
        raise StructuralError("lifting composition mismatch: inner.base != outer as gxmod")
    return Lifting(
        outer.base, inner.X, inner.phi, compose_homs(outer.omega, inner.omega)
    )


def validate_lifting_morphism(
    m: LiftingMorphism, max_violations: int = DEFAULT_MAX_VIOLATIONS
) -> ValidationReport:
    if m.source.base != m.target.base:
        raise StructuralError("lifting morphism endpoints lift different bases")
    if m.f.source != m.source.X.group or m.f.target != m.target.X.group:
        raise StructuralError("lifting morphism f endpoints mismatch")
    check_hom_shape(m.f)
    violations = lifting_morphism_violations(m.source, m.target, m.f.map)
    return report(m.name or "lifting morphism", violations, max_violations)


def lifting_morphism_violations(l1: Lifting, l2: Lifting, fm: Map) -> Iterator[RawViolation]:
    """The laws of f: l1 -> l2 for the map fm between the X components."""
    yield from prefixed("f", hom_violations(l1.X.group, l2.X.group, fm))
    yield from triangle_omega_violations(l1, l2, fm)
    yield from triangle_phi_violations(l1, l2, fm)


def triangle_omega_violations(l1: Lifting, l2: Lifting, fm: Map) -> Iterator[RawViolation]:
    """omega' o f = omega, witnessed by x."""
    template = "omega'(f({0})) = {1} != omega({0}) = {2}"
    return triangle_violations("triangle_omega", template, l2.omega.map, fm, l1.omega.map)


def triangle_phi_violations(l1: Lifting, l2: Lifting, fm: Map) -> Iterator[RawViolation]:
    """f o phi = phi', witnessed by a."""
    template = "f(phi({0})) = {1} != phi'({0}) = {2}"
    return triangle_violations("triangle_phi", template, fm, l1.phi.map, l2.phi.map)


def identity_lifting_morphism(l: Lifting) -> LiftingMorphism:
    return LiftingMorphism(l, l, identity_hom(l.X.group), "id")


def lifting_morphism_as_lifting(m: LiftingMorphism) -> Lifting | Inconclusive:
    """Reinterpret the source lifting as a lifting of the target over f.

    Only claimed when the target's omega is injective; otherwise Inconclusive.
    """
    if not m.target.omega.is_injective():
        return Inconclusive("omega' is not a monomorphism")
    if not holds(triangle_phi_violations(m.source, m.target, m.f.map)):
        raise StructuralError("f o phi != phi' despite omega' being injective")
    return Lifting(lifting_as_gxmod(m.target), m.source.X, m.source.phi, m.f)


def extend_morphism_through_lifting(
    m: GXModMorphism, l: Lifting
) -> GXModMorphism | WitnessFailure:
    """Lift m: src -> base through l when f(ker alpha~) lands inside ker phi.

    src must be simply connected.  The extension is <f, g~> with
    g~(b~) = phi(f(a~)) for any alpha~-preimage a~, and omega o g~ = g; or a
    WitnessFailure element of f(ker alpha~) outside ker phi.
    """
    src = m.source
    if m.target != l.base:
        raise StructuralError("morphism target is not the lifting's base")
    if not is_simply_connected(src):
        raise PreconditionError("simply_connected", "source crossed module is not simply connected")
    ker_phi = set(kernel(l.phi).members)
    for x in kernel(src.alpha).members:
        if m.f.map[x] not in ker_phi:
            return WitnessFailure(
                m.f.map[x],
                f"f({x}) = {m.f.map[x]} lies in f(ker alpha~) but not in ker phi",
            )
    g_map = map_through(src.alpha.map, [l.phi.map[x] for x in m.f.map], src.B.order, "extension g~")
    g_tilde = Hom(src.B.group, l.X.group, g_map)
    result = GXModMorphism(src, lifting_as_gxmod(l), m.f, g_tilde)
    check = validate_gxmod_morphism(result)
    if not check.ok:
        raise StructuralError("constructed extension is not a morphism:\n" + check.summary())
    for b in range(src.B.order):
        if l.omega.map[g_tilde.map[b]] != m.g.map[b]:
            raise StructuralError("extension does not satisfy omega o g~ = g")
    return result


# ---------------------------------------------------------------------------
# the equivalence functors


def _kept_on_object(functor):
    """functor(o), built on the first call and kept on o for o's lifetime.

    The equivalence check asks for each object's image in its object and
    identity checks, and for the images of the endpoints of every
    shape-level morphism and of its image, so the first object of a shape
    has its image asked for once per morphism into or out of its shape.
    The image is kept in o's _image field, declared with init=False and
    compare=False: o compares, hashes and prints as before, and a copy made
    by dataclasses.replace starts without one.  Only the image of o itself
    is kept, never seeded from elsewhere, so the image of an image is built
    fresh on its own object and a round trip yields a new object equal to o.
    """

    @wraps(functor)
    def kept(o):
        image = o._image
        if image is None:
            image = functor(o)
            object.__setattr__(o, "_image", image)
        return image

    return kept


@_kept_on_object
def lifting_to_covering(l: Lifting) -> Covering:
    """A lifting (A, X, phi) over omega becomes the covering <1_A, omega> of the base."""
    return Covering(
        lifting_as_gxmod(l), l.base, identity_hom(l.base.A.group), l.omega, l.name
    )


@_kept_on_object
def covering_to_lifting(c: Covering) -> Lifting:
    """A covering <f, g> becomes the lifting through its top-right corner.

    X is the total's B component, phi = alpha~ o f^-1, omega = g.
    """
    phi = compose_homs(c.total.alpha, inverse_hom(c.f))
    return Lifting(c.base, c.total.B, phi, c.g, c.name)


def functor_on_lifting_morphism(m: LiftingMorphism) -> CoveringMorphism:
    """A lifting morphism f becomes the covering morphism <1_A, f>."""
    source = lifting_to_covering(m.source)
    # the A-component is the 1_A its source image was built with
    return CoveringMorphism(source, lifting_to_covering(m.target), source.f, m.f)


def functor_on_covering_morphism(m: CoveringMorphism) -> LiftingMorphism:
    """A covering morphism <u, v> becomes the lifting morphism v between the images."""
    return LiftingMorphism(
        covering_to_lifting(m.source), covering_to_lifting(m.target), m.g
    )
