"""Generalized cat1-groups (G, s, t) and their functor into generalized crossed modules.

G is a group with self-action, s and t are self-action-preserving
endomorphisms with s o t = t and t o s = s, and every element of ker t acts
trivially on ker s.  When the self-action is conjugation this recovers the
ordinary cat1-group axioms, with the kernel condition reducing to elementwise
commutation of ker s and ker t.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import field
from functools import partial

from .crossed import ExtAction, GXMod, GXModMorphism
from .groups import (
    Hom,
    Map,
    _cached_per_identity,
    check_hom_shape,
    compose_homs,
    hom_violations,
    identity_hom,
    image,
    kernel,
    restrict_map,
    restrict_table,
    subgroup_embedding,
)
from .gwa import (
    GwaObject,
    action_preserved_violations,
    conjugation_self_action,
    kernel_action_violations,
    restricted_gwa,
)
from .validation import (
    DEFAULT_MAX_VIOLATIONS,
    RawViolation,
    StructuralError,
    ValidationReport,
    holds,
    prefixed,
    report,
    structure,
)


@structure
class GCat1:
    """A generalized cat1-group: the endomorphisms s and t of the gwa object G."""

    G: GwaObject
    s: Hom
    t: Hom
    name: str = field(default="", compare=False)

    def __repr__(self) -> str:
        return f"GCat1({self.name or self.G.group.name})"


def _check_cat1_wiring(c: GCat1) -> None:
    g = c.G.group
    for label, h in (("s", c.s), ("t", c.t)):
        if h.source != g or h.target != g:
            raise StructuralError(f"{label} is not an endomorphism of G")


def validate_gcat1(c: GCat1, max_violations: int = DEFAULT_MAX_VIOLATIONS) -> ValidationReport:
    """Check both structure maps, their interchange law, and the kernel action law."""
    _check_cat1_wiring(c)
    check_hom_shape(c.s, c.t)
    return report(c.name or "gcat1", gcat1_violations(c.G, c.s.map, c.t.map), max_violations)


def gcat1_violations(G: GwaObject, sm: Map, tm: Map) -> Iterator[RawViolation]:
    """The laws of (G, s, t) for the endomorphism maps sm and tm."""
    g = G.group
    yield from prefixed("s", hom_violations(g, g, sm))
    yield from prefixed("t", hom_violations(g, g, tm))
    yield from prefixed("s", action_preserved_violations(G, G, sm))
    yield from prefixed("t", action_preserved_violations(G, G, tm))
    yield from interchange_violations(sm, tm)
    ker_s = tuple(x for x, y in enumerate(sm) if y == g.identity)
    ker_t = tuple(x for x, y in enumerate(tm) if y == g.identity)
    yield from kernel_action_violations(G.self_action.act, ker_s, ker_t)


def interchange_violations(sm: Map, tm: Map) -> Iterator[RawViolation]:
    """s o t = t and t o s = s, witnessed by g."""
    for g, (s_g, t_g) in enumerate(zip(sm, tm)):
        if sm[t_g] != t_g:
            yield "st_equals_t", (g,), "s(t({0})) = {1} != t({0}) = {2}", (sm[t_g], t_g)
        if tm[s_g] != s_g:
            yield "ts_equals_s", (g,), "t(s({0})) = {1} != s({0}) = {2}", (tm[s_g], s_g)


def check_ordinary_cat1(c: GCat1) -> bool:
    """True when the self-action of G is conjugation.

    In that case the kernel action law is equivalent to elementwise
    commutation of ker s and ker t; the equivalence is re-checked and a
    StructuralError raised if it ever failed.
    """
    g = c.G.group
    act = c.G.self_action.act
    if act != conjugation_self_action(g).act:
        return False
    ker_s = kernel(c.s).members
    ker_t = kernel(c.t).members
    commute = all(g.op[x][y] == g.op[y][x] for x in ker_s for y in ker_t)
    if commute != holds(kernel_action_violations(act, ker_s, ker_t)):
        raise StructuralError("conjugation kernel law disagrees with commutation check")
    return True


# the most recently used images that cat1_to_gxmod keeps: the 37 cat1-groups
# of order <= 4, whose morphisms the composition-law sweeps visit, fit; the
# 3471 of order <= 8 do not, and are visited one at a time
IMAGE_MEMO_SIZE = 64


@partial(_cached_per_identity, maxsize=IMAGE_MEMO_SIZE)
def _cat1_image(c: GCat1) -> tuple[GXMod, dict[int, int], dict[int, int]]:
    """The crossed module of c, and the positions in it of the members of ker s and of im s.

    The ker s and im s tables, embeddings and positions are looked up in
    groups.subgroup_embedding's cache, shared by every cat1-group with the
    same group and s; the restricted self-actions, t|ker s and the action of
    im s on ker s are built for c.
    """
    g = c.G.group
    k_emb, ker_pos = subgroup_embedding(g, kernel(c.s).members)
    k_gwa = restricted_gwa(c.G, k_emb, ker_pos)
    i_emb, im_pos = subgroup_embedding(g, image(c.s).members)
    i_gwa = restricted_gwa(c.G, i_emb, im_pos)
    tbar = restrict_map(c.t.map, k_emb.map, im_pos, "t maps ker s into im s")
    what = "invariance of ker s under im s"
    act = restrict_table(c.G.self_action.act, i_emb.map, k_emb.map, ker_pos, what)
    x = GXMod(
        k_gwa,
        i_gwa,
        Hom(k_gwa.group, i_gwa.group, tbar, "t|ker s"),
        ExtAction(i_gwa, k_gwa, act),
        f"from_cat1({c.name or c.G.group.name})",
    )
    return x, ker_pos, im_pos


def cat1_to_gxmod(c: GCat1) -> GXMod:
    """The crossed module (ker s, im s, t restricted), with im s acting via the self-action.

    t maps ker s into im s (a consequence of s o t = t); this inclusion and
    the invariance of ker s under the action of im s are asserted during
    construction.

    Images are cached by the identity of c, not by equality (see
    groups._cached_per_identity): a structurally equal cat1-group with
    another name gets its own image, named after it.  The cache keeps the
    IMAGE_MEMO_SIZE most recently used images, so a sweep over every
    cat1-group holds a few dozen of them at a time.
    cat1_to_gxmod.cache_clear() and cache_info() are those of the cache's
    functools.lru_cache: cache_info() reports its hits, misses, bound and
    size.
    """
    return _cat1_image(c)[0]


cat1_to_gxmod.cache_clear = _cat1_image.cache_clear
cat1_to_gxmod.cache_info = _cat1_image.cache_info


@structure
class GCat1Morphism:
    """A homomorphism f of the G components preserving their self-actions and
    commuting with s and with t."""

    source: GCat1
    target: GCat1
    f: Hom
    name: str = field(default="", compare=False)


def validate_gcat1_morphism(
    m: GCat1Morphism, max_violations: int = DEFAULT_MAX_VIOLATIONS
) -> ValidationReport:
    if m.f.source != m.source.G.group or m.f.target != m.target.G.group:
        raise StructuralError("morphism endpoints do not match the cat1 groups")
    check_hom_shape(m.f)
    violations = gcat1_morphism_violations(m.source, m.target, m.f.map)
    return report(m.name or "gcat1 morphism", violations, max_violations)


def gcat1_morphism_violations(c1: GCat1, c2: GCat1, fm: Map) -> Iterator[RawViolation]:
    """The laws of f: c1 -> c2 for the map fm."""
    yield from prefixed("f", hom_violations(c1.G.group, c2.G.group, fm))
    yield from prefixed("f", action_preserved_violations(c1.G, c2.G, fm))
    yield from commutes_violations(fm, c1.s.map, c1.t.map, c2.s.map, c2.t.map)


def commutes_violations(fm, s1, t1, s2, t2) -> Iterator[RawViolation]:
    """f o s = s' o f and f o t = t' o f, witnessed by g."""
    for g, f_g in enumerate(fm):
        if fm[s1[g]] != s2[f_g]:
            yield "commutes_with_s", (g,), "f(s({0})) = {1} != s'(f({0})) = {2}", (fm[s1[g]], s2[f_g])
        if fm[t1[g]] != t2[f_g]:
            yield "commutes_with_t", (g,), "f(t({0})) = {1} != t'(f({0})) = {2}", (fm[t1[g]], t2[f_g])


def identity_gcat1_morphism(c: GCat1) -> GCat1Morphism:
    return GCat1Morphism(c, c, identity_hom(c.G.group), "id")


def compose_gcat1_morphisms(outer: GCat1Morphism, inner: GCat1Morphism) -> GCat1Morphism:
    if inner.target != outer.source:
        raise StructuralError("gcat1 morphism composition mismatch")
    return GCat1Morphism(inner.source, outer.target, compose_homs(outer.f, inner.f))


def cat1_functor_on_morphism(m: GCat1Morphism) -> GXModMorphism:
    """Restrict f to kernels and images: the morphism part of the cat1 -> gxmod functor.

    f(ker s) lies in ker s' and f(im s) in im s' whenever m is a valid
    morphism; both containments are asserted.
    """
    src, src_ker, src_im = _cat1_image(m.source)
    tgt, tgt_ker, tgt_im = _cat1_image(m.target)
    fm = m.f.map
    f_ker = restrict_map(fm, src_ker, tgt_ker, "f maps ker s into ker s'")
    f_im = restrict_map(fm, src_im, tgt_im, "f maps im s into im s'")
    return GXModMorphism(
        src,
        tgt,
        Hom(src.A.group, tgt.A.group, f_ker),
        Hom(src.B.group, tgt.B.group, f_im),
    )
