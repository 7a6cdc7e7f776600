"""Independent brute-force re-implementations used to ground the test suite.

Everything here works on raw tables (lists of lists of ints) with naive
loops, deliberately sharing no logic with the validators or enumerators it
cross-checks.  Feasibility guards keep the exponential searches at orders
where they finish instantly.
"""

from __future__ import annotations

from itertools import permutations, product

from .coverlift import Covering, CoveringMorphism, Lifting, LiftingMorphism, lifting_as_gxmod
from .crossed import GXMod, GXModMorphism
from .groups import Hom, all_homs
from .validation import StructuralError, Violation


def raw_associativity_witnesses(op) -> list[tuple[int, int, int]]:
    n = len(op)
    return [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if op[op[a][b]][c] != op[a][op[b][c]]
    ]


def raw_is_self_action(op, act) -> bool:
    n = len(op)
    e = next(x for x in range(n) if all(op[x][g] == g for g in range(n)))
    if any(act[e][h] != h for h in range(n)):
        return False
    for g1 in range(n):
        for g2 in range(n):
            if any(act[op[g1][g2]][h] != act[g1][act[g2][h]] for h in range(n)):
                return False
    for g in range(n):
        for h1 in range(n):
            if any(act[g][op[h1][h2]] != op[act[g][h1]][act[g][h2]] for h2 in range(n)):
                return False
    return True


def raw_self_action_tables_bruteforce(op) -> list[tuple[tuple[int, ...], ...]]:
    """Every self-action table, found by checking every n x n table. n <= 3 only."""
    n = len(op)
    if n > 3:
        raise StructuralError("full-table search is only feasible for n <= 3")
    found = []
    for flat in product(range(n), repeat=n * n):
        act = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if raw_is_self_action(op, act):
            found.append(act)
    return found


def raw_self_action_tables(op) -> list[tuple[tuple[int, ...], ...]]:
    """Every self-action table via row-level backtracking.

    Each row is an automorphism (the row of x^-1 inverts the row of x), so
    rows are drawn from raw_aut_maps; the identity row is forced, the other
    rows are assigned one element at a time, and each assigned prefix must
    be compatible, act[g1*g2] = act[g1] o act[g2], wherever g1, g2 and
    g1*g2 are all assigned.  Feasible for n <= 8."""
    n = len(op)
    if n > 8:
        raise StructuralError("row search is only feasible for n <= 8")
    rows = raw_aut_maps(op)
    e = next(x for x in range(n) if all(op[x][g] == g for g in range(n)))
    others = [g for g in range(n) if g != e]
    act: list = [None] * n
    act[e] = tuple(range(n))
    found = []

    def compatible(g) -> bool:
        for g1 in range(n):
            for g2 in range(n):
                g12 = op[g1][g2]
                if g not in (g1, g2, g12) or None in (act[g1], act[g2], act[g12]):
                    continue
                row1, row2, row12 = act[g1], act[g2], act[g12]
                if any(row12[h] != row1[row2[h]] for h in range(n)):
                    return False
        return True

    def assign(k) -> None:
        if k == len(others):
            found.append(tuple(act))
            return
        g = others[k]
        for row in rows:
            act[g] = row
            if compatible(g):
                assign(k + 1)
        act[g] = None

    assign(0)
    return found


def raw_hom_maps(src_op, tgt_op, limit: int = 5_000_000) -> list[tuple[int, ...]]:
    """Every homomorphism map by checking all |tgt|^|src| functions."""
    ns, nt = len(src_op), len(tgt_op)
    if nt**ns > limit:
        raise StructuralError("raw hom search too large")
    out = []
    rng = range(ns)
    for m in product(range(nt), repeat=ns):
        if all(m[src_op[a][b]] == tgt_op[m[a]][m[b]] for a in rng for b in rng):
            out.append(m)
    return out


def raw_aut_maps(op) -> list[tuple[int, ...]]:
    """Every automorphism by filtering permutations that fix the identity."""
    n = len(op)
    e = next(x for x in range(n) if all(op[x][g] == g for g in range(n)))
    rest = [x for x in range(n) if x != e]
    out = []
    for perm in permutations(rest):
        m = [0] * n
        m[e] = e
        for pos, val in zip(rest, perm):
            m[pos] = val
        if all(m[op[a][b]] == op[m[a]][m[b]] for a in range(n) for b in range(n)):
            out.append(tuple(m))
    return out


def raw_gxmod_condition_violations(op_a, op_b, sa_a, sa_b, alpha, action):
    """Re-test the two crossed module conditions straight off the tables."""
    na, nb = len(op_a), len(op_b)
    bad = []
    for b in range(nb):
        for a in range(na):
            if alpha[action[b][a]] != sa_b[b][alpha[a]]:
                bad.append(("equivariance", (b, a)))
    for a in range(na):
        for a1 in range(na):
            if action[alpha[a]][a1] != sa_a[a][a1]:
                bad.append(("peiffer", (a, a1)))
    return bad


def raw_is_gxmod(x: GXMod) -> bool:
    return not raw_gxmod_condition_violations(
        x.A.group.op,
        x.B.group.op,
        x.A.self_action.act,
        x.B.self_action.act,
        x.alpha.map,
        x.action.act,
    )


def raw_hom_witnesses(src_op, tgt_op, m) -> list[tuple[int, int]]:
    n = len(src_op)
    return [
        (a, b) for a in range(n) for b in range(n) if m[src_op[a][b]] != tgt_op[m[a]][m[b]]
    ]


def raw_gxmod_morphism_violations(src: GXMod, tgt: GXMod, fm, gm):
    """Re-test the morphism conditions of <f, g>: src -> tgt straight off the tables."""
    na, nb = range(len(fm)), range(len(gm))
    act_s, act_t = src.action.act, tgt.action.act
    sa_s, sa_t = src.A.self_action.act, tgt.A.self_action.act
    return (
        [("f.homomorphism", w) for w in raw_hom_witnesses(src.A.group.op, tgt.A.group.op, fm)]
        + [("g.homomorphism", w) for w in raw_hom_witnesses(src.B.group.op, tgt.B.group.op, gm)]
        + [("square", (a,)) for a in na if gm[src.alpha.map[a]] != tgt.alpha.map[fm[a]]]
        + [("equivariance", (b, a)) for b in nb for a in na if fm[act_s[b][a]] != act_t[gm[b]][fm[a]]]
        + [
            ("domain_action_preserved", (a, a1))
            for a in na
            for a1 in na
            if fm[sa_s[a][a1]] != sa_t[fm[a]][fm[a1]]
        ]
    )


def raw_is_covering_morphism(c1: Covering, c2: Covering, um, vm) -> bool:
    """<u, v> is a crossed module morphism between the totals over both triangles."""
    return (
        not raw_gxmod_morphism_violations(c1.total, c2.total, um, vm)
        and all(c2.f.map[u] == f for u, f in zip(um, c1.f.map))
        and all(c2.g.map[v] == g for v, g in zip(vm, c1.g.map))
    )


def raw_is_lifting_morphism(l1: Lifting, l2: Lifting, fm) -> bool:
    """f is a homomorphism of the X parts commuting with the omega and phi triangles."""
    return (
        not raw_hom_witnesses(l1.X.group.op, l2.X.group.op, fm)
        and all(l2.omega.map[f] == om for f, om in zip(fm, l1.omega.map))
        and all(fm[p1] == p2 for p1, p2 in zip(l1.phi.map, l2.phi.map))
    )


# ---------------------------------------------------------------------------
# brute-force searches mirroring the criterion theorems


def search_factorizations(src: GXMod, m: GXModMorphism, c: Covering) -> list[GXModMorphism]:
    """Every morphism pair src -> c.total that recomposes to m through c.

    Direct search over homomorphism pairs; no use of the kernel criterion.
    """
    out = []
    fm, gm = m.f.map, m.g.map
    ft, gt = c.f.map, c.g.map
    for f_prime in all_homs(src.A.group, c.total.A.group):
        if any(ft[f_prime.map[a]] != fm[a] for a in range(src.A.order)):
            continue
        for g_prime in all_homs(src.B.group, c.total.B.group):
            if any(gt[g_prime.map[b]] != gm[b] for b in range(src.B.order)):
                continue
            if not raw_gxmod_morphism_violations(src, c.total, f_prime.map, g_prime.map):
                out.append(GXModMorphism(src, c.total, f_prime, g_prime))
    return out


def search_extensions(m: GXModMorphism, l: Lifting) -> list[GXModMorphism]:
    """Every morphism <f, g~> from m's source into the lifting with omega o g~ = g."""
    out = []
    src = m.source
    target = lifting_as_gxmod(l)
    om = l.omega.map
    for g_tilde in all_homs(src.B.group, l.X.group):
        if any(om[g_tilde.map[b]] != m.g.map[b] for b in range(src.B.order)):
            continue
        if not raw_gxmod_morphism_violations(src, target, m.f.map, g_tilde.map):
            out.append(GXModMorphism(src, target, m.f, g_tilde))
    return out


def search_covering_isomorphisms(c1: Covering, c2: Covering) -> list:
    """Invertible covering morphisms c1 -> c2, by direct enumeration."""
    out = []
    for u in all_homs(c1.total.A.group, c2.total.A.group):
        if not u.is_bijective():
            continue
        for v in all_homs(c1.total.B.group, c2.total.B.group):
            if not v.is_bijective():
                continue
            if raw_is_covering_morphism(c1, c2, u.map, v.map):
                out.append(CoveringMorphism(c1, c2, u, v))
    return out


def search_lifting_isomorphisms(l1: Lifting, l2: Lifting) -> list:
    """Invertible lifting morphisms l1 -> l2, by direct enumeration."""
    out = []
    for f in all_homs(l1.X.group, l2.X.group):
        if f.is_bijective() and raw_is_lifting_morphism(l1, l2, f.map):
            out.append(LiftingMorphism(l1, l2, f))
    return out


# ---------------------------------------------------------------------------
# witness replay: re-evaluate one law instance straight off the tables


def replay_violation(obj, violation: Violation) -> bool:
    """Confirm that the violation's law really fails at its witness.

    Accepts the object the validator was run on (GwaObject, GXMod, GCat1,
    Covering or Lifting) and evaluates the named law independently.  Returns
    True when the witnessed instance indeed violates the law.
    """
    law = violation.law.split(".")
    return _replay(obj, law, violation.witness)


def _replay(obj, law: list[str], w: tuple[int, ...]) -> bool:
    from .cat1 import GCat1
    from .gwa import GwaObject

    head, rest = law[0], law[1:]
    if isinstance(obj, Covering):
        return _replay_morphism_law(obj.as_morphism(), law, w)
    if isinstance(obj, Lifting):
        if head == "factorization":
            (a,) = w
            return obj.omega.map[obj.phi.map[a]] != obj.base.alpha.map[a]
        if head == "induced":
            return _replay(lifting_as_gxmod(obj), rest, w)
        if head in ("phi", "omega"):
            return _replay_hom_law(getattr(obj, head), rest, w)
        if head == "X":
            return _replay_gwa_law(obj.X, rest, w)
        if head == "base":
            return _replay(obj.base, rest, w)
        return _replay(lifting_as_gxmod(obj), law, w)
    if isinstance(obj, GCat1):
        return _replay_cat1_law(obj, law, w)
    if isinstance(obj, GXMod):
        if head == "A":
            if rest[0] == "group":
                return _replay_group_law(obj.A.group, rest[1:], w)
            return _replay_gwa_law(obj.A, rest, w)
        if head == "B":
            if rest[0] == "group":
                return _replay_group_law(obj.B.group, rest[1:], w)
            return _replay_gwa_law(obj.B, rest, w)
        if head == "alpha":
            return _replay_hom_law(obj.alpha, rest, w)
        if head == "action":
            return _replay_action_law(obj.action.act, obj.B.group, obj.A.group.op, rest, w)
        if head == "equivariance":
            b, a = w
            return (
                obj.alpha.map[obj.action.act[b][a]]
                != obj.B.self_action.act[b][obj.alpha.map[a]]
            )
        if head == "peiffer":
            a, a1 = w
            return obj.action.act[obj.alpha.map[a]][a1] != obj.A.self_action.act[a][a1]
        raise StructuralError(f"no replay rule for gxmod law {'.'.join(law)}")
    if isinstance(obj, GwaObject):
        return _replay_gwa_law(obj, law, w)
    raise StructuralError(f"no replay rule for {type(obj).__name__}")


def _replay_group_law(g, law: list[str], w) -> bool:
    op = g.op
    e = g.identity
    if law[0] == "associativity":
        a, b, c = w
        return op[op[a][b]][c] != op[a][op[b][c]]
    if law[0] == "identity_law":
        (x,) = w
        return op[e][x] != x or op[x][e] != x
    if law[0] == "inverse_law":
        (x,) = w
        return op[x][g.inv[x]] != e or op[g.inv[x]][x] != e
    raise StructuralError(f"no replay rule for group law {law}")


def _replay_gwa_law(gw, law: list[str], w) -> bool:
    if law[0] == "group":
        return _replay_group_law(gw.group, law[1:], w)
    return _replay_action_law(gw.self_action.act, gw.group, gw.group.op, law, w)


def _replay_action_law(act, actor, space_op, law: list[str], w) -> bool:
    """A law of the action act of the group actor on the group with table space_op."""
    if law[0] == "action_identity":
        (h,) = w
        return act[actor.identity][h] != h
    if law[0] == "action_compatibility":
        g1, g2, h = w
        return act[actor.op[g1][g2]][h] != act[g1][act[g2][h]]
    if law[0] == "action_automorphism":
        a, h1, h2 = w
        return act[a][space_op[h1][h2]] != space_op[act[a][h1]][act[a][h2]]
    raise StructuralError(f"no replay rule for action law {law}")


def _replay_hom_law(f: Hom, law: list[str], w) -> bool:
    if law[0] == "homomorphism":
        g, h = w
        return f.map[f.source.op[g][h]] != f.target.op[f.map[g]][f.map[h]]
    if law[0] == "identity_preserved":
        return f.map[f.source.identity] != f.target.identity
    raise StructuralError(f"no replay rule for hom law {law}")


def _replay_cat1_law(c, law: list[str], w) -> bool:
    if law[0] in ("s", "t"):
        h = c.s if law[0] == "s" else c.t
        if law[1] in ("homomorphism", "identity_preserved"):
            return _replay_hom_law(h, law[1:], w)
        if law[1] == "action_preserved":
            g, g1 = w
            act = c.G.self_action.act
            return h.map[act[g][g1]] != act[h.map[g]][h.map[g1]]
    sm, tm = c.s.map, c.t.map
    if law[0] == "st_equals_t":
        (g,) = w
        return sm[tm[g]] != tm[g]
    if law[0] == "ts_equals_s":
        (g,) = w
        return tm[sm[g]] != sm[g]
    if law[0] == "kernel_action":
        y, x = w
        return c.G.self_action.act[y][x] != x
    raise StructuralError(f"no replay rule for cat1 law {law}")


def _replay_morphism_law(m: GXModMorphism, law: list[str], w) -> bool:
    if law[0] == "component_iso":
        return not m.f.is_bijective()
    if law[0] in ("f", "g"):
        return _replay_hom_law(m.f if law[0] == "f" else m.g, law[1:], w)
    if law[0] == "square":
        (a,) = w
        return m.g.map[m.source.alpha.map[a]] != m.target.alpha.map[m.f.map[a]]
    if law[0] == "equivariance":
        b, a = w
        return (
            m.f.map[m.source.action.act[b][a]]
            != m.target.action.act[m.g.map[b]][m.f.map[a]]
        )
    if law[0] == "domain_action_preserved":
        a, a1 = w
        return (
            m.f.map[m.source.A.self_action.act[a][a1]]
            != m.target.A.self_action.act[m.f.map[a]][m.f.map[a1]]
        )
    raise StructuralError(f"no replay rule for morphism law {law}")
