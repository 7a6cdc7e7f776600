"""JSON file formats for every structure, with deterministic output.

Group / group-with-action documents:
    {"name": str, "order": n, "op": [[...]], "self_action": [[...]]}
self_action may be omitted (trivial action).  Element indices run 0..n-1 and
the identity must sit at index 0; loaders renumber elements to enforce this,
rewriting dependent tables consistently.

Crossed module: {"A": gwa, "B": gwa, "alpha": [...], "action": [[...]]}
Cat1-group:     {"G": gwa, "s": [...], "t": [...]}
Covering:       {"total": gxmod, "base": gxmod, "f": [...], "g": [...]}
Lifting:        {"base": gxmod, "X": gwa, "phi": [...], "omega": [...]}

dumps produces canonical bytes: sorted keys, compact separators, trailing
newline; equal structures serialize identically.
"""

from __future__ import annotations

import json
from typing import Any

from .cat1 import GCat1
from .coverlift import Covering, Lifting
from .crossed import ExtAction, GXMod
from .groups import GroupTable, Hom, group_from_op
from .gwa import GwaObject, SelfAction, trivial_self_action
from .search import EquivalenceReport
from .validation import StructuralError


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# building documents


def gwa_doc(g: GwaObject) -> dict:
    doc = {
        "name": g.name or g.group.name,
        "order": g.group.order,
        "op": [list(row) for row in g.group.op],
    }
    # a trivial self-action, whose every row is the identity map, is left out
    n = g.group.order
    if g.self_action.act != (tuple(range(n)),) * n:
        doc["self_action"] = [list(row) for row in g.self_action.act]
    return doc


def group_doc(g: GroupTable) -> dict:
    return {"name": g.name, "order": g.order, "op": [list(row) for row in g.op]}


def gxmod_doc(x: GXMod) -> dict:
    return _gxmod_doc(x, gwa_doc)


def _gxmod_doc(x: GXMod, gwa) -> dict:
    return {
        "name": x.name,
        "A": gwa(x.A),
        "B": gwa(x.B),
        "alpha": list(x.alpha.map),
        "action": [list(row) for row in x.action.act],
    }


def cat1_doc(c: GCat1) -> dict:
    return {
        "name": c.name,
        "G": gwa_doc(c.G),
        "s": list(c.s.map),
        "t": list(c.t.map),
    }


def covering_doc(c: Covering) -> dict:
    return _covering_doc(c, gxmod_doc)


def _covering_doc(c: Covering, gxmod) -> dict:
    return {
        "name": c.name,
        "total": gxmod(c.total),
        "base": gxmod(c.base),
        "f": list(c.f.map),
        "g": list(c.g.map),
    }


def lifting_doc(l: Lifting) -> dict:
    return _lifting_doc(l, gxmod_doc, gwa_doc)


def _lifting_doc(l: Lifting, gxmod, gwa) -> dict:
    return {
        "name": l.name,
        "base": gxmod(l.base),
        "X": gwa(l.X),
        "phi": list(l.phi.map),
        "omega": list(l.omega.map),
    }


def covering_docs(coverings) -> list[dict]:
    """covering_doc of each covering; the parts they share are built once (see _SharedParts)."""
    parts = _SharedParts()
    return [_covering_doc(c, parts.gxmod) for c in coverings]


def lifting_docs(liftings) -> list[dict]:
    """lifting_doc of each lifting; the parts they share are built once (see _SharedParts)."""
    parts = _SharedParts()
    return [_lifting_doc(l, parts.gxmod, parts.gwa) for l in liftings]


class _SharedParts:
    """The documents of the crossed modules and gwa objects that the objects
    of one output share, each built on first use.

    An enumeration's objects hold few distinct parts between them: the one
    base, the gwa objects of the pool, one A~ per automorphism of A.  Each
    part's document is kept by the identity of the part, which is kept with
    it so that no identity is reused, and appears as one shared dict in
    every document that holds the part: dumps writes it out in full each
    time, and no caller mutates it.
    """

    def __init__(self) -> None:
        self._docs: dict[int, tuple[object, dict]] = {}

    def _doc(self, part, build) -> dict:
        kept = self._docs.get(id(part))
        if kept is None:
            kept = self._docs[id(part)] = (part, build(part))
        return kept[1]

    def gwa(self, g: GwaObject) -> dict:
        return self._doc(g, gwa_doc)

    def gxmod(self, x: GXMod) -> dict:
        return self._doc(x, lambda x: _gxmod_doc(x, self.gwa))


def equivalence_report_doc(rep: EquivalenceReport) -> dict:
    parts = _SharedParts()
    return {
        "base": rep.base_name,
        "order_bound": rep.order_bound,
        "pool_groups": list(rep.pool_groups),
        "lifting_count": rep.lifting_count,
        "covering_count": rep.covering_count,
        "liftings": [_lifting_doc(l, parts.gxmod, parts.gwa) for l in rep.liftings],
        "coverings": [_covering_doc(c, parts.gxmod) for c in rep.coverings],
        "lifting_to_covering_index": list(rep.lifting_to_covering_index),
        "covering_to_lifting_index": list(rep.covering_to_lifting_index),
        "roundtrip_lifting_exact": rep.roundtrip_lifting_exact,
        "roundtrip_covering_witnesses": [
            {"covering": i, "f": list(w.f.map), "g": list(w.g.map)}
            for i, w in enumerate(rep.roundtrip_covering_witnesses)
        ],
        "lifting_morphisms": [
            {"source": i, "target": j, "f": list(m.f.map)}
            for (i, j), homs in rep.lifting_homs.items()
            for m in homs
        ],
        "covering_morphisms": [
            {"source": i, "target": j, "f": list(m.f.map), "g": list(m.g.map)}
            for (i, j), homs in rep.covering_homs.items()
            for m in homs
        ],
        "lifting_morphism_count": rep.lifting_morphism_count,
        "covering_morphism_count": rep.covering_morphism_count,
        "morphism_checks": {
            "passed": rep.morphism_checks_passed,
            "failed": rep.morphism_checks_failed,
        },
        "functor_law_checks": {
            "passed": rep.functor_law_checks_passed,
            "failed": rep.functor_law_checks_failed,
        },
        "naturality_checks": {
            "passed": rep.naturality_checks_passed,
            "failed": rep.naturality_checks_failed,
        },
        "truncated": rep.truncated,
        "incomplete": list(rep.incomplete),
        "failures": list(rep.failures),
        "ok": rep.ok,
    }


# ---------------------------------------------------------------------------
# loading documents


def _as_table(value, rows: int, cols: int, label: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or len(value) != rows:
        raise StructuralError(f"{label}: expected {rows} rows")
    out = []
    for row in value:
        if not isinstance(row, list) or len(row) != cols:
            raise StructuralError(f"{label}: expected rows of length {cols}")
        try:
            out.append(tuple(int(x) for x in row))
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"{label}: non-integer entry") from exc
    return tuple(out)


def _as_map(value, length: int, label: str) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise StructuralError(f"{label}: expected a list of length {length}")
    try:
        return tuple(int(x) for x in value)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"{label}: non-integer entry") from exc


def load_gwa_doc(doc: dict, label: str = "gwa") -> tuple[GwaObject, tuple[int, ...]]:
    """Parse a group/gwa document, renumbering so the identity is index 0.

    Returns the object and the renumbering permutation (old index -> new
    index) so that dependent tables can be rewritten by the caller.
    """
    if not isinstance(doc, dict):
        raise StructuralError(f"{label}: expected an object")
    try:
        order = int(doc["order"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"{label}: missing or bad order") from exc
    if order < 1:
        raise StructuralError(f"{label}: order must be positive")
    op = _as_table(doc.get("op"), order, order, f"{label}.op")
    if any(x < 0 or x >= order for row in op for x in row):
        raise StructuralError(f"{label}.op: entry out of range")
    name = str(doc.get("name", ""))
    group = group_from_op(op, name)
    perm = tuple(range(order))
    if group.identity != 0:
        e = group.identity
        new_of_old = [0] * order
        new_index = 1
        new_of_old[e] = 0
        for x in range(order):
            if x != e:
                new_of_old[x] = new_index
                new_index += 1
        perm = tuple(new_of_old)
        new_op = [[0] * order for _ in range(order)]
        for a in range(order):
            for b in range(order):
                new_op[perm[a]][perm[b]] = perm[op[a][b]]
        group = group_from_op(new_op, name)
    if "self_action" in doc and doc["self_action"] is not None:
        raw = _as_table(doc["self_action"], order, order, f"{label}.self_action")
        if any(x < 0 or x >= order for row in raw for x in row):
            raise StructuralError(f"{label}.self_action: entry out of range")
        act = [[0] * order for _ in range(order)]
        for a in range(order):
            for b in range(order):
                act[perm[a]][perm[b]] = perm[raw[a][b]]
        action = SelfAction(group, tuple(tuple(row) for row in act))
    else:
        action = trivial_self_action(group)
    return GwaObject(group, action, name), perm


def _load_gxmod(doc: dict, label: str) -> tuple[GXMod, tuple[int, ...], tuple[int, ...]]:
    if not isinstance(doc, dict):
        raise StructuralError(f"{label}: expected an object")
    for key in ("A", "B", "alpha", "action"):
        if key not in doc:
            raise StructuralError(f"{label}: missing key {key}")
    a, perm_a = load_gwa_doc(doc["A"], f"{label}.A")
    b, perm_b = load_gwa_doc(doc["B"], f"{label}.B")
    raw_alpha = _as_map(doc["alpha"], a.order, f"{label}.alpha")
    if any(x < 0 or x >= b.order for x in raw_alpha):
        raise StructuralError(f"{label}.alpha: entry out of range")
    alpha_map = [0] * a.order
    for old_a in range(a.order):
        alpha_map[perm_a[old_a]] = perm_b[raw_alpha[old_a]]
    raw_act = _as_table(doc["action"], b.order, a.order, f"{label}.action")
    if any(x < 0 or x >= a.order for row in raw_act for x in row):
        raise StructuralError(f"{label}.action: entry out of range")
    act = [[0] * a.order for _ in range(b.order)]
    for old_b in range(b.order):
        for old_a in range(a.order):
            act[perm_b[old_b]][perm_a[old_a]] = perm_a[raw_act[old_b][old_a]]
    x = GXMod(
        a,
        b,
        Hom(a.group, b.group, tuple(alpha_map)),
        ExtAction(b, a, tuple(tuple(row) for row in act)),
        str(doc.get("name", "")),
    )
    return x, perm_a, perm_b


def load_gxmod_doc(doc: dict, label: str = "gxmod") -> GXMod:
    return _load_gxmod(doc, label)[0]


def load_cat1_doc(doc: dict, label: str = "cat1") -> GCat1:
    if not isinstance(doc, dict):
        raise StructuralError(f"{label}: expected an object")
    for key in ("G", "s", "t"):
        if key not in doc:
            raise StructuralError(f"{label}: missing key {key}")
    g, perm = load_gwa_doc(doc["G"], f"{label}.G")
    maps = {}
    for key in ("s", "t"):
        raw = _as_map(doc[key], g.order, f"{label}.{key}")
        if any(x < 0 or x >= g.order for x in raw):
            raise StructuralError(f"{label}.{key}: entry out of range")
        new = [0] * g.order
        for old in range(g.order):
            new[perm[old]] = perm[raw[old]]
        maps[key] = tuple(new)
    return GCat1(
        g,
        Hom(g.group, g.group, maps["s"], "s"),
        Hom(g.group, g.group, maps["t"], "t"),
        str(doc.get("name", "")),
    )


def load_covering_doc(doc: dict, label: str = "covering") -> Covering:
    if not isinstance(doc, dict):
        raise StructuralError(f"{label}: expected an object")
    for key in ("total", "base", "f", "g"):
        if key not in doc:
            raise StructuralError(f"{label}: missing key {key}")
    total, perm_ta, perm_tb = _load_gxmod(doc["total"], f"{label}.total")
    base, perm_ba, perm_bb = _load_gxmod(doc["base"], f"{label}.base")
    raw_f = _as_map(doc["f"], total.A.order, f"{label}.f")
    raw_g = _as_map(doc["g"], total.B.order, f"{label}.g")
    if any(x < 0 or x >= base.A.order for x in raw_f):
        raise StructuralError(f"{label}.f: entry out of range")
    if any(x < 0 or x >= base.B.order for x in raw_g):
        raise StructuralError(f"{label}.g: entry out of range")
    f = [0] * total.A.order
    for old in range(total.A.order):
        f[perm_ta[old]] = perm_ba[raw_f[old]]
    g = [0] * total.B.order
    for old in range(total.B.order):
        g[perm_tb[old]] = perm_bb[raw_g[old]]
    return Covering(
        total,
        base,
        Hom(total.A.group, base.A.group, tuple(f)),
        Hom(total.B.group, base.B.group, tuple(g)),
        str(doc.get("name", "")),
    )


def load_lifting_doc(doc: dict, label: str = "lifting") -> Lifting:
    if not isinstance(doc, dict):
        raise StructuralError(f"{label}: expected an object")
    for key in ("base", "X", "phi", "omega"):
        if key not in doc:
            raise StructuralError(f"{label}: missing key {key}")
    base, perm_ba, perm_bb = _load_gxmod(doc["base"], f"{label}.base")
    x, perm_x = load_gwa_doc(doc["X"], f"{label}.X")
    raw_phi = _as_map(doc["phi"], base.A.order, f"{label}.phi")
    raw_omega = _as_map(doc["omega"], x.order, f"{label}.omega")
    if any(v < 0 or v >= x.order for v in raw_phi):
        raise StructuralError(f"{label}.phi: entry out of range")
    if any(v < 0 or v >= base.B.order for v in raw_omega):
        raise StructuralError(f"{label}.omega: entry out of range")
    phi = [0] * base.A.order
    for old in range(base.A.order):
        phi[perm_ba[old]] = perm_x[raw_phi[old]]
    omega = [0] * x.order
    for old in range(x.order):
        omega[perm_x[old]] = perm_bb[raw_omega[old]]
    return Lifting(
        base,
        x,
        Hom(base.A.group, x.group, tuple(phi)),
        Hom(x.group, base.B.group, tuple(omega)),
        str(doc.get("name", "")),
    )


def detect_kind(doc: dict) -> str:
    """Classify a parsed document by its keys."""
    if not isinstance(doc, dict):
        raise StructuralError("document is not a JSON object")
    if "total" in doc and "base" in doc:
        return "covering"
    if "phi" in doc and "omega" in doc:
        return "lifting"
    if "G" in doc and "s" in doc and "t" in doc:
        return "cat1"
    if "alpha" in doc and "A" in doc and "B" in doc:
        return "gxmod"
    if "op" in doc:
        return "gwa"
    raise StructuralError("unrecognized document shape")


def load_any(doc: dict):
    kind = detect_kind(doc)
    if kind == "covering":
        return kind, load_covering_doc(doc)
    if kind == "lifting":
        return kind, load_lifting_doc(doc)
    if kind == "cat1":
        return kind, load_cat1_doc(doc)
    if kind == "gxmod":
        return kind, load_gxmod_doc(doc)
    return kind, load_gwa_doc(doc)[0]


def doc_for(obj) -> dict:
    if isinstance(obj, Covering):
        return covering_doc(obj)
    if isinstance(obj, Lifting):
        return lifting_doc(obj)
    if isinstance(obj, GCat1):
        return cat1_doc(obj)
    if isinstance(obj, GXMod):
        return gxmod_doc(obj)
    if isinstance(obj, GwaObject):
        return gwa_doc(obj)
    if isinstance(obj, GroupTable):
        return group_doc(obj)
    raise StructuralError(f"cannot serialize {type(obj).__name__}")
