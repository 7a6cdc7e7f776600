"""JSON file formats for every structure, with deterministic output.

Group / group-with-action documents:
    {"name": str, "order": n, "op": [[...]], "self_action": [[...]]}
self_action may be omitted (trivial action).  Element indices run 0..n-1 and
the identity must sit at index 0; loaders renumber elements to enforce this,
and read every dependent map and table in the file's numbering through one
map reader and one table reader.  order and every entry are JSON integers.

Crossed module: {"A": gwa, "B": gwa, "alpha": [...], "action": [[...]]}
Cat1-group:     {"G": gwa, "s": [...], "t": [...]}
Covering:       {"total": gxmod, "base": gxmod, "f": [...], "g": [...]}
Lifting:        {"base": gxmod, "X": gwa, "phi": [...], "omega": [...]}
Hom file:       {"map": [...], "target": gwa} or {"map": [...], "source": gwa}

dumps produces canonical bytes: sorted keys, compact separators, trailing
newline; equal structures serialize identically.
"""

from __future__ import annotations

import json
from typing import Any

from .cat1 import GCat1
from .coverlift import Covering, Lifting
from .crossed import ExtAction, GXMod
from .groups import GroupTable, Hom, Map, Table, group_from_op
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


def _require_object(doc, label: str, keys=()) -> None:
    if not isinstance(doc, dict):
        raise StructuralError(f"{label}: expected an object")
    for key in keys:
        if key not in doc:
            raise StructuralError(f"{label}: missing key {key}")


def _require_integers(values: list, label: str) -> None:
    # only JSON integers: bool is a subclass of int, and int() would take
    # floats and numeric strings
    if any(type(x) is not int for x in values):
        raise StructuralError(f"{label}: non-integer entry")


def _require_range(values, size: int, label: str) -> None:
    if any(x < 0 or x >= size for x in values):
        raise StructuralError(f"{label}: entry out of range")


def _renumber(values, source_perm: Map, target_perm: Map) -> Map:
    out = [0] * len(values)
    for old, x in enumerate(values):
        out[source_perm[old]] = target_perm[x]
    return tuple(out)


def _read_map(value, source_perm: Map, target_perm: Map, label: str) -> Map:
    """A map written in the files' numbering, checked and renumbered.

    The perms are those load_gwa_doc returns for the map's source and
    target: each takes an element's index in its file to its index here.
    """
    n = len(source_perm)
    if not isinstance(value, list) or len(value) != n:
        raise StructuralError(f"{label}: expected a list of length {n}")
    _require_integers(value, label)
    _require_range(value, len(target_perm), label)
    return _renumber(value, source_perm, target_perm)


def _read_table(value, row_perm: Map, col_perm: Map, value_perm: Map, label: str) -> Table:
    """A table written in the files' numbering, checked and renumbered: its
    rows, columns and entries through row_perm, col_perm and value_perm."""
    rows, cols = len(row_perm), len(col_perm)
    if not isinstance(value, list) or len(value) != rows:
        raise StructuralError(f"{label}: expected {rows} rows")
    for row in value:
        if not isinstance(row, list) or len(row) != cols:
            raise StructuralError(f"{label}: expected rows of length {cols}")
        _require_integers(row, label)
    _require_range([x for row in value for x in row], len(value_perm), label)
    out: list[Map] = [()] * rows
    for old, row in enumerate(value):
        out[row_perm[old]] = _renumber(row, col_perm, value_perm)
    return tuple(out)


def load_gwa_doc(doc: dict, label: str = "gwa") -> tuple[GwaObject, Map]:
    """Parse a group/gwa document, renumbering so the identity is index 0.

    Returns the object and the renumbering permutation (old index -> new
    index), which the readers of the maps and tables on it take.
    """
    _require_object(doc, label)
    order = doc.get("order")
    if type(order) is not int:
        raise StructuralError(f"{label}: missing or bad order")
    if order < 1:
        raise StructuralError(f"{label}: order must be positive")
    name = str(doc.get("name", ""))
    perm = tuple(range(order))
    group = group_from_op(_read_table(doc.get("op"), perm, perm, perm, f"{label}.op"), name)
    e = group.identity
    if e != 0:
        # the identity moves to 0, the elements before it up by one
        perm = tuple(0 if x == e else x + (x < e) for x in range(order))
        group = group_from_op(_read_table(doc["op"], perm, perm, perm, f"{label}.op"), name)
    if doc.get("self_action") is not None:
        act = _read_table(doc["self_action"], perm, perm, perm, f"{label}.self_action")
        action = SelfAction(group, act)
    else:
        action = trivial_self_action(group)
    return GwaObject(group, action, name), perm


def _load_gxmod(doc: dict, label: str) -> tuple[GXMod, Map, Map]:
    _require_object(doc, label, ("A", "B", "alpha", "action"))
    a, perm_a = load_gwa_doc(doc["A"], f"{label}.A")
    b, perm_b = load_gwa_doc(doc["B"], f"{label}.B")
    alpha = _read_map(doc["alpha"], perm_a, perm_b, f"{label}.alpha")
    act = _read_table(doc["action"], perm_b, perm_a, perm_a, f"{label}.action")
    x = GXMod(a, b, Hom(a.group, b.group, alpha), ExtAction(b, a, act), str(doc.get("name", "")))
    return x, perm_a, perm_b


def load_gxmod_doc(doc: dict, label: str = "gxmod") -> GXMod:
    return _load_gxmod(doc, label)[0]


def load_cat1_doc(doc: dict, label: str = "cat1") -> GCat1:
    _require_object(doc, label, ("G", "s", "t"))
    g, perm = load_gwa_doc(doc["G"], f"{label}.G")
    s = _read_map(doc["s"], perm, perm, f"{label}.s")
    t = _read_map(doc["t"], perm, perm, f"{label}.t")
    return GCat1(g, Hom(g.group, g.group, s, "s"), Hom(g.group, g.group, t, "t"), str(doc.get("name", "")))


def load_covering_doc(doc: dict, label: str = "covering") -> Covering:
    _require_object(doc, label, ("total", "base", "f", "g"))
    total, perm_ta, perm_tb = _load_gxmod(doc["total"], f"{label}.total")
    base, perm_ba, perm_bb = _load_gxmod(doc["base"], f"{label}.base")
    f = _read_map(doc["f"], perm_ta, perm_ba, f"{label}.f")
    g = _read_map(doc["g"], perm_tb, perm_bb, f"{label}.g")
    return Covering(
        total,
        base,
        Hom(total.A.group, base.A.group, f),
        Hom(total.B.group, base.B.group, g),
        str(doc.get("name", "")),
    )


def load_lifting_doc(doc: dict, label: str = "lifting") -> Lifting:
    _require_object(doc, label, ("base", "X", "phi", "omega"))
    base, perm_ba, perm_bb = _load_gxmod(doc["base"], f"{label}.base")
    x, perm_x = load_gwa_doc(doc["X"], f"{label}.X")
    phi = _read_map(doc["phi"], perm_ba, perm_x, f"{label}.phi")
    omega = _read_map(doc["omega"], perm_x, perm_bb, f"{label}.omega")
    return Lifting(
        base,
        x,
        Hom(base.A.group, x.group, phi),
        Hom(x.group, base.B.group, omega),
        str(doc.get("name", "")),
    )


def load_transport_docs(doc: dict, codomain=None, domain=None) -> tuple[GXMod, tuple | None, tuple | None]:
    """The crossed module of doc and the isomorphisms read against it.

    codomain and domain are each None or a pair (hom document, label).  The
    hom document {"map": [...], "target": gwa} gives f: B -> target, and
    {"map": [...], "source": gwa} gives g: source -> A, each returned as the
    pair (map, gwa object) that transport_codomain and transport_domain take.
    """
    x, perm_a, perm_b = _load_gxmod(doc, "gxmod")
    return (
        x,
        codomain and _load_hom(*codomain, "target", x.B, perm_b),
        domain and _load_hom(*domain, "source", x.A, perm_a),
    )


def _load_hom(doc, label: str, side: str, fixed: GwaObject, fixed_perm: Map) -> tuple[Hom, GwaObject]:
    if not isinstance(doc, dict) or "map" not in doc:
        raise StructuralError(f"{label}: hom file needs a 'map' key")
    if side not in doc:
        raise StructuralError(f"{label}: hom file needs a '{side}' gwa document")
    gw, perm = load_gwa_doc(doc[side], f"{label}: {side}")
    if side == "target":
        return Hom(fixed.group, gw.group, _read_map(doc["map"], fixed_perm, perm, f"{label}: map")), gw
    return Hom(gw.group, fixed.group, _read_map(doc["map"], perm, fixed_perm, f"{label}: map")), gw


# kind -> (the keys that mark its documents, its type, loader, document
# builder), in detection order: a document that holds the keys of two kinds
# is of the first
_KINDS = {
    "covering": (("total", "base"), Covering, load_covering_doc, covering_doc),
    "lifting": (("phi", "omega"), Lifting, load_lifting_doc, lifting_doc),
    "cat1": (("G", "s", "t"), GCat1, load_cat1_doc, cat1_doc),
    "gxmod": (("alpha", "A", "B"), GXMod, load_gxmod_doc, gxmod_doc),
    "gwa": (("op",), GwaObject, lambda doc: load_gwa_doc(doc)[0], gwa_doc),
}


def detect_kind(doc: dict) -> str:
    """Classify a parsed document by its keys."""
    if not isinstance(doc, dict):
        raise StructuralError("document is not a JSON object")
    for kind, (keys, *_) in _KINDS.items():
        if all(key in doc for key in keys):
            return kind
    raise StructuralError("unrecognized document shape")


def load_any(doc: dict):
    kind = detect_kind(doc)
    return kind, _KINDS[kind][2](doc)


def doc_for(obj) -> dict:
    # a bare group is written as a gwa document without its self_action
    if isinstance(obj, GroupTable):
        return group_doc(obj)
    for _, cls, _, build in _KINDS.values():
        if isinstance(obj, cls):
            return build(obj)
    raise StructuralError(f"cannot serialize {type(obj).__name__}")
