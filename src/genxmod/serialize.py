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

dumps writes any of these structures, or a JSON value that holds them, as
canonical bytes: sorted keys, compact separators, trailing newline; equal
structures serialize identically.  It builds no document: json.dumps asks
its default hook (_document) for each structure's document one level deep,
and writes the parts, maps and tables straight from the structures.  A
sequence of structures, and the lines json_lines writes, go through
_shared_texts instead, which writes each part that several items share
once per call.  doc_for gives a structure's parsed document, with lists, as
the loaders read it.
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


def dumps(value: Any) -> str:
    """value as canonical JSON with a trailing newline.

    A single structure or JSON value is written by json's encoder, which
    asks _document for each structure met.  A list or tuple whose first
    item is a structure is written from _shared_texts, with the same bytes.
    """
    if type(value) in (list, tuple) and value and type(value[0]) in _DOCUMENTS:
        return "[" + ",".join(_shared_texts(value)) + "]\n"
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_document) + "\n"


def json_lines(items) -> str:
    """Each item's canonical JSON on a line of its own: the bytes of
    "".join(map(dumps, items)), written through one _shared_texts call."""
    texts = _shared_texts(items)
    # the empty last text ends the last line: one join, no copy of the output
    texts.append("")
    return "\n".join(texts)


def _gwa_document(g: GwaObject) -> dict:
    doc = {"name": g.name or g.group.name, "order": g.group.order, "op": g.group.op}
    # a trivial self-action, whose every row is the identity map, is left out
    n = g.group.order
    if g.self_action.act != (tuple(range(n)),) * n:
        doc["self_action"] = g.self_action.act
    return doc


# type -> its document one level deep (see _document); a bare group is
# written as a gwa document without its self_action
_DOCUMENTS = {
    GwaObject: _gwa_document,
    GroupTable: lambda g: {"name": g.name, "order": g.order, "op": g.op},
    GXMod: lambda x: {"name": x.name, "A": x.A, "B": x.B, "alpha": x.alpha, "action": x.action.act},
    GCat1: lambda c: {"name": c.name, "G": c.G, "s": c.s, "t": c.t},
    Covering: lambda c: {"name": c.name, "total": c.total, "base": c.base, "f": c.f, "g": c.g},
    Lifting: lambda l: {"name": l.name, "base": l.base, "X": l.X, "phi": l.phi, "omega": l.omega},
    Hom: lambda h: h.map,
}


def _document(obj):
    """The default hook of json.dumps in dumps: obj's document one level deep.

    Its parts stay structures, which json hands back to this hook, and its
    maps and tables stay tuples, which json writes as lists; a Hom is
    written as its map.
    """
    write = _DOCUMENTS.get(type(obj))
    if write is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return write(obj)


# the encoder of a leaf value (a map, a table, a string or a number) in
# _shared_texts, with dumps' settings
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_document).encode


def _shared_texts(items) -> list[str]:
    """Each item's canonical JSON text, as dumps writes it but without the
    newline, with the text of each part that the items share built once.

    Parts are keyed by id(): the items hold every part met, so no id is
    reused during the call.  A text is kept only from its part's second
    meeting on (seen, then kept), so a part of one item alone, like a
    covering's total, is never stored; the items themselves are not looked
    up at all.  An item that is no structure is written by json's encoder.
    """
    items = tuple(items)
    seen: set[int] = set()
    kept: dict[int, str] = {}
    return [
        _document_text(write(item), seen, kept) if (write := _DOCUMENTS.get(type(item))) else _encode(item)
        for item in items
    ]


def _document_text(doc, seen: set[int], kept: dict[int, str]) -> str:
    """A document's text: its keys in sorted order, each with its value's
    text (_part_text); a Hom's document, its map, is a leaf.  The keys are
    the plain names _DOCUMENTS gives, which JSON writes as they are."""
    if type(doc) is not dict:
        return _encode(doc)
    return "{" + ",".join([f'"{key}":{_part_text(doc[key], seen, kept)}' for key in sorted(doc)]) + "}"


def _part_text(value, seen: set[int], kept: dict[int, str]) -> str:
    """A value's text in _shared_texts: a structure's from the memo, a
    leaf's (a map, a table, a string or a number) from json's encoder."""
    write = _DOCUMENTS.get(type(value))
    if write is None:
        return _encode(value)
    key = id(value)
    text = kept.get(key)
    if text is None:
        text = _document_text(write(value), seen, kept)
        if key in seen:
            kept[key] = text
        else:
            seen.add(key)
    return text


def equivalence_report_json(rep: EquivalenceReport) -> str:
    """The equivalence report as canonical JSON, written per shape-level morphism.

    The morphism lists are not built as object-level documents: each
    distinct map gets its JSON text once, each shape-level morphism its
    entry template once, and each source shape its row of entries once,
    which each object of the shape fills in with its own position
    (_morphism_list_texts).  The other keys are encoded as dumps encodes
    them, and all are joined in sorted key order.
    """
    texts = {key: dumps(value)[:-1] for key, value in _report_fields(rep).items()}
    texts.update(_morphism_list_texts(rep))
    return "{" + ",".join(f'"{key}":{texts[key]}' for key in sorted(texts)) + "}\n"


def _report_fields(rep: EquivalenceReport) -> dict:
    """Every key of the equivalence report but the two morphism lists.

    A covering round-trip witness names the position of its own covering,
    its source: a covering whose witness failed has none listed.
    """
    positions = {id(c): i for i, c in enumerate(rep.coverings)}
    return {
        "base": rep.base_name,
        "order_bound": rep.order_bound,
        "pool_groups": rep.pool_groups,
        "lifting_count": rep.lifting_count,
        "covering_count": rep.covering_count,
        "liftings": rep.liftings,
        "coverings": rep.coverings,
        "lifting_to_covering_index": rep.lifting_to_covering_index,
        "covering_to_lifting_index": rep.covering_to_lifting_index,
        "roundtrip_lifting_exact": rep.roundtrip_lifting_exact,
        "roundtrip_covering_witnesses": [
            {"covering": positions[id(w.source)], "f": w.f, "g": w.g} for w in rep.roundtrip_covering_witnesses
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
        "incomplete": rep.incomplete,
        "failures": rep.failures,
        "ok": rep.ok,
    }


def _morphism_list_texts(rep: EquivalenceReport) -> dict[str, str]:
    """The JSON texts of the lifting_morphisms and covering_morphisms lists.

    An entry is {"f": [...], "g": [...], "source": i, "target": j}, without
    "g" for a lifting morphism, listed in (i, j) order and cut after the
    category's count.  Every object of one shape has the same row of
    entries but for i, so each source shape's row is written once, with i
    left open, and each object's row is that text with its own i filled in.
    The row is built from the hom-sets' texts: each hom-set's entries are
    joined once, with j left open, and filled in with each target j of the
    target shape.  Only a cut splits a row: the last one listed, written
    entry by entry.  _shape_homs searched every hom-set of each listed row,
    and of the cut row those its listed entries lie in.
    """
    map_texts: dict[Map, str] = {}

    def text(h: Hom) -> str:
        found = map_texts.get(h.map)
        if found is None:
            found = map_texts[h.map] = dumps(h.map)[:-1]
        return found

    def listed(shapes, homs, count, template) -> str:
        numbers = [str(k) for k in range(len(shapes))]
        # per non-empty hom-set: its entries' text, split where j goes
        blocks = {pair: ",".join(map(template, found)).split("<j>") for pair, found in homs.items() if found}
        # per source shape: its row's text, split where i goes (once per entry)
        rows: dict[int, list[str]] = {}
        texts = []
        room = count
        for i, s1 in enumerate(shapes):
            if not room:
                break
            row = rows.get(s1)
            if row is None:
                row = rows[s1] = ",".join(
                    [numbers[j].join(block) for j, s2 in enumerate(shapes) if (block := blocks.get((s1, s2)))]
                ).split("<i>")
            size = len(row) - 1
            if size > room:
                entries = [
                    template(m).replace("<j>", numbers[j]) for j, s2 in enumerate(shapes) for m in homs.get((s1, s2), ())
                ]
                row, size = ",".join(entries[:room]).split("<i>"), room
            if size:
                texts.append(numbers[i].join(row))
            room -= size
        return "[" + ",".join(texts) + "]"

    # a map text holds digits, brackets and commas only, so <i> and <j>
    # occur in a template only where the source and target go
    return {
        "lifting_morphisms": listed(
            rep.lifting_shapes, rep.lifting_homs, rep.lifting_morphism_count,
            lambda m: '{"f":' + text(m.f) + ',"source":<i>,"target":<j>}',
        ),
        "covering_morphisms": listed(
            rep.covering_shapes, rep.covering_homs, rep.covering_morphism_count,
            lambda m: '{"f":' + text(m.f) + ',"g":' + text(m.g) + ',"source":<i>,"target":<j>}',
        ),
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
    # the rows are counted before anything of size order is built, so a
    # large order on a small document fails at once
    if not isinstance(doc.get("op"), list) or len(doc["op"]) != order:
        raise StructuralError(f"{label}.op: expected {order} rows")
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


def load_transport_homs(doc: dict, codomain=None, domain=None) -> tuple[tuple | None, tuple | None]:
    """The isomorphisms read against the crossed module of doc, in doc's numbering.

    codomain and domain are each None or a pair (hom document, label).  The
    hom document {"map": [...], "target": gwa} gives f: B -> target, and
    {"map": [...], "source": gwa} gives g: source -> A, each returned as the
    pair (map, gwa object) that transport_codomain and transport_domain take.
    """
    x, perm_a, perm_b = _load_gxmod(doc, "gxmod")
    return (
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


# kind -> (the keys that mark its documents, its type, loader), in
# detection order: a document that holds the keys of two kinds is of the first
_KINDS = {
    "covering": (("total", "base"), Covering, load_covering_doc),
    "lifting": (("phi", "omega"), Lifting, load_lifting_doc),
    "cat1": (("G", "s", "t"), GCat1, load_cat1_doc),
    "gxmod": (("alpha", "A", "B"), GXMod, load_gxmod_doc),
    "gwa": (("op",), GwaObject, lambda doc: load_gwa_doc(doc)[0]),
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


def kind_of(obj) -> str:
    """The kind detect_kind gives obj's document; a bare group's is a gwa document."""
    if isinstance(obj, GroupTable):
        return "gwa"
    for kind, (_, cls, _) in _KINDS.items():
        if isinstance(obj, cls):
            return kind
    raise StructuralError(f"cannot serialize {type(obj).__name__}")


def doc_for(obj) -> dict:
    """obj's parsed document, its maps and tables as lists, as the loaders
    read it; a StructuralError unless kind_of knows obj."""
    kind_of(obj)
    return json.loads(dumps(obj))
