import json
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from genxmod.cat1 import GCat1
from genxmod.coverlift import Covering, Lifting
from genxmod.crossed import GXMod
from genxmod.fixtures import (
    FILES,
    a3_s3,
    fixture_covering,
    fixture_lifting,
    gx1,
    gx3,
    s3_conjugation_gwa,
    v4_projection_cat1,
    z4_inversion_gwa,
)
from genxmod.groups import Hom, _cached_per_identity, all_homs
from genxmod.gwa import GwaObject
from genxmod.serialize import (
    detect_kind,
    doc_for,
    dumps,
    equivalence_report_json,
    json_lines,
    kind_of,
    load_cat1_doc,
    load_covering_doc,
    load_gwa_doc,
    load_gxmod_doc,
    load_lifting_doc,
)
from genxmod import cli, coverlift, search, serialize
from genxmod.search import (
    EquivalenceReport,
    enumerate_coverings,
    enumerate_gcat1s,
    enumerate_gxmods,
    enumerate_liftings,
    gwa_objects,
    standard_pool,
    verify_equivalence,
)
from genxmod.validation import StructuralError
from test_search import _seeded_fault


def test_gwa_roundtrip():
    for gw in (z4_inversion_gwa(), s3_conjugation_gwa()):
        loaded, perm = load_gwa_doc(doc_for(gw))
        assert perm == tuple(range(gw.order))
        assert loaded.group.op == gw.group.op
        assert loaded.self_action.act == gw.self_action.act


def test_gwa_doc_omits_trivial_action():
    from genxmod.groups import cyclic_group
    from genxmod.gwa import gwa

    doc = doc_for(gwa(cyclic_group(3)))
    assert "self_action" not in doc
    loaded, _ = load_gwa_doc(doc)
    assert loaded.self_action.act == ((0, 1, 2),) * 3


def test_gwa_doc_keeps_every_nontrivial_self_action():
    # the self-action is left out exactly when it is the trivial one
    for gw in gwa_objects(standard_pool(6)):
        trivial = gw.self_action.act == tuple(tuple(range(gw.order)) for _ in range(gw.order))
        assert ("self_action" not in doc_for(gw)) == trivial


def test_docs_of_an_enumeration_equal_the_docs_one_by_one(base_gx3, pool4):
    # dumps writes a structure straight from it, with the bytes of its document
    liftings = enumerate_liftings(base_gx3, pool4)
    coverings = enumerate_coverings(base_gx3, pool4)
    fixtures = [build() for build in FILES.values()]
    for o in (*liftings, *coverings, *fixtures):
        assert dumps(o) == dumps(doc_for(o))
    # and so does the report, inside which they are written
    report = json.loads(equivalence_report_json(verify_equivalence(base_gx3, pool4)))
    assert report["liftings"] == [doc_for(l) for l in liftings]
    assert report["coverings"] == [doc_for(c) for c in coverings]
    # the cache is keyed by identity: equal but distinct arguments get their own results
    cached = _cached_per_identity(doc_for)
    gw, twin = z4_inversion_gwa(), z4_inversion_gwa()
    assert gw == twin and gw is not twin
    assert cached(gw) is cached(gw)
    assert cached(twin) is not cached(gw) and cached(twin) == cached(gw)
    assert cached.cache_info().misses == 2


def test_kind_of_and_doc_for_take_structures_only():
    for build in FILES.values():
        assert kind_of(build()) == detect_kind(doc_for(build()))
    for obj in (Hom(gx1().A.group, gx1().B.group, (0, 1)), 5, [gx1()]):
        with pytest.raises(StructuralError, match="cannot serialize"):
            doc_for(obj)
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"x": object()})


def test_each_round_trip_witness_names_its_own_covering(base_gx3, pool4, monkeypatch):
    # covering 2 comes back over another omega: its witness fails and is not
    # listed, and every later entry still names its own covering
    broken = enumerate_coverings(base_gx3, pool4)[2]
    real = search.covering_to_lifting

    def covering_to_lifting(c):
        lift = real(c)
        if c == broken:
            return replace(lift, omega=Hom(lift.X.group, lift.base.B.group, (0,) * lift.X.order))
        return lift

    monkeypatch.setattr(search, "covering_to_lifting", covering_to_lifting)
    rep = verify_equivalence(base_gx3, pool4)
    assert "covering 2: round-trip witness <f, 1> is not an isomorphism" in rep.failures
    witnesses = json.loads(equivalence_report_json(rep))["roundtrip_covering_witnesses"]
    assert [w["covering"] for w in witnesses] == [i for i in range(rep.covering_count) if i != 2]
    assert all(w["f"] == list(rep.coverings[w["covering"]].f.map) for w in witnesses)
    _assert_written_as_the_reference(rep)


def _reference_report_json(rep) -> str:
    """The report as it was written before the per-shape writer: one dict
    per object-level morphism, then dumps."""
    doc = serialize._report_fields(rep)
    doc["lifting_morphisms"] = [
        {"source": i, "target": j, "f": list(m.f.map)} for i, j, m in rep.lifting_morphisms()
    ]
    doc["covering_morphisms"] = [
        {"source": i, "target": j, "f": list(m.f.map), "g": list(m.g.map)} for i, j, m in rep.covering_morphisms()
    ]
    return dumps(doc)


def _assert_same_text(text, reference):
    # a failure shows the first difference: pytest's diff of two reports of
    # up to 1 MB would take minutes
    if text != reference:
        at = next((k for k, (x, y) in enumerate(zip(text, reference)) if x != y), min(len(text), len(reference)))
        around = slice(max(0, at - 80), at + 80)
        pytest.fail(f"first difference at {at}: {text[around]!r} != {reference[around]!r}")


def _assert_written_as_the_reference(rep):
    text = equivalence_report_json(rep)
    _assert_same_text(text, _reference_report_json(rep))


def _row_cap(side, where):
    """The cap, read off the uncut report, that cuts side's morphism list
    at the end of the first row, or one before or after the row boundary
    half way down the objects; a row is the morphisms out of one object."""

    def cap(rep):
        shapes, homs = getattr(rep, f"{side}_shapes"), getattr(rep, f"{side}_homs")
        totals = [sum(len(homs.get((s1, s2), ())) for s2 in shapes) for s1 in shapes]
        boundary = sum(totals[: len(totals) // 2])
        return {"first-row": totals[0], "before-mid-row": boundary - 1, "after-mid-row": boundary + 1}[where]

    cap.__name__ = f"{side}-{where}"
    return cap


@pytest.mark.parametrize(
    "fixture, bound, cap",
    [
        (gx1, 4, None), (gx3, 4, None), (a3_s3, 6, None),
        *((fixture, 4, cap) for fixture in (gx1, gx3) for cap in (5, 100, 1000, 3000)),
        # the writer fills in one row text per source shape and splits only
        # the row a cut falls in
        *(
            (fixture, 4, cap)
            for fixture in (gx1, gx3)
            for cap in (
                *(_row_cap(side, where) for side in ("lifting", "covering")
                  for where in ("first-row", "before-mid-row", "after-mid-row")),
                1,
            )
        ),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_equivalence_report_json_writes_the_object_level_report(fixture, bound, cap):
    if callable(cap):
        cap = cap(verify_equivalence(fixture(), standard_pool(bound)))
    args = () if cap is None else (cap,)
    rep = verify_equivalence(fixture(), standard_pool(bound), *args)
    assert rep.lifting_morphism_count and rep.covering_morphism_count
    _assert_written_as_the_reference(rep)


def test_the_equivalence_check_hashes_no_whole_lifting_or_covering(monkeypatch):
    # hashing a frozen dataclass walks every nested table: the check finds
    # objects and images by shape id and varying self-action, confirmed by
    # equality, and the writer reads positions
    runs = ((gx1, 4), (gx3, 4), (a3_s3, 6))

    def reports():
        return [equivalence_report_json(verify_equivalence(fixture(), standard_pool(bound))) for fixture, bound in runs]

    expected = reports()

    def unhashable(o):
        raise AssertionError(f"a whole {type(o).__name__} was hashed")

    for cls in (coverlift.Lifting, coverlift.Covering):
        monkeypatch.setattr(cls, "__hash__", unhashable)
    assert reports() == expected


@pytest.mark.parametrize("side", ["lifting", "covering"])
def test_equivalence_report_json_writes_a_report_with_failures(monkeypatch, side):
    monkeypatch.setattr(search, *_seeded_fault("shape pair", gx1, 4, side))
    rep = verify_equivalence(gx1(), standard_pool(4))
    assert rep.failures
    _assert_written_as_the_reference(rep)


def test_equivalence_report_json_escapes_the_base_name(pool4):
    name = 'q"uo\\te \u00e9'
    rep = verify_equivalence(replace(gx1(), name=name), pool4)
    text = equivalence_report_json(rep)
    assert json.loads(text)["base"] == name and '"q\\"uo\\\\te \\u00e9"' in text
    _assert_written_as_the_reference(rep)


def test_equivalence_report_json_encodes_each_map_and_shape_level_morphism_once(base_gx3, pool4, monkeypatch):
    rep = verify_equivalence(base_gx3, pool4)
    reference = _reference_report_json(rep)
    # the writer never walks the object-level morphisms: it writes one row
    # per source shape and fills in each object's position
    for name in ("lifting_morphisms", "covering_morphisms"):
        monkeypatch.setattr(EquivalenceReport, name, None)

    def walked(*args):
        raise AssertionError("the writer walked the object-level morphisms")

    monkeypatch.setattr(search, "_object_level", walked)
    monkeypatch.setattr(serialize, "_object_level", walked, raising=False)
    encoded = []

    def counted_dumps(doc):
        encoded.append(doc)
        return dumps(doc)

    monkeypatch.setattr(serialize, "dumps", counted_dumps)
    _assert_same_text(equivalence_report_json(rep), reference)
    # one text per distinct map, and one per key of the report but the two
    # morphism lists
    homs = (rep.lifting_homs, rep.covering_homs)
    maps = {h.map for found in homs for ms in found.values() for m in ms for h in (m.f, getattr(m, "g", m.f))}
    assert len(encoded) == len(json.loads(reference)) - 2 + len(maps)


def _c_encoded(value) -> str:
    """value as json.dumps writes it through the default hook alone, with
    the canonical settings: the reference bytes of dumps and json_lines."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=serialize._document) + "\n"


def _sequences_of_structures():
    """Sequences written through the shared texts: enumerated objects of
    gx3/4 that share their base and pool parts, gwa objects with trivial and
    non-trivial self-actions and gxmods over them, each drawn as it is or
    renamed (names with quotes, backslashes, non-ASCII and control
    characters), with a part renamed, or with a part copied (equal but not
    the same object); plain JSON values holding structures, a round-trip
    witness {"covering": i, "f": hom, "g": hom} or a catalog line (a gwa's
    document with "valid" added); and sequences of homs alone, the empty
    one included."""
    pool = standard_pool(4)
    gwas = gwa_objects(pool)
    base = gx3()
    objects = [
        *gwas,
        *enumerate_gxmods(gwas[3], gwas[5]),
        *enumerate_liftings(base, pool),
        *enumerate_coverings(base, pool),
    ]
    homs = [h for g in pool.groups for h in all_homs(g, g)]
    names = st.text(max_size=5) | st.sampled_from(['"', "\\", '\\"', "é", "Z₂", "\x00\n\x1f", "\u2028", ""])
    parts = {GXMod: "A", Lifting: "X", Covering: "base"}

    @st.composite
    def drawn(draw):
        obj = draw(st.sampled_from(objects))
        how = draw(st.sampled_from(("same", "renamed", "part renamed", "part copied")))
        if how == "same":
            return obj
        if how == "renamed" or type(obj) not in parts:
            return replace(obj, name=draw(names))
        part = getattr(obj, parts[type(obj)])
        if how == "part copied":
            return replace(obj, **{parts[type(obj)]: replace(part)})
        return replace(obj, **{parts[type(obj)]: replace(part, name=draw(names))})

    @st.composite
    def plain(draw):
        if draw(st.booleans()):
            f, g = draw(st.sampled_from(homs)), draw(st.sampled_from(homs))
            return {"covering": draw(st.integers(0, 99)), "f": f, "g": g}
        return {**serialize._document(draw(st.sampled_from(gwas))), "valid": draw(st.booleans())}

    return st.lists(drawn() | plain(), max_size=8) | st.lists(st.sampled_from(homs), max_size=6)


@given(_sequences_of_structures())
def test_shared_texts_write_the_bytes_of_each_item_on_its_own(items):
    assert serialize._shared_texts(items) == [dumps(x)[:-1] for x in items]
    assert json_lines(items) == "".join(map(_c_encoded, items))
    assert json_lines(iter(items)) == "".join(map(dumps, items))
    # each item on its own, and the whole sequence, as the reference writes them
    for value in (*items, items, tuple(items)):
        assert dumps(value) == _c_encoded(value)


def test_each_shared_part_is_written_once(base_gx3, pool4, monkeypatch):
    coverings = enumerate_coverings(base_gx3, pool4)
    built: dict[int, int] = {}
    for cls in (GXMod, GwaObject):
        write = serialize._DOCUMENTS[cls]

        def counted(obj, write=write):
            built[id(obj)] = built.get(id(obj), 0) + 1
            return write(obj)

        monkeypatch.setitem(serialize._DOCUMENTS, cls, counted)
    expected = {dumps: _c_encoded(coverings), json_lines: "".join(map(_c_encoded, coverings))}
    for write, text in expected.items():
        built.clear()
        assert write(coverings) == text
        # the base's document is built when it is met first and when it is
        # met again, and its text kept from then on; so is each pool part's
        assert len(coverings) == 54 and built[id(base_gx3)] == 2
        assert max(built.values()) == 2
        # each total occurs once, so its document is built once
        assert all(built[id(c.total)] == 1 for c in coverings)


def test_a_single_document_and_the_catalog_take_the_encoders_path(monkeypatch, tmp_path):
    def shared(items):
        raise AssertionError("a single document went through the shared texts")

    monkeypatch.setattr(serialize, "_shared_texts", shared)
    for build in FILES.values():
        assert dumps(build()) == _c_encoded(build())
    assert dumps([]) == "[]\n" and dumps([1, (2, 3)]) == "[1,[2,3]]\n"
    assert cli.main(["catalog", "--bound", "4", "--out", str(tmp_path / "catalog.jsonl")]) == 0


def test_gxmod_roundtrip():
    for x in (gx1(), gx3(), a3_s3()):
        loaded = load_gxmod_doc(doc_for(x))
        assert loaded.alpha.map == x.alpha.map
        assert loaded.action.act == x.action.act
        assert loaded.A.self_action.act == x.A.self_action.act


def test_cat1_roundtrip():
    c = v4_projection_cat1()
    loaded = load_cat1_doc(doc_for(c))
    assert loaded.s.map == c.s.map and loaded.t.map == c.t.map


def test_covering_lifting_roundtrip():
    c = fixture_covering()
    loaded = load_covering_doc(doc_for(c))
    assert loaded.f.map == c.f.map and loaded.g.map == c.g.map
    assert loaded.total.alpha.map == c.total.alpha.map
    l = fixture_lifting()
    loaded_l = load_lifting_doc(doc_for(l))
    assert loaded_l.phi.map == l.phi.map and loaded_l.omega.map == l.omega.map


def test_identity_normalization_on_load():
    # Z2 written with the identity at position 1 gets renumbered
    doc = {"name": "swapped", "order": 2, "op": [[1, 0], [0, 1]]}
    loaded, perm = load_gwa_doc(doc)
    assert loaded.group.identity == 0
    assert perm == (1, 0)
    assert loaded.group.op == ((0, 1), (1, 0))


def test_identity_normalization_inside_gxmod():
    # Z4 with identity moved to slot 1 via renaming 0 <-> 1, plus matching alpha
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    relabel = [1, 0, 2, 3]
    op = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            op[relabel[a]][relabel[b]] = relabel[z4[a][b]]
    alpha = [0] * 4
    for a in range(4):
        alpha[relabel[a]] = a % 2
    doc = {
        "A": {"name": "Z4s", "order": 4, "op": op},
        "B": {"name": "Z2", "order": 2, "op": [[0, 1], [1, 0]]},
        "alpha": alpha,
        "action": [[0, 1, 2, 3], [0, 1, 2, 3]],
    }
    loaded = load_gxmod_doc(doc)
    assert loaded.A.group.identity == 0
    from genxmod.crossed import validate_gxmod_full

    assert validate_gxmod_full(loaded).ok


def test_detect_kind():
    assert detect_kind(doc_for(gx1())) == "gxmod"
    assert detect_kind(doc_for(z4_inversion_gwa())) == "gwa"
    assert detect_kind(doc_for(v4_projection_cat1())) == "cat1"
    assert detect_kind(doc_for(fixture_covering())) == "covering"
    assert detect_kind(doc_for(fixture_lifting())) == "lifting"
    with pytest.raises(StructuralError):
        detect_kind({"foo": 1})


def test_dumps_deterministic():
    a = dumps(gx3())
    b = dumps(gx3())
    assert a == b
    assert a.endswith("\n")
    json.loads(a)


def test_a_large_order_fails_before_anything_of_its_size_is_built():
    # a 40-byte document must not allocate a renumbering of 2000000 elements
    tracemalloc.start()
    try:
        with pytest.raises(StructuralError, match="expected 2000000 rows"):
            load_gwa_doc({"order": 2000000, "op": [[0]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_malformed_docs_raise_structural():
    with pytest.raises(StructuralError):
        load_gwa_doc({"order": 2, "op": [[0, 1]]})  # wrong row count
    with pytest.raises(StructuralError):
        load_gwa_doc({"order": 2, "op": [[0, 7], [1, 0]]})  # out of range
    with pytest.raises(StructuralError):
        load_gxmod_doc({"A": doc_for(z4_inversion_gwa())})  # missing keys
    with pytest.raises(StructuralError):
        load_gwa_doc({"order": 2, "op": [[0, 0], [0, 0]]})  # no identity


LOADERS = {Lifting: load_lifting_doc, Covering: load_covering_doc, GXMod: load_gxmod_doc, GCat1: load_cat1_doc}


def _objects_of_each_kind():
    """Objects of each kind, drawn evenly across kinds: enumerated liftings
    and coverings of gx1/4 and gx3/4, gxmods over the gwa pairs of order
    <= 4, and cat1-groups of order <= 4."""
    pool = standard_pool(4)
    gwas = gwa_objects(pool)
    bases = (gx1(), gx3())
    return st.one_of(
        st.sampled_from([x for base in bases for x in enumerate_liftings(base, pool)]),
        st.sampled_from([x for base in bases for x in enumerate_coverings(base, pool)]),
        st.sampled_from([x for a in gwas for b in gwas for x in enumerate_gxmods(a, b)]),
        st.sampled_from([c for g in pool.groups for c in enumerate_gcat1s(g)]),
    )


@given(_objects_of_each_kind())
def test_json_round_trip_returns_the_same_object(x):
    assert LOADERS[type(x)](json.loads(dumps(doc_for(x)))) == x
