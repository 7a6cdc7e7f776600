import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from genxmod import cli, groups, search
from genxmod.cli import CONSTRUCTIONS, main
from genxmod.coverlift import lifting_to_covering
from genxmod.crossed import transport_both
from genxmod.groups import self_maps
from genxmod.serialize import doc_for, dumps, load_gxmod_doc, load_transport_homs
from test_search import _FAULTS, _NOT_FOUND


@pytest.fixture()
def fixture_dir(tmp_path):
    rc = main(["--seed-fixtures", "--out", str(tmp_path / "fx")])
    assert rc == 0
    return tmp_path / "fx"


def test_seed_fixtures_file_set(fixture_dir):
    names = sorted(p.name for p in fixture_dir.iterdir())
    assert "gx1.gxmod.json" in names
    assert "gx3.gxmod.json" in names
    assert "a3_s3.gxmod.json" in names
    assert "z8.group.json" in names
    assert "v4_projection.cat1.json" in names
    assert "gx1_identity.covering.json" in names
    assert "gx3_natural.lifting.json" in names


def test_validate_ok_fixture(fixture_dir, capsys):
    rc = main(["validate", str(fixture_dir / "gx3.gxmod.json")])
    assert rc == 0
    assert "ok" in capsys.readouterr().out


def test_validate_corrupted_fixture_exit_1(fixture_dir, tmp_path, capsys):
    doc = json.loads((fixture_dir / "gx3.gxmod.json").read_text())
    doc["action"][1][1] = 1  # 1 . 1 should be 3 under inversion
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    rc = main(["validate", str(bad)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "at (" in out


@pytest.mark.parametrize(
    "data",
    [b"{not json", b"\xff\xfe\x00bad", b"[" * 5000],
    ids=["broken", "not_utf8", "nested_too_deeply"],
)
def test_validate_malformed_json_exit_2(tmp_path, capsys, data):
    bad = tmp_path / "broken.json"
    bad.write_bytes(data)
    rc = main(["validate", str(bad)])
    assert rc == 2
    assert "structural error" in capsys.readouterr().out
    assert main(["equivalence", "--in", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


Z2_OP = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"name": "Z2", "order": 2, "op": [[0, 1.7], [1, 0]]}, "gwa.op: non-integer entry"),
        ({"name": "Z2", "order": 2, "op": [[0, 1.0], [1, 0]]}, "gwa.op: non-integer entry"),
        ({"name": "Z2", "order": 2, "op": [[0, True], [True, 0]]}, "gwa.op: non-integer entry"),
        ({"name": "Z2", "order": 2, "op": [[0, "1"], [1, 0]]}, "gwa.op: non-integer entry"),
        ({"name": "Z2", "order": 2, "op": Z2_OP, "self_action": [[0, 1], [0, 1.0]]}, "gwa.self_action: non-integer entry"),
        ({"name": "Z2", "order": 2.9, "op": Z2_OP}, "gwa: missing or bad order"),
        ({"name": "Z2", "order": 2.0, "op": Z2_OP}, "gwa: missing or bad order"),
        ({"name": "Z2", "order": True, "op": [[0]]}, "gwa: missing or bad order"),
        ({"name": "Z2", "order": "2", "op": Z2_OP}, "gwa: missing or bad order"),
        (
            {"A": {"order": 2, "op": Z2_OP}, "B": {"order": 2, "op": Z2_OP}, "alpha": [0, 1.0], "action": [[0, 1], [0, 1]]},
            "gxmod.alpha: non-integer entry",
        ),
        (
            {"G": {"order": 2, "op": Z2_OP}, "s": [0, 1], "t": [False, 1]},
            "cat1.t: non-integer entry",
        ),
    ],
    ids=[
        "op_float", "op_integral_float", "op_bool", "op_string", "self_action_float",
        "order_float", "order_integral_float", "order_bool", "order_string", "gxmod_alpha", "cat1_t",
    ],
)
def test_validate_takes_only_json_integers_exit_2(tmp_path, capsys, doc, message):
    # int() would read each of these as an integer, and the file as valid
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert f"structural error: {message}" in capsys.readouterr().out


def test_validate_names_a_liftings_base_laws_as_a_coverings(fixture_dir, tmp_path, capsys):
    # a lifting's base laws carry the prefix base., as a covering's do
    doc = json.loads((fixture_dir / "gx3_natural.lifting.json").read_text())
    doc["base"]["action"][1][1] = 1  # 1 . 1 should be 3 under inversion
    bad = tmp_path / "bad.lifting.json"
    bad.write_text(dumps(doc))
    assert main(["validate", str(bad)]) == 1
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert any(line.startswith("base.action.action_compatibility at (1, 1, 3)") for line in lines), lines
    assert not any(line.startswith("action.") for line in lines), lines


def test_validate_json_format(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["validate", str(fixture_dir / "gx1.gxmod.json"), "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload[0]["ok"] is True
    assert payload[0]["kind"] == "gxmod"


def test_construct_outputs_revalidate(fixture_dir, tmp_path):
    cases = [
        ("kernel-gxmod", "gx3.gxmod.json", {}),
        ("image-gxmod", "gx3.gxmod.json", {}),
        ("cat1-to-gxmod", "v4_projection.cat1.json", {}),
        ("natural-lifting", "gx3.gxmod.json", {}),
        ("quotient-lifting", "gx3.gxmod.json", {"--ideal": "0,2"}),
        ("lift-to-cover", "gx3_natural.lifting.json", {}),
        ("cover-to-lift", "gx1_identity.covering.json", {}),
    ]
    for construction, source, extra in cases:
        out = tmp_path / f"{construction}.json"
        argv = ["construct", construction, "--in", str(fixture_dir / source), "--out", str(out)]
        for k, v in extra.items():
            argv.extend([k, v])
        rc = main(argv)
        assert rc == 0, construction
        rc = main(["validate", str(out)])
        assert rc == 0, construction


def test_construct_cat1_identity_trivial(fixture_dir, tmp_path):
    out = tmp_path / "trivial.json"
    rc = main(["construct", "cat1-to-gxmod", "--in", str(fixture_dir / "s3_identity.cat1.json"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["A"]["order"] == 1


def test_quotient_lifting_not_in_kernel_exit_1(fixture_dir, capsys):
    rc = main(["construct", "quotient-lifting", "--in", str(fixture_dir / "gx3.gxmod.json"), "--ideal", "0,1,2,3"])
    assert rc == 1
    assert "contained_in_kernel" in capsys.readouterr().err


# an order-5 loop: identity 0, every element its own inverse, not associative
LOOP5 = {
    "name": "L5",
    "order": 5,
    "op": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
}


def test_validate_checks_the_group_axioms_of_a_cat1_group(tmp_path, capsys):
    ident = [0, 1, 2, 3, 4]
    path = tmp_path / "loop.cat1.json"
    path.write_text(dumps({"G": LOOP5, "s": ident, "t": ident}))
    rc = main(["validate", str(path)])
    assert rc == 1
    assert "G.group.associativity at (" in capsys.readouterr().out


def test_validate_checks_the_group_axioms_of_a_lifting_x(fixture_dir, tmp_path, capsys):
    # gx1 is the identity on Z2; lift it through the loop
    base = json.loads((fixture_dir / "gx1.gxmod.json").read_text())
    path = tmp_path / "loop.lifting.json"
    path.write_text(dumps({"base": base, "X": LOOP5, "phi": [0, 1], "omega": [0, 1, 0, 0, 0]}))
    rc = main(["validate", str(path)])
    assert rc == 1
    assert "X.group.associativity at (" in capsys.readouterr().out


def test_quotient_lifting_malformed_ideal_exit_2(fixture_dir, capsys):
    rc = main(["construct", "quotient-lifting", "--in", str(fixture_dir / "gx1.gxmod.json"), "--ideal", "0,a"])
    assert rc == 2
    assert "--ideal" in capsys.readouterr().err


# (case, map entries, op of the gwa written in the hom file or None for
# gx1's, message with {path} and {side} filled in)
_MALFORMED_MAPS = [
    ("non_integer", ["a", 1], None, "non-integer entry"),
    ("float", [1.0, 0], None, "non-integer entry"),
    ("bool", [True, False], None, "non-integer entry"),
    ("out_of_range", [0, 9], None, "out of range"),
    ("too_long", [0, 1, 0], None, "expected a list of length 2"),
    ("gwa_op", [1, 0], [[0]], "error: {path}: {side}.op: expected 2 rows"),
]


@pytest.mark.parametrize(
    "flag, side, entries, op, message",
    [
        pytest.param(flag, side, entries, op, message, id=prefix + case)
        for flag, side, prefix in (("--codomain-iso", "target", ""), ("--domain-iso", "source", "domain-"))
        for case, entries, op, message in _MALFORMED_MAPS
    ],
)
def test_transport_malformed_map_exit_2(fixture_dir, tmp_path, capsys, flag, side, entries, op, message):
    # gx1's A and B are both Z2, on which [1, 0] would be a map but no hom
    gx = json.loads((fixture_dir / "gx1.gxmod.json").read_text())
    gw = gx["B" if side == "target" else "A"]
    hom_file = tmp_path / "iso.json"
    hom_file.write_text(dumps({"map": entries, side: gw if op is None else {**gw, "op": op}}))
    rc = main(["construct", "transport", "--in", str(fixture_dir / "gx1.gxmod.json"), flag, str(hom_file)])
    assert rc == 2
    assert message.format(path=hom_file, side=side) in capsys.readouterr().err


@pytest.mark.parametrize(
    "swapped, flag, side",
    [("hom", "--codomain-iso", "target"), ("hom", "--domain-iso", "source"), ("gxmod", "--codomain-iso", "target")],
    ids=["target_file", "source_file", "gxmod_file"],
)
@pytest.mark.parametrize("entries, want", [([1, 0], 0), ([0, 1], 1)], ids=["iso", "not_hom"])
def test_transport_reads_maps_in_the_files_numbering(fixture_dir, tmp_path, swapped, flag, side, entries, want):
    # one of the two files writes Z2 with its identity at 1, so the map
    # swapping 0 and 1 is the isomorphism and the identity map is not a hom
    gx = json.loads((fixture_dir / "gx1.gxmod.json").read_text())
    z2 = gx["B"]
    swapped_z2 = {**z2, "op": [[1, 0], [0, 1]]}
    if swapped == "gxmod":
        gx["A"], gx["B"] = swapped_z2, swapped_z2
    else:
        z2 = swapped_z2
    gx_file, hom_file = tmp_path / "gx.json", tmp_path / "iso.json"
    gx_file.write_text(dumps(gx))
    hom_file.write_text(dumps({"map": entries, side: z2}))
    rc = main(["construct", "transport", "--in", str(gx_file), flag, str(hom_file), "--out", str(tmp_path / "out.json")])
    assert rc == want


def test_transport_with_domain_iso(fixture_dir, tmp_path):
    # inversion automorphism of (Z4, inversion action)
    hom_file = tmp_path / "iso.json"
    doc = json.loads((fixture_dir / "z4_inversion.gwa.json").read_text())
    hom_file.write_text(dumps({"map": [0, 3, 2, 1], "source": doc}))
    out = tmp_path / "transported.json"
    rc = main([
        "construct", "transport", "--in", str(fixture_dir / "gx3.gxmod.json"),
        "--domain-iso", str(hom_file), "--out", str(out),
    ])
    assert rc == 0
    rc = main(["validate", str(out)])
    assert rc == 0


def test_transport_with_both_isos(fixture_dir, tmp_path):
    # gx3's A along the inversion automorphism of (Z4, inversion action), its
    # B onto a Z2 written with the identity at 1
    gx = json.loads((fixture_dir / "gx3.gxmod.json").read_text())
    codomain = {"map": [1, 0], "target": {**gx["B"], "op": [[1, 0], [0, 1]]}}
    domain = {"map": [0, 3, 2, 1], "source": gx["A"]}
    codomain_file, domain_file, out = tmp_path / "cod.json", tmp_path / "dom.json", tmp_path / "both.json"
    codomain_file.write_text(dumps(codomain))
    domain_file.write_text(dumps(domain))
    rc = main([
        "construct", "transport", "--in", str(fixture_dir / "gx3.gxmod.json"),
        "--codomain-iso", str(codomain_file), "--domain-iso", str(domain_file), "--out", str(out),
    ])
    assert rc == 0
    isos = load_transport_homs(gx, (codomain, "codomain"), (domain, "domain"))
    assert out.read_text() == dumps(doc_for(transport_both(load_gxmod_doc(gx), *isos[0], *isos[1])[0]))
    assert main(["validate", str(out)]) == 0


def test_construct_output_gets_the_full_check(fixture_dir, tmp_path, monkeypatch, capsys):
    # a lift-to-cover that gives a lawful lifting's covering the base gx3
    # with an action validate rejects: the output check stops it
    doc = json.loads((fixture_dir / "gx3.gxmod.json").read_text())
    doc["action"][1][1] = 1
    base = load_gxmod_doc(doc)

    def broken(lift, lift_doc, args):
        return replace(lifting_to_covering(lift), base=base)

    monkeypatch.setitem(CONSTRUCTIONS, "lift-to-cover", ("lifting", broken))
    out = tmp_path / "cover.json"
    source = fixture_dir / "gx3_natural.lifting.json"
    assert main(["construct", "lift-to-cover", "--in", str(source), "--out", str(out)]) == 1
    assert "base.action.action_compatibility at (" in capsys.readouterr().err
    assert not out.exists()


def _broken_gx3_action(doc):
    doc["action"][1][1] = 1  # 1 . 1 should be 3 under inversion
    return doc


def _cat1_with_a_broken_z3_self_action(z3):
    # s = t = identity satisfy every cat1 law; the self-action breaks
    # compatibility, which validate_gcat1 alone does not check
    return {"G": {**z3, "self_action": [[0, 1, 2], [0, 2, 1], [0, 1, 2]]}, "s": [0, 1, 2], "t": [0, 1, 2]}


# construction -> (a shipped fixture, the change that makes it a lawless
# input, extra arguments, a violation validate reports on that input)
LAWLESS_INPUTS = {
    "kernel-gxmod": ("gx3.gxmod.json", _broken_gx3_action, [], "action.action_compatibility at (1, 1, 3)"),
    "image-gxmod": ("gx3.gxmod.json", _broken_gx3_action, [], "action.action_compatibility at (1, 1, 3)"),
    "transport": (
        "gx3.gxmod.json", _broken_gx3_action, ["--domain-iso", "{iso}"], "action.action_compatibility at (1, 1, 3)"
    ),
    # the output's check would name its B's action_compatibility
    "cat1-to-gxmod": ("z3.group.json", _cat1_with_a_broken_z3_self_action, [], "action_compatibility at (1, 2, 1)"),
    # alpha is no hom: the construction would exit 2 on the preimage of a non-subgroup
    "natural-lifting": ("gx2.gxmod.json", lambda doc: {**doc, "alpha": [0, 0, 1, 1]}, [], "alpha.homomorphism at (1, 1)"),
    "quotient-lifting": (
        "gx3.gxmod.json", _broken_gx3_action, ["--ideal", "0,2"], "action.action_compatibility at (1, 1, 3)"
    ),
    "lift-to-cover": (
        "gx3_natural.lifting.json",
        lambda doc: {**doc, "base": _broken_gx3_action(doc["base"])},
        [],
        "base.action.action_compatibility at (1, 1, 3)",
    ),
    # the output's check would name its omega, which is this g
    "cover-to-lift": ("gx1_identity.covering.json", lambda doc: {**doc, "g": [1, 0]}, [], "g.identity_preserved at (0,)"),
}


@pytest.mark.parametrize("construction", sorted(LAWLESS_INPUTS))
def test_construct_checks_its_input(fixture_dir, tmp_path, capsys, construction):
    source, lawless, extra, violation = LAWLESS_INPUTS[construction]
    path, out, iso = tmp_path / "bad.json", tmp_path / "out.json", tmp_path / "iso.json"
    path.write_text(dumps(lawless(json.loads((fixture_dir / source).read_text()))))
    # the inversion automorphism of (Z4, inversion action), gx3's A
    z4 = json.loads((fixture_dir / "z4_inversion.gwa.json").read_text())
    iso.write_text(dumps({"map": [0, 3, 2, 1], "source": z4}))
    assert main(["validate", str(path)]) == 1
    assert violation in capsys.readouterr().out
    argv = ["construct", construction, "--in", str(path), *[arg.format(iso=iso) for arg in extra], "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert any(line.strip().startswith(violation) for line in err), err
    assert not out.exists()


# construction -> the kind of document it takes, and a shipped fixture of another kind
CONSTRUCTION_INPUTS = {
    "kernel-gxmod": ("gxmod", "gx3_natural.lifting.json"),
    "image-gxmod": ("gxmod", "gx1_identity.covering.json"),
    "transport": ("gxmod", "v4_projection.cat1.json"),
    "cat1-to-gxmod": ("cat1", "gx1.gxmod.json"),
    "natural-lifting": ("gxmod", "z4_inversion.gwa.json"),
    "quotient-lifting": ("gxmod", "gx3_natural.lifting.json"),
    "lift-to-cover": ("lifting", "gx1_identity.covering.json"),
    "cover-to-lift": ("covering", "gx3.gxmod.json"),
}


def test_every_construction_has_its_input_kind_pinned():
    # and a lawless input of that kind
    assert set(CONSTRUCTION_INPUTS) == set(CONSTRUCTIONS) == set(LAWLESS_INPUTS)


@pytest.mark.parametrize("construction", sorted(CONSTRUCTION_INPUTS))
def test_construct_on_a_document_of_another_kind_exit_2(fixture_dir, capsys, construction):
    kind, source = CONSTRUCTION_INPUTS[construction]
    assert main(["construct", construction, "--in", str(fixture_dir / source)]) == 2
    assert f"error: expected a {kind} document" in capsys.readouterr().err


# argv with {file} for a regular file and {fx} for the fixture directory:
# a regular file can neither hold a path under it nor be made a directory
UNWRITABLE_OUT = {
    "catalog": ["catalog", "--bound", "2", "--out", "{file}/out.json"],
    "top-level-out": ["--out", "{file}/out.json", "catalog", "--bound", "2"],
    "equivalence": ["equivalence", "--in", "{fx}/gx1.gxmod.json", "--bound", "2", "--out", "{file}/out.json"],
    "validate-json": ["validate", "{fx}/gx1.gxmod.json", "--format", "json", "--out", "{file}/out.json"],
    "construct": ["construct", "natural-lifting", "--in", "{fx}/gx3.gxmod.json", "--out", "{file}/out.json"],
    "enumerate": ["enumerate", "gxmods", "--in", "{fx}/z2.group.json", "--in2", "{fx}/z2.group.json", "--out", "{file}/out.json"],
    "seed-fixtures-under-a-file": ["--seed-fixtures", "--out", "{file}/fx"],
    "seed-fixtures-onto-a-file": ["--seed-fixtures", "--out", "{file}"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUT))
def test_unwritable_out_exit_2(fixture_dir, tmp_path, capsys, command):
    regular = tmp_path / "regular"
    regular.write_text("")
    argv = [arg.format(file=regular, fx=fixture_dir) for arg in UNWRITABLE_OUT[command]]
    out = argv[argv.index("--out") + 1]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert any(line.startswith(f"error: {out}: ") for line in err.splitlines()), err
    assert "Traceback" not in err


def test_enumerate_gxmods(fixture_dir, tmp_path):
    out = tmp_path / "gxmods.jsonl"
    rc = main([
        "enumerate", "gxmods", "--in", str(fixture_dir / "z2.group.json"),
        "--in2", str(fixture_dir / "z2.group.json"), "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2


def test_enumerate_self_actions(fixture_dir, tmp_path):
    out = tmp_path / "sa.jsonl"
    rc = main(["enumerate", "self-actions", "--in", str(fixture_dir / "v4.group.json"), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 10


def test_enumerate_self_actions_names_them_after_the_files_group(fixture_dir, tmp_path):
    # the catalog's V4 has the same table: cached self-actions keep each name
    assert main(["catalog", "--bound", "4", "--out", str(tmp_path / "catalog.jsonl")]) == 0
    doc = json.loads((fixture_dir / "v4.group.json").read_text())
    path, out = tmp_path / "k4.json", tmp_path / "sa.jsonl"
    path.write_text(dumps({**doc, "name": "K4"}))
    assert main(["enumerate", "self-actions", "--in", str(path), "--out", str(out)]) == 0
    names = [json.loads(line)["name"] for line in out.read_text().splitlines()]
    assert names == [f"K4#sa{i}" for i in range(10)]


def test_enumerate_gxmods_keeps_each_files_names(fixture_dir, tmp_path):
    # a second run on an equal table under another name keeps that name
    doc = json.loads((fixture_dir / "v4.group.json").read_text())
    k4, out = tmp_path / "k4.json", tmp_path / "gxmods.jsonl"
    k4.write_text(dumps({**doc, "name": "K4"}))
    for path, name in ((fixture_dir / "v4.group.json", "V4"), (k4, "K4")):
        assert main(["enumerate", "gxmods", "--in", str(path), "--in2", str(path), "--out", str(out)]) == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert docs and {(d["A"]["name"], d["B"]["name"]) for d in docs} == {(name, name)}


@pytest.mark.parametrize("what", ["liftings", "coverings"])
def test_enumerate_checks_its_base(fixture_dir, tmp_path, capsys, what):
    # gx3 with alpha sent to the identity breaks Peiffer: validate and
    # equivalence exit 1 on it, and so does enumerate, before any output
    doc = json.loads((fixture_dir / "gx3.gxmod.json").read_text())
    doc["alpha"] = [0] * len(doc["alpha"])
    path, out = tmp_path / "bad.json", tmp_path / "out.jsonl"
    path.write_text(dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert main(["equivalence", "--in", str(path), "--out", str(out)]) == 1
    capsys.readouterr()
    assert main(["enumerate", what, "--in", str(path), "--bound", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "GX3: 4 violation(s)" in err and "peiffer at (1, 1)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["self-actions", "--in", "{bad}"],
        ["ext-actions", "--in", "{bad}", "--in2", "{good}"],
        ["ext-actions", "--in", "{good}", "--in2", "{bad}"],
        ["gxmods", "--in", "{bad}", "--in2", "{good}"],
        ["gxmods", "--in", "{good}", "--in2", "{bad}"],
    ],
    ids=["self-actions", "ext-actions-in", "ext-actions-in2", "gxmods-in", "gxmods-in2"],
)
def test_enumerate_checks_each_gwa_input(fixture_dir, tmp_path, capsys, argv):
    # S3 with row 1 of its self-action zeroed breaks compatibility: enumerate
    # exits 1 on it as validate does, whichever input it is
    doc = json.loads((fixture_dir / "s3_conjugation.gwa.json").read_text())
    doc["self_action"][1] = [0] * doc["order"]
    bad, out = tmp_path / "bad.json", tmp_path / "out.jsonl"
    bad.write_text(dumps(doc))
    assert main(["validate", str(bad)]) == 1
    capsys.readouterr()
    good = fixture_dir / "s3_conjugation.gwa.json"

    def run(first):
        return main(["enumerate", *[arg.format(bad=first, good=good) for arg in argv], "--out", str(out)])

    assert run(bad) == 1
    assert "action_compatibility at (1, 1, 1)" in capsys.readouterr().err
    assert not out.exists()
    assert run(good) == 0


def test_enumerate_on_a_document_of_another_kind_exit_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    argv = ["enumerate", "self-actions", "--in", str(fixture_dir / "v4_projection.cat1.json"), "--out", str(out)]
    assert main(argv) == 2
    assert "error: expected a gwa document, got cat1" in capsys.readouterr().err
    assert not out.exists()


def test_equivalence_exit_codes_and_determinism(fixture_dir, tmp_path):
    out1, out2 = tmp_path / "eq1.json", tmp_path / "eq2.json"
    rc1 = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4", "--out", str(out1)])
    rc2 = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4", "--out", str(out2)])
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["ok"] is True
    assert payload["lifting_count"] == payload["covering_count"] == 25


# sha256 of `genxmod equivalence --format json` and the exit code, with the
# GXMOD_MAX_MORPHISMS cap (None: unset); gx1/4 and gx3/4 without a cap are
# pinned by test_acceptance_7_determinism.  A category cut by the cap lists
# its first cap morphisms and runs no morphism-level check
PINNED_EQUIVALENCE = [
    ("a3_s3", 6, None, 0, "c73efdae839a39c68a563af32a84fc4b266f7420bca6c16c546d4b8453cae54a"),
    ("gx1", 4, 5, 3, "4acc2d32de9711eea1ca442c65913b9c947fb7a0efbae2cc9fefcd58043e5d26"),
    ("gx1", 4, 100, 3, "8debc663afe5c8bacdeb0d3ba66d2ea1fe91e91d2f07683e0f3776f5316ff3f9"),
    ("gx1", 4, 1000, 3, "d850e243126bc6bf038fddef2d276335042088ce2cd248787987e6aa750277ad"),
    # 3000 exceeds both of gx1's 1201-morphism categories: the untruncated report
    ("gx1", 4, 3000, 0, "1a3378e011f28ca6475872191bad45bf0a13387e6487f7847c24722489976309"),
    ("gx3", 4, 5, 3, "4817269134c7ac66eb1a15fafe09368507ed5b33f555693d186215268145b5d7"),
    ("gx3", 4, 100, 3, "b96ea38e9e38fe524e84d7265143ebd260f72be091c6a574510ee3d2e14bc18d"),
    ("gx3", 4, 1000, 3, "4ec94b418f29dbe88bd58b729e2c67f90818d0cbe5d49faa092e38c959ba09ac"),
    ("gx3", 4, 3000, 3, "ce67cf9507882d72b0455eaa2d5584d63b18bfecc2e4dbe0645fa320d68e07be"),
    # 35/70 objects, 1815/7260 morphisms: 13 covering shapes off the f = id slice
    ("gx3", 6, None, 0, "a354d75e26e49c3bf839befc686b090ccdc213a9a4c23ad5c3dd6eca2cd4dd6b"),
]


@pytest.mark.parametrize(
    "fixture, bound, cap, exit_code, sha256",
    PINNED_EQUIVALENCE,
    ids=[f"{fixture}-{bound}-cap{cap}" for fixture, bound, cap, _, _ in PINNED_EQUIVALENCE],
)
def test_equivalence_json_is_pinned(fixture_dir, tmp_path, monkeypatch, fixture, bound, cap, exit_code, sha256):
    if cap is None:
        monkeypatch.delenv("GXMOD_MAX_MORPHISMS", raising=False)
    else:
        monkeypatch.setenv("GXMOD_MAX_MORPHISMS", str(cap))
    out = tmp_path / "eq.json"
    args = ["equivalence", "--in", str(fixture_dir / f"{fixture}.gxmod.json"), "--bound", str(bound)]
    rc = main([*args, "--format", "json", "--out", str(out)])
    assert rc == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# sha256 of `genxmod enumerate liftings|coverings --bound 8` and the line count
PINNED_ENUMERATION = [
    ("gx1", "liftings", 6625, "9cbb5646b021d2da17f8e399b3bd6b4f33a211d5cf22ef58a297ca211d5b61ea"),
    ("gx1", "coverings", 6625, "4e386adff01898db16b0fcda820569ed77161e3de611f7c70366df1ae6fc1c2b"),
    ("gx3", "liftings", 6787, "43eeba57573754f5315de7295924657709f57984489964c2c4fd7e367a6999b0"),
    ("gx3", "coverings", 13574, "87adf0e092c68924edbe20f8fa5cd6778037722b0f49ab3ab1e1fda7e4ffe5fa"),
    ("a3_s3", "liftings", 58, "2acb0b1eec5b23895bda7421c4dc2a326c74c7764ef70ebbd1d9f982267c289f"),
    ("a3_s3", "coverings", 116, "3ca3c518d713c18a9403e2c708520695966af31f4398cdc8f1bd16c012b923ba"),
]


@pytest.mark.parametrize(
    "fixture, what, count, sha256", PINNED_ENUMERATION, ids=[f"{fixture}-{what}" for fixture, what, _, _ in PINNED_ENUMERATION]
)
def test_bound8_enumeration_is_pinned(fixture_dir, tmp_path, fixture, what, count, sha256):
    out = tmp_path / f"{what}.jsonl"
    rc = main(["enumerate", what, "--in", str(fixture_dir / f"{fixture}.gxmod.json"), "--bound", "8", "--out", str(out)])
    assert rc == 0
    data = out.read_bytes()
    assert len(data.splitlines()) == count
    assert hashlib.sha256(data).hexdigest() == sha256


def test_bound8_catalog_is_pinned(tmp_path):
    # sha256 of `genxmod catalog --bound 8` and its line count, one line per gwa object
    out = tmp_path / "catalog.jsonl"
    assert main(["catalog", "--bound", "8", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data.splitlines()) == 889
    assert hashlib.sha256(data).hexdigest() == "522825daca1e9d866bdfa7e6afbac207a2195a62d47aaae166836a2e585b4f6c"


def _clear_genxmod_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("genxmod."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith("genxmod."):
                    value.cache_clear()


def test_bound8_catalog_decides_each_row_law_once_per_group_table(tmp_path):
    # a cold catalog keeps 71 automorphism verdicts and 373 row composites
    # over its 14 group tables, 22 and 148 of them on Z2^3; a warm one
    # writes the pinned bytes
    _clear_genxmod_caches()
    out = tmp_path / "catalog.jsonl"
    assert main(["catalog", "--bound", "8", "--out", str(out)]) == 0
    groups = search.standard_pool(8).groups
    assert self_maps.cache_info().currsize == len(groups) == 14
    maps = {g.name: self_maps(g.op) for g in groups}
    assert self_maps.cache_info().currsize == 14
    assert sum(len(r.automorphism) for r in maps.values()) == 71
    assert sum(len(r.composite) for r in maps.values()) == 373
    assert (len(maps["Z2^3"].automorphism), len(maps["Z2^3"].composite)) == (22, 148)
    assert main(["catalog", "--bound", "8", "--out", str(out)]) == 0
    assert self_maps.cache_info().currsize == 14
    assert sum(len(r.composite) for r in maps.values()) == 373
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "522825daca1e9d866bdfa7e6afbac207a2195a62d47aaae166836a2e585b4f6c"


def test_a_cold_bound8_catalog_closes_1654_prefixes(tmp_path, monkeypatch):
    # the hom searches behind a cold catalog, all_homs into each Aut(G) and
    # automorphisms, close 1654 generator-image prefixes (_extend_map calls)
    _clear_genxmod_caches()
    calls = []
    extend_map = groups._extend_map
    monkeypatch.setattr(groups, "_extend_map", lambda *args: calls.append(1) or extend_map(*args))
    out = tmp_path / "catalog.jsonl"
    try:
        assert main(["catalog", "--bound", "8", "--out", str(out)]) == 0
    finally:
        _clear_genxmod_caches()
    assert len(calls) == 1654
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "522825daca1e9d866bdfa7e6afbac207a2195a62d47aaae166836a2e585b4f6c"


# sha256 of every other written output, run in the seeded fixture directory:
# the argv, with {iso} the inversion automorphism of (Z4, inversion action)
# as a --domain-iso file
PINNED_OUTPUTS = {
    "self-actions-s3": (
        ["enumerate", "self-actions", "--in", "s3.group.json"],
        "6f257d49596dd6e4959600da0b2015f1fc9b7961e3c25c35cfa91d81b6e54869",
    ),
    "ext-actions-v4-z4_inversion": (
        ["enumerate", "ext-actions", "--in", "v4.group.json", "--in2", "z4_inversion.gwa.json"],
        "ca48cb96ad4714ab27ec126afa09be7a7d7d22984847fc32cbdfb4dca8c1c0c0",
    ),
    "gxmods-z4_inversion-v4": (
        ["enumerate", "gxmods", "--in", "z4_inversion.gwa.json", "--in2", "v4.group.json"],
        "f8dfd7379b6404fe0432419c67a80a5457977fcdf49385df13763681aa9150a8",
    ),
    "gxmods-v4-z4_inversion": (
        ["enumerate", "gxmods", "--in", "v4.group.json", "--in2", "z4_inversion.gwa.json"],
        "75cc0b8b45bd139a696d834abbc2595c9f20e4df61d913fb52c6f7a63196c3ef",
    ),
    "kernel-gxmod": (
        ["construct", "kernel-gxmod", "--in", "gx3.gxmod.json"],
        "ac4e01144174ad6cd87c9af0990b12eb111a30f6dedcacb5f2d829d810c0b033",
    ),
    "image-gxmod": (
        ["construct", "image-gxmod", "--in", "gx3.gxmod.json"],
        "fdc4f54d4148cdcf41799142e38709b2272bb3bd8ec342b55a7646c74c1d4740",
    ),
    "transport": (
        ["construct", "transport", "--in", "gx3.gxmod.json", "--domain-iso", "{iso}"],
        "69c253769e62d268dc5f19de779e4bda30f8f9c7881d027ce917978ee6cb238e",
    ),
    "cat1-to-gxmod": (
        ["construct", "cat1-to-gxmod", "--in", "v4_projection.cat1.json"],
        "f1c1ed47729dacb8d2420c105ba76a2546b20c34512dc8ab54d5dc0929b59dcf",
    ),
    "natural-lifting": (
        ["construct", "natural-lifting", "--in", "gx3.gxmod.json"],
        "2810b10f47d23ef4bf382fad5d20c8a09abc9f871236e5673f19126b74f6f486",
    ),
    "quotient-lifting": (
        ["construct", "quotient-lifting", "--in", "gx3.gxmod.json", "--ideal", "0,2"],
        "0fc11adcf15417ad0e590e432c8e72ae67a2ee70b407622eec71886ee240a2fa",
    ),
    "lift-to-cover": (
        ["construct", "lift-to-cover", "--in", "gx3_natural.lifting.json"],
        "08da2baa98aa715efb341470c5d6cedea3c80d9acd3aac6e84c3b0fc4db2c3a5",
    ),
    "cover-to-lift": (
        ["construct", "cover-to-lift", "--in", "gx1_identity.covering.json"],
        "dfad9704ecccf9d23f2e2d74159e02ad9cc7b3b2b77e8cc33d42cf7ce8ec983a",
    ),
    "validate-fixtures": (
        ["validate", "--format", "json", *sorted(cli.FIXTURE_FILES)],
        "73fd70699873b379b9eceb6469fab2d00e4505f6cd0a6d76bf9020e50c20e539",
    ),
}


def test_every_construction_has_its_output_pinned():
    assert set(CONSTRUCTIONS) <= set(PINNED_OUTPUTS)


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_written_output_is_pinned(fixture_dir, tmp_path, monkeypatch, name):
    argv, sha256 = PINNED_OUTPUTS[name]
    iso, out = tmp_path / "iso.json", tmp_path / "out.json"
    z4 = json.loads((fixture_dir / "z4_inversion.gwa.json").read_text())
    iso.write_text(dumps({"map": [0, 3, 2, 1], "source": z4}))
    monkeypatch.chdir(fixture_dir)
    assert main([*(arg.format(iso=iso) for arg in argv), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_seeded_fixture_files_are_pinned(fixture_dir):
    # sha256 over each --seed-fixtures file's name and bytes, in name order
    files = sorted(fixture_dir.iterdir())
    assert [p.name for p in files] == sorted(cli.FIXTURE_FILES)
    digest = hashlib.sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in files)).hexdigest()
    assert digest == "d97cb8bab8c3756ab4120862f4d9cbb5a74f5edf015b199b0403fd8dd2261cc0"


def test_equivalence_pool_too_small_exit_3(fixture_dir, tmp_path):
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "1", "--out", str(tmp_path / "eq.json")])
    assert rc == 3


def test_catalog_deterministic(tmp_path):
    out1, out2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    assert main(["catalog", "--bound", "4", "--out", str(out1)]) == 0
    assert main(["catalog", "--bound", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    # 1 + 1 + 1 + 2 + 10 gwa objects over orders 1..4
    assert len(lines) == 15
    assert all(json.loads(line)["valid"] for line in lines)


def test_top_level_out_is_honoured(tmp_path, capsys):
    top, sub = tmp_path / "top.jsonl", tmp_path / "sub.jsonl"
    assert main(["--out", str(top), "catalog", "--bound", "2"]) == 0
    assert main(["catalog", "--bound", "2", "--out", str(sub)]) == 0
    assert capsys.readouterr().out == ""
    assert top.read_bytes() == sub.read_bytes() != b""


def test_max_morphisms_env_respected(fixture_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("GXMOD_MAX_MORPHISMS", "3")
    out = tmp_path / "eq.json"
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["truncated"] is True
    assert payload["ok"] is False
    assert payload["lifting_morphism_count"] <= 3
    assert rc == 3


def test_a_cut_run_at_bound_8_lists_the_cap_and_runs_no_morphism_check(fixture_dir, tmp_path, monkeypatch):
    # gx1 at bound 8 has 6625 liftings and 6625 coverings and more than the
    # default cap of 20 000 morphisms on each side: both categories are cut
    monkeypatch.delenv("GXMOD_MAX_MORPHISMS", raising=False)
    built, searched = Counter(), Counter()
    for name in ("LiftingMorphism", "CoveringMorphism"):

        def counted(*args, _name=name, _build=getattr(search, name)):
            built[_name] += 1
            return _build(*args)

        monkeypatch.setattr(search, name, counted)
    for side in ("lifting", "covering"):

        def between_counted(*args, _side=side, _between=getattr(search, f"{side}_morphisms_between")):
            found = _between(*args)
            searched[_side] += len(found)
            return found

        monkeypatch.setattr(search, f"{side}_morphisms_between", between_counted)
    out = tmp_path / "eq.json"
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "8", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert rc == 3
    # the lookups and the writer on two 6625-object categories
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8957ba6a007ef6108c06e3861ce4721eaa122ea9849a3f9ce5fe4ce5c311bd5e"
    )
    assert doc["truncated"] is True and doc["ok"] is False
    assert (doc["lifting_count"], doc["covering_count"]) == (6625, 6625)
    assert doc["lifting_morphism_count"] == doc["covering_morphism_count"] == 20000
    assert len(doc["lifting_morphisms"]) == len(doc["covering_morphisms"]) == 20000
    # no morphism-level check ran: the functor laws ran on the identities only
    assert doc["morphism_checks"] == doc["naturality_checks"] == {"passed": 0, "failed": 0}
    assert doc["functor_law_checks"] == {"passed": 2 * 6625, "failed": 0}
    # every morphism built is one a hom-set search returned, on the first
    # objects of a pair of shapes, or a covering's round-trip witness <f, 1>;
    # the 20 000 listed on each side are not built
    assert built["LiftingMorphism"] == searched["lifting"] < 20000
    assert built["CoveringMorphism"] == searched["covering"] + 6625
    assert searched["covering"] < 20000


@pytest.mark.slow
def test_a_cut_run_at_bound_8_on_gx3_is_pinned(fixture_dir, tmp_path, monkeypatch):
    # gx3 at bound 8 has 6787 liftings and 13 574 coverings, and both
    # categories are cut at the default cap
    monkeypatch.delenv("GXMOD_MAX_MORPHISMS", raising=False)
    out = tmp_path / "eq.json"
    rc = main(["equivalence", "--in", str(fixture_dir / "gx3.gxmod.json"), "--bound", "8", "--out", str(out)])
    assert rc == 3
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8e1deaff7da73416a03203b81346487bef2ebe79f72a1d5d3a37840363e3f7aa"
    )


def test_out_of_memory_exits_3_without_a_traceback(fixture_dir, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_equivalence", exhausted)
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "8"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error: out of memory")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("name, make_fault, labels", _NOT_FOUND)
def test_missing_canonical_objects_are_reported_in_human_format(fixture_dir, monkeypatch, capsys, name, make_fault, labels):
    monkeypatch.setattr(search, name, make_fault(getattr(search, name)))
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4", "--format", "human"])
    out = capsys.readouterr().out
    assert rc == 3
    incomplete = [line for line in out.splitlines() if line.startswith("incomplete: ")]
    assert incomplete == [f"incomplete: {label}: not found in the enumerated pool" for label in labels]
    assert out.rstrip().endswith("NOT OK")


def test_failures_without_a_cut_exit_1(fixture_dir, tmp_path, monkeypatch, capsys):
    # one faulty functor image: the run is complete and untruncated, and fails
    name, make_fault, message, _ = next(f for f in _FAULTS if f[2] == "lifting morphism: functor image invalid")
    monkeypatch.setattr(search, name, make_fault(getattr(search, name)))
    args = ["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4"]
    assert main([*args, "--out", str(tmp_path / "eq.json")]) == 1
    doc = json.loads((tmp_path / "eq.json").read_text())
    assert doc["ok"] is False and doc["truncated"] is False and doc["incomplete"] == []
    assert main([*args, "--format", "human"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"FAILURE: {message}" in lines
    assert not [line for line in lines if line.startswith(("incomplete:", "truncated:"))]
    assert lines[-1] == "NOT OK"


def test_truncated_run_is_reported_in_human_format(fixture_dir, monkeypatch, capsys):
    monkeypatch.setenv("GXMOD_MAX_MORPHISMS", "3")
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4", "--format", "human"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "truncated: the morphism cap of 3 was reached" in out
    assert out.rstrip().endswith("NOT OK")


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "GXMOD_MAX_MORPHISMS must be an integer"),
        # a cap below 1 is refused, not read as a cap of 1
        ("0", "GXMOD_MAX_MORPHISMS must be at least 1, got '0'"),
        ("-5", "GXMOD_MAX_MORPHISMS must be at least 1, got '-5'"),
    ],
    ids=["abc", "0", "-5"],
)
def test_malformed_max_morphisms_env_exit_2(fixture_dir, monkeypatch, capsys, value, message):
    monkeypatch.setenv("GXMOD_MAX_MORPHISMS", value)
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "genxmod.cli", "catalog", "--bound", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 2


def test_package_runs_as_a_module(capsys):
    # python -m genxmod is the same command line as genxmod.cli.main
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "genxmod", "catalog", "--bound", "2"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["catalog", "--bound", "2"]) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
