import hashlib
import json
import subprocess
import sys

import pytest

from genxmod.cli import CONSTRUCTIONS, main
from genxmod.serialize import dumps


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


def test_validate_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc = main(["validate", str(bad)])
    assert rc == 2
    assert "structural error" in capsys.readouterr().out


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


def test_construct_output_gets_the_full_check(fixture_dir, tmp_path, capsys):
    # the covering's base is the lifting's base, whose action validate rejects
    doc = json.loads((fixture_dir / "gx3_natural.lifting.json").read_text())
    doc["base"]["action"][1][1] = 1
    path, out = tmp_path / "lift.json", tmp_path / "cover.json"
    path.write_text(dumps(doc))
    assert main(["construct", "lift-to-cover", "--in", str(path), "--out", str(out)]) == 1
    assert "base.action.action_compatibility at (" in capsys.readouterr().err
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
    assert set(CONSTRUCTION_INPUTS) == set(CONSTRUCTIONS)


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
# pinned by test_acceptance_7_determinism
PINNED_EQUIVALENCE = [
    ("a3_s3", 6, None, 0, "c73efdae839a39c68a563af32a84fc4b266f7420bca6c16c546d4b8453cae54a"),
    ("gx1", 4, 5, 3, "61698e643535713b524f734bd91dacd287c7db277fea1cc095285c3120ad8dfc"),
    ("gx1", 4, 100, 3, "9d4440488a027d4c61011b01a4dcaa562fdc7695c88b62dc6d4af1ec52718ffa"),
    ("gx1", 4, 1000, 3, "98c6a1c181dcea3d43a50e17b0736c69c894c557e6479d5d3d5f1d36f9191f18"),
    # 3000 exceeds both of gx1's 1201-morphism categories: the untruncated report
    ("gx1", 4, 3000, 0, "1a3378e011f28ca6475872191bad45bf0a13387e6487f7847c24722489976309"),
    ("gx3", 4, 5, 3, "64d6b1a227eb4fe1325662c35377dbee78b5bce65b9fc612fadbbb46b5991c83"),
    ("gx3", 4, 100, 3, "d9e7948e3e74d1e57c325d8a1fae0c716bbe8a98ce18de736e96c7ba5d48738f"),
    ("gx3", 4, 1000, 3, "dd0b4dc9b675f889826fb3922d2fa6622371f01dceea70a508a8b415bc0fbf09"),
    ("gx3", 4, 3000, 3, "7920cb3c0f31a0ea1ad550b27b73a6354cd67bcd1285fb10f809a988433cc308"),
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


def test_truncated_run_is_reported_in_human_format(fixture_dir, monkeypatch, capsys):
    monkeypatch.setenv("GXMOD_MAX_MORPHISMS", "3")
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4", "--format", "human"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "truncated: the morphism cap of 3 was reached" in out
    assert out.rstrip().endswith("NOT OK")


def test_malformed_max_morphisms_env_exit_2(fixture_dir, monkeypatch, capsys):
    monkeypatch.setenv("GXMOD_MAX_MORPHISMS", "abc")
    rc = main(["equivalence", "--in", str(fixture_dir / "gx1.gxmod.json"), "--bound", "4"])
    assert rc == 2
    assert "GXMOD_MAX_MORPHISMS must be an integer" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "genxmod.cli", "catalog", "--bound", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 2
