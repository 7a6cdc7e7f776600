"""Command-line front end.

Commands: validate, construct, enumerate, equivalence, catalog; plus
--seed-fixtures to install the shipped fixture files.  Exit codes:

    0  all checks passed
    1  an axiom or precondition failure, in an input or in the output of a
       construction
    2  a parse or structural failure: malformed JSON or a malformed document,
       an unreadable input, an unwritable --out or --seed-fixtures target, a
       malformed GXMOD_MAX_MORPHISMS
    3  an incomplete equivalence run: the pool is too small or the morphism
       cap was reached

main maps the failures of every command to codes 1 and 2; validate alone
reports a file's structural error itself and goes on to the next file.

JSON output is canonical (sorted keys, compact separators), so repeated runs
on the same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .cat1 import cat1_to_gxmod, validate_gcat1
from .coverlift import (
    covering_to_lifting,
    lifting_to_covering,
    natural_lifting,
    quotient_lifting,
    validate_covering,
    validate_lifting,
)
from .crossed import (
    image_gxmod,
    kernel_gxmod,
    transport_both,
    transport_codomain,
    transport_domain,
    validate_gxmod_full,
)
from .groups import subgroup, validate_group
from .gwa import validate_gwa
from .search import (
    enumerate_coverings,
    enumerate_ext_actions,
    enumerate_gxmods,
    enumerate_liftings,
    gwa_objects_for,
    morphism_cap,
    standard_pool,
    verify_equivalence,
)
from .serialize import (
    covering_docs,
    detect_kind,
    doc_for,
    dumps,
    equivalence_report_doc,
    gwa_doc,
    gxmod_doc,
    lifting_docs,
    load_any,
    load_gwa_doc,
    load_gxmod_doc,
    load_transport_docs,
)
from .validation import PreconditionError, StructuralError, ValidationReport

EXIT_OK = 0
EXIT_AXIOM = 1
EXIT_PARSE = 2
EXIT_INCOMPLETE = 3


class _ChecksFailed(Exception):
    """The summary of a report with violations; main prints it and exits 1."""


def _require_ok(report: ValidationReport) -> None:
    if not report.ok:
        raise _ChecksFailed(report.summary())


def _read_doc(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StructuralError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def _write(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise StructuralError(f"{out}: {exc}") from exc


def _validate_loaded(kind: str, obj) -> ValidationReport:
    """The full check of an object of the kind: the laws of its parts too."""
    if kind == "gwa":
        return validate_group(obj.group).merged(validate_gwa(obj))
    if kind == "gxmod":
        return validate_gxmod_full(obj)
    if kind == "cat1":
        report = ValidationReport().merged(validate_group(obj.G.group), "G.group")
        return report.merged(validate_gwa(obj.G)).merged(validate_gcat1(obj))
    if kind == "covering":
        report = validate_gxmod_full(obj.total).merged(validate_gxmod_full(obj.base), "base")
        return report.merged(validate_covering(obj))
    # a lifting
    report = validate_gxmod_full(obj.base).merged(validate_group(obj.X.group), "X.group")
    return report.merged(validate_gwa(obj.X), "X").merged(validate_lifting(obj))


def cmd_validate(args) -> int:
    worst = EXIT_OK
    results = []
    for path in args.inputs:
        try:
            doc = _read_doc(path)
            kind, obj = load_any(doc)
            report = _validate_loaded(kind, obj)
        except StructuralError as exc:
            results.append({"file": path, "ok": False, "error": str(exc)})
            if args.format == "human":
                print(f"{path}: structural error: {exc}")
            worst = max(worst, EXIT_PARSE)
            continue
        results.append(
            {
                "file": path,
                "kind": kind,
                "ok": report.ok,
                "violations": [
                    {"law": v.law, "witness": list(v.witness), "detail": v.detail}
                    for v in report.violations
                ],
            }
        )
        if args.format == "human":
            print(f"{path}: {'ok' if report.ok else 'FAILED'}")
            for v in report.violations:
                print(f"  {v.law} at {v.witness}: {v.detail}")
        if not report.ok:
            worst = max(worst, EXIT_AXIOM)
    if args.format == "json":
        _write(dumps(results), args.out)
    return worst


def _hom_file(path: str | None) -> tuple[dict, str] | None:
    """The document of a --codomain-iso/--domain-iso file and its path, if given."""
    return path and (_read_doc(path), path)


def _loaded(construction):
    """construction run on the object its input document holds."""
    return lambda doc, args: construction(load_any(doc)[1])


def _cat1_to_gxmod(c):
    # the functor is defined on cat1-groups that satisfy the laws only
    _require_ok(validate_gcat1(c))
    return cat1_to_gxmod(c)


def _quotient_lifting(doc: dict, args):
    x = load_gxmod_doc(doc)
    if not args.ideal:
        raise StructuralError("quotient-lifting needs --ideal with member indices")
    try:
        members = [int(i) for i in args.ideal.split(",") if i != ""]
    except ValueError:
        raise StructuralError(f"--ideal must be comma-separated indices, got {args.ideal!r}") from None
    return quotient_lifting(x, subgroup(x.A.group, members))


def _transport(doc: dict, args):
    # the isomorphisms are read in the gxmod file's numbering
    x, codomain, domain = load_transport_docs(doc, _hom_file(args.codomain_iso), _hom_file(args.domain_iso))
    if codomain and domain:
        return transport_both(x, *codomain, *domain)[0]
    if codomain:
        return transport_codomain(x, *codomain)[0]
    if domain:
        return transport_domain(x, *domain)[0]
    raise StructuralError("transport needs --codomain-iso and/or --domain-iso")


# construction -> (the kind of document it takes, its build from that
# document and the parsed arguments)
CONSTRUCTIONS = {
    "kernel-gxmod": ("gxmod", _loaded(kernel_gxmod)),
    "image-gxmod": ("gxmod", _loaded(image_gxmod)),
    "transport": ("gxmod", _transport),
    "cat1-to-gxmod": ("cat1", _loaded(_cat1_to_gxmod)),
    "natural-lifting": ("gxmod", _loaded(natural_lifting)),
    "quotient-lifting": ("gxmod", _quotient_lifting),
    "lift-to-cover": ("lifting", _loaded(lifting_to_covering)),
    "cover-to-lift": ("covering", _loaded(covering_to_lifting)),
}


def cmd_construct(args) -> int:
    kind, build = CONSTRUCTIONS[args.construction]
    doc = _read_doc(args.input)
    _require_kind(detect_kind(doc), kind)
    result = build(doc, args)
    # the output gets the check that validate runs on a file of its kind
    out_doc = doc_for(result)
    _require_ok(_validate_loaded(detect_kind(out_doc), result))
    _write(dumps(out_doc), args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.what == "self-actions":
        gw = load_gwa_doc(_read_doc(args.input))[0]
        docs = [gwa_doc(g) for g in gwa_objects_for(gw.group)]
    elif args.what == "ext-actions":
        if not args.second:
            raise StructuralError("ext-actions needs --in2 with the acted-on group")
        actor = load_gwa_doc(_read_doc(args.input))[0]
        space = load_gwa_doc(_read_doc(args.second))[0]
        docs = [
            {"actor": actor.name, "space": space.name, "act": [list(r) for r in e.act]}
            for e in enumerate_ext_actions(actor, space)
        ]
    elif args.what == "gxmods":
        if not args.second:
            raise StructuralError("gxmods needs --in2 with the codomain group")
        a = load_gwa_doc(_read_doc(args.input))[0]
        b = load_gwa_doc(_read_doc(args.second))[0]
        docs = [gxmod_doc(x) for x in enumerate_gxmods(a, b)]
    elif args.what == "liftings":
        base = load_gxmod_doc(_read_doc(args.input))
        docs = lifting_docs(enumerate_liftings(base, standard_pool(args.bound)))
    else:
        base = load_gxmod_doc(_read_doc(args.input))
        docs = covering_docs(enumerate_coverings(base, standard_pool(args.bound)))
    _write("".join(dumps(d) for d in docs), args.out)
    return EXIT_OK


def cmd_equivalence(args) -> int:
    base = load_gxmod_doc(_read_doc(args.input))
    _require_ok(validate_gxmod_full(base))
    pool = standard_pool(args.bound)
    cap = morphism_cap()
    report = verify_equivalence(base, pool, cap)
    doc = equivalence_report_doc(report)
    if args.format == "human":
        lines = [
            f"base {report.base_name}, bound {report.order_bound}",
            f"liftings: {report.lifting_count}, coverings: {report.covering_count}",
            f"round trip (lifting side) exact: {report.roundtrip_lifting_exact}",
            f"covering round-trip witnesses: {len(report.roundtrip_covering_witnesses)}",
            f"morphisms: {report.lifting_morphism_count} lifting, {report.covering_morphism_count} covering",
            f"morphism checks: {report.morphism_checks_passed} passed, {report.morphism_checks_failed} failed",
            f"functor laws: {report.functor_law_checks_passed} passed, {report.functor_law_checks_failed} failed",
            f"naturality: {report.naturality_checks_passed} passed, {report.naturality_checks_failed} failed",
        ]
        for reason in report.incomplete:
            lines.append(f"incomplete: {reason}")
        if report.truncated:
            lines.append(f"truncated: the morphism cap of {cap} was reached; morphism checks are partial")
        for failure in report.failures:
            lines.append(f"FAILURE: {failure}")
        lines.append("ok" if report.ok else "NOT OK")
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(dumps(doc), args.out)
    if report.incomplete or report.truncated:
        return EXIT_INCOMPLETE
    if report.failures:
        return EXIT_AXIOM
    return EXIT_OK


def cmd_catalog(args) -> int:
    pool = standard_pool(args.bound)
    docs = []
    for g in pool.groups:
        verdict = validate_group(g).ok
        for gw in gwa_objects_for(g):
            doc = gwa_doc(gw)
            doc["valid"] = verdict and validate_gwa(gw).ok
            docs.append(doc)
    _write("".join(dumps(d) for d in docs), args.out)
    return EXIT_OK


# file name -> the builder of the fixture it holds
_FIXTURES = {
    "trivial.group.json": lambda: fixtures.fixture_groups()[0],
    "z2.group.json": lambda: fixtures.fixture_groups()[1],
    "z3.group.json": lambda: fixtures.fixture_groups()[2],
    "z4.group.json": lambda: fixtures.fixture_groups()[3],
    "v4.group.json": lambda: fixtures.fixture_groups()[4],
    "s3.group.json": lambda: fixtures.fixture_groups()[5],
    "z8.group.json": lambda: fixtures.fixture_groups()[6],
    "z4_inversion.gwa.json": fixtures.z4_inversion_gwa,
    "s3_conjugation.gwa.json": fixtures.s3_conjugation_gwa,
    "gx1.gxmod.json": fixtures.gx1,
    "gx2.gxmod.json": fixtures.gx2,
    "gx3.gxmod.json": fixtures.gx3,
    "a3_s3.gxmod.json": fixtures.a3_s3,
    "inner_s3.gxmod.json": fixtures.inner_automorphism_gxmod,
    "sign_module.gxmod.json": fixtures.zero_module_gxmod,
    "v4_projection.cat1.json": fixtures.v4_projection_cat1,
    "s3_identity.cat1.json": fixtures.s3_identity_cat1,
    "z2_identity.cat1.json": fixtures.z2_identity_cat1,
    "gx1_identity.covering.json": fixtures.fixture_covering,
    "gx3_natural.lifting.json": fixtures.fixture_lifting,
}
# file name -> the builder of its document, as seed_fixtures and the
# corruption corpus of the law-core tests read it
FIXTURE_FILES = {name: (lambda build=build: doc_for(build())) for name, build in _FIXTURES.items()}


def seed_fixtures(directory: str) -> int:
    target = Path(directory)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StructuralError(f"{target}: {exc}") from exc
    for name, build in sorted(FIXTURE_FILES.items()):
        _write(dumps(build()), str(target / name))
    print(f"wrote {len(FIXTURE_FILES)} fixture files to {target}")
    return EXIT_OK


def _require_kind(kind: str, wanted: str) -> None:
    if kind != wanted:
        raise StructuralError(f"expected a {wanted} document, got {kind}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genxmod",
        description="Validate, construct and enumerate finite generalized crossed modules.",
    )
    parser.add_argument(
        "--seed-fixtures",
        action="store_true",
        help="write the shipped fixture files and exit",
    )
    # one destination: a sub-command's --out leaves the top-level one alone unless given
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.set_defaults(run=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="validate structure files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("construct", help="run a construction on a structure file")
    p.add_argument("construction", choices=tuple(CONSTRUCTIONS))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.add_argument("--ideal", default=None, help="comma-separated member indices")
    p.add_argument("--codomain-iso", dest="codomain_iso", default=None)
    p.add_argument("--domain-iso", dest="domain_iso", default=None)
    p.set_defaults(run=cmd_construct)

    p = sub.add_parser("enumerate", help="enumerate structures as JSON lines")
    p.add_argument("what", choices=("self-actions", "ext-actions", "gxmods", "liftings", "coverings"))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--in2", dest="second", default=None, help="second input (actor/space, A/B)")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("equivalence", help="verify the covering/lifting equivalence for a base")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--format", choices=("human", "json"), default="json")
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(run=cmd_equivalence)

    p = sub.add_parser("catalog", help="dump the group/self-action catalog as JSON lines")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(run=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed_fixtures:
            return seed_fixtures(args.out or "fixtures")
        if args.run is None:
            parser.print_help()
            return EXIT_OK
        return args.run(args)
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition failed ({exc.condition}): {exc}", file=sys.stderr)
        return EXIT_AXIOM
    except _ChecksFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_AXIOM


if __name__ == "__main__":
    sys.exit(main())
