"""Command-line front end.

Commands: validate, construct, enumerate, equivalence, catalog; plus
--seed-fixtures to install the shipped fixture files.  Exit codes: 0 all
checks passed, 1 axiom or precondition failure, 2 parse/structural failure
(including a malformed GXMOD_MAX_MORPHISMS), 3 incomplete equivalence run:
the pool is too small or the morphism cap was reached.

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
    covering_doc,
    covering_docs,
    detect_kind,
    doc_for,
    dumps,
    equivalence_report_doc,
    gwa_doc,
    gxmod_doc,
    lifting_doc,
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
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _validate_loaded(kind: str, obj):
    if kind == "gwa":
        report = validate_group(obj.group).merged(validate_gwa(obj))
    elif kind == "gxmod":
        report = validate_gxmod_full(obj)
    elif kind == "cat1":
        report = ValidationReport().merged(validate_group(obj.G.group), "G.group")
        report = report.merged(validate_gwa(obj.G, 10)).merged(validate_gcat1(obj))
    elif kind == "covering":
        report = validate_gxmod_full(obj.total, 10).merged(
            validate_gxmod_full(obj.base, 10), "base"
        )
        report = report.merged(validate_covering(obj))
    elif kind == "lifting":
        report = validate_gxmod_full(obj.base, 10).merged(validate_group(obj.X.group), "X.group")
        report = report.merged(validate_gwa(obj.X), "X")
        report = report.merged(validate_lifting(obj))
    else:
        raise StructuralError(f"unknown kind {kind}")
    return report


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


def cmd_construct(args) -> int:
    try:
        doc = _read_doc(args.input)
        if args.construction == "transport":
            # the isomorphisms are read in the gxmod file's numbering
            _require_kind(detect_kind(doc), "gxmod")
            obj, codomain, domain = load_transport_docs(
                doc, _hom_file(args.codomain_iso), _hom_file(args.domain_iso)
            )
        else:
            kind, obj = load_any(doc)
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if args.construction == "kernel-gxmod":
            _require_kind(kind, "gxmod")
            result = kernel_gxmod(obj)
            out_doc, check = gxmod_doc(result), validate_gxmod_full(result)
        elif args.construction == "image-gxmod":
            _require_kind(kind, "gxmod")
            result = image_gxmod(obj)
            out_doc, check = gxmod_doc(result), validate_gxmod_full(result)
        elif args.construction == "cat1-to-gxmod":
            _require_kind(kind, "cat1")
            report = validate_gcat1(obj)
            if not report.ok:
                print(report.summary(), file=sys.stderr)
                return EXIT_AXIOM
            result = cat1_to_gxmod(obj)
            out_doc, check = gxmod_doc(result), validate_gxmod_full(result)
        elif args.construction == "natural-lifting":
            _require_kind(kind, "gxmod")
            result = natural_lifting(obj)
            out_doc, check = lifting_doc(result), validate_lifting(result)
        elif args.construction == "quotient-lifting":
            _require_kind(kind, "gxmod")
            if not args.ideal:
                raise StructuralError("quotient-lifting needs --ideal with member indices")
            try:
                members = [int(x) for x in args.ideal.split(",") if x != ""]
            except ValueError:
                raise StructuralError(f"--ideal must be comma-separated indices, got {args.ideal!r}") from None
            result = quotient_lifting(obj, subgroup(obj.A.group, members))
            out_doc, check = lifting_doc(result), validate_lifting(result)
        elif args.construction == "lift-to-cover":
            _require_kind(kind, "lifting")
            result = lifting_to_covering(obj)
            out_doc, check = covering_doc(result), validate_covering(result)
        elif args.construction == "cover-to-lift":
            _require_kind(kind, "covering")
            result = covering_to_lifting(obj)
            out_doc, check = lifting_doc(result), validate_lifting(result)
        elif args.construction == "transport":
            if codomain and domain:
                result, _ = transport_both(obj, *codomain, *domain)
            elif codomain:
                result, _ = transport_codomain(obj, *codomain)
            elif domain:
                result, _ = transport_domain(obj, *domain)
            else:
                raise StructuralError("transport needs --codomain-iso and/or --domain-iso")
            out_doc, check = gxmod_doc(result), validate_gxmod_full(result)
        else:
            raise StructuralError(f"unknown construction {args.construction}")
    except PreconditionError as exc:
        print(f"precondition failed ({exc.condition}): {exc}", file=sys.stderr)
        return EXIT_AXIOM
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if not check.ok:
        print(check.summary(), file=sys.stderr)
        return EXIT_AXIOM
    _write(dumps(out_doc), args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    try:
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
        elif args.what == "coverings":
            base = load_gxmod_doc(_read_doc(args.input))
            docs = covering_docs(enumerate_coverings(base, standard_pool(args.bound)))
        else:
            raise StructuralError(f"unknown enumeration {args.what}")
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _write("".join(dumps(d) for d in docs), args.out)
    return EXIT_OK


def cmd_equivalence(args) -> int:
    try:
        base = load_gxmod_doc(_read_doc(args.input))
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    check = validate_gxmod_full(base)
    if not check.ok:
        print(check.summary(), file=sys.stderr)
        return EXIT_AXIOM
    try:
        pool = standard_pool(args.bound)
        cap = morphism_cap()
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
    try:
        pool = standard_pool(args.bound)
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    docs = []
    for g in pool.groups:
        verdict = validate_group(g).ok
        for gw in gwa_objects_for(g):
            doc = gwa_doc(gw)
            doc["valid"] = verdict and validate_gwa(gw).ok
            docs.append(doc)
    _write("".join(dumps(d) for d in docs), args.out)
    return EXIT_OK


FIXTURE_FILES = {
    "trivial.group.json": lambda: doc_for(fixtures.fixture_groups()[0]),
    "z2.group.json": lambda: doc_for(fixtures.fixture_groups()[1]),
    "z3.group.json": lambda: doc_for(fixtures.fixture_groups()[2]),
    "z4.group.json": lambda: doc_for(fixtures.fixture_groups()[3]),
    "v4.group.json": lambda: doc_for(fixtures.fixture_groups()[4]),
    "s3.group.json": lambda: doc_for(fixtures.fixture_groups()[5]),
    "z8.group.json": lambda: doc_for(fixtures.fixture_groups()[6]),
    "z4_inversion.gwa.json": lambda: doc_for(fixtures.z4_inversion_gwa()),
    "s3_conjugation.gwa.json": lambda: doc_for(fixtures.s3_conjugation_gwa()),
    "gx1.gxmod.json": lambda: doc_for(fixtures.gx1()),
    "gx2.gxmod.json": lambda: doc_for(fixtures.gx2()),
    "gx3.gxmod.json": lambda: doc_for(fixtures.gx3()),
    "a3_s3.gxmod.json": lambda: doc_for(fixtures.a3_s3()),
    "inner_s3.gxmod.json": lambda: doc_for(fixtures.inner_automorphism_gxmod()),
    "sign_module.gxmod.json": lambda: doc_for(fixtures.zero_module_gxmod()),
    "v4_projection.cat1.json": lambda: doc_for(fixtures.v4_projection_cat1()),
    "s3_identity.cat1.json": lambda: doc_for(fixtures.s3_identity_cat1()),
    "z2_identity.cat1.json": lambda: doc_for(fixtures.z2_identity_cat1()),
    "gx1_identity.covering.json": lambda: doc_for(fixtures.fixture_covering()),
    "gx3_natural.lifting.json": lambda: doc_for(fixtures.fixture_lifting()),
}


def seed_fixtures(directory: str) -> int:
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    for name, build in sorted(FIXTURE_FILES.items()):
        (target / name).write_text(dumps(build()), encoding="utf-8")
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
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="validate structure files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--out", default=argparse.SUPPRESS)

    p = sub.add_parser("construct", help="run a construction on a structure file")
    p.add_argument(
        "construction",
        choices=(
            "kernel-gxmod",
            "image-gxmod",
            "transport",
            "cat1-to-gxmod",
            "natural-lifting",
            "quotient-lifting",
            "lift-to-cover",
            "cover-to-lift",
        ),
    )
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.add_argument("--ideal", default=None, help="comma-separated member indices")
    p.add_argument("--codomain-iso", dest="codomain_iso", default=None)
    p.add_argument("--domain-iso", dest="domain_iso", default=None)

    p = sub.add_parser("enumerate", help="enumerate structures as JSON lines")
    p.add_argument("what", choices=("self-actions", "ext-actions", "gxmods", "liftings", "coverings"))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--in2", dest="second", default=None, help="second input (actor/space, A/B)")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--out", default=argparse.SUPPRESS)

    p = sub.add_parser("equivalence", help="verify the covering/lifting equivalence for a base")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--format", choices=("human", "json"), default="json")
    p.add_argument("--out", default=argparse.SUPPRESS)

    p = sub.add_parser("catalog", help="dump the group/self-action catalog as JSON lines")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--out", default=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed_fixtures:
        return seed_fixtures(args.out or "fixtures")
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "construct":
        return cmd_construct(args)
    if args.command == "enumerate":
        return cmd_enumerate(args)
    if args.command == "equivalence":
        return cmd_equivalence(args)
    if args.command == "catalog":
        return cmd_catalog(args)
    parser.print_help()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
