"""Property tests for the law core: single-entry corruptions of the shipped fixtures.

For every corruption drawn, the report of the object's validator must agree
with the independent raw-table oracles, holds() over each law generator must
agree with the .ok of the validator built on it, and the first witness of a
failing report must replay.  Examples are derandomized (see conftest.py).
"""

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from hypothesis import given, strategies as st

from genxmod.cat1 import GCat1, gcat1_violations, validate_gcat1
from genxmod.cli import FIXTURE_FILES, main
from genxmod.coverlift import (
    Covering,
    CoveringMorphism,
    Lifting,
    LiftingMorphism,
    covering_morphism_violations,
    covering_violations,
    lifting_as_gxmod,
    lifting_morphism_violations,
    lifting_violations,
    validate_covering,
    validate_covering_morphism,
    validate_lifting,
    validate_lifting_morphism,
)
from genxmod.crossed import (
    EXT_ACTION_DETAILS,
    ExtAction,
    GXMod,
    GXModMorphism,
    gxmod_morphism_violations,
    gxmod_violations,
    validate_ext_action,
    validate_gxmod,
    validate_gxmod_full,
    validate_gxmod_morphism,
)
from genxmod.fixtures import (
    fixture_cat1s,
    fixture_covering,
    fixture_gwas,
    fixture_gxmods,
    fixture_lifting,
)
from genxmod.groups import Hom, hom_violations, identity_hom, validate_hom
from genxmod.gwa import SELF_ACTION_DETAILS, GwaObject, SelfAction, action_violations, validate_gwa
from genxmod.oracles import (
    raw_gxmod_condition_violations,
    raw_gxmod_morphism_violations,
    raw_hom_witnesses,
    raw_is_covering_morphism,
    raw_is_gxmod,
    raw_is_lifting_morphism,
    raw_is_self_action,
    replay_violation,
)
from genxmod.serialize import dumps
from genxmod.validation import holds


# ---------------------------------------------------------------------------
# independent verdicts for objects the oracles module has no single check for


def _raw_is_ext_action(op_b, op_a, act) -> bool:
    nb, na = len(op_b), len(op_a)
    e = next(x for x in range(nb) if all(op_b[x][g] == g for g in range(nb)))
    return (
        all(act[e][a] == a for a in range(na))
        and all(
            act[op_b[b1][b2]][a] == act[b1][act[b2][a]]
            for b1 in range(nb) for b2 in range(nb) for a in range(na)
        )
        and all(not raw_hom_witnesses(op_a, op_a, row) for row in act)
    )


def _raw_is_full_gxmod(x: GXMod) -> bool:
    return (
        raw_is_self_action(x.A.group.op, x.A.self_action.act)
        and raw_is_self_action(x.B.group.op, x.B.self_action.act)
        and not raw_hom_witnesses(x.A.group.op, x.B.group.op, x.alpha.map)
        and _raw_is_ext_action(x.B.group.op, x.A.group.op, x.action.act)
        and raw_is_gxmod(x)
    )


def _raw_is_cat1(c: GCat1) -> bool:
    op, act, s, t = c.G.group.op, c.G.self_action.act, c.s.map, c.t.map
    n, e = len(op), c.G.group.identity
    return (
        not raw_hom_witnesses(op, op, s)
        and not raw_hom_witnesses(op, op, t)
        and all(h[act[x][y]] == act[h[x]][h[y]] for h in (s, t) for x in range(n) for y in range(n))
        and all(s[t[x]] == t[x] and t[s[x]] == s[x] for x in range(n))
        and all(act[y][x] == x for x in range(n) if s[x] == e for y in range(n) if t[y] == e)
    )


def _raw_is_covering(c: Covering) -> bool:
    f = c.f.map
    bijective = len(f) == len(set(f)) == c.base.A.order
    return bijective and not raw_gxmod_morphism_violations(c.total, c.base, f, c.g.map)


def _raw_is_lifting(l: Lifting) -> bool:
    pm, om = l.phi.map, l.omega.map
    return (
        not raw_hom_witnesses(l.base.A.group.op, l.X.group.op, pm)
        and not raw_hom_witnesses(l.X.group.op, l.base.B.group.op, om)
        and all(om[pm[a]] == l.base.alpha.map[a] for a in range(len(pm)))
        and raw_is_gxmod(lifting_as_gxmod(l))
    )


# ---------------------------------------------------------------------------
# corruption targets


@dataclass(frozen=True)
class Target:
    """One table or map of one fixture, and the checks its corruptions go through.

    full validates the whole object.  Each entry of laws is (validator, law
    generator, oracle): the oracle answers whether those laws hold, either as
    a bool or as the set of every failing (law, witness).  The fixture's
    other components stay valid, so full is ok exactly when every oracle is.
    """

    name: str
    table: tuple
    modulus: int
    rebuild: Callable
    full: Callable
    laws: tuple
    replays: bool = True


def _gwa_target(gw):
    return Target(
        f"{gw.name}.self_action", gw.self_action.act, gw.order,
        lambda t: GwaObject(gw.group, SelfAction(gw.group, t), "corrupt"),
        validate_gwa,
        ((validate_gwa,
          lambda g: action_violations(g.self_action.act, g.group, g.group.op, SELF_ACTION_DETAILS),
          lambda g: raw_is_self_action(g.group.op, g.self_action.act)),),
    )


def _gxmod_targets(x):
    laws = (
        (validate_gxmod,
         lambda y: gxmod_violations(y.alpha.map, y.action.act, y.A.self_action.act, y.B.self_action.act),
         lambda y: set(raw_gxmod_condition_violations(
             y.A.group.op, y.B.group.op, y.A.self_action.act, y.B.self_action.act, y.alpha.map, y.action.act))),
        (lambda y, k: validate_ext_action(y.action, k),
         lambda y: action_violations(y.action.act, y.B.group, y.A.group.op, EXT_ACTION_DETAILS),
         lambda y: _raw_is_ext_action(y.B.group.op, y.A.group.op, y.action.act)),
        (lambda y, k: validate_hom(y.alpha, k),
         lambda y: hom_violations(y.A.group, y.B.group, y.alpha.map),
         lambda y: not raw_hom_witnesses(y.A.group.op, y.B.group.op, y.alpha.map)),
    )
    yield Target(
        f"{x.name}.action", x.action.act, x.A.order,
        lambda t: GXMod(x.A, x.B, x.alpha, ExtAction(x.B, x.A, t), "corrupt"),
        validate_gxmod_full, laws,
    )
    yield Target(
        f"{x.name}.alpha", x.alpha.map, x.B.order,
        lambda m: GXMod(x.A, x.B, Hom(x.A.group, x.B.group, m), x.action, "corrupt"),
        validate_gxmod_full, laws,
    )
    for side in ("f", "g"):
        grp = x.A.group if side == "f" else x.B.group
        yield Target(
            f"{x.name}.id_morphism.{side}", tuple(range(grp.order)), grp.order,
            lambda m, side=side: GXModMorphism(
                x, x,
                Hom(x.A.group, x.A.group, m) if side == "f" else identity_hom(x.A.group),
                Hom(x.B.group, x.B.group, m) if side == "g" else identity_hom(x.B.group),
            ),
            validate_gxmod_morphism,
            ((validate_gxmod_morphism,
              lambda mm: gxmod_morphism_violations(mm.source, mm.target, mm.f.map, mm.g.map),
              lambda mm: not raw_gxmod_morphism_violations(mm.source, mm.target, mm.f.map, mm.g.map)),),
            replays=False,
        )


def _cat1_targets(c):
    for side in ("s", "t"):
        yield Target(
            f"{c.name}.{side}", getattr(c, side).map, c.G.order,
            lambda m, side=side: GCat1(
                c.G,
                Hom(c.G.group, c.G.group, m) if side == "s" else c.s,
                Hom(c.G.group, c.G.group, m) if side == "t" else c.t,
                "corrupt",
            ),
            validate_gcat1,
            ((validate_gcat1, lambda cc: gcat1_violations(cc.G, cc.s.map, cc.t.map), _raw_is_cat1),),
        )


def _covering_targets(cov):
    for side in ("f", "g"):
        h = getattr(cov, side)
        yield Target(
            f"covering.{side}", h.map, h.target.order,
            lambda m, side=side: Covering(
                cov.total, cov.base,
                Hom(cov.f.source, cov.f.target, m) if side == "f" else cov.f,
                Hom(cov.g.source, cov.g.target, m) if side == "g" else cov.g,
            ),
            validate_covering,
            ((validate_covering,
              lambda c: covering_violations(c.total, c.base, c.f.map, c.g.map),
              _raw_is_covering),),
        )
        yield Target(
            f"covering.id_morphism.{side}", tuple(range(h.source.order)), h.source.order,
            lambda m, side=side: CoveringMorphism(
                cov, cov,
                Hom(cov.f.source, cov.f.source, m) if side == "f" else identity_hom(cov.f.source),
                Hom(cov.g.source, cov.g.source, m) if side == "g" else identity_hom(cov.g.source),
            ),
            validate_covering_morphism,
            ((validate_covering_morphism,
              lambda mm: covering_morphism_violations(mm.source, mm.target, mm.f.map, mm.g.map),
              lambda mm: raw_is_covering_morphism(mm.source, mm.target, mm.f.map, mm.g.map)),),
            replays=False,
        )


def _lifting_targets(lift):
    for side in ("phi", "omega"):
        h = getattr(lift, side)
        yield Target(
            f"lifting.{side}", h.map, h.target.order,
            lambda m, side=side: Lifting(
                lift.base, lift.X,
                Hom(lift.phi.source, lift.phi.target, m) if side == "phi" else lift.phi,
                Hom(lift.omega.source, lift.omega.target, m) if side == "omega" else lift.omega,
            ),
            validate_lifting,
            ((validate_lifting,
              lambda l: lifting_violations(l.base, l.X, l.phi.map, l.omega.map),
              _raw_is_lifting),),
        )
    yield Target(
        "lifting.id_morphism", tuple(range(lift.X.order)), lift.X.order,
        lambda m: LiftingMorphism(lift, lift, Hom(lift.X.group, lift.X.group, m)),
        validate_lifting_morphism,
        ((validate_lifting_morphism,
          lambda mm: lifting_morphism_violations(mm.source, mm.target, mm.f.map),
          lambda mm: raw_is_lifting_morphism(mm.source, mm.target, mm.f.map)),),
        replays=False,
    )


TARGETS = [
    target
    for target in (
        *map(_gwa_target, fixture_gwas()),
        *(t for x in fixture_gxmods() for t in _gxmod_targets(x)),
        *(t for c in fixture_cat1s() for t in _cat1_targets(c)),
        *_covering_targets(fixture_covering()),
        *_lifting_targets(fixture_lifting()),
    )
    if target.modulus > 1
]


def _corrupt(target: Target, position: int, delta: int):
    """The target's object with one entry of its table moved by delta."""
    table = target.table
    if isinstance(table[0], tuple):
        width = len(table[0])
        i, j = divmod(position % (len(table) * width), width)
        rows = [list(row) for row in table]
        rows[i][j] = (rows[i][j] + delta) % target.modulus
        return target.rebuild(tuple(tuple(row) for row in rows))
    j = position % len(table)
    entries = list(table)
    entries[j] = (entries[j] + delta) % target.modulus
    return target.rebuild(tuple(entries))


@given(
    target=st.sampled_from(TARGETS),
    position=st.integers(min_value=0, max_value=10_000),
    delta=st.integers(min_value=1, max_value=7),
)
def test_corruption_verdicts_agree_with_raw_oracles(target, position, delta):
    obj = _corrupt(target, position, 1 + (delta - 1) % (target.modulus - 1))
    verdicts = []
    for validate, violations, oracle in target.laws:
        verdict = oracle(obj)
        if isinstance(verdict, set):
            found = {(v.law, v.witness) for v in validate(obj, 10**6).violations}
            assert found == verdict, target.name
            verdict = not verdict
        assert validate(obj, 1).ok == verdict, target.name
        assert holds(violations(obj)) == verdict, target.name
        verdicts.append(verdict)
    rep = target.full(obj)
    assert rep.ok == all(verdicts), (target.name, rep.summary())
    if target.replays:
        assert all(replay_violation(obj, v) for v in rep.violations), (target.name, rep.summary())


def test_every_target_has_a_caught_corruption():
    """Keeps the property above from holding vacuously on an always-valid table."""
    for target in TARGETS:
        assert any(not target.full(_corrupt(target, p, 1), 1).ok for p in range(64)), target.name


# ---------------------------------------------------------------------------
# canonical validate output over a fixed corruption corpus

CORRUPTIBLE = ("op", "self_action", "alpha", "action", "s", "t", "f", "g", "phi", "omega")
# sha256 of `genxmod validate --format json` over corruption_corpus(), measured
# on the validators as they were before the law core replaced them, except that
# s3_identity.cat1.G.op.json also lists the G.group.associativity witnesses now
# that validate checks a cat1-group's G for the group axioms, and the laws of
# gx3_natural.lifting.base.{A.self_action,alpha,action}.json carry the prefix
# base. as a covering's base laws do
CORPUS_SHA256 = "5b86587e07842df01f4bf34532ce826abd645d69d4d148d67d1a859bd977e729"


def _table_paths(doc, path=()):
    for key in sorted(doc):
        value = doc[key]
        if key in CORRUPTIBLE and isinstance(value, list) and value:
            yield path + (key,)
        elif isinstance(value, dict):
            yield from _table_paths(value, path + (key,))


def corruption_corpus() -> dict[str, str]:
    """File name -> document text: every shipped fixture, and one copy per
    table or map in it with one seeded entry changed."""
    rng = random.Random(2)
    corpus = {}
    for name, build in sorted(FIXTURE_FILES.items()):
        doc = build()
        corpus[name] = dumps(doc)
        stem = name[: -len(".json")]
        for path in _table_paths(doc):
            copy = json.loads(dumps(doc))
            node = copy
            for key in path[:-1]:
                node = node[key]
            table = node[path[-1]]
            if isinstance(table[0], list):
                table = table[rng.randrange(len(table))]
            j = rng.randrange(len(table))
            table[j] = (table[j] + 1 + rng.randrange(3)) % max(2, len(table))
            corpus[f"{stem}.{'.'.join(path)}.json"] = dumps(copy)
    return corpus


def test_validate_json_over_corruption_corpus_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = corruption_corpus()
    for name, text in corpus.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    rc = main(["validate", *sorted(corpus), "--format", "json", "--out", "report.json"])
    assert rc == 2
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == CORPUS_SHA256
