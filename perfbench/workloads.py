"""The benchmark's workloads: seeded inputs, timed rounds and output gates.

A workload has a set-up, which turns a seed into the inputs of a plain or a
traced run, and a round, which runs its timed ops through ``Round.op`` and
hands every output to a gate through ``Round.check``.  Gates run outside the
timed region.  An op fails if it raises, exits non-zero, or fails its gate.

Library functions are always looked up as module attributes at call time
(``search.enumerate_liftings``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from bisect import bisect_right
from pathlib import Path
from time import perf_counter

from genxmod import cat1, cli, crossed, coverlift, fixtures, groups, gwa, oracles, search, serialize

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))

BASES = {"gx1": fixtures.gx1, "gx3": fixtures.gx3, "a3s3": fixtures.a3_s3}

# equiv-fixtures: (base, order bound) per op.  Bound 8 is left out: it hits the
# morphism cap, and its output will change when truncation is fixed.  a3s3/6
# takes about 33 s, too long to repeat within a run, so it runs only in traced
# runs, which time every op once.
EQUIV_RUNS = {"full": (("gx1", 4), ("gx3", 4)), "tiny": (("gx1", 4),)}
EQUIV_TRACED_RUNS = {"full": (("a3s3", 6),), "tiny": ()}
# cat1-functor: catalog orders swept, and composable pairs sampled per round
CAT1_MAX_ORDER = {"full": 8, "tiny": 4}
CAT1_PAIR_SAMPLE = {"full": 5000, "tiny": 50}
CAT1_MORPHISM_POOL_ORDER = 4
# enum-bound8: pool bound for liftings/coverings and the catalog; gwa order for gxmod pairs
ENUM_BOUND = {"full": 8, "tiny": 4}
GXMOD_MAX_ORDER = {"full": 6, "tiny": 3}


def _lru_caches() -> tuple:
    found = {}
    for module in (groups, gwa, crossed, cat1, coverlift, search, serialize, cli):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith("genxmod."):
                found[id(value)] = value
    return tuple(found.values())


# taken at import, before the tracer replaces any module attribute
LRU_CACHES = _lru_caches()
ALL_HOMS = groups.all_homs


class Caches:
    """Starts from empty genxmod lru caches; keeps all_homs' hit counts across later clears."""

    def __init__(self) -> None:
        for fn in LRU_CACHES:
            fn.cache_clear()
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        info = ALL_HOMS.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        for fn in LRU_CACHES:
            fn.cache_clear()

    def all_homs_hit_ratio(self) -> float:
        info = ALL_HOMS.cache_info()
        hits, misses = self.hits + info.hits, self.misses + info.misses
        return hits / (hits + misses) if hits + misses else 0.0


class OpFailed(Exception):
    """An op raised; the rest of its round is skipped."""


class Round:
    """Times the ops of one round, which starts from empty caches, and counts those that fail."""

    def __init__(self, tracer=None) -> None:
        self.caches = Caches()
        self.tracer = tracer
        self.times: list[tuple[str, float]] = []
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.problems: list[str] = []
        self._kind = ""
        self._ok = True

    @property
    def wall_s(self) -> float:
        return sum(t for _, t in self.times)

    def op(self, kind: str, fn, *args, fresh: bool = False):
        """Time fn(*args).  A fresh op starts from empty caches, as a new CLI process does."""
        if fresh:
            self.caches.clear()
        self._kind, self._ok = kind, True
        if self.tracer is not None:
            self.tracer.set_op(kind)
        start = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            self._fail(f"raised {exc!r}")
            raise OpFailed(kind) from exc
        finally:
            end = perf_counter()
            self.times.append((kind, end - start))
            self.spans.append((start, end))
            if self.tracer is not None:
                self.tracer.set_op(None)

    def check(self, problems: list[str]) -> None:
        """Fail the last op if its gate found problems."""
        for problem in problems:
            self._fail(problem)

    def _fail(self, problem: str) -> None:
        if self._ok:
            self.failed += 1
            self._ok = False
        self.problems.append(f"{self._kind}: {problem}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# relabelling


def _relabel_table(table, p_row, p_col, p_val):
    out = [[0] * len(table[0]) for _ in table]
    for r, row in enumerate(table):
        for c, v in enumerate(row):
            out[p_row[r]][p_col[c]] = p_val[v]
    return out


def _relabel_gwa(doc: dict, p) -> dict:
    out = dict(doc)
    out["op"] = _relabel_table(doc["op"], p, p, p)
    if "self_action" in doc:
        out["self_action"] = _relabel_table(doc["self_action"], p, p, p)
    return out


def _perm_fixing_identity(n: int, rng: random.Random) -> tuple[int, ...]:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return (0, *rest)


def _table_automorphisms(doc: dict) -> list[tuple[int, ...]]:
    """Permutations fixing the identity that map a gwa document's tables onto themselves."""
    n = doc["order"]
    out = []
    for rest in itertools.permutations(range(1, n)):
        p = (0, *rest)
        if _relabel_gwa(doc, p) == doc:
            out.append(p)
    return out


def relabel_gxmod_doc(doc: dict, rng: random.Random, keep_codomain_tables: bool) -> dict:
    """The same crossed module with its elements renamed by permutations fixing the identity.

    A's elements are permuted freely.  With keep_codomain_tables, B is
    permuted only by a map that leaves its op and self-action tables as they
    are (an automorphism), so B stays the catalog's table.
    """
    na, nb = doc["A"]["order"], doc["B"]["order"]
    pa = _perm_fixing_identity(na, rng)
    if keep_codomain_tables:
        pb = rng.choice(_table_automorphisms(doc["B"]))
    else:
        pb = _perm_fixing_identity(nb, rng)
    alpha = [0] * na
    for x, y in enumerate(doc["alpha"]):
        alpha[pa[x]] = pb[y]
    out = dict(doc)
    out["A"] = _relabel_gwa(doc["A"], pa)
    out["B"] = _relabel_gwa(doc["B"], pb)
    out["alpha"] = alpha
    out["action"] = _relabel_table(doc["action"], pb, pa, pa)
    return out


def base_doc(name: str, seed: int, keep_codomain_tables: bool) -> dict:
    """Seed 0 is the shipped labelling; other seeds relabel the base."""
    doc = serialize.doc_for(BASES[name]())
    if seed == 0:
        return doc
    return relabel_gxmod_doc(doc, random.Random(f"{seed}/{name}"), keep_codomain_tables)


# ---------------------------------------------------------------------------
# equiv-fixtures: `genxmod equivalence --in <fixture> --bound N --out <file>`


def report_counts(doc) -> dict:
    """Every count an equivalence report states or lists."""
    if not isinstance(doc, dict):
        return {}
    counts = {
        key: doc.get(key)
        for key in (
            "lifting_count",
            "covering_count",
            "lifting_morphism_count",
            "covering_morphism_count",
            "morphism_checks",
            "functor_law_checks",
            "naturality_checks",
        )
    }
    for key in (
        "liftings",
        "coverings",
        "lifting_to_covering_index",
        "covering_to_lifting_index",
        "roundtrip_covering_witnesses",
        "lifting_morphisms",
        "covering_morphisms",
        "incomplete",
        "failures",
    ):
        value = doc.get(key)
        counts[f"{key}.len"] = len(value) if isinstance(value, list) else None
    return counts


def equivalence_problems(key: str, seed: int, rc, data: bytes) -> list[str]:
    want = EXPECTED["equivalence"][key]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if seed == 0 and sha256(data) != want["sha256"]:
        problems.append("report bytes differ from the reference")
    try:
        doc = json.loads(data)
    except ValueError:
        return problems + ["report is not JSON"]
    counts = report_counts(doc)
    if counts != want["counts"]:
        wrong = sorted(k for k in want["counts"] if counts.get(k) != want["counts"][k])
        problems.append(f"counts differ from the reference: {', '.join(wrong) or 'shape'}")
    if not isinstance(doc, dict) or doc.get("ok") is not True or doc.get("truncated") is not False:
        problems.append("report is not ok, or truncated")
    return problems


def setup_equivalence(seed: int, size: str, trace: bool, workdir: Path) -> dict:
    runs = []
    for name, bound in EQUIV_RUNS[size] + (EQUIV_TRACED_RUNS[size] if trace else ()):
        path = workdir / f"{name}.gxmod.json"
        path.write_text(serialize.dumps(base_doc(name, seed, True)), encoding="utf-8")
        runs.append((f"{name}_{bound}", path, bound, workdir / f"{name}_{bound}.report.json"))
    return {"seed": seed, "runs": runs}


def round_equivalence(r: Round, inputs: dict) -> None:
    for key, path, bound, out in inputs["runs"]:
        out.unlink(missing_ok=True)
        argv = ["equivalence", "--in", str(path), "--bound", str(bound), "--out", str(out)]
        rc = r.op(f"equivalence.{key}", cli.main, argv, fresh=True)
        data = out.read_bytes() if out.exists() else b""
        r.check(equivalence_problems(key, inputs["seed"], rc, data))


# ---------------------------------------------------------------------------
# cat1-functor: the cat1 -> gxmod functor over the catalog


def setup_cat1(seed: int, size: str, trace: bool, workdir: Path) -> dict:
    catalog = tuple(g for g in search.group_catalog() if g.order <= CAT1_MAX_ORDER[size])
    rng = random.Random(seed)
    pairs = sorted(rng.sample(range(EXPECTED["gcat1_composable_pairs"]), CAT1_PAIR_SAMPLE[size]))
    return {"groups": catalog, "pairs": pairs}


def _cat1_object(c):
    x = cat1.cat1_to_gxmod(c)
    report = crossed.validate_gxmod(x, max_violations=1)
    ident = cat1.cat1_functor_on_morphism(cat1.identity_gcat1_morphism(c))
    return report, ident


def _gcat1_morphisms(pool):
    return [m for c1 in pool for c2 in pool for m in search.gcat1_morphisms_between(c1, c2)]


def _cat1_composition(m1, m2):
    left = cat1.cat1_functor_on_morphism(cat1.compose_gcat1_morphisms(m2, m1))
    return left, cat1.cat1_functor_on_morphism(m1), cat1.cat1_functor_on_morphism(m2)


def _is_identity(h) -> bool:
    return h.map == tuple(range(h.source.order))


def round_cat1(r: Round, inputs: dict) -> None:
    objects = []
    for g in inputs["groups"]:
        found = r.op("gcat1s", search.enumerate_gcat1s, g)
        want = EXPECTED["gcat1_counts"][g.name]
        r.check([] if len(found) == want else [f"{g.name}: {len(found)} cat1-groups, expected {want}"])
        objects.extend(found)
    for c in objects:
        report, ident = r.op("object", _cat1_object, c)
        problems = [] if report.ok else [f"{c!r}: image is not a gxmod"]
        if not (_is_identity(ident.f) and _is_identity(ident.g)):
            problems.append(f"{c!r}: identity law broken")
        r.check(problems)

    pool = [c for c in objects if c.G.order <= CAT1_MORPHISM_POOL_ORDER]
    morphisms = r.op("morphisms", _gcat1_morphisms, pool)
    by_source: dict[int, list] = {}
    for m in morphisms:
        by_source.setdefault(id(m.source), []).append(m)
    starts, total = [], 0
    for m in morphisms:
        starts.append(total)
        total += len(by_source.get(id(m.target), ()))
    problems = []
    if len(morphisms) != EXPECTED["gcat1_morphisms"]:
        problems.append(f"{len(morphisms)} morphisms, expected {EXPECTED['gcat1_morphisms']}")
    if total != EXPECTED["gcat1_composable_pairs"]:
        problems.append(f"{total} composable pairs, expected {EXPECTED['gcat1_composable_pairs']}")
    r.check(problems)
    if problems:
        return

    for index in inputs["pairs"]:
        i = bisect_right(starts, index) - 1
        m1 = morphisms[i]
        m2 = by_source[id(m1.target)][index - starts[i]]
        left, f1, f2 = r.op("composition", _cat1_composition, m1, m2)
        ok = left.f.map == tuple(f2.f.map[v] for v in f1.f.map) and left.g.map == tuple(
            f2.g.map[v] for v in f1.g.map
        )
        r.check([] if ok else [f"pair {index}: composition law broken"])


# ---------------------------------------------------------------------------
# enum-bound8: cold-cache object enumeration


def gxmod_problems(a, b, found) -> list[str]:
    key = f"{a.name}|{b.name}"
    want = EXPECTED["gxmods"].get(key, 0)
    problems = [] if len(found) == want else [f"{key}: {len(found)} gxmods, expected {want}"]
    if not all(oracles.raw_is_gxmod(x) for x in found):
        problems.append(f"{key}: the oracle rejects an enumerated gxmod")
    return problems


def setup_enum(seed: int, size: str, trace: bool, workdir: Path) -> dict:
    bases = [(name, serialize.load_gxmod_doc(base_doc(name, seed, False))) for name in BASES]
    gwas = search.gwa_objects(search.standard_pool(GXMOD_MAX_ORDER[size]))
    pairs = [(a, b) for a in gwas for b in gwas]
    if seed:
        random.Random(seed).shuffle(pairs)
    bound = ENUM_BOUND[size]
    return {
        "bound": bound,
        "pool": search.standard_pool(bound),
        "bases": bases,
        "pairs": pairs,
        "catalog_out": workdir / f"catalog_{bound}.jsonl",
    }


def round_enum(r: Round, inputs: dict) -> None:
    bound, pool = inputs["bound"], inputs["pool"]
    for name, base in inputs["bases"]:
        key = f"{name}_{bound}"
        lifts = r.op(f"liftings.{name}", search.enumerate_liftings, base, pool)
        want = EXPECTED["liftings"][key]
        r.check([] if len(lifts) == want else [f"{len(lifts)} liftings, expected {want}"])
        covers = r.op(f"coverings.{name}", search.enumerate_coverings, base, pool)
        want = EXPECTED["coverings"][key]
        problems = [] if len(covers) == want else [f"{len(covers)} coverings, expected {want}"]
        if not all(oracles.raw_is_gxmod(c.total) for c in covers):
            problems.append("the oracle rejects a covering's total")
        r.check(problems)
    for a, b in inputs["pairs"]:
        found = r.op("gxmods", search.enumerate_gxmods, a, b)
        r.check(gxmod_problems(a, b, found))
    out = inputs["catalog_out"]
    out.unlink(missing_ok=True)
    rc = r.op("catalog", cli.main, ["catalog", "--bound", str(bound), "--out", str(out)], fresh=True)
    want = EXPECTED["catalog"][str(bound)]
    data = out.read_bytes() if out.exists() else b""
    r.check([] if rc == 0 and sha256(data) == want else [f"exit code {rc}, or catalog bytes differ"])


WORKLOADS = {
    "equiv-fixtures": (setup_equivalence, round_equivalence),
    "cat1-functor": (setup_cat1, round_cat1),
    "enum-bound8": (setup_enum, round_enum),
}
