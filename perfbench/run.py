"""Benchmark of genxmod, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a fresh process that imports genxmod from ./src, builds its
inputs from the seed, and calls the public API (and ``genxmod.cli.main``
in-process).  Every output passes an output gate, outside the timed region.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 measures the end-to-end metrics.  It repeats cold-cache rounds of
the workload for --seconds (always at least one round) and reports medians
over rounds.  The round time, norm_wall_s, is normalised to a reference host
speed measured during the ops by a probe (see hostspeed.py): a shared host's
speed changes too much from one minute to the next for raw wall times to be
compared between runs.  --trace 1 runs one plain round, then one round with the
tracer's wrappers installed, and reports the per-layer metrics.  A host
record (nproc, Python, commit, calibration loop timings) goes to stderr, and
the traced run writes its per-(op, function) table to perfbench/out/.

See perfbench/README.md for the workloads, the metrics and what each layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SIZES = ("full", "tiny")
WORKLOAD_NAMES = ("equiv-fixtures", "cat1-functor", "enum-bound8")
SETUP_SAMPLES = 7
CALIB_LOOPS = 3
CALIB_ITERATIONS = 400_000
EQUIV_KEYS = ("gx1_4", "gx3_4", "a3s3_6")

# per-layer metrics: '<layer>.<function>' and the stats reported for it
LAYER_STATS = {
    "coverlift.compose_lifting_morphisms": ("calls", "self_s"),
    "coverlift.compose_covering_morphisms": ("calls", "self_s"),
    "search.verify_equivalence": ("self_s",),
    "coverlift.validate_covering_morphism": ("calls", "self_s"),
    "coverlift.validate_lifting_morphism": ("calls", "self_s"),
    "coverlift.functor_on_lifting_morphism": ("self_s",),
    "coverlift.functor_on_covering_morphism": ("self_s",),
    "search.lifting_morphisms_between": ("calls", "self_s", "accept_ratio"),
    "search.covering_morphisms_between": ("calls", "self_s", "accept_ratio"),
    "cat1.cat1_functor_on_morphism": ("calls", "self_s", "total_s"),
    "cat1.cat1_to_gxmod": ("calls", "self_s"),
    "gwa.sub_gwa": ("calls",),
    "search.enumerate_gcat1s": ("self_s",),
    "search.gcat1_morphisms_between": ("self_s",),
    "crossed.validate_gxmod": ("calls", "self_s", "accept_ratio"),
    "coverlift.validate_lifting": ("calls", "self_s"),
    "coverlift.validate_covering": ("calls", "self_s"),
    "search.enumerate_liftings": ("self_s",),
    "search.enumerate_coverings": ("self_s",),
    "search.enumerate_gxmods": ("self_s",),
    "search.enumerate_ext_actions": ("self_s",),
    "search.enumerate_self_actions": ("self_s",),
    "groups.all_homs": ("self_s",),
    "serialize.equivalence_report_doc": ("self_s",),
    "serialize.dumps": ("self_s",),
    "serialize.load_gxmod_doc": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "accept_ratio": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full", help="tiny: a small version of each workload, for tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a record of how fast the host is right now."""
    start = perf_counter()
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def time_setup(args) -> float:
    """Seconds from spawning a fresh process to the end of its set-up.

    This is not normalised to the host speed: process start-up did not slow
    down with the probe on a loaded host.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]  # fmt: skip
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed with exit code {rc}")
    return elapsed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_round(workloads, round_fn, inputs, tracer=None):
    """One cold-cache round; an op that raises ends it early."""
    r = workloads.Round(tracer)
    try:
        round_fn(r, inputs)
    except workloads.OpFailed:
        pass
    return r


class RoundSummary(NamedTuple):
    """What a run keeps of a round, so that its memory does not grow with the number of rounds."""

    wall_s: float
    norm_wall_s: float | None
    ops: int
    failed: int
    problems: list[str]


def summarise(r, sampler=None) -> RoundSummary:
    norm = None if sampler is None else sum(sampler.normalised_s(start, end) for start, end in r.spans)
    return RoundSummary(r.wall_s, norm, len(r.times), r.failed, r.problems[:20])


def end_to_end(rounds, setup_samples) -> dict:
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "norm_wall_s": metric(statistics.median(r.norm_wall_s for r in rounds), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(plain, traced, tracer, calib) -> dict:
    totals = tracer.by_function()
    out = {}
    for key, stats in LAYER_STATS.items():
        calls, total_s, self_s, accepted, candidates = totals.get(key, (0, 0.0, 0.0, 0, 0))
        for stat in stats:
            if stat == "calls":
                value = calls
            elif stat == "self_s":
                value = self_s
            elif stat == "total_s":
                value = total_s
            else:
                base = candidates if key.endswith("_morphisms_between") else calls
                value = accepted / base if base else 0.0
            out[f"{key}.{stat}"] = metric(value, UNITS[stat])
    out["groups.all_homs.cache_hit_ratio"] = metric(traced.caches.all_homs_hit_ratio(), "ratio")
    for key in EQUIV_KEYS:
        seconds = sum(t for kind, t in plain.times if kind == f"equivalence.{key}")
        out[f"cli.equivalence.{key}_s"] = metric(seconds, "s")
    times = [t for _, t in plain.times]
    out["op.p50_ms"] = metric(percentile(times, 50) * 1e3, "ms")
    out["op.p90_ms"] = metric(percentile(times, 90) * 1e3, "ms")
    out["trace.overhead_ratio"] = metric(traced.wall_s / plain.wall_s, "ratio")
    out["trace.traced_wall_s"] = metric(traced.wall_s, "s")
    out["host.calib_s"] = metric(statistics.median(calib), "s")
    attempted = len(plain.times) + len(traced.times)
    out["fail_ratio"] = metric((plain.failed + traced.failed) / attempted, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # the morphism cap must be the library default in every run
    os.environ.pop("GXMOD_MAX_MORPHISMS", None)
    if not (SRC / "genxmod" / "__init__.py").is_file():
        print(f"error: no genxmod sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    setup_fn, round_fn = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        if args.setup_only:
            setup_fn(args.seed, args.size, bool(args.trace), Path(tmp))
            print("ready", flush=True)
            return 0

        calib = [calibrate() for _ in range(CALIB_LOOPS)]
        inputs = setup_fn(args.seed, args.size, bool(args.trace), Path(tmp))
        if args.trace:
            from tracer import Tracer

            plain = run_round(workloads, round_fn, inputs)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_round(workloads, round_fn, inputs, tracer)
            finally:
                tracer.uninstall()
            rounds = [summarise(plain), summarise(traced)]
        else:
            # set-up samples are spread between the rounds, so that they
            # meet the host at different speeds
            sampler = hostspeed.Sampler()
            setup_samples = [time_setup(args)]
            start = perf_counter()
            rounds = []
            shortest = 0.0
            while not rounds or perf_counter() - start + shortest < args.seconds:
                if rounds and len(setup_samples) < SETUP_SAMPLES:
                    setup_samples.append(time_setup(args))
                with sampler:
                    r = run_round(workloads, round_fn, inputs)
                rounds.append(summarise(r, sampler))
                del r  # before the next round allocates its own per-op lists
                shortest = min(s.wall_s for s in rounds)
            while len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(time_setup(args))
        calib_end = [calibrate() for _ in range(CALIB_LOOPS)]

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "calib_start_s": calib,
        "calib_end_s": calib_end,
        "round_wall_s": [r.wall_s for r in rounds],
    }
    if not args.trace:
        host["round_norm_wall_s"] = [r.norm_wall_s for r in rounds]
        host["probe_s"] = statistics.quantiles(sampler.seconds, n=4) if len(sampler.seconds) > 1 else sampler.seconds
    print(json.dumps({"host": host}), file=sys.stderr)
    for r in rounds:
        for problem in r.problems:
            print(f"FAILED {problem}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(plain, traced, tracer, calib + calib_end)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "host": host, "rows": tracer.rows()}, indent=1),
            encoding="utf-8",
        )
    else:
        metrics = end_to_end(rounds, setup_samples)
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
