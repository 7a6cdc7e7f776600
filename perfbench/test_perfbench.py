"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from genxmod import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_its_gate_and_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "cat1-functor", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture(scope="module")
def gx1_report(tmp_path_factory):
    """The seed-0 gx1/4 equivalence report, as the workload writes it."""
    workdir = tmp_path_factory.mktemp("equiv")
    inputs = workloads.setup_equivalence(0, "tiny", False, workdir)
    key, path, bound, out = inputs["runs"][0]
    assert cli.main(["equivalence", "--in", str(path), "--bound", str(bound), "--out", str(out)]) == 0
    return key, out.read_bytes()


def gate_fails(key: str, seed: int, data: bytes) -> bool:
    r = workloads.Round()
    r.op(f"equivalence.{key}", lambda: 0)
    r.check(workloads.equivalence_problems(key, seed, 0, data))
    return r.failed == 1


def test_gate_accepts_the_reference_report(gx1_report):
    key, data = gx1_report
    assert workloads.equivalence_problems(key, 0, 0, data) == []
    assert not gate_fails(key, 0, data)


@pytest.mark.parametrize("offset", [0, 1000, -3])
def test_one_byte_corruption_fails_the_op(gx1_report, offset):
    key, data = gx1_report
    corrupt = bytearray(data)
    corrupt[offset] ^= 0x01
    assert gate_fails(key, 0, bytes(corrupt))


@pytest.mark.parametrize("seed", [0, 5])
def test_wrong_count_fails_the_op(gx1_report, seed):
    key, data = gx1_report
    doc = json.loads(data)
    doc["functor_law_checks"]["passed"] -= 1
    assert gate_fails(key, seed, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")


def test_relabelled_inputs_differ_by_seed_and_keep_the_codomain_table():
    shipped = workloads.base_doc("a3s3", 0, True)
    relabelled = [workloads.base_doc("a3s3", seed, True) for seed in range(1, 6)]
    assert all(doc["B"] == shipped["B"] for doc in relabelled)
    assert any(doc != shipped for doc in relabelled)
    assert workloads.base_doc("a3s3", 3, True) == workloads.base_doc("a3s3", 3, True)


def test_host_speed_normalisation():
    sampler = hostspeed.Sampler()
    # probes at 1.0 s (twice the reference time: a host at half speed) and at 3.0 s (reference speed)
    sampler.starts = [1.0, 3.0]
    sampler.seconds = [2 * hostspeed.REFERENCE_S, hostspeed.REFERENCE_S]
    slow_op = sampler.normalised_s(0.5, 2.5)
    assert slow_op == pytest.approx((2.0 - 2 * hostspeed.REFERENCE_S) / 2)
    assert sampler.normalised_s(3.5, 4.0) == pytest.approx(0.5)
    assert sampler.normalised_s(0.0, 0.5) == pytest.approx(0.25)
    assert hostspeed.Sampler().normalised_s(0.0, 0.5) == 0.5
