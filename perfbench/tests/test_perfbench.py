"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import superharm  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from superharm import SuperSignature, exactla, harmonics  # noqa: E402


def test_closed_form_dimension_matches_basis_count():
    for m in range(4):
        for n in range(4):
            for k in range(-1, 8):
                assert workloads.closed_form_dim(m, n, k) == superharm.space_dimension(
                    SuperSignature(m, n), k
                ), (m, n, k)


def test_tracer_rebinds_names_where_they_are_imported():
    originals = {
        "kernel": exactla.kernel,
        "mul": superharm.SuperPolynomial.__mul__,
        "harmonic_space": harmonics.harmonic_space,
    }
    tracer = tracing.Tracer(superharm)
    try:
        wrapped_kernel = exactla.kernel
        assert wrapped_kernel is not originals["kernel"]
        assert harmonics.kernel is wrapped_kernel
        assert superharm.branching.kernel is wrapped_kernel
        assert superharm.harmonic_space is harmonics.harmonic_space
        assert superharm.SuperPolynomial.__mul__ is not originals["mul"]

        originals["harmonic_space"].cache_clear()
        superharm.harmonic_space(SuperSignature(2, 1), 3)
        for key in ("harmonics.harmonic_space", "exactla.kernel", "exactla.rref", "operators.laplacian"):
            assert tracer.stats[key][0] >= 1, key
        metrics = tracer.metrics()
        assert metrics["exactla.kernel.self_s"] <= metrics["exactla.kernel.s"]
        assert metrics["exactla.kernel.dim"] == superharm.harmonic_space(SuperSignature(2, 1), 3).dim
    finally:
        tracer.uninstall()
    assert exactla.kernel is originals["kernel"]
    assert harmonics.kernel is originals["kernel"]
    assert superharm.SuperPolynomial.__mul__ is originals["mul"]
    assert harmonics.harmonic_space is originals["harmonic_space"]


def _sample(workload, seed, tmp, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "sample.py"), "--workload", workload,
         "--seed", str(seed), "--tmp", str(tmp), *extra],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["restriction-arith", "verify-sweep"])
def test_traced_and_untraced_runs_give_the_same_fingerprint(workload, tmp_path):
    plain = _sample(workload, 5, tmp_path)
    traced = _sample(workload, 5, tmp_path, "--trace")
    assert not plain["mismatches"] and not traced["mismatches"]
    assert plain["fingerprints"] == traced["fingerprints"]
    assert plain["layers"] is None and traced["layers"]["exactla.rref.calls"] > 0


def test_verify_sweep_counts_and_names_the_known_failures():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "verify-sweep",
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # One untraced and at least one traced sample, 358 checks each.
    samples = result["attempted"] // 358
    assert result["attempted"] == 358 * samples and samples >= 2
    assert result["failed"] == 3 * samples
    named = [line.split(": ", 1)[1] for line in lines if line.startswith("failed operation: ")]
    assert named == [f"theoremA (0|4) k={k}" for k in (4, 5, 6)]


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
