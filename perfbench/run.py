"""Cold-start benchmark of superharm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed sample is a fresh interpreter (perfbench/sample.py), because the
library's caches are process-global: a repeat inside one process would time
cache hits.  Samples run one at a time, single-threaded, until --seconds
have passed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the median
over the run's samples:
    setup_s      interpreter start to superharm imported and inputs built,
                 also taken from set-up-only samples
    run_s        wall time of the workload's library calls
    cpu_s        process CPU time over the same interval
    peak_rss_mb  ru_maxrss of the sample process, in MiB
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of the traced ones, plus trace.overhead_s, the traced minus the
untraced median run_s.

Every answer is checked against perfbench/expected.json.  The lines before
the last describe the run (machine, seed, samples, failed operations by
name); the last line is the JSON result.  Exits 2, printing no result, when
the library is missing or a sample fails to finish.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
SETUP_ONLY_SAMPLES = 9
# The whole run must end well inside 180 s; a sample that would cross this
# is stopped and the run fails.
HARD_LIMIT_S = 170


class BenchError(Exception):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _metadata(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "git_commit": _git_commit(),
    }


def _spawn(args, tmp: str, deadline: float, *, trace=False, setup_only=False) -> dict:
    cmd = [sys.executable, SAMPLE, "--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = _monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a sample did not finish within {HARD_LIMIT_S} s of the run's start") from None
    if proc.returncode != 0:
        raise BenchError(f"sample exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"sample printed no result:\n{proc.stdout}{proc.stderr}") from None
    sample["setup_s"] = sample.pop("setup_done") - started
    return sample


def _tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it; None below
    20 samples, where that percentile would not lie above the median."""
    n = len(values)
    if n < 20:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def _summary(samples: list[dict], key: str) -> dict:
    values = [s[key] for s in samples]
    return {"median": statistics.median(values), "samples": len(values), "tail": _tail(values), "values": values}


def _collect(args, tmp: str, start: float) -> tuple[list[dict], list[dict], list[float]]:
    """Run samples for --seconds: another step starts only while the mean
    step so far would still end in time, and at least one step runs.  With
    --trace 1 each step is an untraced sample followed by a traced one."""
    deadline = start + HARD_LIMIT_S
    setups = [_spawn(args, tmp, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_ONLY_SAMPLES)]
    plain, traced = [], []
    measure_start = _monotonic()
    while True:
        plain.append(_spawn(args, tmp, deadline))
        if args.trace:
            traced.append(_spawn(args, tmp, deadline, trace=True))
        elapsed = _monotonic() - measure_start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    return plain, traced, setups + [s["setup_s"] for s in plain]


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _result(spec, plain, traced, setups) -> tuple[dict, dict]:
    samples = plain + traced
    ops = [op for s in samples for op in s["ops"]]
    failed_names = sorted({name for s in samples for name, failed in s["ops"] if failed})
    failed = sum(1 for _, f in ops if f)
    mismatches = sorted({name for s in samples for name in s["mismatches"]})
    same_answers = all(s["fingerprints"] == samples[0]["fingerprints"] for s in samples)

    measured = {"setup_s": statistics.median(setups)}
    for key in ("run_s", "cpu_s", "peak_rss_mb"):
        measured[key] = statistics.median(s[key] for s in plain)
    if traced:
        # median_low keeps each value one that was measured, so counts stay whole.
        for key in traced[0]["layers"]:
            measured[key] = statistics.median_low(s["layers"][key] for s in traced)
        measured["trace.overhead_s"] = (
            statistics.median(s["run_s"] for s in traced) - measured["run_s"]
        )

    metrics = {}
    for metric in spec["per_layer"] if traced else spec["end_to_end"]:
        name = metric["name"]
        if name not in measured:
            raise BenchError(f"metric {name} is declared but not measured")
        metrics[name] = {"value": measured[name], "unit": metric["unit"]}

    record = {
        "run_s": _summary(plain, "run_s"),
        "cpu_s": _summary(plain, "cpu_s"),
        "peak_rss_mb": _summary(plain, "peak_rss_mb"),
        "setup_s": {"median": measured["setup_s"], "samples": len(setups), "values": setups},
        "traced_run_s": _summary(traced, "run_s") if traced else None,
        "fail_ratio": f"{failed}/{len(ops)}",
        "failed_operations": failed_names,
        "fingerprint_mismatches": mismatches,
        "traced_and_untraced_answers_equal": same_answers,
    }
    result = {
        "correct": not mismatches and same_answers,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = _monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "superharm", "__init__.py")):
        print(f"perfbench: no superharm sources under {ROOT}/src", file=sys.stderr)
        return 2
    meta = _metadata(args)
    # Bytecode is compiled once here, so no sample pays for it in set-up.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        plain, traced, setups = _collect(args, tmp, start)
        record, result = _result(spec, plain, traced, setups)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({"meta": meta, **record}, sort_keys=True))
    for name in record["failed_operations"]:
        print(f"failed operation: {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
