"""One benchmark sample in a fresh interpreter, started by run.py.

    python3 perfbench/sample.py --workload NAME --seed N --tmp DIR [--trace] [--setup-only]

Imports superharm from the checkout's src/, builds the seeded inputs, checks
that the library caches are cold, times the workload's calls, then checks
every answer.  Prints one JSON object: the CLOCK_MONOTONIC time at which
set-up ended (the parent took the time before starting this process), wall
and CPU time of the calls, peak RSS, the operations and, with --trace, the
per-layer timings.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_library():
    sys.path.insert(0, SRC)
    try:
        import superharm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import superharm from {SRC}: {exc}")
    if not os.path.abspath(superharm.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported superharm from {superharm.__file__}, not from {SRC}")
    return superharm


def _assert_cold(package) -> None:
    """A warm cache would time lookups, not work."""
    warm = []
    for name, mod in list(sys.modules.items()):
        if name.startswith(package.__name__ + "."):
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and obj.cache_info().currsize:
                    warm.append(f"{name}.{attr}")
    if sys.modules[package.__name__ + ".gtbasis"]._CACHE:
        warm.append("gtbasis._CACHE")
    if warm:
        raise RuntimeError("library caches are warm before the timed run: " + ", ".join(warm))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = _import_library()
    import workloads

    units = workloads.build_inputs(args.workload, args.seed, args.tmp)
    expected = workloads.load_expected(args.workload)
    setup_done = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    _assert_cold(package)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(package)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    results = workloads.run(units)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        layers.update(tracing.cache_stats(package))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome = workloads.check(units, results, expected)
    print(
        json.dumps(
            {
                "setup_done": setup_done,
                "run_s": run_s,
                "cpu_s": cpu_s,
                "peak_rss_mb": peak_rss_mb,
                "ops": outcome["ops"],
                "mismatches": outcome["mismatches"],
                "fingerprints": outcome["fingerprints"],
                "layers": layers,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
