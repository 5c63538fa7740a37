"""Write expected.json: the answer fingerprints every sample is checked against.

    python3 perfbench/record.py

Run it only when the library's answers are meant to change; the fingerprints
do not depend on the seed (the CK round trips, which do, are checked by
exact identities instead and are left out).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    expected = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in workloads.WORKLOADS:
            units = workloads.build_inputs(name, 0, tmp)
            outcome = workloads.check(units, workloads.run(units), None)
            expected[name] = {
                op: fp for op, fp in outcome["fingerprints"].items() if op != "ck round trips"
            }
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
