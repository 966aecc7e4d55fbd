"""Rewrite ``perfbench/golden.json``: per-point digests at the default seed.

Run from the repository root after a deliberate change to results::

    python3 -m perfbench.refresh_golden

Each workload runs once at full size in its own process.  Its cold and
warm sweeps must agree before their digests are written.
"""

from __future__ import annotations

import json
import sys

from perfbench.run import GOLDEN, _worker
from perfbench.workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        rep = _worker(workload, DEFAULT_SEED, "sweep")
        if None in rep["rows"] or rep["rows"] != rep["warm_rows"]:
            print(f"error: {workload} cold and warm sweeps disagree",
                  file=sys.stderr)
            return 1
        golden[workload] = rep["rows"]
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
