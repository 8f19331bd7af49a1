"""Recompute ``pinned.json``: the output digest per workload and seed.

Run from the repository root:

    python3 perfbench/pin.py --seeds 0-99

The digests are the expected outputs that every later run is checked
against, so recompute them only in a change that is meant to alter the
pipeline's results, never in one that claims a speed-up. Latency and
injected faults do not change results, so pinning runs without them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
from clients import Upstream  # noqa: E402
from outputs import PINNED, digest  # noqa: E402
from run import WORK, source_digest  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    digests: dict[str, dict[str, str]] = {}
    for workload in measure.UPSTREAM:
        digests[workload] = {}
        for seed in range(first, last + 1):
            work = WORK / f"pin-{workload}-{seed}"
            try:
                bench = measure.prepare(workload, seed, work, 2, {})
                bench.upstream = Upstream()
                values = measure.reference_run(bench, work / "run").values
            finally:
                shutil.rmtree(work, ignore_errors=True)
            digests[workload][str(seed)] = digest(values)
            print(workload, seed, digests[workload][str(seed)], flush=True)
    record = {
        "source_sha256": source_digest(HERE.parent / "src" / "scenefuse"),
        "digests": digests,
    }
    PINNED.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
