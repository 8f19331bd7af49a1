"""Pipeline benchmark: seeded synthetic episodes through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload align-dense --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists): align-dense,
long-transcript, remote-eval. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the traced mirror and
reports the per-layer metrics and the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The environment record,
every sample and (traced) every span go to ``.perfbench-results/``.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the command exits with status 2 and prints no result.
A worker count above the CPUs this process may use is refused the same
way.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RESULTS = ROOT / ".perfbench-results"
WORKLOADS = ("align-dense", "long-transcript", "remote-eval")

END_TO_END = {
    "setup_s": "s",
    "episode_s": "s",
    "resume_s": "s",
    "evaluate_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="scenefuse pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workers", type=int, help="pipeline max_workers (default: min(2, nproc))"
    )
    return parser.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return None


def source_digest(package: Path) -> str:
    """sha256 over the package's files, to identify the measured program."""
    sha = hashlib.sha256()
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        sha.update(str(path.relative_to(package)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def environment(nproc: int, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(SRC / "scenefuse"),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": workers,
        "system": " ".join(os.uname()[i] for i in (0, 2, 4)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    workers = args.workers if args.workers is not None else min(2, nproc)
    if not 1 <= workers <= nproc:
        print(f"error: --workers must be in [1, {nproc}] (nproc), got {workers}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    if not (SRC / "scenefuse" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'scenefuse'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scenefuse

    if Path(scenefuse.__file__).resolve().parent != (SRC / "scenefuse").resolve():
        print(f"error: scenefuse imported from {scenefuse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import measure
    from outputs import load_pins

    env = environment(nproc, workers)
    setup = measure.setup_times(SRC)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = measure.prepare(args.workload, args.seed, work, workers, load_pins())
        if args.trace:
            units = per_layer_units()
            medians, spans, tally = measure.run_traced(bench, args.seconds)
            medians["cli.import_s"] = statistics.median(setup["import_s"])
            metrics = {name: medians[name] for name in units}
            report = {"passes": medians["trace.passes"], "spans": spans}
        else:
            units = END_TO_END
            samples, tally = measure.run_untraced(bench, args.seconds)
            samples["setup_s"] = setup["setup_s"]
            metrics = {name: statistics.median(samples[name]) for name in END_TO_END if name in samples}
            report = {"samples": samples}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pinned = bench.expected is not None
    correct = tally.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"output digest {'pinned' if pinned else 'not pinned; consistency and invariants only'}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"traced passes {report['passes']} (per-layer values are medians over passes)")
        for name, value in metrics.items():
            print(f"  {name:40s} {value:.6g}")
    else:
        for name, values in report["samples"].items():
            print(f"  {name:14s} {measure.tail(values)} {END_TO_END.get(name, 's')}")
    print(f"  {'failed_frac':14s} {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g}")
    for problem in tally.problems[:10]:
        print(f"  problem: {problem}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "pinned": pinned, "metrics": metrics,
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        **report,
    }
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
