"""Timed runs of one workload: untraced end-to-end, or traced per layer.

Untraced (end-to-end) iteration, repeated until the time is up:
  episode   load_episode + run_pipeline into an empty out dir and cache
  resume    the same call again, every artifact present
  evaluate  run_eval on a cold completion cache
  rescore   run_eval again, every completion cached
Each operation repeats inside an iteration (quick ones many times) and
each metric is the median of its samples. Every result is checked: the
first run's value digest against the pinned one (or the first
iteration's) and against invariants that hold for any seed, every other
run against the first.

Traced pass: one untraced cold run (the reference), then the mirror in
``tracing`` with counting backends; the two must return equal values.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from scenefuse.alignment import normalize_text, scene_time_spans
from scenefuse.backends import FACT_EXTRACTOR, FACT_JUDGE
from scenefuse.captions import GenderLexicon, load_lexicon
from scenefuse.model import Episode, load_episode, parse_captions, parse_transcript
from scenefuse.pipeline import EpisodeArtifacts, PipelineConfig, run_eval, run_pipeline
from scenefuse.prefs import PrefsReport
from scenefuse.segmentation import effective_partition
from scenefuse.stats import ari, clustering_accuracy, labels_from_breaks, nmi

from clients import Upstream, backend_counts, make_backends
from outputs import digest, invariant_errors, output_values, report_values
from tracing import Tracer, duration, self_time, traced_align, traced_eval, traced_pipeline
from workloads import GeneratedEpisode, generate, write_bundle

HERE = Path(__file__).resolve().parent

# The stand-in remote service: 25 ms per send, and the first attempt of
# about 1 in 20 requests fails and is retried after a short backoff.
# Evaluation always goes through it, so evaluate_s is upstream-bound on
# every workload; remote-eval also sends the pipeline's requests there,
# while align-dense and long-transcript run the pipeline without latency.
REMOTE = {"latency_s": 0.025, "fail_one_in": 20, "backoff_s": 0.005}
UPSTREAM = {
    "align-dense": Upstream(**REMOTE, roles=frozenset({FACT_EXTRACTOR, FACT_JUDGE})),
    "long-transcript": Upstream(**REMOTE, roles=frozenset({FACT_EXTRACTOR, FACT_JUDGE})),
    "remote-eval": Upstream(**REMOTE),
}

SETUP_RUNS = 5
# each operation repeats within an iteration until this much time or
# this many samples, so quick ones report medians of many samples
REPEAT_BUDGET_S = {"episode_s": 2.0, "evaluate_s": 0.25, "resume_s": 0.25, "rescore_s": 0.25}
REPEAT_MAX = 25
# workloads without a caption track time the alignment layer on this
# many lines of an align-dense episode instead
PROBE_LINES = 16
MIB = 1024 * 1024


@dataclass
class Bench:
    workload: str
    seed: int
    generated: GeneratedEpisode
    bundle: Path
    work: Path
    workers: int
    lexicon: GenderLexicon
    upstream: Upstream
    expected: str | None  # pinned digest, if this seed is pinned

    def config(self, out: Path, tracer: Tracer | None = None) -> PipelineConfig:
        return PipelineConfig(
            backends=make_backends(out / "cache", self.upstream, tracer),
            out_dir=out / "artifacts",
            max_workers=self.workers,
            lexicon=self.lexicon,
        )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_digest: str | None = None

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def prepare(
    workload: str, seed: int, work: Path, workers: int, pins: dict, lines: int | None = None
) -> Bench:
    """Generate and write the bundle; ``lines`` shrinks the episode (tests)."""
    generated = generate(workload, seed, lines)
    bundle = write_bundle(generated, work / "episode")
    return Bench(
        workload, seed, generated, bundle, work, workers, load_lexicon(),
        UPSTREAM[workload], pins.get(workload, {}).get(str(seed)),
    )


def setup_times(src: Path, runs: int = SETUP_RUNS) -> dict[str, list[float]]:
    """Set-up and import seconds of ``runs`` fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src)]
    subprocess.run(cmd, check=True, capture_output=True)  # fills bytecode caches
    times = defaultdict(list)
    for _ in range(runs):
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        for key, value in json.loads(done.stdout.splitlines()[-1]).items():
            times[key].append(value)
    return times


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def repeated(budget_s, call, before=lambda: (), runs=()) -> list[tuple[float, object]]:
    """(seconds, value) of ``call(*before())`` after ``runs``; only the call is timed."""
    runs = list(runs) or [timed(call, *before())]
    while sum(t for t, _ in runs) < budget_s and len(runs) < REPEAT_MAX:
        runs.append(timed(call, *before()))
    return runs


def cold_run(bundle: Path, config: PipelineConfig):
    episode = load_episode(bundle)
    return episode, run_pipeline(episode, config)


@dataclass
class Reference:
    """One cold run and its evaluation, timed."""

    cold_s: float
    evaluate_s: float
    episode: Episode
    artifacts: EpisodeArtifacts
    report: PrefsReport
    config: PipelineConfig

    @property
    def values(self) -> dict:
        return output_values(self.artifacts, self.report)


def reference_run(bench: Bench, out: Path) -> Reference:
    config = bench.config(out)
    cold_s, (episode, artifacts) = timed(cold_run, bench.bundle, config)
    evaluate_s, report = timed(run_eval, episode, artifacts.final_summary, config)
    return Reference(cold_s, evaluate_s, episode, artifacts, report, config)


def check_values(bench: Bench, values: dict, budget: int, tally: Tally) -> None:
    """Digest against the pin (or the first result), then invariants."""
    found = digest(values)
    expected = bench.expected or tally.first_digest or found
    tally.first_digest = tally.first_digest or found
    n_cues = None
    if bench.generated.captions_srt is not None:
        n_cues = len(parse_captions(bench.generated.captions_srt).cues)
    errors = invariant_errors(values, bench.generated.n_lines, n_cues, budget)
    if found != expected:
        errors.append(f"output digest {found[:12]} != expected {expected[:12]}")
    tally.record(not errors, "; ".join(errors))


def untraced_iteration(bench: Bench, index: int, samples: dict, tally: Tally) -> None:
    out = bench.work / f"run{index}"
    try:
        ref = reference_run(bench, out / "ref")
    except Exception:
        traceback.print_exc()
        tally.record(False, "cold run or evaluation raised")
        return
    if index == 0:
        # the high-water mark of one cold run and evaluation, before any
        # repeat, so every run reports the same history
        samples["peak_rss_mib"].append(peak_rss_mib())
    values = ref.values
    check_values(bench, values, ref.config.context_budget, tally)
    summary = ref.artifacts.final_summary
    fresh = itertools.count()

    def fresh_config():
        return (bench.config(out / f"fresh{next(fresh)}"),)

    for metric, call, before, check, first in (
        (
            "episode_s",
            lambda cold: cold_run(bench.bundle, cold)[1],
            fresh_config,
            lambda artifacts: output_values(artifacts, ref.report) == values,
            [(ref.cold_s, ref.artifacts)],
        ),
        (
            "resume_s",
            lambda: cold_run(bench.bundle, ref.config)[1],
            lambda: (),
            lambda artifacts: output_values(artifacts, ref.report) == values,
            (),
        ),
        (
            "evaluate_s",
            lambda cold: run_eval(ref.episode, summary, cold),
            fresh_config,
            lambda report: report_values(report) == values["prefs"],
            [(ref.evaluate_s, ref.report)],
        ),
        (
            "rescore_s",
            lambda: run_eval(ref.episode, summary, ref.config),
            lambda: (),
            lambda report: report_values(report) == values["prefs"],
            (),
        ),
    ):
        try:
            runs = repeated(REPEAT_BUDGET_S[metric], call, before, first)
        except Exception:
            traceback.print_exc()
            tally.record(False, f"{metric} operation raised")
            continue
        samples[metric].extend(t for t, _ in runs)
        tally.record(
            all(check(v) for _, v in runs),
            f"{metric} operation returned other values than the first cold run",
        )
    shutil.rmtree(out, ignore_errors=True)


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, Tally]:
    samples: dict[str, list[float]] = defaultdict(list)
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        untraced_iteration(bench, index, samples, tally)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            return samples, tally


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def total(spans: list[dict], name: str, under: dict | None = None) -> float:
    return sum(
        duration(s) for s in spans
        if s["name"] == name and (under is None or s["parent"] == under["id"])
    )


def kernel_metrics(spans: list[dict], lines: list[str], cues: list[str]) -> dict:
    pair_s = total(spans, "kernels.pair_cost")
    cells = sum(len(normalize_text(t)) for t in lines) * sum(len(normalize_text(t)) for t in cues)
    return {
        "alignment.dtw_align_s": total(spans, "alignment.dtw_align"),
        "alignment.spans_s": total(spans, "alignment.spans"),
        "kernels.pair_cost_s": pair_s,
        "kernels.dtw_table_s": total(spans, "kernels.dtw_table"),
        "kernels.backtrack_s": total(spans, "kernels.backtrack"),
        "kernels.pairs": len(lines) * len(cues),
        "kernels.lcs_cells": cells,
        "kernels.lcs_cells_per_s": cells / pair_s,
    }


def alignment_probe(bench: Bench, tracer: Tracer) -> tuple[dict, list[str], list[str]]:
    """Alignment layer on a small align-dense episode of the same seed."""
    probe = generate("align-dense", bench.seed, lines=PROBE_LINES)
    transcript = parse_transcript(probe.transcript)
    captions = parse_captions(probe.captions_srt)
    partition = effective_partition(transcript)
    lines = [ln.text for ln in transcript.lines]
    cues = [cue.text for cue in captions.cues]
    with tracer.span("probe") as root:
        alignment = traced_align(tracer, lines, cues)
        with tracer.span("alignment.spans"):
            scene_time_spans(partition, alignment, captions)
    return root, lines, cues


def traced_pass(bench: Bench, index: int, tally: Tally) -> tuple[dict, list[dict]]:
    """Per-layer metrics and spans of one pass; checks the mirror's values."""
    out = bench.work / f"trace{index}"
    ref = reference_run(bench, out / "reference")
    untraced_s, reference = ref.cold_s, ref.values
    artifact_dir = out / "reference" / "artifacts" / bench.bundle.name
    artifact_bytes = sum(p.stat().st_size for p in artifact_dir.iterdir() if p.name != "prefs.json")

    tracer = Tracer(episode=f"{bench.workload}/{bench.seed}/{index}")
    config = bench.config(out / "traced", tracer)
    with tracer.span("episode") as root:
        episode, artifacts = traced_pipeline(tracer, bench.bundle, config)
    summary = artifacts.final_summary
    refs = episode.gold_summaries
    with tracer.span("prefs.evaluate") as evaluate:
        report = traced_eval(tracer, summary, refs, config.backends, bench.workers)
    with tracer.span("prefs.rescore") as rescore:
        warm = traced_eval(tracer, summary, refs, config.backends, bench.workers)

    mirrored = output_values(artifacts, report)
    check_values(bench, mirrored, config.context_budget, tally)
    tally.record(
        mirrored == reference and report_values(warm) == reference["prefs"],
        "traced mirror returned other values than run_pipeline/run_eval",
    )

    m = len(episode.transcript.lines)
    truth = labels_from_breaks(m, bench.generated.true_breaks)
    with tracer.span("stats.agreement"):
        found = labels_from_breaks(m, artifacts.partition.breaks)
        agreement = {
            "stats.acc": clustering_accuracy(found, truth),
            "stats.nmi": nmi(found, truth),
            "stats.ari": ari(found, truth),
        }

    spans = tracer.spans
    if episode.captions is not None:
        lines = [ln.text for ln in episode.transcript.lines]
        cues = [cue.text for cue in episode.captions.cues]
        align_spans = spans
    else:
        probe_root, lines, cues = alignment_probe(bench, tracer)
        align_spans = [s for s in tracer.spans if s["id"] >= probe_root["id"]]

    captions = next(s for s in spans if s["name"] == "captions.postprocess")
    requests = [s for s in spans if s["name"] == "backends.request"]
    upstream = [duration(s) for s in requests if not s["hit"]]
    busy = duration(root) + duration(evaluate) + duration(rescore)
    layers_s = duration(root) - self_time(spans, root)
    metrics = {
        "segmentation.partition_s": total(spans, "segmentation.partition"),
        "segmentation.scenes": len(artifacts.partition.scenes),
        "reordering.reorder_s": total(spans, "reordering.reorder"),
        "pipeline.fusion_input_s": total(spans, "pipeline.fusion_input"),
        "pipeline.self_s": untraced_s - layers_s,
        "pipeline.artifact_bytes": artifact_bytes,
        **kernel_metrics(align_spans, lines, cues),
        "captions.postprocess_s": duration(captions),
        "captions.kept_ratio": captions["kept"] / captions["raw"],
        **backend_counts(config.backends),
        "backends.request_s": statistics.median(upstream) if upstream else 0.0,
        "backends.concurrency": sum(duration(s) for s in requests) / busy,
        "prefs.rescore_s": duration(rescore),
        "prefs.precision_s": total(spans, "prefs.precision", evaluate),
        "prefs.recall_s": total(spans, "prefs.recall", evaluate),
        "prefs.facts_extracted": report.precision_counts.extracted
        + sum(c.extracted for c in report.recall_counts),
        "prefs.facts_judged": report.precision_counts.judged
        + sum(c.judged for c in report.recall_counts),
        "model.load_s": total(spans, "model.load", root),
        **agreement,
        "stats.agreement_s": total(spans, "stats.agreement"),
        "trace.overhead_s": duration(root) - untraced_s,
    }
    if index == 0:
        tracemalloc.start()
        effective_partition(episode.transcript)
        metrics["segmentation.peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
        tracemalloc.stop()
    shutil.rmtree(out, ignore_errors=True)
    return metrics, tracer.spans


def run_traced(bench: Bench, seconds: float) -> tuple[dict, list[dict], Tally]:
    tally = Tally()
    per_pass: dict[str, list[float]] = defaultdict(list)
    spans: list[dict] = []
    start = time.perf_counter()
    index = 0
    while True:
        metrics, pass_spans = traced_pass(bench, index, tally)
        for key, value in metrics.items():
            per_pass[key].append(value)
        spans.extend(pass_spans)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            break
    medians = {key: statistics.median(values) for key, values in per_pass.items()}
    medians["trace.passes"] = index
    return medians, spans, tally


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} (n={n})"
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1 - pct / 100) >= 10:
            at = min(n - 1, math.ceil(n * pct / 100) - 1)
            return text + f", p{pct:g} {ordered[at]:.6g}"
    return text
