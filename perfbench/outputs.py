"""Output check: a digest of the values the library returns.

The digest covers what ``run_pipeline`` and ``run_eval`` return, not the
artifact files they write, so a change of on-disk format that keeps the
results keeps the digest. Floats enter through ``repr``, so any change in
the last bit changes it. ``pinned.json`` holds the digests computed at the
commit that introduced the benchmark, per workload and seed; seeds outside
it are checked for consistency and invariants only.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINNED = Path(__file__).with_name("pinned.json")


def output_values(artifacts, report) -> dict:
    """Returned values of one pipeline run plus its PREFS report."""
    partition = artifacts.partition
    alignment = artifacts.alignment
    return {
        "breaks": list(partition.breaks),
        "scene_costs": [scene.cost_bits for scene in partition.scenes],
        "partition_cost": partition.total_cost,
        "dtw_pairs": [list(p) for p in alignment.pairs] if alignment else None,
        "dtw_total": alignment.total_cost if alignment else None,
        "time_spans": (
            [[s.start, s.end] for s in artifacts.time_spans]
            if artifacts.time_spans is not None else None
        ),
        "caption_sentences": [list(c.sentences) for c in artifacts.scene_captions],
        "scene_summaries": list(artifacts.scene_summaries),
        "order": list(artifacts.order.permutation),
        "order_cost": artifacts.order.cost,
        "fusion_input": artifacts.fusion_input,
        "final_summary": artifacts.final_summary,
        "prefs": report_values(report),
    }


def report_values(report) -> dict:
    def counts(c) -> list[int]:
        return [c.extracted, c.filtered, c.judged, c.supported]

    return {
        "fact_precision": report.fact_precision,
        "fact_recall": report.fact_recall,
        "prefs": report.prefs,
        "precision_counts": counts(report.precision_counts),
        "recall_counts": [counts(c) for c in report.recall_counts],
        "recall_per_reference": list(report.recall_per_reference),
    }


def digest(values: dict) -> str:
    text = json.dumps(values, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict[str, dict[str, str]]:
    return json.loads(PINNED.read_text(encoding="utf-8"))["digests"]


def invariant_errors(values: dict, n_lines: int, n_cues: int | None, budget: int) -> list[str]:
    """Properties every correct result has, whatever the seed."""
    errors = []
    breaks = values["breaks"]
    n_scenes = len(breaks) + 1
    if breaks != sorted(set(breaks)) or (breaks and not 0 < breaks[0] <= breaks[-1] < n_lines):
        errors.append(f"breaks not increasing inside (0, {n_lines}): {breaks[:8]}")
    if len(values["scene_costs"]) != n_scenes:
        errors.append("one cost per scene expected")
    if sorted(values["order"]) != list(range(n_scenes)):
        errors.append("order is not a permutation of the scenes")
    if len(values["scene_summaries"]) != n_scenes:
        errors.append("one summary per scene expected")
    if n_cues is not None:
        pairs = values["dtw_pairs"]
        steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(pairs, pairs[1:])}
        if pairs[0] != [0, 0] or pairs[-1] != [n_lines - 1, n_cues - 1]:
            errors.append("DTW path does not run corner to corner")
        if not steps <= {(1, 0), (0, 1), (1, 1)}:
            errors.append(f"DTW path takes illegal steps {sorted(steps)}")
        spans = values["time_spans"]
        if len(spans) != n_scenes or any(start >= end for start, end in spans):
            errors.append("one non-empty time span per scene expected")
    if len(values["fusion_input"].split()) > budget:
        errors.append("fusion input exceeds the context budget")
    if not values["final_summary"]:
        errors.append("empty final summary")
    prefs = values["prefs"]
    if not all(0.0 <= prefs[k] <= 100.0 for k in ("fact_precision", "fact_recall", "prefs")):
        errors.append("PREFS scores outside [0, 100]")
    return errors
