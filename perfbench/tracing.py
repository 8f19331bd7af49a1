"""Spans recorded around the library's public functions, and the mirror.

The mirror calls the layer functions in ``run_pipeline``'s order (for the
default ``PipelineConfig``) and the alignment kernels on ``dtw_align``'s
inputs, each inside a span. Its results are compared with what
``run_pipeline`` returns for the same bundle, so the mirror cannot drift
from the pipeline unnoticed. Spans live in memory until the run ends.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from scenefuse import backends as be
from scenefuse.alignment import Alignment, normalize_text, scene_time_spans
from scenefuse.captions import SceneCaption, postprocess_captions
from scenefuse.kernels import dtw_backtrack, dtw_table, encode_text, pair_cost_matrix
from scenefuse.model import load_episode
from scenefuse.pipeline import EpisodeArtifacts, PipelineConfig, assemble_fusion_input
from scenefuse.prefs import GENERATED, REFERENCE, PrefsReport, prefs, score_direction
from scenefuse.reordering import reorder
from scenefuse.segmentation import effective_partition


class Tracer:
    """Collects spans: name, start, end, parent span and episode id.

    Spans opened on the thread that made the tracer nest on a stack; spans
    from worker threads take the innermost open span of that thread as
    parent and never become parents themselves.
    """

    def __init__(self, episode: str = ""):
        self.episode = episode
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs):
        owner = threading.get_ident() == self._owner
        with self._lock:
            record = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "episode": self.episode,
                **attrs,
            }
            self.spans.append(record)
        if owner:
            self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if owner:
                self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children(spans: list[dict], parent: dict) -> list[dict]:
    return [s for s in spans if s["parent"] == parent["id"]]


def self_time(spans: list[dict], span: dict) -> float:
    """Duration minus the part of it that child spans cover."""
    covered = 0.0
    reach = span["start"]
    for child in sorted(children(spans, span), key=lambda s: s["start"]):
        start, end = max(child["start"], reach), min(child["end"], span["end"])
        if end > start:
            covered += end - start
            reach = end
    return duration(span) - covered


def traced_align(tracer: Tracer, lines: list[str], cues: list[str]) -> Alignment:
    """``dtw_align`` step by step through the public kernel functions."""
    with tracer.span("alignment.dtw_align"):
        with tracer.span("kernels.encode"):
            line_codes = [encode_text(normalize_text(t)) for t in lines]
            cue_codes = [encode_text(normalize_text(t)) for t in cues]
        with tracer.span("kernels.pair_cost"):
            cost = pair_cost_matrix(line_codes, cue_codes)
        with tracer.span("kernels.dtw_table"):
            table = dtw_table(cost)
        with tracer.span("kernels.backtrack"):
            path = dtw_backtrack(table)
    return Alignment(tuple(path), float(table[-1, -1]))


def traced_pipeline(tracer: Tracer, bundle: Path, config: PipelineConfig):
    """(episode, artifacts) as ``load_episode`` + ``run_pipeline`` give them."""
    with tracer.span("model.load"):
        episode = load_episode(bundle)
    transcript = episode.transcript
    with tracer.span("segmentation.partition"):
        partition = effective_partition(transcript)
    scenes = partition.scenes

    alignment = time_spans = None
    if episode.captions is not None:
        alignment = traced_align(
            tracer,
            [ln.text for ln in transcript.lines],
            [cue.text for cue in episode.captions.cues],
        )
        with tracer.span("alignment.spans"):
            time_spans = scene_time_spans(partition, alignment, episode.captions)

    pre = episode.precomputed_captions
    with tracer.span("captions.postprocess") as span:
        raw = [
            be.caption_scene([pre[i]], precomputed=True)
            if pre is not None and i < len(pre) else []
            for i in range(len(scenes))
        ]
        scene_captions = [
            SceneCaption(i, tuple(postprocess_captions(r, s.roster, config.lexicon)))
            for i, (r, s) in enumerate(zip(raw, scenes))
        ]
        span["raw"] = sum(len(r) for r in raw)
        span["kept"] = sum(len(c.sentences) for c in scene_captions)

    def summarize(scene) -> str:
        lines = [(ln.speaker, ln.text) for ln in transcript.lines[scene.start:scene.end]]
        return be.summarize_scene(lines, config.backends)

    with tracer.span("pipeline.summarize"):
        workers = max(1, min(config.max_workers, len(scenes)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(summarize, scenes))

    with tracer.span("reordering.reorder"):
        order = reorder([scene.roster for scene in scenes])
    with tracer.span("pipeline.fusion_input"):
        fusion_input = assemble_fusion_input(
            summaries, [list(c.sentences) for c in scene_captions], order,
            config.context_budget,
        )
    with tracer.span("pipeline.fuse"):
        final = config.backends.complete(be.FUSION_SUMMARIZER, notes=fusion_input).strip()

    return episode, EpisodeArtifacts(
        partition=partition,
        alignment=alignment,
        time_spans=time_spans,
        scene_captions=scene_captions,
        scene_summaries=summaries,
        order=order,
        fusion_input=fusion_input,
        final_summary=final,
        out_dir=config.out_dir / episode.id,
    )


def traced_eval(tracer: Tracer, summary: str, references, backends, workers: int) -> PrefsReport:
    """``prefs_multi_reference`` with one span per scored direction."""
    knowledge = "\n\n".join(references)
    with tracer.span("prefs.precision"):
        precision, precision_counts, _ = score_direction(
            summary, knowledge, backends, GENERATED, workers
        )
    recall_pcts, recall_counts = [], []
    for ref in references:
        with tracer.span("prefs.recall"):
            pct, counts, _ = score_direction(ref, summary, backends, REFERENCE, workers)
        recall_pcts.append(pct)
        recall_counts.append(counts)
    recall = sum(recall_pcts) / len(recall_pcts)
    return PrefsReport(
        fact_precision=precision,
        fact_recall=recall,
        prefs=prefs(precision, recall),
        precision_counts=precision_counts,
        recall_counts=tuple(recall_counts),
        recall_per_reference=tuple(recall_pcts),
    )
