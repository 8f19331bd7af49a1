"""End-to-end episode processing.

Stage order: segment, align, caption, scene-summarize, reorder, fuse.
Every stage's output is persisted under the output directory before the
next stage runs; a rerun loads whatever already exists, so deleting one
artifact re-executes exactly that stage. An artifact that does not
decode (truncated, not JSON, missing fields) is recomputed the same way.
Artifacts are written through a temp file and os.replace, so a crash
leaves the old file or none, never half of one. Ablation flags drop a
stage and its content from the fusion input.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from . import backends as be
from .alignment import Alignment, TimeSpan, dtw_align, scene_time_spans, spans_to_dicts
from .captions import GenderLexicon, SceneCaption, load_lexicon, postprocess_captions
from .errors import BudgetTooSmall, ConfigError, DataError, ScenefuseError
from .model import Episode, Partition, Scene, Transcript
from .prefs import PrefsReport, prefs_multi_reference, split_sentences
from .reordering import SceneOrder, order_cost, order_to_dict, reorder
from .segmentation import effective_partition, partition_from_breaks

UNIFORM_CHUNK_TOKENS = 1024

T = TypeVar("T")


@dataclass
class PipelineConfig:
    backends: be.Backends
    out_dir: Path
    context_budget: int = 4096
    skip_reorder: bool = False
    skip_vision: bool = False
    skip_transcript: bool = False
    uniform_chunks: bool = False
    max_workers: int = 4
    lexicon: GenderLexicon = field(default_factory=load_lexicon)

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if self.context_budget <= 0:
            raise ConfigError(f"context_budget must be > 0, got {self.context_budget}")


@dataclass
class EpisodeArtifacts:
    partition: Partition
    alignment: Alignment | None
    time_spans: list[TimeSpan] | None
    scene_captions: list[SceneCaption]
    scene_summaries: list[str]
    order: SceneOrder
    fusion_input: str
    final_summary: str
    out_dir: Path
    prefs_report: PrefsReport | None = None


def config_from_dict(
    raw: dict, base_dir: str | Path, out_dir: str | Path, mock: bool = False
) -> PipelineConfig:
    """Build a PipelineConfig from a parsed JSON config tree."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {
        "backends", "cache_dir", "mock_fixture", "context_budget",
        "skip_reorder", "skip_vision", "skip_transcript", "uniform_chunks",
        "max_workers", "lexicon",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    base = Path(base_dir)
    lexicon_path = raw.get("lexicon")
    return PipelineConfig(
        backends=be.build_backends(raw, mock=mock, base_dir=base),
        out_dir=Path(out_dir),
        context_budget=int(raw.get("context_budget", 4096)),
        skip_reorder=bool(raw.get("skip_reorder", False)),
        skip_vision=bool(raw.get("skip_vision", False)),
        skip_transcript=bool(raw.get("skip_transcript", False)),
        uniform_chunks=bool(raw.get("uniform_chunks", False)),
        max_workers=int(raw.get("max_workers", 4)),
        lexicon=load_lexicon(base / lexicon_path) if lexicon_path else load_lexicon(),
    )


def _tokens(text: str) -> int:
    return len(text.split())


def uniform_chunk_breaks(transcript: Transcript, window: int = UNIFORM_CHUNK_TOKENS) -> list[int]:
    """Break positions for fixed-size whitespace-token windows."""
    breaks: list[int] = []
    acc = 0
    for line in transcript.lines:
        line_tokens = len(line.speaker.split()) + len(line.text.split())
        if acc and acc + line_tokens > window:
            breaks.append(line.index)
            acc = 0
        acc += line_tokens
    return breaks


class _Block:
    """One reordered scene's fusion content: captions then summary."""

    def __init__(self, captions: list[str], summary_sentences: list[str]):
        self.captions = captions
        self.summary = summary_sentences

    def render(self) -> str:
        parts = list(self.captions)
        if self.summary:
            parts.append(" ".join(self.summary))
        return "\n".join(parts)

    def empty(self) -> bool:
        return not self.captions and not self.summary


def assemble_fusion_input(
    scene_summaries: Sequence[str | None],
    scene_captions: Sequence[Sequence[str]],
    order: SceneOrder,
    budget: int,
) -> str:
    """Concatenate per-scene blocks in reordered sequence, within budget.

    Block format: the scene's caption sentences, one per line, then its
    dialogue summary on one line; blocks joined by blank lines. On
    overflow, captions are dropped first (whole scenes, last reordered
    scene first), then trailing sentences are cut from the end, never
    touching the first block's own content. If that first block alone
    exceeds the budget the call fails rather than truncate it.
    """
    if budget <= 0:
        raise ConfigError(f"budget must be > 0, got {budget}")
    blocks: list[_Block] = []
    for idx in order.permutation:
        captions = list(scene_captions[idx]) if idx < len(scene_captions) else []
        summary = scene_summaries[idx] if idx < len(scene_summaries) else None
        block = _Block(captions, split_sentences(summary) if summary else [])
        if not block.empty():
            blocks.append(block)
    if not blocks:
        return ""

    def render() -> str:
        return "\n\n".join(b.render() for b in blocks if not b.empty())

    def fits() -> bool:
        return _tokens(render()) <= budget

    if fits():
        return render()

    # captions go first, last reordered scene first, while any summary
    # text exists to carry the episode
    if any(b.summary for b in blocks):
        for block in reversed(blocks):
            if block.captions:
                block.captions = []
                if fits():
                    return render()

    # then trailing sentences, never the first block's
    while not fits():
        for block in reversed(blocks[1:]):
            if block.summary:
                block.summary.pop()
                break
            if block.captions:
                block.captions.pop()
                break
        else:
            raise BudgetTooSmall(
                f"first scene block needs {_tokens(render())} tokens, budget {budget}"
            )
    return render()


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1) + "\n"


def _stage(
    path: Path, compute: Callable[[], T], serialize: Callable[[T], str],
    deserialize: Callable[[str], T], name: str,
) -> T:
    if path.exists():
        try:
            return deserialize(path.read_text(encoding="utf-8"))
        except (ValueError, KeyError, TypeError, IndexError):
            pass  # corrupt or truncated: recompute and overwrite it
    try:
        value = compute()
    except ScenefuseError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc
    be.write_atomic(path, serialize(value))
    return value


def _text_from_file(text: str) -> str:
    # text artifacts end with the one newline their writer appends; a
    # file without it was cut short
    if not text.endswith("\n"):
        raise ValueError("text artifact lacks its closing newline")
    return text[:-1]


def _partition_from_dict(data: dict) -> Partition:
    scenes = tuple(
        Scene(s["start"], s["end"], frozenset(s["roster"]), s["cost_bits"])
        for s in data["scenes"]
    )
    return Partition(scenes, data["total_cost_bits"])


def _alignment_from_dict(data: dict) -> Alignment:
    return Alignment(tuple((l, c) for l, c in data["path"]), data["total_cost"])


def _order_from_dict(data: dict) -> SceneOrder:
    return SceneOrder(tuple(data["permutation"]), data["reordered_cost"])


def run_pipeline(episode: Episode, config: PipelineConfig) -> EpisodeArtifacts:
    """Execute all stages for one episode, reusing persisted artifacts."""
    out = config.out_dir / episode.id
    out.mkdir(parents=True, exist_ok=True)
    transcript = episode.transcript

    def compute_partition() -> Partition:
        if config.uniform_chunks:
            return partition_from_breaks(transcript, uniform_chunk_breaks(transcript))
        return effective_partition(transcript)

    partition = _stage(
        out / "partition.json", compute_partition,
        lambda p: _dumps(p.to_dict()),
        lambda text: _partition_from_dict(json.loads(text)),
        "segment",
    )
    scenes = partition.scenes

    alignment = None
    time_spans = None
    if episode.captions is not None:
        alignment = _stage(
            out / "alignment.json",
            lambda: dtw_align(
                [ln.text for ln in transcript.lines],
                [cue.text for cue in episode.captions.cues],
            ),
            lambda a: _dumps(a.to_dict()),
            lambda text: _alignment_from_dict(json.loads(text)),
            "align",
        )
        time_spans = _stage(
            out / "spans.json",
            lambda: scene_time_spans(partition, alignment, episode.captions),
            lambda spans: _dumps(spans_to_dicts(spans)),
            lambda text: [
                TimeSpan(d["start_ms"], d["end_ms"]) for d in json.loads(text)
            ],
            "align",
        )

    def compute_captions() -> list[SceneCaption]:
        captions: list[SceneCaption] = []
        pre = episode.precomputed_captions
        for i, scene in enumerate(scenes):
            raw = (
                be.caption_scene([pre[i]], precomputed=True)
                if pre is not None and i < len(pre)
                else []
            )
            cleaned = postprocess_captions(raw, scene.roster, config.lexicon)
            captions.append(SceneCaption(i, tuple(cleaned), source="precomputed"))
        return captions

    scene_captions: list[SceneCaption] = []
    if not config.skip_vision:
        scene_captions = _stage(
            out / "captions.json", compute_captions,
            lambda caps: _dumps([c.to_dict() for c in caps]),
            lambda text: [
                SceneCaption(d["scene_index"], tuple(d["sentences"]))
                for d in json.loads(text)
            ],
            "caption",
        )

    def compute_summaries() -> list[str]:
        def one(scene: Scene) -> str:
            lines = [
                (ln.speaker, ln.text)
                for ln in transcript.lines[scene.start:scene.end]
            ]
            return be.summarize_scene(lines, config.backends)

        workers = max(1, min(config.max_workers, len(scenes)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, scenes))

    scene_summaries: list[str] = []
    if not config.skip_transcript:
        scene_summaries = _stage(
            out / "summaries.json", compute_summaries,
            lambda s: _dumps(s),
            lambda text: list(json.loads(text)),
            "summarize",
        )

    rosters = [scene.roster for scene in scenes]

    def compute_order() -> SceneOrder:
        if config.skip_reorder:
            return SceneOrder(tuple(range(len(scenes))), order_cost(rosters))
        return reorder(rosters)

    order = _stage(
        out / "order.json", compute_order,
        lambda o: _dumps(order_to_dict(rosters, o)),
        lambda text: _order_from_dict(json.loads(text)),
        "reorder",
    )

    fusion_input = _stage(
        out / "fusion_input.txt",
        lambda: assemble_fusion_input(
            scene_summaries or [None] * len(scenes),
            [list(c.sentences) for c in scene_captions]
            if scene_captions
            else [[] for _ in scenes],
            order,
            config.context_budget,
        ),
        lambda text: text + "\n",
        _text_from_file,
        "fuse-input",
    )

    final_summary = _stage(
        out / "summary.txt",
        lambda: config.backends.complete(be.FUSION_SUMMARIZER, notes=fusion_input).strip(),
        lambda text: text + "\n",
        _text_from_file,
        "fuse",
    )

    return EpisodeArtifacts(
        partition=partition,
        alignment=alignment,
        time_spans=time_spans,
        scene_captions=scene_captions,
        scene_summaries=scene_summaries,
        order=order,
        fusion_input=fusion_input,
        final_summary=final_summary,
        out_dir=out,
    )


def run_eval(episode: Episode, summary: str, config: PipelineConfig) -> PrefsReport:
    """Score a summary against the episode's gold summaries."""
    if not episode.gold_summaries:
        raise DataError(f"episode {episode.id} has no gold summaries")
    out = config.out_dir / episode.id
    out.mkdir(parents=True, exist_ok=True)
    report = prefs_multi_reference(
        summary, episode.gold_summaries, config.backends, config.max_workers
    )
    be.write_atomic(out / "prefs.json", _dumps(report.to_dict()))
    return report
