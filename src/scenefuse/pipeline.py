"""End-to-end episode processing.

Stage order: segment, align, caption, scene-summarize, reorder, fuse.
Each stage is one compute_* function of the episode or partition and
the config; the CLI views call the same functions. Every stage's output
is persisted under the output directory before the next stage runs, as
JSON in the format its domain type's to_dict/from_dict define, or as
text. A rerun loads whatever already exists, so deleting one artifact
re-executes exactly that stage. An artifact that does not decode
(truncated, not JSON, missing fields) is recomputed the same way.
Artifacts are written through a temp file and os.replace, so a crash
leaves the old file or none, never half of one. Ablation flags drop a
stage and its content from the fusion input.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import backends as be
from .alignment import Alignment, TimeSpan, dtw_align, scene_time_spans, spans_to_dicts
from .captions import GenderLexicon, SceneCaption, load_lexicon, postprocess_captions
from .errors import BudgetTooSmall, ConfigError, DataError, ScenefuseError
from .model import Episode, Partition, Scene, Transcript
from .prefs import PrefsReport, prefs_multi_reference, split_sentences
from .reordering import SceneOrder, order_cost, order_to_dict, reorder
from .segmentation import effective_partition, partition_from_breaks

UNIFORM_CHUNK_TOKENS = 1024


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
        if self.max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {self.max_workers}")


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


def _flag(raw: dict, key: str) -> bool:
    """A JSON true/false config value, False when absent; anything else is a ConfigError."""
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
    return value


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
    lexicon_path = be.config_path(raw, "lexicon", base)
    return PipelineConfig(
        backends=be.build_backends(raw, mock=mock, base_dir=base),
        out_dir=Path(out_dir),
        context_budget=be.config_number(raw, "context_budget", 4096, int),
        skip_reorder=_flag(raw, "skip_reorder"),
        skip_vision=_flag(raw, "skip_vision"),
        skip_transcript=_flag(raw, "skip_transcript"),
        uniform_chunks=_flag(raw, "uniform_chunks"),
        max_workers=be.config_number(raw, "max_workers", 4, int),
        lexicon=load_lexicon(lexicon_path),
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


def compute_partition(episode: Episode, config: PipelineConfig) -> Partition:
    """Token windows under uniform_chunks, else the markers or the MDL optimum."""
    transcript = episode.transcript
    if config.uniform_chunks:
        return partition_from_breaks(transcript, uniform_chunk_breaks(transcript))
    return effective_partition(transcript)


def compute_alignment(episode: Episode) -> Alignment:
    if episode.captions is None:
        raise DataError(f"episode {episode.id} has no caption track")
    return dtw_align(
        [ln.text for ln in episode.transcript.lines],
        [cue.text for cue in episode.captions.cues],
    )


def compute_spans(episode: Episode, partition: Partition, alignment: Alignment) -> list[TimeSpan]:
    return scene_time_spans(partition, alignment, episode.captions)


def compute_captions(
    episode: Episode, partition: Partition, config: PipelineConfig
) -> list[SceneCaption]:
    """Each scene's precomputed visual caption, cleaned against its roster."""
    pre = episode.precomputed_captions or ()
    captions: list[SceneCaption] = []
    for i, scene in enumerate(partition.scenes):
        cleaned = postprocess_captions(pre[i:i + 1], scene.roster, config.lexicon)
        captions.append(SceneCaption(i, tuple(cleaned)))
    return captions


def compute_summaries(
    episode: Episode, partition: Partition, config: PipelineConfig
) -> list[str]:
    lines = episode.transcript.lines

    def one(scene: Scene) -> str:
        dialogue = [(ln.speaker, ln.text) for ln in lines[scene.start:scene.end]]
        return be.summarize_scene(dialogue, config.backends)

    workers = max(1, min(config.max_workers, len(partition.scenes)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, partition.scenes))


def compute_order(partition: Partition, config: PipelineConfig) -> SceneOrder:
    rosters = [scene.roster for scene in partition.scenes]
    if config.skip_reorder:
        return SceneOrder(tuple(range(len(rosters))), order_cost(rosters))
    return reorder(rosters)


def compute_final_summary(fusion_input: str, config: PipelineConfig) -> str:
    return config.backends.complete(be.FUSION_SUMMARIZER, notes=fusion_input).strip()


class Codec(NamedTuple):
    """A JSON artifact's format: value to JSON tree, and back."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def _each(convert: Callable[[Any], Any], items: Iterable) -> list:
    return [convert(item) for item in items]


_PARTITION = Codec(Partition.to_dict, Partition.from_dict)
_ALIGNMENT = Codec(Alignment.to_dict, Alignment.from_dict)
_SPANS = Codec(spans_to_dicts, partial(_each, TimeSpan.from_dict))
_CAPTIONS = Codec(partial(_each, SceneCaption.to_dict), partial(_each, SceneCaption.from_dict))
_SUMMARIES = Codec(list, list)
_TEXT = None  # a text artifact is its text plus one closing newline


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1) + "\n"


def _decode(text: str, codec: Codec | None):
    if codec is not None:
        return codec.decode(json.loads(text))
    # a text artifact without its closing newline was cut short
    if not text.endswith("\n"):
        raise ValueError("text artifact lacks its closing newline")
    return text[:-1]


def _stage(path: Path, name: str, codec: Codec | None, compute: Callable, *args):
    """compute(*args), persisted at path; a file there that decodes wins."""
    if path.exists():
        try:
            return _decode(path.read_text(encoding="utf-8"), codec)
        except (ValueError, KeyError, TypeError, IndexError):
            pass  # corrupt or truncated: recompute and overwrite it
    try:
        value = compute(*args)
    except ScenefuseError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc
    be.write_atomic(path, value + "\n" if codec is None else _dumps(codec.encode(value)))
    return value


def read_summary(episode: Episode, config: PipelineConfig) -> str:
    """The summary a run persisted, decoded as the fuse stage decodes it."""
    path = config.out_dir / episode.id / "summary.txt"
    if not path.is_file():
        raise DataError(
            f"no summary to evaluate: pass --summary-file or run summarize first "
            f"(looked for {path})"
        )
    try:
        return _decode(path.read_text(encoding="utf-8"), _TEXT)
    except ValueError as exc:
        raise DataError(f"{path} is cut short or unreadable ({exc}); rerun summarize") from exc


def run_pipeline(episode: Episode, config: PipelineConfig) -> EpisodeArtifacts:
    """Execute all stages for one episode, reusing persisted artifacts."""
    out = config.out_dir / episode.id
    out.mkdir(parents=True, exist_ok=True)

    partition = _stage(
        out / "partition.json", "segment", _PARTITION, compute_partition, episode, config
    )

    alignment = None
    time_spans = None
    if episode.captions is not None:
        alignment = _stage(
            out / "alignment.json", "align", _ALIGNMENT, compute_alignment, episode
        )
        time_spans = _stage(
            out / "spans.json", "align", _SPANS,
            compute_spans, episode, partition, alignment,
        )

    scene_captions: list[SceneCaption] = []
    if not config.skip_vision:
        scene_captions = _stage(
            out / "captions.json", "caption", _CAPTIONS,
            compute_captions, episode, partition, config,
        )

    scene_summaries: list[str] = []
    if not config.skip_transcript:
        scene_summaries = _stage(
            out / "summaries.json", "summarize", _SUMMARIES,
            compute_summaries, episode, partition, config,
        )

    rosters = [scene.roster for scene in partition.scenes]
    order = _stage(
        out / "order.json", "reorder",
        Codec(partial(order_to_dict, rosters), SceneOrder.from_dict),
        compute_order, partition, config,
    )

    fusion_input = _stage(
        out / "fusion_input.txt", "fuse-input", _TEXT, assemble_fusion_input,
        scene_summaries, [c.sentences for c in scene_captions], order,
        config.context_budget,
    )

    final_summary = _stage(
        out / "summary.txt", "fuse", _TEXT, compute_final_summary, fusion_input, config
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
