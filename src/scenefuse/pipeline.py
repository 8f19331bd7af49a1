"""End-to-end episode processing.

STAGES declares each stage once, in pipeline order: segment, align (the
alignment, then the per-scene time spans), caption, summarize, reorder,
fuse-input, fuse; each entry holds the stage's file, compute and JSON
format. A Run gives each stage's value once, on first use, and a compute
reads the values it needs from the run. The CLI views only compute.

run_pipeline also persists: it reuses a stage file that loads into a
value of this run and computes and writes any other, so a deleted, cut
or corrupt file re-executes exactly its stage. Before its first compute
it checks that every stage file can be written, and it writes each
through a temp file and os.replace, so a crash leaves the old file or
none. A path that cannot be read or written is a ConfigError. Ablation
flags drop a stage and its content from the fusion input.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from . import backends as be
from .alignment import Alignment, TimeSpan, dtw_align, scene_time_spans
from .captions import GenderLexicon, SceneCaption, load_lexicon, postprocess_captions
from .errors import (
    BudgetTooSmall,
    ConfigError,
    DataError,
    EmptyCompletion,
    ScenefuseError,
    make_dir,
)
from .model import Episode, Partition, Scene, Transcript
from .prefs import PrefsReport, prefs_multi_reference, split_sentences
from .reordering import SceneOrder, order_cost, reorder
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
        context_budget=be.config_number(raw, "context_budget", PipelineConfig.context_budget, int),
        skip_reorder=_flag(raw, "skip_reorder"),
        skip_vision=_flag(raw, "skip_vision"),
        skip_transcript=_flag(raw, "skip_transcript"),
        uniform_chunks=_flag(raw, "uniform_chunks"),
        max_workers=be.config_number(raw, "max_workers", PipelineConfig.max_workers, int),
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

    Every separator is whitespace, so no token spans two parts and the
    text's token count is the sum of its parts' counts: each part is
    counted once, a cut subtracts its count, and the text is rendered
    once.
    """
    if budget <= 0:
        raise ConfigError(f"budget must be > 0, got {budget}")
    blocks = []  # (captions, summary sentences) of each non-empty scene, as (tokens, text)
    for idx in order.permutation:
        captions = scene_captions[idx] if idx < len(scene_captions) else []
        summary = scene_summaries[idx] if idx < len(scene_summaries) else None
        sentences = split_sentences(summary) if summary else []
        if captions or sentences:
            blocks.append(
                ([(_tokens(c), c) for c in captions], [(_tokens(s), s) for s in sentences])
            )
    total = sum(n for captions, sentences in blocks for n, _ in captions + sentences)

    # captions go first, last reordered scene first, while any summary
    # text exists to carry the episode
    if any(sentences for _, sentences in blocks):
        for captions, _ in reversed(blocks):
            if total <= budget:
                break
            total -= sum(n for n, _ in captions)
            captions.clear()

    # then trailing sentences, never the first block's
    for captions, sentences in reversed(blocks[1:]):
        for parts in (sentences, captions):
            while parts and total > budget:
                total -= parts.pop()[0]
    if total > budget:
        raise BudgetTooSmall(f"first scene block needs {total} tokens, budget {budget}")

    rendered = (
        [c for _, c in captions] + ([" ".join([s for _, s in sentences])] if sentences else [])
        for captions, sentences in blocks
        if captions or sentences
    )
    return "\n\n".join(["\n".join(parts) for parts in rendered])


def _segment(run: Run) -> Partition:
    """Token windows under uniform_chunks, else the markers or the MDL optimum."""
    transcript = run.episode.transcript
    if run.config.uniform_chunks:
        return partition_from_breaks(transcript, uniform_chunk_breaks(transcript))
    return effective_partition(transcript)


def _align(run: Run) -> Alignment:
    episode = run.episode
    if episode.captions is None:
        raise DataError(f"episode {episode.id} has no caption track")
    lines = [ln.text for ln in episode.transcript.lines]
    return dtw_align(lines, [cue.text for cue in episode.captions.cues])


def _spans(run: Run) -> list[TimeSpan]:
    return scene_time_spans(run["segment"], run["align"], run.episode.captions)


def _caption(run: Run) -> list[SceneCaption]:
    """Each scene's precomputed visual caption, cleaned against its roster."""
    pre = run.episode.precomputed_captions or ()
    lexicon = run.config.lexicon
    return [
        SceneCaption(i, tuple(postprocess_captions(pre[i:i + 1], scene.roster, lexicon)))
        for i, scene in enumerate(run["segment"].scenes)
    ]


def _summarize(run: Run) -> list[str]:
    lines = run.episode.transcript.lines
    scenes = run["segment"].scenes

    def one(scene: Scene) -> str:
        dialogue = [(ln.speaker, ln.text) for ln in lines[scene.start:scene.end]]
        return be.summarize_scene(dialogue, run.config.backends)

    with ThreadPoolExecutor(max_workers=max(1, min(run.config.max_workers, len(scenes)))) as pool:
        return list(pool.map(one, scenes))


def _reorder(run: Run) -> SceneOrder:
    rosters = [scene.roster for scene in run["segment"].scenes]
    if run.config.skip_reorder:
        return SceneOrder(tuple(range(len(rosters))), order_cost(rosters))
    return reorder(rosters)


def _fuse_input(run: Run) -> str:
    captions = [c.sentences for c in run.get("caption", [])]
    return assemble_fusion_input(
        run.get("summarize", []), captions, run["reorder"], run.config.context_budget
    )


def _fuse(run: Run) -> str:
    summary = run.config.backends.complete(be.FUSION_SUMMARIZER, notes=run["fuse-input"]).strip()
    if not summary:
        raise EmptyCompletion("fusion summarizer returned a blank completion")
    return summary


_INDEX, _TEXT, _COST = {int}, {str}, {int, float}


def _typed(kinds: set, values):
    """values, if the type of each is in kinds; true and false are bools, not ints."""
    if not set(map(type, values)) <= kinds:
        raise TypeError(f"a value is not of {kinds}")
    return values


def _array(value) -> list:
    """value, if it is a JSON array; a string or an object iterates as characters or keys."""
    if type(value) is not list:
        raise TypeError("not a JSON array")
    return value


def _per_scene(run: Run, tree) -> list:
    if len(_array(tree)) != len(run["segment"].scenes):
        raise ValueError("not one entry per scene")
    return tree


def _dump_partition(run: Run, p: Partition) -> dict:
    scenes = [
        {"start": s.start, "end": s.end, "roster": sorted(s.roster), "cost_bits": s.cost_bits}
        for s in p.scenes
    ]
    return {"breaks": list(p.breaks), "scenes": scenes, "total_cost_bits": p.total_cost}


def _load_partition(run: Run, tree) -> Partition:
    scenes = tuple(
        Scene(s["start"], s["end"], frozenset(_array(s["roster"])), s["cost_bits"])
        for s in _array(tree["scenes"])
    )
    partition = Partition(scenes, tree["total_cost_bits"])  # "breaks" follow from the scenes
    _typed(_INDEX, [i for s in scenes for i in (s.start, s.end)])
    _typed(_TEXT, [name for s in scenes for name in s.roster])
    _typed(_COST, [partition.total_cost, *(s.cost_bits for s in scenes)])
    # each scene starts where the previous one ends; the ends rise strictly to the line count
    bounds = [0, *(s.end for s in scenes)]
    rising = bounds == sorted(set(bounds)) and bounds[-1] == len(run.episode.transcript.lines)
    if not rising or [s.start for s in scenes] != bounds[:-1]:
        raise ValueError("scenes do not tile the transcript")
    return partition


def _dump_alignment(run: Run, alignment: Alignment) -> dict:
    return {"path": [list(pair) for pair in alignment.pairs], "total_cost": alignment.total_cost}


def _load_alignment(run: Run, tree) -> Alignment:
    pairs = tuple((line, cue) for line, cue in _array(tree["path"]))
    alignment = Alignment(pairs, tree["total_cost"])
    _typed(_INDEX, [i for pair in pairs for i in pair])
    _typed(_COST, [alignment.total_cost])
    end = (len(run.episode.transcript.lines) - 1, len(run.episode.captions.cues) - 1)
    steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(pairs, pairs[1:])}
    if pairs[:1] != ((0, 0),) or pairs[-1:] != (end,) or not steps <= {(1, 0), (0, 1), (1, 1)}:
        raise ValueError("not a warping path from the first line and cue to the last")
    return alignment


def _dump_spans(run: Run, spans: list[TimeSpan]) -> list[dict]:
    return [{"scene": i, "start_ms": s.start, "end_ms": s.end} for i, s in enumerate(spans)]


def _load_spans(run: Run, tree) -> list[TimeSpan]:
    spans = [TimeSpan(d["start_ms"], d["end_ms"]) for d in _per_scene(run, tree)]
    _typed(_INDEX, [ms for s in spans for ms in (s.start, s.end)])
    return spans


def _dump_captions(run: Run, captions: list[SceneCaption]) -> list[dict]:
    return [{"scene_index": c.scene_index, "sentences": list(c.sentences)} for c in captions]


def _load_captions(run: Run, tree) -> list[SceneCaption]:
    rows = _per_scene(run, tree)
    captions = [SceneCaption(row["scene_index"], tuple(_array(row["sentences"]))) for row in rows]
    _typed(_INDEX, [c.scene_index for c in captions])
    _typed(_TEXT, [s for c in captions for s in c.sentences])
    return captions


def _dump_summaries(run: Run, summaries: list[str]) -> list[str]:
    return list(summaries)


def _load_summaries(run: Run, tree) -> list[str]:
    return _typed(_TEXT, _per_scene(run, tree))


def _dump_order(run: Run, order: SceneOrder) -> dict:
    rosters = [scene.roster for scene in run["segment"].scenes]
    return {
        "permutation": list(order.permutation),
        "reordered_cost": order.cost,
        "original_cost": order_cost(rosters),
    }


def _load_order(run: Run, tree) -> SceneOrder:
    order = SceneOrder(tuple(_array(tree["permutation"])), tree["reordered_cost"])
    _typed(_COST, [order.cost])
    if sorted(_typed(_INDEX, order.permutation)) != list(range(len(run["segment"].scenes))):
        raise ValueError("not a permutation of the scenes")
    return order


def dumps(obj) -> str:
    """The one JSON layout: of every stage file, of prefs.json and of CLI stdout."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1) + "\n"


class Stage(NamedTuple):
    """One stage file: the stage's name in errors, the file, compute and format.

    dump gives a value's JSON tree. load gives the tree's value, and
    raises ValueError, KeyError, TypeError or IndexError on a tree that
    is not a value of the run: of other JSON types, without one entry
    per scene, or not a permutation of the scenes. A text stage has
    neither; its file is the text and a closing newline.
    """

    name: str
    file: str
    compute: Callable[[Run], Any]
    dump: Callable[[Run, Any], Any] | None = None
    load: Callable[[Run, Any], Any] | None = None

    def encode(self, run: Run, value) -> str:
        return value + "\n" if self.dump is None else dumps(self.dump(run, value))

    def decode(self, run: Run | None, text: str):
        if self.load is not None:
            return self.load(run, json.loads(text))
        if not text.endswith("\n"):  # cut short
            raise ValueError("text artifact lacks its closing newline")
        return text[:-1]


# one entry per stage file, in pipeline order
STAGES = {
    "segment": Stage("segment", "partition.json", _segment, _dump_partition, _load_partition),
    "align": Stage("align", "alignment.json", _align, _dump_alignment, _load_alignment),
    "spans": Stage("align", "spans.json", _spans, _dump_spans, _load_spans),
    "caption": Stage("caption", "captions.json", _caption, _dump_captions, _load_captions),
    "summarize": Stage(
        "summarize", "summaries.json", _summarize, _dump_summaries, _load_summaries
    ),
    "reorder": Stage("reorder", "order.json", _reorder, _dump_order, _load_order),
    "fuse-input": Stage("fuse-input", "fusion_input.txt", _fuse_input),
    "fuse": Stage("fuse", "summary.txt", _fuse),
}


def _temp_path(path: Path) -> Path:
    return path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")


def check_writable(*paths: Path) -> None:
    """Raise now the ConfigError that write_atomic would raise for any of paths.

    The paths share one directory: none may be a directory, and one temp
    file beside the first tests the directory for all, since creating a
    file can take half a millisecond. Every path is left as it is, so a
    command fails before its first request instead of after them all.
    """
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: Is a directory")
    tmp = _temp_path(paths[0])
    try:
        tmp.touch()
        tmp.unlink()
    except OSError as exc:
        raise ConfigError(f"cannot write {paths[0]}: {exc.strerror or exc}") from exc


def write_atomic(path: Path, text: str) -> None:
    """Write text through a per-thread temp file and os.replace.

    A reader sees the old file or the whole new one, never a partial
    write. A path that cannot be written is a ConfigError, and the temp
    file is removed.
    """
    tmp = _temp_path(path)
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


class Run:
    """Each stage's value for one episode and config, made once on first use.

    run[key] is the value of STAGES[key]. stages holds the keys of the
    stages that run_pipeline makes, and get gives a default for the
    others. With out, a stage file there that loads is the value, and
    any other value is computed and written there.
    """

    def __init__(self, episode: Episode, config: PipelineConfig, out: Path | None = None):
        self.episode, self.config, self.out = episode, config, out
        uncaptioned = episode.captions is None
        skipped = {"align": uncaptioned, "spans": uncaptioned,
                   "caption": config.skip_vision, "summarize": config.skip_transcript}
        self.stages = [key for key in STAGES if not skipped.get(key)]
        self._values: dict[str, Any] = {}
        self._unchecked = True

    def __getitem__(self, key: str):
        if key not in self._values:
            self._values[key] = self._make(STAGES[key])
        return self._values[key]

    def get(self, key: str, default=None):
        return self[key] if key in self.stages else default

    def dump(self, key: str):
        return STAGES[key].dump(self, self[key])

    def _make(self, stage: Stage):
        path = self.out and self.out / stage.file
        if path:
            try:
                return stage.decode(self, path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                pass  # not computed yet
            except OSError as exc:
                raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
            except (ValueError, KeyError, TypeError, IndexError):
                pass  # corrupt, or not this run's: recompute and overwrite it
            if self._unchecked:  # fail before the first request, not after the last
                self._unchecked = False
                check_writable(*(self.out / STAGES[key].file for key in self.stages))
        try:
            value = stage.compute(self)
        except ScenefuseError as exc:
            if not hasattr(exc, "stage"):  # not named yet by a stage this one read
                exc.stage = stage.name
                exc.args = (f"stage {stage.name}: {exc}",)
            raise
        if path:
            write_atomic(path, stage.encode(self, value))
        return value


def read_summary(episode: Episode, config: PipelineConfig) -> str:
    """The summary a run persisted, decoded by the fuse stage."""
    stage = STAGES["fuse"]
    path = config.out_dir / episode.id / stage.file
    if not path.is_file():
        raise DataError(
            f"no summary to evaluate: pass --summary-file or run summarize first "
            f"(looked for {path})"
        )
    try:
        return stage.decode(None, path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path} is cut short or unreadable ({exc}); rerun summarize") from exc


def run_pipeline(episode: Episode, config: PipelineConfig) -> EpisodeArtifacts:
    """Make every stage for one episode, in order, reusing persisted files."""
    out = config.out_dir / episode.id
    make_dir(out, "--out directory")
    run = Run(episode, config, out)
    return EpisodeArtifacts(
        partition=run["segment"],
        alignment=run.get("align"),
        time_spans=run.get("spans"),
        scene_captions=run.get("caption", []),
        scene_summaries=run.get("summarize", []),
        order=run["reorder"],
        fusion_input=run["fuse-input"],
        final_summary=run["fuse"],
        out_dir=out,
    )


def run_eval(episode: Episode, summary: str, config: PipelineConfig) -> PrefsReport:
    """Score a summary against the episode's gold summaries."""
    if not episode.gold_summaries:
        raise DataError(f"episode {episode.id} has no gold summaries")
    out = config.out_dir / episode.id
    make_dir(out, "--out directory")
    check_writable(out / "prefs.json")
    report = prefs_multi_reference(
        summary, episode.gold_summaries, config.backends, config.max_workers
    )
    write_atomic(out / "prefs.json", dumps(report.to_dict()))
    return report
