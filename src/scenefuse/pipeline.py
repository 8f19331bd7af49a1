"""End-to-end episode processing.

STAGES declares each stage once, in pipeline order: segment, align (the
alignment, then the per-scene time spans), caption, summarize, reorder,
fuse-input, fuse, and prefs (the PREFS report); each entry holds the
stage's file, compute, reads and JSON format. A Run gives each stage's
value once, on first use, and a compute reads the values it needs from
the run. The CLI views only compute. summarize sends one request per
scene through backends.fan_out, at most max_workers at a time.

run_pipeline (every stage but prefs) and run_eval (prefs) persist by one
rule: a stage file is reused only if its sha256 and its input key (of
all the stage reads) match its entry in stages.json, so a changed file
or input re-executes exactly the stages that read it, and run_eval
computes no other stage. A run first checks that every file it may
compute can be written. Each stage file is written through a temp file
and os.replace, so a crash leaves the old file or none, and stages.json
once at the end, after a failed stage too. A path that cannot be read or
written is a ConfigError. Ablation flags drop a stage and its content.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Collection, NamedTuple, Sequence

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
from .prefs import FactCounts, PrefsReport, prefs_multi_reference, split_sentences
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


# the top-level config keys that config_from_dict reads beside be.SETTINGS,
# each named after the PipelineConfig field it sets (lexicon: the file)
SETTINGS = {
    "context_budget": be.Setting(int, PipelineConfig.context_budget),
    "skip_reorder": be.Setting(bool, False),
    "skip_vision": be.Setting(bool, False),
    "skip_transcript": be.Setting(bool, False),
    "uniform_chunks": be.Setting(bool, False),
    "max_workers": be.Setting(int, PipelineConfig.max_workers),
    "lexicon": be.Setting(Path),
}


def config_from_dict(
    raw: dict, base_dir: str | Path, out_dir: str | Path, mock: bool = False
) -> PipelineConfig:
    """Build a PipelineConfig from a parsed JSON config tree of SETTINGS and be.SETTINGS."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    base = Path(base_dir)
    settings = be.read_settings(
        {key: value for key, value in raw.items() if key not in be.SETTINGS}, SETTINGS, base
    )
    backends = be.build_backends(
        {key: value for key, value in raw.items() if key in be.SETTINGS}, mock=mock, base_dir=base
    )
    settings["lexicon"] = load_lexicon(settings["lexicon"])
    return PipelineConfig(backends=backends, out_dir=Path(out_dir), **settings)


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

    return be.fan_out(one, scenes, run.config.max_workers)


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


def _prefs(run: Run) -> PrefsReport:
    gold, config = run.episode.gold_summaries, run.config
    return prefs_multi_reference(run["fuse"], gold, config.backends, config.max_workers)


def _dump_partition(run: Run, p: Partition) -> dict:
    scenes = [
        {"start": s.start, "end": s.end, "roster": sorted(s.roster), "cost_bits": s.cost_bits}
        for s in p.scenes
    ]
    return {"breaks": list(p.breaks), "scenes": scenes, "total_cost_bits": p.total_cost}


def _load_partition(tree) -> Partition:
    scenes = tuple(
        Scene(s["start"], s["end"], frozenset(s["roster"]), s["cost_bits"]) for s in tree["scenes"]
    )
    return Partition(scenes, tree["total_cost_bits"])  # "breaks" follow from the scenes


def _dump_alignment(run: Run, alignment: Alignment) -> dict:
    return {"path": [list(pair) for pair in alignment.pairs], "total_cost": alignment.total_cost}


def _load_alignment(tree) -> Alignment:
    return Alignment(tuple((line, cue) for line, cue in tree["path"]), tree["total_cost"])


def _dump_spans(run: Run, spans: list[TimeSpan]) -> list[dict]:
    return [{"scene": i, "start_ms": s.start, "end_ms": s.end} for i, s in enumerate(spans)]


def _load_spans(tree) -> list[TimeSpan]:
    return [TimeSpan(d["start_ms"], d["end_ms"]) for d in tree]


def _dump_captions(run: Run, captions: list[SceneCaption]) -> list[dict]:
    return [{"scene_index": c.scene_index, "sentences": list(c.sentences)} for c in captions]


def _load_captions(tree) -> list[SceneCaption]:
    return [SceneCaption(row["scene_index"], tuple(row["sentences"])) for row in tree]


def _dump_summaries(run: Run, summaries: list[str]) -> list[str]:
    return list(summaries)


def _dump_order(run: Run, order: SceneOrder) -> dict:
    rosters = [scene.roster for scene in run["segment"].scenes]
    return {
        "permutation": list(order.permutation),
        "reordered_cost": order.cost,
        "original_cost": order_cost(rosters),
    }


def _load_order(tree) -> SceneOrder:
    return SceneOrder(tuple(tree["permutation"]), tree["reordered_cost"])


def _dump_prefs(run: Run, report: PrefsReport) -> dict:
    return report.to_dict()


def _load_prefs(tree) -> PrefsReport:
    recall = tuple(FactCounts(**counts) for counts in tree["recall_counts"])
    return PrefsReport(tree["fact_precision"], tree["fact_recall"], tree["prefs"],
                       FactCounts(**tree["precision_counts"]), recall,
                       tuple(tree["recall_per_reference"]))


def dumps(obj) -> str:
    """The one JSON layout: of every stage file, prefs.json included, and of CLI stdout."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1) + "\n"


class Stage(NamedTuple):
    """One stage file: the stage's name in errors, the file, compute, reads and format.

    reads names all that compute reads: upstream stages (STAGES keys),
    episode parts (transcript, cues, visual_captions, gold), the lexicon,
    PipelineConfig fields and backend roles (as be.role_identity). The
    input key hashes them and version, which goes up with any change to
    what the stage makes from the same reads, so load only decodes bytes
    this code wrote for these inputs. dump gives a value's JSON tree and
    load the tree's value; a text stage has neither, and its file is the
    text and a newline.
    """

    name: str
    file: str
    compute: Callable[[Run], Any]
    reads: tuple[str, ...]
    dump: Callable[[Run, Any], Any] | None = None
    load: Callable[[Any], Any] | None = None
    version: int = 1

    def encode(self, run: Run, value) -> bytes:
        text = value + "\n" if self.dump is None else dumps(self.dump(run, value))
        return text.encode("utf-8")

    def decode(self, data: bytes):
        text = data.decode("utf-8")
        return text[:-1] if self.load is None else self.load(json.loads(text))


# one entry per stage file, in pipeline order
STAGES = {
    "segment": Stage("segment", "partition.json", _segment, ("transcript", "uniform_chunks"),
                     _dump_partition, _load_partition),
    "align": Stage("align", "alignment.json", _align, ("transcript", "cues"),
                   _dump_alignment, _load_alignment),
    "spans": Stage("align", "spans.json", _spans, ("segment", "align", "cues"),
                   _dump_spans, _load_spans),
    "caption": Stage("caption", "captions.json", _caption,
                     ("segment", "visual_captions", "lexicon"), _dump_captions, _load_captions),
    "summarize": Stage("summarize", "summaries.json", _summarize,
                       ("segment", "transcript", be.DIALOGUE_SUMMARIZER), _dump_summaries, list),
    "reorder": Stage("reorder", "order.json", _reorder, ("segment", "skip_reorder"),
                     _dump_order, _load_order),
    "fuse-input": Stage("fuse-input", "fusion_input.txt", _fuse_input,
                        ("caption", "summarize", "reorder", "context_budget")),
    "fuse": Stage("fuse", "summary.txt", _fuse, ("fuse-input", be.FUSION_SUMMARIZER)),
    "prefs": Stage("prefs", "prefs.json", _prefs,
                   ("fuse", "gold", be.FACT_EXTRACTOR, be.FACT_JUDGE), _dump_prefs, _load_prefs),
}

RECORD = "stages.json"  # beside the stage files: each one's input key and sha256


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _input(run: Run, read: str) -> str:
    """The text to hash for a read that is not a stage of this run; no field holds a newline."""
    if read in STAGES:
        return "skipped"
    if read in be.ROLES:
        return be.role_identity(run.config.backends.runtime(read))
    if read == "transcript":  # 2m + 1 parts for m lines; a JSON encoding costs more
        lines = run.episode.transcript.lines
        parts = [ln.speaker for ln in lines] + [ln.text for ln in lines]
        return "\n".join([repr(run.episode.transcript.explicit_breaks), *parts])
    if read == "cues":
        return "\n".join(f"{c.start} {c.end} {c.text}" for c in run.episode.captions.cues)
    if read == "visual_captions":
        return json.dumps(run.episode.precomputed_captions)
    if read == "gold":
        return json.dumps(run.episode.gold_summaries)
    if read == "lexicon":  # sets of names, so in sorted order
        male, female = sorted(run.config.lexicon.male), sorted(run.config.lexicon.female)
        return "\n".join([str(len(male)), *male, *female])
    return repr(getattr(run.config, read))


def _read(path: Path) -> bytes | None:
    """The bytes of path, None if there is no such file (a directory is not one)."""
    try:
        return path.read_bytes()
    except (FileNotFoundError, IsADirectoryError):
        return None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_record(out: Path) -> dict:
    """stages.json under out; missing, unreadable or not an object, it records nothing."""
    try:
        tree = json.loads((out / RECORD).read_bytes())
    except (OSError, ValueError):
        return {}
    return tree if type(tree) is dict else {}


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


def write_atomic(path: Path, data: bytes) -> None:
    """Write data through a per-thread temp file and os.replace.

    A reader sees the old file or the whole new one, never a partial
    write. A path that cannot be written is a ConfigError, and the temp
    file is removed.
    """
    tmp = _temp_path(path)
    try:
        tmp.write_bytes(data)
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
    stages this config makes, and get gives a default for the others.
    With out, a stage file there is the value if its sha256 and input key
    are those stages.json records; else a stage in computes is computed
    and written there, and save records it, and any other is a DataError.
    """

    def __init__(self, episode: Episode, config: PipelineConfig, out: Path | None = None,
                 computes: Collection[str] = STAGES):
        self.episode, self.config, self.out, self.computes = episode, config, out, computes
        uncaptioned = episode.captions is None
        skipped = {"align": uncaptioned, "spans": uncaptioned,
                   "caption": config.skip_vision, "summarize": config.skip_transcript}
        self.stages = [key for key in STAGES if not skipped.get(key)]
        self._values: dict[str, Any] = {}
        self._digests: dict[str, str] = {}  # read -> sha256; a stage's is its file's
        self._record = _read_record(out) if out else {}
        self._computed = False

    def __getitem__(self, key: str):
        if key not in self._values:
            self._values[key] = self._make(key)
        return self._values[key]

    def get(self, key: str, default=None):
        return self[key] if key in self.stages else default

    def dump(self, key: str):
        return STAGES[key].dump(self, self[key])

    def _digest(self, read: str) -> str:
        """sha256 of what a stage reads under this name, made at most once."""
        if read in self.stages:
            self[read]  # making it records its file's sha256
        elif read not in self._digests:
            self._digests[read] = _sha256(_input(self, read).encode("utf-8"))
        return self._digests[read]

    def _make(self, key: str):
        stage = STAGES[key]
        if self.out:
            parts = [stage.file, str(stage.version), *map(self._digest, stage.reads)]
            input_key = _sha256(" ".join(parts).encode("utf-8"))
            data = _read(self.out / stage.file)
            if data is not None:
                self._digests[key] = digest = _sha256(data)
                if self._record.get(stage.file) == {"key": input_key, "sha256": digest}:
                    return stage.decode(data)
            if key not in self.computes:
                raise DataError(f"{self.out / stage.file} is missing or stale; rerun summarize")
            if not self._computed:  # fail before the first request, not after the last
                files = [STAGES[k].file for k in self.stages if k in self.computes] + [RECORD]
                check_writable(*(self.out / file for file in files))
        try:
            value = stage.compute(self)
        except ScenefuseError as exc:
            if not hasattr(exc, "stage"):  # not named yet by a stage this one read
                exc.stage = stage.name
                exc.args = (f"stage {stage.name}: {exc}",)
            raise
        if self.out:
            data = stage.encode(self, value)
            write_atomic(self.out / stage.file, data)
            self._digests[key] = digest = _sha256(data)
            self._record[stage.file] = {"key": input_key, "sha256": digest}
            self._computed = True
        return value

    def save(self) -> None:
        """Write stages.json, if this run computed a stage."""
        if self._computed:
            write_atomic(self.out / RECORD, dumps(self._record).encode("utf-8"))


def run_pipeline(episode: Episode, config: PipelineConfig) -> EpisodeArtifacts:
    """Make every stage but prefs for one episode, in order, reusing persisted files."""
    out = config.out_dir / episode.id
    make_dir(out, "--out directory")
    run = Run(episode, config, out, computes=STAGES.keys() - {"prefs"})
    try:
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
    finally:  # a failed run records the stages it made
        run.save()


def run_eval(episode: Episode, summary: str | None, config: PipelineConfig) -> PrefsReport:
    """The prefs stage, summary its fuse value: the persisted one (never computed) if None."""
    if not episode.gold_summaries:
        raise DataError(f"episode {episode.id} has no gold summaries")
    out, fuse = config.out_dir / episode.id, STAGES["fuse"]
    if summary is None and not (out / fuse.file).exists():
        raise DataError(f"no {out / fuse.file}: pass --summary-file or run summarize first")
    make_dir(out, "--out directory")
    run = Run(episode, config, out, computes={"prefs"})
    if summary is not None:  # with the digest of a summary.txt that holds it
        run._values["fuse"], run._digests["fuse"] = summary, _sha256(fuse.encode(run, summary))
    try:
        return run["prefs"]
    finally:
        run.save()
