"""Domain types for transcripts, captions, scenes, and episodes.

Parsers are deliberately tolerant: fan transcripts are messy, so lines
that do not parse are skipped with a counted warning rather than raised
as errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, EmptyTranscript, NoCues, RangeOutOfBounds, read_json, read_text

SCENE_BREAK_TOKEN = "[SCENE_BREAK]"

_DIALOGUE_RE = re.compile(r"^([^:]+):(.*)$")
_SRT_TIME_RE = re.compile(
    r"^(\d+):(\d{1,2}):(\d{1,2})[,.](\d{1,3})\s*-->\s*"
    r"(\d+):(\d{1,2}):(\d{1,2})[,.](\d{1,3})\s*$"
)


def normalize_speaker(raw: str) -> str:
    """Trim, collapse internal whitespace, drop a trailing colon."""
    name = re.sub(r"\s+", " ", raw.strip())
    return name[:-1].rstrip() if name.endswith(":") else name


@dataclass(frozen=True)
class TranscriptLine:
    index: int
    speaker: str
    text: str


@dataclass(frozen=True)
class Transcript:
    lines: tuple[TranscriptLine, ...]
    explicit_breaks: tuple[int, ...] = ()
    # warnings counts skipped input lines; irrelevant to value equality
    warnings: int = field(default=0, compare=False)

    @property
    def roster(self) -> frozenset[str]:
        return frozenset(ln.speaker for ln in self.lines)

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class CaptionCue:
    start: int
    end: int
    text: str


@dataclass(frozen=True)
class CaptionTrack:
    cues: tuple[CaptionCue, ...]
    warnings: int = field(default=0, compare=False)

    def __len__(self) -> int:
        return len(self.cues)


@dataclass(frozen=True)
class Scene:
    start: int
    end: int
    roster: frozenset[str]
    cost_bits: float

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def n_speakers(self) -> int:
        return len(self.roster)


@dataclass(frozen=True)
class Partition:
    scenes: tuple[Scene, ...]
    total_cost: float

    @property
    def breaks(self) -> tuple[int, ...]:
        return tuple(s.start for s in self.scenes[1:])


@dataclass(frozen=True)
class Episode:
    id: str
    transcript: Transcript
    captions: CaptionTrack | None = None
    precomputed_captions: tuple[str, ...] | None = None
    gold_summaries: tuple[str, ...] = ()


def parse_transcript(text: str) -> Transcript:
    """Parse ``Name: utterance`` lines into a Transcript.

    ``[SCENE_BREAK]`` marker lines record explicit breaks. Lines without
    a speaker prefix are stage directions, skipped and counted in
    warnings. Speaker names compare case-insensitively; the first-seen
    casing is kept.
    """
    rows: list[tuple[str, str]] = []
    breaks: list[int] = []
    warnings = 0
    canonical: dict[str, str] = {}
    names: dict[str, str] = {}  # raw speaker prefix -> its name, "" for none
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped == SCENE_BREAK_TOKEN:
            breaks.append(len(rows))
            continue
        match = _DIALOGUE_RE.match(stripped)
        name = ""
        if match:
            prefix = match.group(1)
            name = names.get(prefix)
            if name is None:
                speaker = normalize_speaker(prefix)
                name = canonical.setdefault(speaker.lower(), speaker) if speaker else ""
                names[prefix] = name
        if name:
            rows.append((name, match.group(2).strip()))
        else:
            warnings += 1
    if not rows:
        raise EmptyTranscript("no dialogue line parsed")
    lines = tuple(TranscriptLine(i, *row) for i, row in enumerate(rows))
    valid = sorted({b for b in breaks if 1 <= b <= len(lines) - 1})
    return Transcript(lines, tuple(valid), warnings)


def _srt_ms(h: str, m: str, s: str, frac: str) -> int:
    # fractional part is digits after the separator, not a raw ms count
    return ((int(h) * 60 + int(m)) * 60 + int(s)) * 1000 + int(frac.ljust(3, "0"))


def _parse_srt(text: str) -> tuple[list[tuple[int, int, str]], int]:
    cues: list[tuple[int, int, str]] = []
    warnings = 0
    for block in re.split(r"\n\s*\n", text):
        lines = [ln.strip() for ln in block.splitlines() if ln.strip()]
        timing_at = next(
            (i for i, ln in enumerate(lines) if _SRT_TIME_RE.match(ln)), None
        )
        if timing_at is None:
            if lines:
                warnings += 1
            continue
        g = _SRT_TIME_RE.match(lines[timing_at]).groups()
        start, end = _srt_ms(*g[:4]), _srt_ms(*g[4:])
        cues.append((start, end, " ".join(lines[timing_at + 1:])))
    return cues, warnings


def _parse_tsv(text: str) -> tuple[list[tuple[int, int, str]], int]:
    cues: list[tuple[int, int, str]] = []
    warnings = 0
    for raw in text.splitlines():
        if not raw.strip():
            continue
        fields = raw.split("\t", 2)
        try:
            start, end = int(fields[0]), int(fields[1])
        except (ValueError, IndexError):
            warnings += 1
            continue
        cues.append((start, end, fields[2].strip() if len(fields) > 2 else ""))
    return cues, warnings


def parse_captions(text: str) -> CaptionTrack:
    """Parse a subtitle document (numbered-cue or tab-separated format).

    The format is auto-detected from the first timing line. Cues are
    sorted by start; overlapping cues are clipped to the previous end,
    and cues left with no duration are dropped with a counted warning.
    """
    if "-->" in text:
        raw_cues, warnings = _parse_srt(text)
    else:
        raw_cues, warnings = _parse_tsv(text)
    cues: list[CaptionCue] = []
    for start, end, cue_text in sorted(raw_cues, key=lambda c: (c[0], c[1])):
        if cues and start < cues[-1].end:
            start = cues[-1].end
        if start >= end:
            warnings += 1
            continue
        cues.append(CaptionCue(start, end, cue_text))
    if not cues:
        raise NoCues("no valid caption cue parsed")
    return CaptionTrack(tuple(cues), warnings)


def scene_roster(transcript: Transcript, start: int, end: int) -> frozenset[str]:
    """Distinct speakers in lines [start, end)."""
    if not 0 <= start < end <= len(transcript.lines):
        raise RangeOutOfBounds(f"span [{start}, {end}) outside [0, {len(transcript.lines)})")
    return frozenset(ln.speaker for ln in transcript.lines[start:end])


def load_episode(directory: str | Path) -> Episode:
    """Read an episode bundle directory.

    Expected layout: ``transcript.txt`` (required), ``captions.srt`` or
    ``captions.tsv``, ``captions.visual.json`` (JSON array of per-scene
    strings), ``gold/*.txt``.
    """
    root = Path(directory)
    transcript_path = root / "transcript.txt"
    if not transcript_path.is_file():
        raise DataError(f"{transcript_path} not found")
    transcript = parse_transcript(read_text(transcript_path, DataError, "bundle file"))

    captions = None
    for name in ("captions.srt", "captions.tsv"):
        path = root / name
        if path.is_file():
            captions = parse_captions(read_text(path, DataError, "bundle file"))
            break

    precomputed = None
    visual_path = root / "captions.visual.json"
    if visual_path.is_file():
        loaded = read_json(visual_path, DataError, "bundle file")
        if not isinstance(loaded, list) or not all(isinstance(s, str) for s in loaded):
            raise DataError(f"{visual_path} must be a JSON array of strings")
        precomputed = tuple(loaded)

    gold: list[str] = []
    gold_dir = root / "gold"
    if gold_dir.is_dir():
        for path in sorted(gold_dir.glob("*.txt")):
            text = read_text(path, DataError, "bundle file").strip()
            if text and text not in gold:
                gold.append(text)

    return Episode(
        id=root.name or "episode",
        transcript=transcript,
        captions=captions,
        precomputed_captions=precomputed,
        gold_summaries=tuple(gold),
    )
