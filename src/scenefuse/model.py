"""Domain types for transcripts, captions, scenes, and episodes.

The value types are immutable NamedTuples (derive a changed copy with
``_replace``). Transcript and CaptionTrack are small ``__slots__``
classes instead: their len is their line or cue count, and their
``warnings`` count of skipped input is no part of the value, so ``==``
and hash ignore it.

Parsers are deliberately tolerant: fan transcripts are messy, so lines
that do not parse are skipped with a counted warning rather than raised
as errors.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from .errors import DataError, EmptyTranscript, NoCues, RangeOutOfBounds, read_json, read_text

SCENE_BREAK_TOKEN = "[SCENE_BREAK]"

_PARENTHETICAL_RE = re.compile(r"\s*\([^()]*\)$")
_SRT_TIME_RE = re.compile(
    r"^(\d+):(\d{1,2}):(\d{1,2})[,.](\d{1,3})\s*-->\s*"
    r"(\d+):(\d{1,2}):(\d{1,2})[,.](\d{1,3})\s*$"
)


def normalize_speaker(raw: str) -> str:
    """Trim, collapse internal whitespace, drop a trailing colon, then a trailing (note)."""
    name = re.sub(r"\s+", " ", raw.strip())
    return _PARENTHETICAL_RE.sub("", name[:-1].rstrip() if name.endswith(":") else name)


class TranscriptLine(NamedTuple):
    index: int
    speaker: str
    text: str


class Transcript:
    """Dialogue lines, the marked breaks before them, and a count of skipped lines."""

    __slots__ = ("lines", "explicit_breaks", "warnings")

    def __init__(self, lines: tuple[TranscriptLine, ...], explicit_breaks: tuple[int, ...] = (),
                 warnings: int = 0):
        self.lines, self.explicit_breaks, self.warnings = lines, explicit_breaks, warnings

    def __eq__(self, other):
        if type(other) is not Transcript:
            return NotImplemented
        return (self.lines, self.explicit_breaks) == (other.lines, other.explicit_breaks)

    def __hash__(self) -> int:
        return hash((self.lines, self.explicit_breaks))

    def __repr__(self) -> str:
        return f"Transcript({self.lines!r}, {self.explicit_breaks!r}, warnings={self.warnings})"

    @property
    def roster(self) -> frozenset[str]:
        return frozenset(ln.speaker for ln in self.lines)

    def __len__(self) -> int:
        return len(self.lines)


class CaptionCue(NamedTuple):
    start: int
    end: int
    text: str


class CaptionTrack:
    """Timed cues in start order, and a count of skipped or dropped cues."""

    __slots__ = ("cues", "warnings")

    def __init__(self, cues: tuple[CaptionCue, ...], warnings: int = 0):
        self.cues, self.warnings = cues, warnings

    def __eq__(self, other):
        return self.cues == other.cues if type(other) is CaptionTrack else NotImplemented

    def __hash__(self) -> int:
        return hash(self.cues)

    def __repr__(self) -> str:
        return f"CaptionTrack({self.cues!r}, warnings={self.warnings})"

    def __len__(self) -> int:
        return len(self.cues)


class Scene(NamedTuple):
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


class Partition(NamedTuple):
    scenes: tuple[Scene, ...]
    total_cost: float

    @property
    def breaks(self) -> tuple[int, ...]:
        return tuple(s.start for s in self.scenes[1:])


class Episode(NamedTuple):
    id: str
    transcript: Transcript
    captions: CaptionTrack | None = None
    precomputed_captions: tuple[str, ...] | None = None
    gold_summaries: tuple[str, ...] = ()


def parse_transcript(text: str) -> Transcript:
    """Parse ``Name: utterance`` lines into a Transcript.

    ``[SCENE_BREAK]`` marker lines record explicit breaks. Lines without
    a speaker prefix, and lines that open with ``[`` or ``(`` (``[Scene:
    ...]``), are stage directions, skipped and counted in warnings. A
    speaker's trailing parenthetical is dropped (``Ross (V.O.)`` is
    ``Ross``). Speaker names compare case-insensitively; the first-seen
    casing is kept.
    """
    rows: list[tuple[int, str, str]] = []  # each line's index, speaker and text
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
        prefix, colon, rest = stripped.partition(":")
        name = names.get(prefix) if colon else ""
        if name is None:  # a line that opens with "[" or "(" is no speaker's
            speaker = "" if prefix.startswith(("[", "(")) else normalize_speaker(prefix)
            name = canonical.setdefault(speaker.lower(), speaker) if speaker else ""
            names[prefix] = name
        if name:
            rows.append((len(rows), name, rest.strip()))
        else:
            warnings += 1
    if not rows:
        raise EmptyTranscript("no dialogue line parsed")
    lines = tuple(map(TranscriptLine._make, rows))
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
