"""Transcript-to-caption alignment.

Similarity between an utterance and a cue is character-level LCS over
lowercased, whitespace-collapsed text, divided by the shorter length.
Dynamic time warping with steps {(1,0), (0,1), (1,1)} finds the
monotone pairing minimizing the summed 1 - similarity; every visited
cell pays its cell cost (no separate gap penalty). Scene breaks then
transfer to time via the cues each scene's lines matched. The NumPy
kernels are imported on the first alignment, so a run without captions
never loads NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptySequence, UncoveredScene
from .model import CaptionTrack, Partition


def normalize_text(text: str) -> str:
    """Lowercase and collapse whitespace runs."""
    return " ".join(text.split()).lower()


@dataclass(frozen=True)
class Alignment:
    pairs: tuple[tuple[int, int], ...]
    total_cost: float


@dataclass(frozen=True)
class TimeSpan:
    start: int
    end: int


def dtw_align(lines: Sequence[str], cues: Sequence[str]) -> Alignment:
    """Minimum-cost warping path from (0, 0) to (m-1, k-1).

    Ties prefer the diagonal step, then advancing the line index.
    """
    if not lines or not cues:
        raise EmptySequence("both sequences must be non-empty")
    from . import kernels

    line_codes = [kernels.encode_text(normalize_text(t)) for t in lines]
    cue_codes = [kernels.encode_text(normalize_text(t)) for t in cues]
    cost = kernels.pair_cost_matrix(line_codes, cue_codes)
    table = kernels.dtw_table(cost)
    path = kernels.dtw_backtrack(table)
    return Alignment(tuple(path), float(table[-1, -1]))


def scene_time_spans(
    partition: Partition, alignment: Alignment, cues: CaptionTrack
) -> list[TimeSpan]:
    """Per-scene [earliest matched cue start, latest matched cue end]."""
    spans: list[TimeSpan] = []
    for scene in partition.scenes:
        matched = [c for line, c in alignment.pairs if scene.start <= line < scene.end]
        if not matched:
            raise UncoveredScene(f"scene [{scene.start}, {scene.end}) matched no cue")
        spans.append(
            TimeSpan(cues.cues[min(matched)].start, cues.cues[max(matched)].end)
        )
    return spans
