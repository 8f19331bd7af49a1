"""Minimum-description-length scene segmentation.

A partition's cost is the sum over scenes of

    C(N, n) + l * log2(n)

where N is the transcript-wide speaker count, n the distinct speakers
in the scene, l its line count, and C(N, n) = log2(N choose n) the bits
needed to name the scene's speaker subset. The optimal partition over
all 2^(m-1) contiguous tilings is found by a prefix DP; the number of
scenes is emergent, never supplied.

Exactness contract: a scene costs log2(C(N, n) * n^l), so partitions
are ranked by the exact integer product of their scenes' C(N, n) * n^l:
exact description length, then fewer scenes, then the smallest break
tuple. The DP screens each column with the float64 span costs
cb[n] + l * lg[n] and ranks by that key only the candidates within a
relative 2^-40 (about 8000 unit roundoffs) of the column minimum, more
than the rounding error of a fold of up to about a thousand scenes. A
reported cost is the left-to-right float fold of the scene costs, so DP
totals are bit-identical to those of the exhaustive oracle in
tests/test_segmentation.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import EmptyTranscript, InvalidCount
from .model import Partition, Scene, Transcript, scene_roster

_SCREEN = 2.0 ** -40  # the DP's near-minimum margin (see the exactness contract)


def codebook_cost(n_total: int, n_scene: int) -> float:
    """log2(n_total choose n_scene), summed in log space."""
    if n_total < 1 or n_scene < 1 or n_scene > n_total:
        raise InvalidCount(f"need 1 <= n <= N, got n={n_scene}, N={n_total}")
    bits = 0.0
    for k in range(1, n_scene + 1):
        bits += math.log2(n_total - n_scene + k) - math.log2(k)
    return bits


@dataclass(frozen=True)
class _Tables:
    """Lookup tables indexed by a span's distinct-speaker count n.

    Slot 0 is never a real span; it keeps index arithmetic in range.
    """

    n_total: int
    cb: np.ndarray
    lg: np.ndarray


def _tables(transcript: Transcript, n_speakers: int | None) -> _Tables:
    observed = len({line.speaker for line in transcript.lines})
    n_total = observed if n_speakers is None else n_speakers
    if n_total < observed:
        raise InvalidCount(f"N={n_total} below observed speaker count {observed}")
    cb = np.zeros(n_total + 1, np.float64)
    lg = np.zeros(n_total + 1, np.float64)
    for n in range(1, n_total + 1):
        cb[n] = codebook_cost(n_total, n)
        lg[n] = math.log2(n)
    return _Tables(n_total, cb, lg)


def _span_columns(
    transcript: Transcript, tables: _Tables
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (j, counts, costs) for the spans [i, j), i < j, j = 1..m.

    cnt[i] is the distinct-speaker count of [i, j). Line j-1 adds its
    speaker to exactly the spans starting after that speaker's previous
    line p (p = -1 if none), so one slice increment advances the column.
    The yielded counts are a view that the next step overwrites.
    """
    m = len(transcript.lines)
    cnt = np.zeros(m, np.int64)
    starts = np.arange(m)
    last_seen: dict[str, int] = {}
    for j, line in enumerate(transcript.lines, start=1):
        cnt[last_seen.get(line.speaker, -1) + 1:j] += 1
        last_seen[line.speaker] = j - 1
        counts = cnt[:j]
        yield j, counts, tables.cb[counts] + (j - starts[:j]) * tables.lg[counts]


def _exact(tables: _Tables, n: int, length: int) -> int:
    """2 ** (cost of one scene): C(N, n) * n^l, an exact integer."""
    return math.comb(tables.n_total, n) * n ** length


def _scenes(
    transcript: Transcript, tables: _Tables, breaks: tuple[int, ...]
) -> tuple[Scene, ...]:
    boundaries = [0, *breaks, len(transcript.lines)]
    scenes = []
    for a, b in zip(boundaries, boundaries[1:]):
        roster = scene_roster(transcript, a, b)
        n = len(roster)
        # the _span_columns formula, on one span
        cost = float(tables.cb[n] + (b - a) * tables.lg[n])
        scenes.append(Scene(a, b, roster, cost))
    return tuple(scenes)


def _breaks_ending_at(back: list[int], j: int) -> tuple[int, ...]:
    breaks = []
    while j:
        j = back[j]
        if j:
            breaks.append(j)
    return tuple(reversed(breaks))


def optimal_partition(
    transcript: Transcript, n_speakers: int | None = None
) -> Partition:
    """Globally cheapest partition of the transcript into scenes.

    best[j] holds the float cost of the chosen encoding of lines [0, j);
    each candidate extends best[i] with one scene [i, j), all i at once.
    The candidates near the column minimum are ranked by the exact key
    (description length as an integer, scene count, break tuple), so the
    result is deterministic and matches the exhaustive oracle in the
    tests. Memory is O(m): one cost column at a time, never the
    (m+1)^2 span table.
    """
    if not transcript.lines:
        raise EmptyTranscript("cannot partition an empty transcript")
    tables = _tables(transcript, n_speakers)
    m = len(transcript.lines)

    best = np.zeros(m + 1, np.float64)
    nscenes = [0] * (m + 1)
    back = [0] * (m + 1)
    exact = {0: 1}  # the chosen path's 2 ** cost, made on first use

    def path_exact(i: int) -> int:
        chain = [i]
        while chain[-1] not in exact:
            chain.append(back[chain[-1]])
        for k in reversed(chain[:-1]):
            n = len(scene_roster(transcript, back[k], k))
            exact[k] = exact[back[k]] * _exact(tables, n, k - back[k])
        return exact[i]

    for j, counts, col in _span_columns(transcript, tables):
        cand = best[:j] + col
        lo = cand.min()
        near = np.flatnonzero(cand <= lo + lo * _SCREEN).tolist()
        i = near[0]
        if len(near) > 1:  # break tuples are built only where the rest of the key ties
            key = {
                k: (path_exact(k) * _exact(tables, int(counts[k]), j - k), nscenes[k])
                for k in near
            }
            low = min(key.values())
            ties = [k for k in near if key[k] == low]
            i = min(ties, key=lambda k: _breaks_ending_at(back, k) + (k,))
        best[j] = cand[i]
        nscenes[j] = nscenes[i] + 1
        back[j] = i

    breaks = _breaks_ending_at(back, m)
    return Partition(_scenes(transcript, tables, breaks), float(best[m]))


def partition_from_breaks(
    transcript: Transcript,
    breaks: tuple[int, ...] | list[int],
    n_speakers: int | None = None,
) -> Partition:
    """Partition induced by fixed break positions, costed for reporting."""
    m = len(transcript.lines)
    if m == 0:
        raise EmptyTranscript("cannot partition an empty transcript")
    ordered = tuple(sorted(set(breaks)))
    if ordered and not (ordered[0] >= 1 and ordered[-1] <= m - 1):
        raise InvalidCount(f"break positions {ordered} outside [1, {m - 1}]")
    scenes = _scenes(transcript, _tables(transcript, n_speakers), ordered)
    total = 0.0
    for scene in scenes:
        total += scene.cost_bits
    return Partition(scenes, total)


def effective_partition(
    transcript: Transcript, n_speakers: int | None = None
) -> Partition:
    """Explicit break markers win; otherwise search for the optimum."""
    if transcript.explicit_breaks:
        return partition_from_breaks(transcript, transcript.explicit_breaks, n_speakers)
    return optimal_partition(transcript, n_speakers)
