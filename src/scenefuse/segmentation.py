"""Minimum-description-length scene segmentation.

A partition's cost is the sum over scenes of

    C(N, n) + l * log2(n)

where N is the transcript-wide speaker count, n the distinct speakers
in the scene, l its line count, and C(N, n) = log2(N choose n) the bits
needed to name the scene's speaker subset. The optimal partition over
all 2^(m-1) contiguous tilings is found by a prefix DP; the number of
scenes is emergent, never supplied.

Exactness contract: every span cost, wherever it is needed, is the same
float64 expression cb[n] + l * lg[n] on the same lookup tables. The DP
evaluates it one column [0..j) x j at a time, span_costs stacks those
very columns into the matrix the exhaustive search reads, and scenes
are costed with it one at a time. Partition costs accumulate as the
same left-to-right fold everywhere, so DP and exhaustive totals are
bit-identical, never merely close. Ties break toward fewer scenes, then
the lexicographically smallest break tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import EmptyTranscript, InvalidCount, TooLarge
from .model import Partition, Scene, Transcript, scene_roster

BRUTE_FORCE_MAX_LINES = 18


def codebook_cost(n_total: int, n_scene: int) -> float:
    """log2(n_total choose n_scene), summed in log space."""
    if n_total < 1 or n_scene < 1 or n_scene > n_total:
        raise InvalidCount(f"need 1 <= n <= N, got n={n_scene}, N={n_total}")
    bits = 0.0
    for k in range(1, n_scene + 1):
        bits += math.log2(n_total - n_scene + k) - math.log2(k)
    return bits


def scene_cost(n_total: int, n_scene: int, length: int) -> float:
    """Bits to encode one scene: codebook plus l * log2(n) line terms."""
    if length < 1:
        raise InvalidCount(f"scene length must be >= 1, got {length}")
    return codebook_cost(n_total, n_scene) + length * math.log2(n_scene)


@dataclass(frozen=True)
class SpanCosts:
    """Per-span distinct-speaker counts and scene costs for one transcript.

    Both entries are (m+1) x (m+1); cell [i, j] describes line span
    [i, j) and is meaningful for i < j only.
    """

    n_total: int
    counts: np.ndarray
    costs: np.ndarray


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


def span_costs(transcript: Transcript, n_speakers: int | None = None) -> SpanCosts:
    """Stack every column of span counts and costs into dense matrices.

    Only the exhaustive oracle and tests need the full table; the DP
    consumes the same columns one at a time.
    """
    tables = _tables(transcript, n_speakers)
    m = len(transcript.lines)
    counts = np.zeros((m + 1, m + 1), np.int64)
    costs = np.zeros((m + 1, m + 1), np.float64)
    for j, count_col, cost_col in _span_columns(transcript, tables):
        counts[:j, j] = count_col
        costs[:j, j] = cost_col
    return SpanCosts(tables.n_total, counts, costs)


def _fold_cost(costs: np.ndarray, boundaries: list[int]) -> float:
    total = 0.0
    for a, b in zip(boundaries, boundaries[1:]):
        total += costs[a, b]
    return total


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

    best[j] holds the cheapest encoding of lines [0, j); each candidate
    extends best[i] with one scene [i, j), all i at once. The minimum is
    exact, and only exact ties rebuild break tuples from the
    backpointers to apply the scene-count-then-break-tuple rule, so the
    result is deterministic and matches brute_force_partition. Memory is
    O(m): one cost column at a time, never the (m+1)^2 span table.
    """
    if not transcript.lines:
        raise EmptyTranscript("cannot partition an empty transcript")
    tables = _tables(transcript, n_speakers)
    m = len(transcript.lines)

    best = np.zeros(m + 1, np.float64)
    nscenes = np.zeros(m + 1, np.int64)
    back = [0] * (m + 1)
    for j, _, col in _span_columns(transcript, tables):
        cand = best[:j] + col
        lo = cand.min()
        ties = np.flatnonzero(cand == lo)
        if len(ties) > 1:
            ties = ties[nscenes[ties] == nscenes[ties].min()]
        if len(ties) > 1:
            i = min(
                ties.tolist(),
                key=lambda i: _breaks_ending_at(back, i) + (i,) if i else (),
            )
        else:
            i = int(ties[0])
        best[j] = lo
        nscenes[j] = nscenes[i] + 1
        back[j] = i

    breaks = _breaks_ending_at(back, m)
    return Partition(_scenes(transcript, tables, breaks), float(best[m]))


def brute_force_partition(
    transcript: Transcript, n_speakers: int | None = None
) -> Partition:
    """Exhaustive minimum over all contiguous partitions (oracle).

    Reads the stacked span_costs columns and folds them in the same
    order as optimal_partition, so the two agree exactly, tie-breaking
    included.
    """
    m = len(transcript.lines)
    if m == 0:
        raise EmptyTranscript("cannot partition an empty transcript")
    if m > BRUTE_FORCE_MAX_LINES:
        raise TooLarge(f"m={m} exceeds brute-force limit {BRUTE_FORCE_MAX_LINES}")
    costs = span_costs(transcript, n_speakers).costs

    best_key: tuple[float, int, tuple[int, ...]] | None = None
    for mask in range(1 << (m - 1)):
        breaks = tuple(k for k in range(1, m) if mask >> (k - 1) & 1)
        total = _fold_cost(costs, [0, *breaks, m])
        key = (total, len(breaks) + 1, breaks)
        if best_key is None or key < best_key:
            best_key = key
    scenes = _scenes(transcript, _tables(transcript, n_speakers), best_key[2])
    return Partition(scenes, float(best_key[0]))


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
