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
tuple. The DP works on the float span costs cb[n] + l * lg[n] and
ranks by that key only the candidates within a relative margin
S = _SCREEN_ULPS * (m + 8) * u of the column minimum (u = 2^-53, m
lines). The margin covers the rounding of any fold:

- lg[n] = log2 n is within one ulp; cb[n] sums n differences of logs
  of at most N, so it is off by at most n u (4 log2 N + cb[n]). A scene
  with n speakers costs at least n log2 N (C(N, n) >= (N/n)^n and
  l >= n), so its float cost is within (l + 8) u of the exact one,
  relative.
- A fold of s scenes adds s - 1 roundings of at most u times the total,
  and the longest scene's l plus s - 1 is at most m, so every candidate
  is within e = (m + 8) u of its exact cost, relative, and S > 3e + 5u.

A candidate above the column minimum times 1 + S thus costs more in
exact terms too. Two rules drop starts that can never win again:

- PELT (Killick, Fearnhead & Eckley 2012). Joining [i, j) and [j, j')
  only raises n, so the l log2 n terms only grow and at most two
  codebook terms are lost: cost(i, j') >= cost(i, j) + cost(j, j') - K
  with K = 2 max_n C(N, n) over the transcript's speaker counts n. A
  start whose candidate at column j exceeds best[j] + K exactly is
  beaten strictly by start j at every later column. The float test is
  candidate > (best[j] + K)(1 + S), strict, so a start that ties (as
  all-zero costs do) stays.
- All cast. Once [i, j) holds every speaker of the transcript, its
  count n is fixed and every later candidate from i is its path's
  product times C(N, n) n^(j' - i). The exact-key order of two such
  starts (product ratio, scene count, break tuple) is then the same at
  every later column, so only the winner among them is kept.

Every column's choice is therefore the exact-key minimum over all
starts, and a reported cost is the left-to-right float fold of the
scene costs, so DP totals are bit-identical to those of the exhaustive
oracle in tests/test_segmentation.py.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyTranscript, InvalidCount
from .model import Partition, Scene, Transcript, scene_roster

# Near-minimum margin, in units of 2**-53 per line: S = 8 (m + 8) u is
# well above the 3e + 5u the exactness contract needs.
_SCREEN_ULPS = 8


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
    n_total is the transcript's speaker count N, and reach is PELT's K:
    twice the largest C(N, n).
    """

    n_total: int
    cb: tuple[float, ...]
    lg: tuple[float, ...]
    reach: float


def _tables(transcript: Transcript) -> _Tables:
    n_total = len({line.speaker for line in transcript.lines})
    cb = (0.0, *(codebook_cost(n_total, n) for n in range(1, n_total + 1)))
    lg = (0.0, *(math.log2(n) for n in range(1, n_total + 1)))
    # C(N, n) peaks at n = N // 2; one log2 of an exact int, within an ulp
    reach = 2 * math.log2(math.comb(n_total, n_total // 2))
    return _Tables(n_total, cb, lg, reach)


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
        # the DP's span cost formula, on one span
        scenes.append(Scene(a, b, roster, tables.cb[n] + (b - a) * tables.lg[n]))
    return tuple(scenes)


def _breaks_ending_at(back: list[int], j: int) -> tuple[int, ...]:
    breaks = []
    while j:
        j = back[j]
        if j:
            breaks.append(j)
    return tuple(reversed(breaks))


def optimal_partition(transcript: Transcript) -> Partition:
    """Globally cheapest partition of the transcript into scenes.

    best[j] holds the float cost of the chosen encoding of lines [0, j);
    each candidate extends best[i] with one scene [i, j), for every
    start i still active. Each active start keeps the distinct-speaker
    count of [i, j), advanced through the previous line of line j-1's
    speaker. The candidates near the column minimum are ranked by the
    exact key (description length as an integer, scene count, break
    tuple), so the result is deterministic and matches the exhaustive
    oracle in the tests; PELT and the all-cast rule then drop the
    starts that can never win (see the exactness contract). Memory is
    O(m), never the (m+1)^2 span table.
    """
    if not transcript.lines:
        raise EmptyTranscript("cannot partition an empty transcript")
    tables = _tables(transcript)
    cb, lg = tables.cb, tables.lg
    screen = _SCREEN_ULPS * (len(transcript.lines) + 8) * 2.0**-53

    best = [0.0]
    nscenes = [0]
    back = [0]
    last_n = [0]  # speakers of each prefix's chosen last scene
    exact = {0: 1}  # the chosen path's 2 ** cost, made on first use

    def path_exact(i: int) -> int:
        chain = [i]
        while chain[-1] not in exact:
            chain.append(back[chain[-1]])
        for k in reversed(chain[:-1]):
            exact[k] = exact[back[k]] * _exact(tables, last_n[k], k - back[k])
        return exact[i]

    starts: list[int] = []  # active starts, ascending
    counts: list[int] = []  # distinct speakers of [start, j), so non-increasing
    cand: list[float] = []

    def pick(ks: Sequence[int], j: int) -> int:
        """The k in ks whose start has the least exact key at column j.

        ks index the column's starts, counts and cand.
        """
        lo = min(map(cand.__getitem__, ks))
        lo += lo * screen
        near = [k for k in ks if cand[k] <= lo]
        if len(near) == 1:  # break tuples are built only where the rest of the key ties
            return near[0]
        key = {
            k: (path_exact(starts[k]) * _exact(tables, counts[k], j - starts[k]),
                nscenes[starts[k]])
            for k in near
        }
        low = min(key.values())
        ties = [k for k in near if key[k] == low]
        return min(ties, key=lambda k: _breaks_ending_at(back, starts[k]) + (starts[k],))

    last_seen: dict[str, int] = {}
    for j, line in enumerate(transcript.lines, start=1):
        starts.append(j - 1)
        counts.append(0)
        for k in range(bisect_right(starts, last_seen.get(line.speaker, -1)), len(starts)):
            counts[k] += 1
        last_seen[line.speaker] = j - 1
        cand = [best[i] + (cb[n] + (j - i) * lg[n]) for i, n in zip(starts, counts)]
        k = pick(range(len(starts)), j)
        best.append(cand[k])
        nscenes.append(nscenes[starts[k]] + 1)
        back.append(starts[k])
        last_n.append(counts[k])

        bound = best[j] + tables.reach
        bound += bound * screen
        keep = [k for k, c in enumerate(cand) if c <= bound]
        full = 0  # all-cast starts lead, as counts do not increase
        while full < len(keep) and counts[keep[full]] == tables.n_total:
            full += 1
        if full > 1:
            keep[:full] = [pick(keep[:full], j)]
        if len(keep) < len(starts):
            starts = [starts[k] for k in keep]
            counts = [counts[k] for k in keep]

    breaks = _breaks_ending_at(back, len(transcript.lines))
    return Partition(_scenes(transcript, tables, breaks), best[-1])


def partition_from_breaks(
    transcript: Transcript, breaks: tuple[int, ...] | list[int]
) -> Partition:
    """Partition induced by fixed break positions, costed for reporting."""
    m = len(transcript.lines)
    if m == 0:
        raise EmptyTranscript("cannot partition an empty transcript")
    ordered = tuple(sorted(set(breaks)))
    if ordered and not (ordered[0] >= 1 and ordered[-1] <= m - 1):
        raise InvalidCount(f"break positions {ordered} outside [1, {m - 1}]")
    scenes = _scenes(transcript, _tables(transcript), ordered)
    total = 0.0
    for scene in scenes:
        total += scene.cost_bits
    return Partition(scenes, total)


def effective_partition(transcript: Transcript) -> Partition:
    """Explicit break markers win; otherwise search for the optimum."""
    if transcript.explicit_breaks:
        return partition_from_breaks(transcript, transcript.explicit_breaks)
    return optimal_partition(transcript)
