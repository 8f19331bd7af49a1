"""Hot numeric kernels: character-level LCS and the DTW grid.

The LCS length is computed bit-parallel (Allison & Dix 1986; Hyyrö 2004)
over Python ints, with every transcript line a lane of one packed int.
Lane ``i`` holds line ``i``'s positions, one bit each, followed by at
least one zero guard bit; lanes start on byte boundaries. Bit ``p`` of
``masks[c]`` is set when the line owning position ``p`` has code point
``c`` there, and ``full`` has every position bit set and every guard bit
clear. Starting from ``V = full``, each character ``c`` of a cue steps
``U = V & masks[c]; V = ((V + U) | (V - U)) & full``, which advances
every lane at once: ``U`` is a subset of ``V``, so ``V - U`` never
borrows, and a carry out of a lane's top bit lands in its zero guard bit,
which ``& full`` clears. Afterwards the zero bits of each lane count that
line's LCS with the cue; one ``to_bytes`` per cue and a per-byte popcount
summed over each lane's bytes read all lanes in time linear in the width.
A single pair is the one-lane case.

The DTW table is filled over anti-diagonals with NumPy: entries on
diagonal ``i+j = s`` only depend on diagonals ``s-1`` and ``s-2``. In the
flat padded ``(m+1) x (k+1)`` table, cell ``(i, j)`` sits at
``s + i*k``, so each diagonal and its three predecessor diagonals are
strided slices of step ``k`` and each diagonal is a few array ops on
views.
"""

from __future__ import annotations

import numpy as np


def encode_text(text: str) -> np.ndarray:
    """Unicode code points of ``text`` as an int32 array."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.int32)


def _lcs_lanes(lines: list[list[int]], cues: list[list[int]]) -> np.ndarray:
    """(len(lines), len(cues)) LCS lengths, one lane per line, as exact floats."""
    if not lines or not cues:
        return np.zeros((len(lines), len(cues)))
    masks: dict[int, int] = {}
    full = 0
    starts = []  # first byte of each lane
    offset = 0  # first bit of the next lane, a multiple of 8
    for codes in lines:
        line_masks: dict[int, int] = {}
        for i, c in enumerate(codes):
            line_masks[c] = line_masks.get(c, 0) | (1 << i)
        for c, mask in line_masks.items():
            masks[c] = masks.get(c, 0) | (mask << offset)
        full |= ((1 << len(codes)) - 1) << offset
        starts.append(offset >> 3)
        # one guard bit, then up to the next byte boundary
        offset += (len(codes) + 8) & ~7
    width = offset >> 3
    rows = []
    for cue in cues:
        v = full
        # a character no line has leaves V as it is
        for mask in [masks[c] for c in cue if c in masks]:
            u = v & mask
            v = ((v + u) | (v - u)) & full
        rows.append(v.to_bytes(width, "little"))
    ones = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)  # per byte value
    packed = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(cues), width)
    set_bits = np.add.reduceat(ones[packed], starts, axis=1, dtype=np.float64)
    lengths = np.array([len(codes) for codes in lines], dtype=np.float64)
    return lengths[:, None] - set_bits.T


def lcs_length_codes(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the longest common subsequence of two code-point arrays."""
    return int(_lcs_lanes([np.asarray(a).tolist()], [np.asarray(b).tolist()])[0, 0])


def pair_cost_matrix(lines: list[np.ndarray], cues: list[np.ndarray]) -> np.ndarray:
    """(len(lines), len(cues)) matrix of 1 - lcs/min-length costs.

    A pair with an empty side costs the full unit.
    """
    line_codes = [np.asarray(line).tolist() for line in lines]
    cue_codes = [np.asarray(cue).tolist() for cue in cues]
    shorter = np.minimum(
        np.array([len(codes) for codes in line_codes], dtype=np.float64)[:, None],
        np.array([len(codes) for codes in cue_codes], dtype=np.float64)[None, :],
    )
    # an empty side has lcs 0, and 0 / 1 gives it the full unit
    return 1.0 - _lcs_lanes(line_codes, cue_codes) / np.maximum(shorter, 1.0)


def dtw_table(cost: np.ndarray) -> np.ndarray:
    """Accumulated-cost table for steps {down, right, diagonal}."""
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    m, k = cost.shape
    row = k + 1
    # flat 1-based tables; the +inf padding makes border cells fall out of
    # the same min, and cell (i, j) of diagonal s = i + j sits at s + i*k
    padded = np.zeros((m + 1, row))
    padded[1:, 1:] = cost
    c = padded.ravel()
    d = np.full((m + 1) * row, np.inf)
    d[row + 1] = cost[0, 0]
    best = np.empty(min(m, k))
    for s in range(3, m + k + 1):
        first, last = max(1, s - k), min(m, s - 1)
        lo, hi = s + first * k, s + last * k + 1
        t = best[: last - first + 1]
        np.minimum(d[lo - row : hi - row : k], d[lo - 1 : hi - 1 : k], out=t)
        np.minimum(d[lo - row - 1 : hi - row - 1 : k], t, out=t)
        np.add(c[lo:hi:k], t, out=d[lo:hi:k])
    return d.reshape(m + 1, row)[1:, 1:]


def dtw_backtrack(d: np.ndarray) -> list[tuple[int, int]]:
    """Minimum path from (0,0) to the bottom-right corner of ``d``.

    Ties prefer the diagonal predecessor, then the one above (advancing
    the line index).
    """
    at = d.item  # one Python float per cell read, not a NumPy scalar
    i, j = d.shape[0] - 1, d.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            # the first strict minimum of diagonal, above, left
            best, next_i, next_j = at(i - 1, j - 1), i - 1, j - 1
            up = at(i - 1, j)
            if up < best:
                best, next_i, next_j = up, i - 1, j
            if at(i, j - 1) < best:
                next_i, next_j = i, j - 1
            i, j = next_i, next_j
        elif i > 0:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return path
