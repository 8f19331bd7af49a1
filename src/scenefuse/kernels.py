"""Hot numeric kernels: character-level LCS and the DTW grid.

The LCS length is computed bit-parallel (Allison & Dix 1986; Hyyrö 2004)
over Python ints, so a line of any length is one bit vector. Bit ``i`` of
``masks[c]`` is set when the line has code point ``c`` at position ``i``.
Starting from ``V`` all ones, each character ``c`` of the other sequence
steps ``U = V & masks[c]; V = ((V + U) | (V - U)) & full``; afterwards the
zero bits of ``V`` count the LCS. ``pair_cost_matrix`` builds the masks
once per line and reuses them for every cue.

The DTW table is filled over anti-diagonals with NumPy: entries on
diagonal ``i+j = s`` only depend on diagonals ``s-1`` and ``s-2``, so each
diagonal is one array op.
"""

from __future__ import annotations

import numpy as np


def encode_text(text: str) -> np.ndarray:
    """Unicode code points of ``text`` as an int32 array."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.int32)


def _match_masks(codes: list[int]) -> dict[int, int]:
    """Code point -> bit mask of the positions where it occurs."""
    masks: dict[int, int] = {}
    for i, c in enumerate(codes):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks


def _lcs_bits(masks: dict[int, int], la: int, other: list[int]) -> int:
    """LCS length of the ``la``-long sequence behind ``masks`` and ``other``."""
    full = (1 << la) - 1
    v = full
    for c in other:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return la - v.bit_count()


def lcs_length_codes(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the longest common subsequence of two code-point arrays."""
    codes_a = np.asarray(a).tolist()
    return _lcs_bits(_match_masks(codes_a), len(codes_a), np.asarray(b).tolist())


def pair_cost_matrix(lines: list[np.ndarray], cues: list[np.ndarray]) -> np.ndarray:
    """(len(lines), len(cues)) matrix of 1 - lcs/min-length costs."""
    cue_codes = [np.asarray(cue).tolist() for cue in cues]
    out = np.empty((len(lines), len(cues)), np.float64)
    for i, line in enumerate(lines):
        codes = np.asarray(line).tolist()
        la = len(codes)
        masks = _match_masks(codes)
        for j, cue in enumerate(cue_codes):
            lb = len(cue)
            if la == 0 or lb == 0:
                out[i, j] = 1.0
            else:
                out[i, j] = 1.0 - _lcs_bits(masks, la, cue) / min(la, lb)
    return out


def dtw_table(cost: np.ndarray) -> np.ndarray:
    """Accumulated-cost table for steps {down, right, diagonal}."""
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    m, k = cost.shape
    # 1-based padding with +inf so border cells fall out of the same min
    d = np.full((m + 1, k + 1), np.inf)
    d[1, 1] = cost[0, 0]
    for s in range(3, m + k + 1):
        lo = max(1, s - k)
        hi = min(m, s - 1)
        i = np.arange(lo, hi + 1)
        j = s - i
        best = np.minimum(d[i - 1, j - 1], np.minimum(d[i - 1, j], d[i, j - 1]))
        d[i, j] = cost[i - 1, j - 1] + best
    return d[1:, 1:]


def dtw_backtrack(d: np.ndarray) -> list[tuple[int, int]]:
    """Minimum path from (0,0) to the bottom-right corner of ``d``.

    Ties prefer the diagonal predecessor, then the one above (advancing
    the line index).
    """
    i, j = d.shape[0] - 1, d.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            steps = ((d[i - 1, j - 1], i - 1, j - 1),
                     (d[i - 1, j], i - 1, j),
                     (d[i, j - 1], i, j - 1))
            _, i, j = min(steps, key=lambda s: s[0])
        elif i > 0:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return path
