"""Scene-split agreement metrics and Welch significance statistics.

Labelings are per-line scene ids. ACC is the best one-to-one matching
of predicted to gold scenes on their contingency table, found by the
Hungarian method with shortest augmenting paths and dual potentials
(Kuhn 1955; Jonker & Volgenant 1987). The table holds line counts, so
every potential and sum is an integer and ACC is exact. NMI normalizes
mutual information by the arithmetic mean of the label entropies; ARI
uses the pair-counting formula. Welch's t and the Welch-Satterthwaite
degrees of freedom are evaluated directly from sample means, standard
deviations, and sizes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidCount, LengthMismatch, ZeroVariance

Labeling = Sequence[int]


class SampleStats:
    __slots__ = ("mean", "std", "n")

    def __init__(self, mean: float, std: float, n: int):
        if n < 2:
            raise InvalidCount(f"need n >= 2 samples, got {n}")
        if std < 0:
            raise InvalidCount(f"standard deviation must be >= 0, got {std}")
        self.mean, self.std, self.n = mean, std, n

    @property
    def var(self) -> float:
        return self.std * self.std


def _contingency(pred: Labeling, gold: Labeling) -> np.ndarray:
    p = np.asarray(list(pred))
    g = np.asarray(list(gold))
    if p.shape[0] != g.shape[0]:
        raise LengthMismatch(f"label lengths differ: {p.shape[0]} vs {g.shape[0]}")
    if p.shape[0] == 0:
        raise LengthMismatch("empty labelings")
    _, pi = np.unique(p, return_inverse=True)
    _, gi = np.unique(g, return_inverse=True)
    table = np.zeros((pi.max() + 1, gi.max() + 1), np.int64)
    np.add.at(table, (pi, gi), 1)
    return table


def _max_matching(table: np.ndarray) -> int:
    """Largest sum of table[r, c] over one-to-one row-to-column matchings.

    Rows are added one at a time; each takes one shortest augmenting
    path over the reduced costs -table[r, c] - u[r] - v[c], with column
    0 as the virtual start of every path.
    """
    if table.shape[0] > table.shape[1]:
        table = table.T
    n, m = table.shape
    cost = np.zeros((n + 1, m + 1), np.int64)
    cost[1:, 1:] = -table
    u = np.zeros(n + 1, np.int64)
    v = np.zeros(m + 1, np.int64)
    owner = np.zeros(m + 1, np.int64)  # row holding each column, 0 when free
    way = np.zeros(m + 1, np.int64)  # previous column on the shortest path
    inf = np.iinfo(np.int64).max
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        slack = np.full(m + 1, inf, np.int64)
        used = np.zeros(m + 1, bool)
        while owner[col]:
            used[col] = True
            r = owner[col]
            reduced = cost[r] - u[r] - v
            closer = ~used & (reduced < slack)
            slack[closer] = reduced[closer]
            way[closer] = col
            col = int(np.where(used, inf, slack).argmin())
            delta = slack[col]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while col:
            owner[col] = owner[way[col]]
            col = int(way[col])
    matched = np.flatnonzero(owner[1:])
    return int(table[owner[1:][matched] - 1, matched].sum())


def clustering_accuracy(pred: Labeling, gold: Labeling) -> float:
    """Best agreement fraction over injective relabelings of pred."""
    table = _contingency(pred, gold)
    return float(_max_matching(table)) / float(table.sum())


def _entropy(counts: list[int], logs: list[float], n: int) -> float:
    """-sum of (count / n) * log(count / n) over nonzero counts."""
    h = 0.0
    for c, lc in zip(counts, logs):
        if c:
            h += (c / n) * lc
    return -h


def nmi(pred: Labeling, gold: Labeling) -> float:
    """Mutual information over the arithmetic mean of label entropies.

    Both labelings constant means zero entropy on both sides; that
    degenerate agreement scores 1.0.
    """
    table = _contingency(pred, gold)
    n = int(table.sum())
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    log_row = [math.log(r / n) if r else 0.0 for r in row.tolist()]
    log_col = [math.log(c / n) if c else 0.0 for c in col.tolist()]

    h_row = _entropy(row.tolist(), log_row, n)
    h_col = _entropy(col.tolist(), log_col, n)

    if h_row == 0.0 and h_col == 0.0:
        return 1.0

    mi = 0.0
    for i, cells in enumerate(table.tolist()):
        for j, nij in enumerate(cells):
            if nij:
                p = nij / n
                mi += p * (math.log(p) - log_row[i] - log_col[j])
    return max(0.0, mi / ((h_row + h_col) / 2.0))


def ari(pred: Labeling, gold: Labeling) -> float:
    """Adjusted Rand index by pair counting on the contingency table."""
    table = _contingency(pred, gold)
    n = int(table.sum())
    if n < 2:
        raise LengthMismatch("ari needs at least 2 lines")
    index = sum(math.comb(int(v), 2) for v in table.ravel().tolist())
    sum_rows = sum(math.comb(int(v), 2) for v in table.sum(axis=1).tolist())
    sum_cols = sum(math.comb(int(v), 2) for v in table.sum(axis=0).tolist())
    total = math.comb(n, 2)
    expected = sum_rows * sum_cols / total
    denominator = (sum_rows + sum_cols) / 2 - expected
    if denominator == 0.0:
        # both labelings trivial in the same way
        return 1.0
    return (index - expected) / denominator


def welch_t(a: SampleStats, b: SampleStats) -> float:
    """(mean_a - mean_b) / sqrt(var_a/n_a + var_b/n_b)."""
    se2 = a.var / a.n + b.var / b.n
    diff = a.mean - b.mean
    if se2 == 0.0:
        if diff == 0.0:
            raise ZeroVariance("both variances are zero with equal means")
        return math.copysign(math.inf, diff)
    return diff / math.sqrt(se2)


def welch_df(a: SampleStats, b: SampleStats) -> float:
    """Welch-Satterthwaite degrees of freedom."""
    ua = a.var / a.n
    ub = b.var / b.n
    if ua + ub == 0.0:
        raise ZeroVariance("both variances are zero")
    return (ua + ub) ** 2 / (ua * ua / (a.n - 1) + ub * ub / (b.n - 1))


# ---------------------------------------------------------------------------
# Labeling constructors for scene splits
# ---------------------------------------------------------------------------

def labels_from_breaks(m: int, breaks: Sequence[int]) -> list[int]:
    """Per-line scene ids for break positions over m lines."""
    if m < 1:
        raise InvalidCount("need at least one line")
    labels = [0] * m
    scene = 0
    cut = set(breaks)
    for t in range(1, m):
        if t in cut:
            scene += 1
        labels[t] = scene
    return labels


def uniform_breaks(m: int, k: int) -> list[int]:
    """Breaks splitting m lines into k near-equal contiguous scenes."""
    if not 1 <= k <= m:
        raise InvalidCount(f"need 1 <= k <= m, got k={k}, m={m}")
    return [round(i * m / k) for i in range(1, k)]
