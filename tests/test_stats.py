"""Agreement metrics and Welch statistics against hand and brute-force oracles."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from scenefuse.errors import InvalidCount, LengthMismatch, ZeroVariance
from scenefuse.stats import (
    SampleStats,
    ari,
    clustering_accuracy,
    labels_from_breaks,
    nmi,
    uniform_breaks,
    welch_df,
    welch_t,
)


def assignment_oracle(pred, gold) -> float:
    """Best agreement over injective relabelings, by trying every matching."""
    table = Counter(zip(pred, gold))
    rows = sorted({p for p in pred})
    cols = sorted({g for g in gold})
    size = max(len(rows), len(cols))
    best = 0
    for perm in itertools.permutations(range(size)):
        score = 0
        for i, row in enumerate(rows):
            j = perm[i]
            if j < len(cols):
                score += table[(row, cols[j])]
        best = max(best, score)
    return best / len(pred)


def random_labels(rng, length, k):
    return rng.integers(0, k, size=length).tolist()


# ---------------------------------------------------------------------------
# Clustering accuracy
# ---------------------------------------------------------------------------

def test_accuracy_hand_case():
    assert clustering_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


def test_accuracy_matches_exhaustive_matching():
    # square and rectangular tables up to 7x7; few lines per cell make
    # many tied counts. The sums are integers, so ACC must match by ==
    rng = np.random.default_rng(11)
    for trial in range(400):
        k_pred = int(rng.integers(1, 8))
        k_gold = k_pred if trial % 2 else int(rng.integers(1, 8))
        length = int(rng.integers(2, 4 * max(k_pred, k_gold) + 1))
        pred = random_labels(rng, length, k_pred)
        gold = random_labels(rng, length, k_gold)
        assert clustering_accuracy(pred, gold) == assignment_oracle(pred, gold)


def test_accuracy_beats_single_cell_pigeonhole():
    rng = np.random.default_rng(12)
    for _ in range(50):
        length = int(rng.integers(4, 40))
        pred = random_labels(rng, length, 4)
        gold = random_labels(rng, length, 4)
        floor = 1.0 / (len(set(pred)) * len(set(gold)))
        assert clustering_accuracy(pred, gold) >= floor


# ---------------------------------------------------------------------------
# NMI / ARI
# ---------------------------------------------------------------------------

def test_nmi_hand_case():
    assert nmi([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.3437110, abs=1e-6)


def test_identical_labelings_score_one_exactly():
    labels = [0, 0, 1, 2, 2, 2, 1, 0]
    assert nmi(labels, labels) == 1.0
    assert ari(labels, labels) == 1.0
    assert clustering_accuracy(labels, labels) == 1.0


def test_degenerate_constant_labelings():
    # zero entropy on both sides counts as full agreement
    assert nmi([3, 3, 3], [7, 7, 7]) == 1.0
    assert ari([3, 3, 3], [7, 7, 7]) == 1.0


def test_constant_prediction_scores_zero_ari():
    assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_nmi_is_clamped_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(100):
        length = int(rng.integers(2, 15))
        pred = random_labels(rng, length, 3)
        gold = random_labels(rng, length, 3)
        assert 0.0 <= nmi(pred, gold) <= 1.0 + 1e-12


def test_metrics_ignore_label_identities():
    rng = np.random.default_rng(14)
    for _ in range(200):
        length = int(rng.integers(2, 30))
        k = int(rng.integers(1, 5))
        pred = random_labels(rng, length, k)
        gold = random_labels(rng, length, k)
        mapping = {old: 100 - new for new, old in enumerate(rng.permutation(k).tolist())}
        shuffled = [mapping[p] for p in pred]
        assert clustering_accuracy(shuffled, gold) == pytest.approx(
            clustering_accuracy(pred, gold), abs=1e-12
        )
        assert nmi(shuffled, gold) == pytest.approx(nmi(pred, gold), abs=1e-12)
        assert ari(shuffled, gold) == pytest.approx(ari(pred, gold), abs=1e-12)


def test_independent_labelings_score_near_chance():
    rng = np.random.default_rng(15)
    k, n = 50, 10_000
    pred = random_labels(rng, n, k)
    gold = random_labels(rng, n, k)
    assert nmi(pred, gold) < 0.05
    assert abs(ari(pred, gold)) < 0.05
    acc = clustering_accuracy(pred, gold)
    assert 1.0 / k <= acc < 1.0 / k + 0.05


@pytest.mark.parametrize("metric", [clustering_accuracy, nmi, ari])
def test_metrics_validate_lengths(metric):
    with pytest.raises(LengthMismatch):
        metric([0, 0, 1], [0, 1])
    with pytest.raises(LengthMismatch):
        metric([], [])


# ---------------------------------------------------------------------------
# Welch statistics
# ---------------------------------------------------------------------------

def stats(mean, std, n=5):
    return SampleStats(mean=mean, std=std, n=n)


def test_welch_hand_case():
    a = stats(44.86, 0.60)
    b = stats(42.24, 0.42)
    assert welch_t(a, b) == pytest.approx(7.999, abs=0.001)
    assert welch_df(a, b) == pytest.approx(7.161, abs=0.001)


def test_welch_t_is_antisymmetric():
    a = stats(10.0, 1.5, 8)
    b = stats(7.5, 2.5, 12)
    assert welch_t(a, b) == -welch_t(b, a)
    assert welch_df(a, b) == welch_df(b, a)


def test_welch_t_zero_for_equal_means():
    assert welch_t(stats(3.0, 1.0), stats(3.0, 2.0)) == 0.0


def test_welch_df_identities():
    # equal variances and sizes collapse to the pooled 2(n-1)
    a = stats(1.0, 2.0, 9)
    b = stats(5.0, 2.0, 9)
    assert welch_df(a, b) == pytest.approx(16.0, abs=1e-12)
    # one degenerate sample leaves the other sample's n-1
    assert welch_df(stats(1.0, 0.0, 4), stats(2.0, 1.0, 7)) == pytest.approx(6.0)


def test_welch_zero_variance_cases():
    with pytest.raises(ZeroVariance):
        welch_t(stats(2.0, 0.0), stats(2.0, 0.0))
    with pytest.raises(ZeroVariance):
        welch_df(stats(1.0, 0.0), stats(2.0, 0.0))
    assert welch_t(stats(3.0, 0.0), stats(1.0, 0.0)) == math.inf
    assert welch_t(stats(1.0, 0.0), stats(3.0, 0.0)) == -math.inf


def test_sample_stats_validation():
    with pytest.raises(InvalidCount):
        stats(1.0, 1.0, n=1)
    with pytest.raises(InvalidCount):
        stats(1.0, -0.5)
    assert stats(0.0, 3.0).var == 9.0


# ---------------------------------------------------------------------------
# Labeling constructors
# ---------------------------------------------------------------------------

def test_labels_from_breaks():
    assert labels_from_breaks(5, (2,)) == [0, 0, 1, 1, 1]
    assert labels_from_breaks(4, ()) == [0, 0, 0, 0]
    assert labels_from_breaks(6, (1, 4)) == [0, 1, 1, 1, 2, 2]
    with pytest.raises(InvalidCount):
        labels_from_breaks(0, ())


def test_uniform_breaks():
    assert uniform_breaks(10, 1) == []
    assert uniform_breaks(10, 4) == [2, 5, 8]
    assert uniform_breaks(46, 3) == [15, 31]
    assert uniform_breaks(5, 5) == [1, 2, 3, 4]
    with pytest.raises(InvalidCount):
        uniform_breaks(10, 0)
    with pytest.raises(InvalidCount):
        uniform_breaks(3, 4)


def test_uniform_breaks_balance():
    for m in range(1, 40):
        for k in range(1, m + 1):
            breaks = uniform_breaks(m, k)
            labels = labels_from_breaks(m, breaks)
            sizes = Counter(labels)
            assert len(sizes) == k
            assert max(sizes.values()) - min(sizes.values()) <= 1
