"""Numeric kernels: the bit-parallel LCS must equal the textbook DP exactly."""

import numpy as np
import pytest

from scenefuse.kernels import (
    dtw_backtrack,
    dtw_table,
    encode_text,
    lcs_length_codes,
    pair_cost_matrix,
)


def lcs_reference(a, b) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, ca in enumerate(a, 1):
        for j, cb in enumerate(b, 1):
            if ca == cb:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def random_codes(rng: np.random.Generator, max_len: int) -> np.ndarray:
    n = int(rng.integers(0, max_len + 1))
    return rng.integers(97, 102, size=n).astype(np.int32)


def test_encode_text_code_points():
    assert encode_text("abc").tolist() == [97, 98, 99]
    assert encode_text("").shape == (0,)
    assert encode_text("héllo").tolist() == [104, 233, 108, 108, 111]
    assert encode_text("abc").dtype == np.int32


def test_lcs_length_codes_known_values():
    assert lcs_length_codes(encode_text("kitten"), encode_text("sitting")) == 4
    assert lcs_length_codes(encode_text(""), encode_text("abc")) == 0
    assert lcs_length_codes(encode_text("abc"), encode_text("abc")) == 3


def test_lcs_length_codes_matches_reference():
    rng = np.random.default_rng(37)
    for _ in range(80):
        a = random_codes(rng, 15)
        b = random_codes(rng, 15)
        assert lcs_length_codes(a, b) == lcs_reference(a.tolist(), b.tolist())


@pytest.mark.parametrize("length", [63, 64, 65, 130, 300])
def test_lcs_across_word_boundaries_matches_reference(length):
    # lines past 64 code points span several machine words in any packed
    # representation; the bit vector must carry across them exactly
    rng = np.random.default_rng(length)
    line = rng.integers(97, 101, size=length).astype(np.int32)
    for other_len in (1, length // 2, length - 1, length, length + 1, 2 * length):
        other = rng.integers(97, 101, size=other_len).astype(np.int32)
        expected = lcs_reference(line.tolist(), other.tolist())
        assert lcs_length_codes(line, other) == expected
        assert lcs_length_codes(other, line) == expected
    assert lcs_length_codes(line, line) == length


def test_lcs_non_bmp_and_accented_code_points():
    pairs = [
        ("🎬 café au lait 😀", "cafe 😀 au lait 🎬"),
        ("naïve façade", "naive facade"),
        ("𝔘𝔫𝔦𝔠𝔬𝔡𝔢 text", "text 𝔘𝔫𝔦"),
        ("e\u0301te\u0301", "\u00e9t\u00e9"),  # combining accents are code points of their own
        ("日本語のテキスト", "テキストの日本"),
    ]
    for a, b in pairs:
        codes_a, codes_b = encode_text(a), encode_text(b)
        assert codes_a.shape == (len(a),)  # one entry per code point, no surrogates
        expected = lcs_reference(a, b)
        assert lcs_length_codes(codes_a, codes_b) == expected
        cost = pair_cost_matrix([codes_a], [codes_b])
        assert cost[0, 0] == 1.0 - expected / min(len(a), len(b))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_lcs_single_repeated_character(n):
    run = encode_text("a" * n)
    for m in (1, max(1, n - 1), n, n + 7):
        assert lcs_length_codes(run, encode_text("a" * m)) == min(n, m)
        assert lcs_length_codes(run, encode_text("b" * m)) == 0
        mixed = encode_text("ab" * m)
        assert lcs_length_codes(run, mixed) == min(n, m)
        assert lcs_length_codes(mixed, run) == min(n, m)


def test_empty_side_costs_full_unit():
    empty, word = encode_text(""), encode_text("harbor")
    assert lcs_length_codes(empty, word) == 0
    assert lcs_length_codes(word, empty) == 0
    assert lcs_length_codes(empty, empty) == 0
    cost = pair_cost_matrix([empty, word], [word, empty])
    assert cost.tolist() == [[1.0, 1.0], [0.0, 1.0]]
    assert pair_cost_matrix([], [word]).shape == (0, 1)
    assert pair_cost_matrix([word], []).shape == (1, 0)


def test_pair_cost_matrix_equals_reference_on_ragged_sets():
    for seed in (3, 11):
        rng = np.random.default_rng(seed)
        lines = [random_codes(rng, 200) for _ in range(6)] + [encode_text("")]
        cues = [random_codes(rng, 200) for _ in range(5)] + [encode_text("ab")]
        expected = np.empty((len(lines), len(cues)))
        for i, a in enumerate(lines):
            for j, b in enumerate(cues):
                shorter = min(len(a), len(b))
                if shorter == 0:
                    expected[i, j] = 1.0
                else:
                    expected[i, j] = 1 - lcs_reference(a.tolist(), b.tolist()) / shorter
        assert np.array_equal(pair_cost_matrix(lines, cues), expected)  # exact


def dtw_table_reference(cost):
    m, k = cost.shape
    d = np.empty((m, k))
    for i in range(m):
        for j in range(k):
            preds = []
            if i and j:
                preds.append(d[i - 1, j - 1])
            if i:
                preds.append(d[i - 1, j])
            if j:
                preds.append(d[i, j - 1])
            d[i, j] = cost[i, j] + (min(preds) if preds else 0.0)
    return d


def test_dtw_table_equals_loop_reference():
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (1, 7), (6, 1), (9, 13), (20, 17)]:
        cost = rng.random(shape)
        assert np.array_equal(dtw_table(cost), dtw_table_reference(cost))


def test_pair_cost_matrix_matches_direct_formula():
    lines = [encode_text(t) for t in ["sunset", "dock", ""]]
    cues = [encode_text(t) for t in ["sunrise", "dock at night"]]
    out = pair_cost_matrix(lines, cues)
    assert out.shape == (3, 2)
    assert out[0, 0] == pytest.approx(1 - 5 / 6, abs=1e-12)
    assert out[1, 1] == 0.0  # containment: lcs == min length
    # an empty side always costs the full unit
    assert out[2, 0] == 1.0
    assert out[2, 1] == 1.0


def test_dtw_table_recurrence():
    cost = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    table = dtw_table(cost)
    # first row and column accumulate
    assert table[0].tolist() == [0.0, 1.0, 2.0]
    assert table[:, 0].tolist() == [0.0, 1.0]
    assert table[1, 1] == 0.0
    assert table[1, 2] == 1.0


def test_dtw_backtrack_prefers_diagonal_then_line_advance():
    table = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    # from (2, 1): predecessors (1, 0), (1, 1), (2, 0) cost 1, 1, 2; the
    # diagonal (1, 0) wins the tie
    assert dtw_backtrack(table) == [(0, 0), (1, 0), (2, 1)]


def test_public_entry_points_use_the_active_backend():
    a, b = encode_text("the harbor master"), encode_text("harbor")
    assert lcs_length_codes(a, b) == 6
    cost = pair_cost_matrix([a], [b])
    assert cost[0, 0] == 0.0
