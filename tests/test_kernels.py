"""Numeric kernels: the bit-parallel LCS must equal the textbook DP exactly.

The per-pair LCS loop, the fancy-index anti-diagonal DTW fill and the
scalar backtrack below are the kernels' previous implementations, kept as
oracles: the packed-lane and strided kernels must return the same bytes.
"""

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


def _match_masks_oracle(codes: list[int]) -> dict[int, int]:
    masks: dict[int, int] = {}
    for i, c in enumerate(codes):
        masks[c] = masks.get(c, 0) | (1 << i)
    return masks


def _lcs_bits_oracle(masks: dict[int, int], la: int, other: list[int]) -> int:
    full = (1 << la) - 1
    v = full
    for c in other:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return la - v.bit_count()


def pair_cost_matrix_oracle(lines, cues) -> np.ndarray:
    """One bit-parallel LCS per (line, cue) pair."""
    cue_codes = [np.asarray(cue).tolist() for cue in cues]
    out = np.empty((len(lines), len(cues)), np.float64)
    for i, line in enumerate(lines):
        codes = np.asarray(line).tolist()
        la = len(codes)
        masks = _match_masks_oracle(codes)
        for j, cue in enumerate(cue_codes):
            lb = len(cue)
            if la == 0 or lb == 0:
                out[i, j] = 1.0
            else:
                out[i, j] = 1.0 - _lcs_bits_oracle(masks, la, cue) / min(la, lb)
    return out


def dtw_table_oracle(cost) -> np.ndarray:
    """Anti-diagonal fill through np.arange index gathers."""
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    m, k = cost.shape
    d = np.full((m + 1, k + 1), np.inf)
    d[1, 1] = cost[0, 0]
    for s in range(3, m + k + 1):
        i = np.arange(max(1, s - k), min(m, s - 1) + 1)
        j = s - i
        best = np.minimum(d[i - 1, j - 1], np.minimum(d[i - 1, j], d[i, j - 1]))
        d[i, j] = cost[i - 1, j - 1] + best
    return d[1:, 1:]


def dtw_backtrack_oracle(d) -> list[tuple[int, int]]:
    """One NumPy scalar read per predecessor, ties resolved by min()."""
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


def ragged_codes(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Empty, short, past-64 and past-1000 sequences over a small alphabet,
    half of them of code points above U+FFFF."""
    out = []
    for _ in range(count):
        length = int(rng.choice([0, int(rng.integers(1, 9)), int(rng.integers(60, 140)),
                                 int(rng.integers(1001, 1100))], p=[0.1, 0.4, 0.4, 0.1]))
        base = 0x1F600 if rng.random() < 0.5 else 97
        out.append(rng.integers(base, base + 5, size=length).astype(np.int32))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_pair_cost_matrix_equals_per_pair_oracle(seed):
    rng = np.random.default_rng(seed)
    empty = encode_text("")
    lines = [empty, *ragged_codes(rng, int(rng.integers(0, 13)))]
    cues = [*ragged_codes(rng, int(rng.integers(0, 9))), empty]
    expected = pair_cost_matrix_oracle(lines, cues)
    got = pair_cost_matrix(lines, cues)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_lane_whose_lcs_is_its_whole_length_keeps_its_neighbours_exact():
    # each match in a lane matched in full carries out of the lane's top
    # bit, into its zero guard bit; the lane above has already lost ones
    # to "xyz" by then, so a carry that leaked into it would show. Lengths
    # 7, 8 and 9 put the guard bit at the end of a byte and past it.
    cue_text = "xyz abcdefghi"
    texts = ["abcdefg", "zyx", "abcdefgh", "xyz", "abcdefghi", "zz", "", "ihgfedcba", "aaaa"]
    lines = [encode_text(t) for t in texts]
    cue = encode_text(cue_text)
    got = pair_cost_matrix(lines, [cue])
    assert got.tobytes() == pair_cost_matrix_oracle(lines, [cue]).tobytes()
    assert got[:, 0].tolist() == [0.0, 1 - 1 / 3, 0.0, 0.0, 0.0, 0.5, 1.0, 1 - 1 / 9, 0.75]
    for line, text in zip(lines, texts):
        assert lcs_length_codes(line, cue) == lcs_reference(text, cue_text)


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 2), (1, 30), (2, 1), (30, 1), (2, 2), (7, 19), (19, 7), (24, 27)]
)
def test_dtw_table_and_backtrack_equal_the_oracles(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    # few distinct costs, so equal-cost predecessors and ties are common
    for cost in (rng.random(shape), rng.integers(0, 3, size=shape) / 2):
        table = dtw_table(cost)
        expected = dtw_table_oracle(cost)
        assert table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()
        assert dtw_backtrack(table) == dtw_backtrack_oracle(expected)
