"""Transcript/caption alignment: LCS similarity and the DTW search."""

import random

import pytest

from scenefuse import kernels
from scenefuse.alignment import (
    Alignment,
    TimeSpan,
    dtw_align,
    normalize_text,
    scene_time_spans,
)
from scenefuse.errors import EmptySequence, UncoveredScene
from scenefuse.model import CaptionCue, CaptionTrack, parse_transcript
from scenefuse.pipeline import STAGES
from scenefuse.segmentation import partition_from_breaks

STEPS = ((1, 0), (0, 1), (1, 1))


def lcs_length(a: str, b: str) -> int:
    """Character-level longest-common-subsequence length (normalized)."""
    return kernels.lcs_length_codes(
        kernels.encode_text(normalize_text(a)),
        kernels.encode_text(normalize_text(b)),
    )


def line_similarity(line: str, cue: str) -> float:
    """lcs / min length in [0, 1]; 0 when either side normalizes empty."""
    a, b = normalize_text(line), normalize_text(cue)
    if not a or not b:
        return 0.0
    return lcs_length(a, b) / min(len(a), len(b))


def lcs_reference(a: str, b: str) -> int:
    """Plain quadratic table, characters as-is."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, ca in enumerate(a, 1):
        for j, cb in enumerate(b, 1):
            if ca == cb:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def enumerate_paths(m: int, k: int):
    """Every monotone step path from (0, 0) to (m-1, k-1)."""
    def extend(path):
        i, j = path[-1]
        if (i, j) == (m - 1, k - 1):
            yield list(path)
            return
        for di, dj in STEPS:
            ni, nj = i + di, j + dj
            if ni < m and nj < k:
                path.append((ni, nj))
                yield from extend(path)
                path.pop()

    yield from extend([(0, 0)])


def path_cost(path, lines, cues) -> float:
    return sum(1.0 - line_similarity(lines[i], cues[j]) for i, j in path)


def random_phrase(rng: random.Random) -> str:
    words = ["sun", "rise", "dock", "harbor", "call", "night", "blank", "page"]
    return " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))


def test_normalize_text():
    assert normalize_text("  Hello   WORLD \t") == "hello world"
    assert normalize_text("") == ""
    assert normalize_text(" \n ") == ""


def test_lcs_length_known_pair():
    assert lcs_length("kitten", "sitting") == 4
    assert lcs_length("abc", "abc") == 3
    assert lcs_length("abc", "xyz") == 0
    assert lcs_length("", "abc") == 0


def test_lcs_length_normalizes_before_matching():
    assert lcs_length("A  B", "a b") == 3
    assert lcs_length("HELLO", "hello") == 5


def test_lcs_length_matches_quadratic_reference():
    rng = random.Random(23)
    alphabet = "abcd "
    for _ in range(100):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert lcs_length(a, b) == lcs_reference(normalize_text(a), normalize_text(b))


def test_line_similarity_values():
    assert line_similarity("sunset", "sunrise") == 5 / 6
    assert line_similarity("same text", "same text") == 1.0
    # divisor is the shorter side, so containment scores full marks
    assert line_similarity("hello there", "hello") == 1.0
    assert line_similarity("", "anything") == 0.0
    assert line_similarity("   ", "anything") == 0.0


def test_dtw_identical_sequences_take_the_diagonal_at_zero_cost():
    lines = ["first cue", "second cue", "third cue"]
    alignment = dtw_align(lines, list(lines))
    assert alignment.pairs == ((0, 0), (1, 1), (2, 2))
    assert alignment.total_cost == 0.0


def test_dtw_requires_nonempty_sequences():
    with pytest.raises(EmptySequence):
        dtw_align([], ["x"])
    with pytest.raises(EmptySequence):
        dtw_align(["x"], [])


def test_dtw_backtrack_tie_prefers_diagonal():
    lines = ["aa", "bb", "cc"]
    cues = ["aa", "cc"]
    alignment = dtw_align(lines, cues)
    assert alignment.total_cost == pytest.approx(1.0, abs=1e-12)
    # (1, 0) and (1, 1) tie at 1.0; the diagonal predecessor wins
    assert alignment.pairs == ((0, 0), (1, 0), (2, 1))


def test_dtw_path_shape_invariants():
    rng = random.Random(29)
    for _ in range(50):
        m, k = rng.randint(1, 8), rng.randint(1, 8)
        lines = [random_phrase(rng) for _ in range(m)]
        cues = [random_phrase(rng) for _ in range(k)]
        alignment = dtw_align(lines, cues)
        pairs = alignment.pairs
        assert pairs[0] == (0, 0)
        assert pairs[-1] == (m - 1, k - 1)
        assert len(pairs) <= m + k - 1
        for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
            assert (i1 - i0, j1 - j0) in STEPS
        assert alignment.total_cost == pytest.approx(
            path_cost(pairs, lines, cues), abs=1e-9
        )


def test_dtw_matches_exhaustive_path_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        m, k = rng.randint(1, 6), rng.randint(1, 7)
        lines = [random_phrase(rng) for _ in range(m)]
        cues = [random_phrase(rng) for _ in range(k)]
        best = min(
            path_cost(path, lines, cues) for path in enumerate_paths(m, k)
        )
        alignment = dtw_align(lines, cues)
        assert alignment.total_cost == pytest.approx(best, abs=1e-9)


def test_alignment_to_dict():
    alignment = Alignment(((0, 0), (1, 1)), 0.25)
    assert STAGES["align"].dump(alignment) == {
        "path": [[0, 0], [1, 1]], "total_cost": 0.25
    }


def test_scene_time_spans_from_matched_cues():
    t = parse_transcript(
        "A: alpha one\nA: alpha two\nB: beta one\nB: beta two\n"
    )
    cues = CaptionTrack(
        tuple(
            CaptionCue(i * 1000, (i + 1) * 1000, text)
            for i, text in enumerate(
                ["alpha one", "alpha two", "beta one", "beta two"]
            )
        )
    )
    partition = partition_from_breaks(t, (2,))
    alignment = dtw_align(
        [ln.text for ln in t.lines], [c.text for c in cues.cues]
    )
    spans = scene_time_spans(partition, alignment, cues)
    assert spans == [TimeSpan(0, 2000), TimeSpan(2000, 4000)]


def test_scene_time_spans_cover_warped_matches():
    # both lines of scene 1 map onto the single overlapping cue
    t = parse_transcript("A: one\nA: two\nB: three\n")
    cues = CaptionTrack((CaptionCue(0, 500, "one"), CaptionCue(500, 900, "three")))
    partition = partition_from_breaks(t, (2,))
    alignment = dtw_align([ln.text for ln in t.lines], [c.text for c in cues.cues])
    spans = scene_time_spans(partition, alignment, cues)
    assert spans[0] == TimeSpan(0, 500)
    assert spans[1] == TimeSpan(500, 900)


def test_scene_without_any_matched_cue_is_an_error():
    t = parse_transcript("A: one\nA: two\nB: three\n")
    cues = CaptionTrack((CaptionCue(0, 500, "one"), CaptionCue(500, 900, "two")))
    partition = partition_from_breaks(t, (1, 2))
    sparse = Alignment(((0, 0), (1, 1)), 0.0)  # line 2 never matched
    with pytest.raises(UncoveredScene):
        scene_time_spans(partition, sparse, cues)


def test_spans_to_dicts():
    assert STAGES["spans"].dump([TimeSpan(0, 10), TimeSpan(10, 30)]) == [
        {"scene": 0, "start_ms": 0, "end_ms": 10},
        {"scene": 1, "start_ms": 10, "end_ms": 30},
    ]
