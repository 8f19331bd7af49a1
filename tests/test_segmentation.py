"""Scene segmentation: span costs, the prefix DP, and exhaustive oracles."""

import itertools
import math
import random
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from conftest import make_transcript
from scenefuse.errors import EmptyTranscript, InvalidCount
from scenefuse.model import Transcript, scene_roster
from scenefuse.pipeline import STAGES
from scenefuse.segmentation import (
    _span_columns,
    _tables,
    codebook_cost,
    effective_partition,
    optimal_partition,
    partition_from_breaks,
)

SPEAKER_POOL = ["Alice", "Bob", "Charlie", "Dana"]


def scene_cost(n_total: int, n_scene: int, length: int) -> float:
    """Bits to encode one scene: codebook plus l * log2(n) line terms."""
    if length < 1:
        raise InvalidCount(f"scene length must be >= 1, got {length}")
    return codebook_cost(n_total, n_scene) + length * math.log2(n_scene)


class SpanCosts(NamedTuple):
    """(m+1) x (m+1) distinct-speaker counts and scene costs of the spans [i, j), i < j."""

    n_total: int
    counts: np.ndarray
    costs: np.ndarray


def span_costs(transcript: Transcript, n_speakers: int | None = None) -> SpanCosts:
    """Every column of span counts and costs, stacked as the DP never does."""
    tables = _tables(transcript, n_speakers)
    m = len(transcript.lines)
    counts = np.zeros((m + 1, m + 1), np.int64)
    costs = np.zeros((m + 1, m + 1), np.float64)
    for j, count_col, cost_col in _span_columns(transcript, tables):
        counts[:j, j] = count_col
        costs[:j, j] = cost_col
    return SpanCosts(tables.n_total, counts, costs)


def random_transcript(rng: random.Random, m: int, n_names: int):
    names = SPEAKER_POOL[:n_names]
    return make_transcript([rng.choice(names) for _ in range(m)])


def closed_form_cost(n_total: int, n_scene: int, length: int) -> float:
    # direct closed form, independent of the log-space accumulation
    return math.log2(math.comb(n_total, n_scene)) + length * math.log2(n_scene)


def fold_closed_form(transcript, breaks, n_total: int) -> float:
    bounds = [0, *breaks, len(transcript.lines)]
    total = 0.0
    for a, b in zip(bounds, bounds[1:]):
        n = len(scene_roster(transcript, a, b))
        total += closed_form_cost(n_total, n, b - a)
    return total


def enumerate_breaks(m: int):
    for mask in range(1 << (m - 1)):
        yield tuple(k for k in range(1, m) if mask >> (k - 1) & 1)


def reference_optimum(transcript, n_total: int):
    """Exhaustive search written only against the closed form."""
    best = None
    for breaks in enumerate_breaks(len(transcript.lines)):
        total = fold_closed_form(transcript, breaks, n_total)
        key = (total, len(breaks) + 1, breaks)
        if best is None or key < best:
            best = key
    return best


def exact_key(transcript, breaks, n_total: int):
    """(2 ** bits as an integer, scene count, breaks): the ranking of partitions."""
    bounds = [0, *breaks, len(transcript.lines)]
    product = 1
    for a, b in zip(bounds, bounds[1:]):
        n = len(scene_roster(transcript, a, b))
        product *= math.comb(n_total, n) * n ** (b - a)
    return product, len(bounds) - 1, tuple(breaks)


def brute_force_partition(transcript, n_speakers=None):
    """Exhaustive minimum over all contiguous partitions (oracle).

    Ranks every partition by exact_key, as optimal_partition ranks its
    candidates, and costs the winner with partition_from_breaks, so the
    two agree exactly, tie-breaking included.
    """
    m = len(transcript.lines)
    if m == 0:
        raise EmptyTranscript("cannot partition an empty transcript")
    assert m <= 18, f"{m} lines are too many to enumerate"
    n_total = len(transcript.roster) if n_speakers is None else n_speakers
    best = min(exact_key(transcript, breaks, n_total) for breaks in enumerate_breaks(m))
    return partition_from_breaks(transcript, best[2], n_speakers)


def reference_dp(transcript, n_speakers=None):
    """The prefix DP as a double loop over the dense span matrices.

    Each prefix keeps the path of least exact key and that path's float
    fold of the span costs.
    """
    table = span_costs(transcript, n_speakers)
    costs, counts = table.costs, table.counts
    m = len(transcript.lines)

    best_key = [(1, 0, ())] + [None] * m
    best_cost = [0.0] * (m + 1)
    for j in range(1, m + 1):
        for i in range(j):
            n = int(counts[i, j])
            product, nscenes, breaks = best_key[i]
            key = (
                product * math.comb(table.n_total, n) * n ** (j - i),
                nscenes + 1,
                breaks + (i,) if i else (),
            )
            if best_key[j] is None or key < best_key[j]:
                best_key[j] = key
                best_cost[j] = best_cost[i] + costs[i, j]

    bounds = [0, *best_key[m][2], m]
    scene_costs = [float(costs[a, b]) for a, b in zip(bounds, bounds[1:])]
    return best_key[m][2], scene_costs, float(best_cost[m])


def test_codebook_cost_matches_binomials():
    assert codebook_cost(7, 2) == pytest.approx(math.log2(21), abs=1e-12)
    assert codebook_cost(7, 3) == pytest.approx(math.log2(35), abs=1e-12)
    for n_total in range(1, 17):
        for n in range(1, n_total + 1):
            expected = math.log2(math.comb(n_total, n))
            assert codebook_cost(n_total, n) == pytest.approx(expected, abs=1e-9)


def test_codebook_cost_is_symmetric_and_zero_at_full_roster():
    for n_total in range(1, 12):
        assert codebook_cost(n_total, n_total) == pytest.approx(0.0, abs=1e-12)
        for n in range(1, n_total + 1):
            assert codebook_cost(n_total, n) == pytest.approx(
                codebook_cost(n_total, n_total - n) if n < n_total else 0.0,
                abs=1e-9,
            )


@pytest.mark.parametrize(("n_total", "n"), [(0, 1), (3, 0), (3, 4), (-1, -1)])
def test_codebook_cost_rejects_bad_counts(n_total, n):
    with pytest.raises(InvalidCount):
        codebook_cost(n_total, n)


def test_scene_cost_single_speaker_pays_only_the_codebook():
    # l * log2(1) vanishes no matter how long the scene is
    assert scene_cost(5, 1, 100) == pytest.approx(math.log2(5), abs=1e-12)
    assert scene_cost(5, 1, 1) == scene_cost(5, 1, 100)


def test_scene_cost_grows_by_log2_n_per_line():
    for n in range(2, 6):
        step = scene_cost(6, n, 11) - scene_cost(6, n, 10)
        assert step == pytest.approx(math.log2(n), abs=1e-9)


def test_scene_cost_rejects_empty_scene():
    with pytest.raises(InvalidCount):
        scene_cost(3, 2, 0)


def test_span_costs_counts_and_costs_match_direct_evaluation():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 12)
        t = random_transcript(rng, m, rng.randint(2, 4))
        table = span_costs(t)
        n_total = len(t.roster)
        assert table.n_total == n_total
        for i in range(m):
            for j in range(i + 1, m + 1):
                n = len(scene_roster(t, i, j))
                assert table.counts[i, j] == n
                assert table.costs[i, j] == pytest.approx(
                    closed_form_cost(n_total, n, j - i), abs=1e-9
                )


def test_span_costs_speaker_count_injection():
    t = make_transcript(["Alice", "Alice", "Bob"])
    assert span_costs(t, n_speakers=5).n_total == 5
    with pytest.raises(InvalidCount):
        span_costs(t, n_speakers=1)


def test_optimal_matches_brute_force_exactly():
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randint(1, 10)
        t = random_transcript(rng, m, rng.randint(2, 4))
        dp = optimal_partition(t)
        bf = brute_force_partition(t)
        assert dp.total_cost == bf.total_cost  # bit-identical, not approx
        assert dp.breaks == bf.breaks
        assert dp.scenes == bf.scenes


def test_optimal_total_matches_independent_exhaustive_search():
    rng = random.Random(13)
    for _ in range(40):
        m = rng.randint(1, 9)
        t = random_transcript(rng, m, rng.randint(2, 4))
        n_total = len(t.roster)
        best = reference_optimum(t, n_total)
        part = optimal_partition(t)
        assert part.total_cost == pytest.approx(best[0], abs=1e-9)
        # the returned breaks are optimal under the independent arithmetic too
        assert fold_closed_form(t, part.breaks, n_total) == pytest.approx(
            best[0], abs=1e-9
        )


def test_optimal_never_beaten_by_sampled_competitors():
    rng = random.Random(17)
    for _ in range(10):
        m = rng.randint(5, 40)
        t = random_transcript(rng, m, 4)
        part = optimal_partition(t)
        for _ in range(20):
            n_breaks = rng.randint(0, m - 1)
            breaks = sorted(rng.sample(range(1, m), n_breaks))
            other = partition_from_breaks(t, breaks)
            assert part.total_cost <= other.total_cost + 1e-9


def test_exact_ties_prefer_fewer_scenes():
    # alternating two speakers: every partition of ABAB costs exactly 4 bits,
    # so the single-scene encoding must win
    t = make_transcript(["Alice", "Bob", "Alice", "Bob"])
    part = optimal_partition(t)
    assert part.total_cost == 4.0
    assert part.breaks == ()
    assert brute_force_partition(t) == part


def test_exact_description_length_decides_ties_among_five_or_more_names():
    # [0, 6) and [0, 1) + [1, 6) both cost exactly log2(5^6) bits, but
    # their float folds differ by one ulp: the single scene must win
    t = make_transcript(list("AECABDEE"))
    assert optimal_partition(t).breaks == (6,)
    assert brute_force_partition(t).breaks == (6,)
    rng = random.Random(37)
    for _ in range(400):
        names = [f"S{k}" for k in range(rng.randint(5, 8))]
        t = make_transcript([rng.choice(names) for _ in range(rng.randint(1, 10))])
        dp, bf = optimal_partition(t), brute_force_partition(t)
        assert (dp.breaks, dp.total_cost) == (bf.breaks, bf.total_cost)


def test_single_speaker_with_injected_roster_stays_whole():
    t = make_transcript(["Alice"] * 4)
    part = optimal_partition(t, n_speakers=2)
    assert part.breaks == ()
    assert part.total_cost == 1.0


def test_partition_shape_and_reported_costs():
    rng = random.Random(19)
    t = random_transcript(rng, 14, 3)
    part = optimal_partition(t)
    bounds = [0] + list(part.breaks) + [len(t.lines)]
    assert [s.start for s in part.scenes] == bounds[:-1]
    assert [s.end for s in part.scenes] == bounds[1:]
    for scene in part.scenes:
        assert scene.roster == scene_roster(t, scene.start, scene.end)
        assert scene.length == scene.end - scene.start
        assert scene.n_speakers == len(scene.roster)
    assert sum(s.cost_bits for s in part.scenes) == part.total_cost


def test_partition_from_breaks_sorts_dedupes_and_validates():
    t = make_transcript(["Alice", "Bob", "Alice", "Bob", "Charlie"])
    part = partition_from_breaks(t, [3, 1, 3])
    assert part.breaks == (1, 3)
    with pytest.raises(InvalidCount):
        partition_from_breaks(t, [0])
    with pytest.raises(InvalidCount):
        partition_from_breaks(t, [5])


def test_partition_from_breaks_every_line():
    t = make_transcript(["Alice", "Bob", "Alice"])
    part = partition_from_breaks(t, range(1, 3))
    assert len(part.scenes) == 3
    assert all(s.length == 1 for s in part.scenes)


def test_effective_partition_honors_markers():
    text = "Alice: a\nBob: b\n[SCENE_BREAK]\nAlice: c\nBob: d\n"
    from scenefuse.model import parse_transcript

    t = parse_transcript(text)
    part = effective_partition(t)
    assert part.breaks == (2,)
    # without markers it falls back to the search
    t2 = make_transcript(["Alice", "Bob", "Alice", "Bob"])
    assert effective_partition(t2) == optimal_partition(t2)


def test_empty_transcript_rejected_everywhere():
    empty = Transcript(lines=())
    with pytest.raises(EmptyTranscript):
        optimal_partition(empty)
    with pytest.raises(EmptyTranscript):
        brute_force_partition(empty)
    with pytest.raises(EmptyTranscript):
        partition_from_breaks(empty, [])


def test_to_dict_round_trips_the_interesting_fields():
    t = make_transcript(["Alice", "Bob", "Alice", "Charlie"])
    part = optimal_partition(t)
    data = STAGES["segment"].dump(None, part)
    assert data["breaks"] == list(part.breaks)
    assert data["total_cost_bits"] == part.total_cost
    assert [s["start"] for s in data["scenes"]] == [s.start for s in part.scenes]
    assert all(s["roster"] == sorted(s["roster"]) for s in data["scenes"])


@pytest.mark.parametrize("seed", range(6))
def test_optimal_matches_reference_double_loop_bitwise(seed):
    # few speakers make exact cost ties frequent, so the tie rule is
    # exercised far beyond what the brute-force sizes reach
    rng = random.Random(100 + seed)
    for _ in range(8):
        m = rng.randint(20, 300)
        t = random_transcript(rng, m, rng.randint(1, 3))
        n_speakers = rng.choice([None, len(t.roster) + rng.randint(0, 3)])
        breaks, scene_costs, total = reference_dp(t, n_speakers)
        part = optimal_partition(t, n_speakers)
        assert part.breaks == breaks
        assert [s.cost_bits for s in part.scenes] == scene_costs
        assert part.total_cost.hex() == total.hex()
        assert [s.roster for s in part.scenes] == [
            scene_roster(t, s.start, s.end) for s in part.scenes
        ]


def test_exact_ties_across_scene_counts_prefer_fewer_scenes():
    # (3,) and (1, 2, 5) cost exactly the same; the lexicographically
    # smaller tuple loses because it has more scenes
    t = make_transcript(list("ABACAB"))
    part = optimal_partition(t)
    assert part.breaks == (3,)
    assert partition_from_breaks(t, (1, 2, 5)).total_cost == part.total_cost
    assert brute_force_partition(t) == part
    # every three-speaker transcript of six lines, where such ties abound
    for names in itertools.product("ABC", repeat=6):
        t = make_transcript(list(names))
        for n_speakers in (None, 4):
            breaks, _, total = reference_dp(t, n_speakers)
            part = optimal_partition(t, n_speakers)
            assert (part.breaks, part.total_cost) == (breaks, total)


def test_partition_from_breaks_costs_match_the_span_matrix():
    rng = random.Random(23)
    for _ in range(30):
        m = rng.randint(1, 80)
        t = random_transcript(rng, m, rng.randint(1, 4))
        n_speakers = rng.choice([None, len(t.roster) + 2])
        breaks = sorted(rng.sample(range(1, m), rng.randint(0, m - 1))) if m > 1 else []
        part = partition_from_breaks(t, breaks, n_speakers)
        costs = span_costs(t, n_speakers).costs
        bounds = [0, *breaks, m]
        expected = [float(costs[a, b]) for a, b in zip(bounds, bounds[1:])]
        assert [s.cost_bits for s in part.scenes] == expected
        total = 0.0
        for cost in expected:
            total += cost
        assert part.total_cost.hex() == total.hex()


def test_dp_columns_are_the_span_matrix_columns():
    rng = random.Random(29)
    for _ in range(20):
        m = rng.randint(1, 120)
        t = random_transcript(rng, m, rng.randint(1, 4))
        n_speakers = rng.choice([None, len(t.roster) + 1])
        table = span_costs(t, n_speakers)
        seen = []
        for j, counts, costs in _span_columns(t, _tables(t, n_speakers)):
            assert counts.tobytes() == table.counts[:j, j].tobytes()
            assert costs.tobytes() == table.costs[:j, j].tobytes()
            seen.append(j)
        assert seen == list(range(1, m + 1))


def test_optimal_partition_memory_is_linear_in_lines():
    rng = random.Random(31)
    names = [f"S{k}" for k in range(16)]
    t = make_transcript([rng.choice(names) for _ in range(4000)])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        optimal_partition(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense span table alone would be 4001^2 float64 cells, ~122 MiB
    assert peak < 10 * 2**20
