"""Scene reordering: IOU distance, causality pairs, greedy vs exhaustive."""

import random

import pytest

from conftest import make_transcript
from scenefuse import reordering
from scenefuse.errors import TooLarge
from scenefuse.pipeline import STAGES
from scenefuse.reordering import (
    SceneOrder,
    _distance,
    _masks,
    brute_force_reorder,
    causality,
    iou,
    order_cost,
    reorder,
)
from scenefuse.segmentation import partition_from_breaks

NAMES = ["Alice", "Bob", "Charlie", "Dana", "Ed"]


def random_rosters(rng: random.Random, n: int) -> list[set[str]]:
    return [
        set(rng.sample(NAMES, rng.randint(1, 3)))
        for _ in range(n)
    ]


def reference_reorder(rosters):
    """The greedy pass folding every candidate order in full."""
    n = len(rosters)
    sets = [set(r) for r in rosters]
    if n <= 1:
        return SceneOrder(tuple(range(n)), 0.0)
    dist = [[1.0 - iou(a, b) for b in sets] for a in sets]
    shares = [[bool(sets[i] & sets[j]) for j in range(n)] for i in range(n)]

    def fold(perm):
        total = 0.0
        for a, b in zip(perm, perm[1:]):
            total += dist[a][b]
        return total

    perm = list(range(n))
    current = fold(perm)
    moved = True
    while moved:
        moved = False
        for p in range(1, n):
            scene = perm[p]
            dest = 0
            for t in range(p - 1, -1, -1):
                if shares[perm[t]][scene]:
                    dest = t + 1
                    break
            if dest == p:
                continue
            candidate = perm[:dest] + [scene] + perm[dest:p] + perm[p + 1:]
            cost = fold(candidate)
            if cost < current:
                perm = candidate
                current = cost
                moved = True
                break
    return SceneOrder(tuple(perm), current)


def small_pool_rosters(rng: random.Random, n: int) -> list[set[str]]:
    # 1-4 names and empty rosters: many equal distances, so exact ties
    # and near-ties reach the delta screen
    pool = NAMES[: rng.randint(1, 4)]
    return [set(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(n)]


def positions(perm):
    return {scene: t for t, scene in enumerate(perm)}


def test_iou_values():
    assert iou({"Alice", "Bob"}, {"Bob", "Charlie"}) == 1 / 3
    assert iou({"Alice"}, {"Alice"}) == 1.0
    assert iou({"Alice"}, {"Bob"}) == 0.0
    assert iou(set(), {"Bob"}) == 0.0
    assert iou(set(), set()) == 0.0
    assert iou(["Alice", "Alice", "Bob"], ("Bob",)) == 0.5


def test_order_cost_sums_adjacent_distances():
    rosters = [{"Alice", "Bob"}, {"Bob", "Charlie"}, {"Charlie"}]
    expected = (1 - 1 / 3) + (1 - 1 / 2)
    assert order_cost(rosters) == pytest.approx(expected, abs=1e-12)
    assert order_cost([]) == 0.0
    assert order_cost([{"Alice"}]) == 0.0


def test_order_cost_is_reversal_invariant():
    rng = random.Random(3)
    for _ in range(20):
        rosters = random_rosters(rng, rng.randint(2, 7))
        assert order_cost(rosters) == pytest.approx(
            order_cost(rosters[::-1]), abs=1e-12
        )


def test_causality_pairs():
    rosters = [{"Alice"}, {"Bob"}, {"Alice", "Charlie"}, {"Charlie"}]
    assert causality(rosters) == frozenset({(0, 2), (2, 3)})
    assert causality([{"Alice"}, {"Bob"}]) == frozenset()


def test_worked_example_pulls_matching_scenes_together():
    rosters = [{"Alice", "Bob"}, {"Charlie", "Dana"}, {"Alice", "Bob"}]
    assert order_cost(rosters) == 2.0
    order = reorder(rosters)
    assert order.permutation == (1, 0, 2)
    assert order.cost == 1.0


def test_trivial_sizes():
    assert reorder([]) == SceneOrder((), 0.0)
    assert reorder([{"Alice"}]) == SceneOrder((0,), 0.0)
    assert brute_force_reorder([{"Alice"}]) == SceneOrder((0,), 0.0)


def test_greedy_respects_causality_and_never_raises_cost():
    rng = random.Random(5)
    for _ in range(200):
        rosters = random_rosters(rng, rng.randint(1, 9))
        order = reorder(rosters)
        assert sorted(order.permutation) == list(range(len(rosters)))
        pos = positions(order.permutation)
        for i, j in causality(rosters):
            assert pos[i] < pos[j]
        reordered = [rosters[i] for i in order.permutation]
        assert order.cost == pytest.approx(order_cost(reordered), abs=1e-12)
        assert order.cost <= order_cost(rosters) + 1e-12


def test_exhaustive_never_loses_to_greedy():
    rng = random.Random(9)
    for _ in range(120):
        rosters = random_rosters(rng, rng.randint(2, 7))
        greedy = reorder(rosters)
        exact = brute_force_reorder(rosters)
        assert exact.cost <= greedy.cost + 1e-12
        pos = positions(exact.permutation)
        for i, j in causality(rosters):
            assert pos[i] < pos[j]


def test_exhaustive_keeps_first_permutation_on_ties():
    # fully disjoint casts: every order is legal and costs n - 1
    rosters = [{"Alice"}, {"Bob"}, {"Charlie"}, {"Dana"}]
    exact = brute_force_reorder(rosters)
    assert exact.permutation == (0, 1, 2, 3)
    assert exact.cost == 3.0
    # greedy cannot improve either and must leave the order alone
    assert reorder(rosters).cost == 3.0


def test_shared_cast_blocks_reordering_entirely():
    rosters = [{"Alice", "Bob"}, {"Bob", "Charlie"}, {"Charlie", "Alice"}]
    assert reorder(rosters).permutation == (0, 1, 2)
    assert brute_force_reorder(rosters).permutation == (0, 1, 2)


def test_brute_force_size_guard():
    with pytest.raises(TooLarge):
        brute_force_reorder([{"Alice"}] * 9)


def test_order_to_dict_reports_both_costs():
    partition = partition_from_breaks(
        make_transcript(["Alice", "Bob", "Charlie", "Dana", "Alice", "Bob"]), [2, 4]
    )
    rosters = [scene.roster for scene in partition.scenes]
    assert rosters == [{"Alice", "Bob"}, {"Charlie", "Dana"}, {"Alice", "Bob"}]
    order = reorder(rosters)
    data = STAGES["reorder"].dump({"segment": partition}, order)
    assert data == {
        "permutation": [1, 0, 2],
        "original_cost": 2.0,
        "reordered_cost": 1.0,
    }


@pytest.mark.parametrize("seed", range(5))
def test_screened_greedy_equals_full_fold_greedy(seed):
    rng = random.Random(200 + seed)
    for _ in range(60):
        rosters = small_pool_rosters(rng, rng.randint(0, 80))
        order = reorder(rosters)
        expected = reference_reorder(rosters)
        assert order.permutation == expected.permutation
        assert order.cost.hex() == expected.cost.hex()


def test_distance_matrix_equals_pairwise_iou_exactly():
    rng = random.Random(41)
    for _ in range(200):
        sets = small_pool_rosters(rng, rng.randint(1, 12)) + random_rosters(rng, 3)
        masks = _masks(sets)
        dist = [[_distance(a, b) for b in masks] for a in masks]
        assert dist == [[1.0 - iou(a, b) for b in sets] for a in sets]
        assert all(type(d) is float for row in dist for d in row)
        assert [[bool(a & b) for b in masks] for a in masks] == [
            [bool(a & b) for b in sets] for a in sets
        ]


def logged_folds(monkeypatch):
    """Every _fold_move call as (lo, head, verdict); verdict -1 keeps the move."""
    folds = []
    real_fold_move = reordering._fold_move

    def logging_fold_move(pair, run, lo, head, margin):
        verdict = real_fold_move(pair, run, lo, head, margin)
        folds.append((lo, tuple(head), verdict))
        return verdict

    monkeypatch.setattr(reordering, "_fold_move", logging_fold_move)
    return folds


def test_screen_skips_folding_moves_that_cannot_improve(monkeypatch):
    folds = logged_folds(monkeypatch)
    # the one legal move puts B in front and raises the cost from 1 to 2:
    # the screen rejects it, so nothing is folded
    assert reorder([{"Alice"}, {"Alice"}, {"Bob"}, {"Bob"}]).permutation == (0, 1, 2, 3)
    assert folds == []
    # disjoint casts tie on every move: each is folded, none is kept; the
    # fold of (1, 0, 2) reaches the current total at index 2, and so does
    # the fold of (2, 0, 1), whose last index is 2
    assert reorder([{"Alice"}, {"Bob"}, {"Charlie"}]).permutation == (0, 1, 2)
    assert folds == [(0, (1.0, 1.0), 2), (0, (1.0, 1.0), 2)]


def redone_folds(folds) -> int:
    """Folds that redo a rejection at a position below the last move's lo.

    After a move to dest, positions below dest - 1 (the kept move's lo)
    are revisited only when their rejection read an index >= dest, so a
    fold there redoes a fold rejection that the move made stale.
    """
    redone, moved_lo = 0, 0
    for lo, head, verdict in folds:
        # lo + len(head) - 1 is the moved position, or one less when it
        # was the last one, which is never below a later move's lo
        redone += lo + len(head) - 1 < moved_lo
        if verdict < 0:
            moved_lo = lo
    return redone


def test_incremental_greedy_equals_full_fold_greedy_on_long_transcripts():
    # the shape of the long-transcript benchmark: 16 recurring names,
    # 1-4 of them per scene
    rng = random.Random(16)
    cast = [f"Cast{i}" for i in range(16)]
    for _ in range(6):
        rosters = [set(rng.sample(cast, rng.randint(1, 4))) for _ in range(rng.randint(150, 300))]
        order = reorder(rosters)
        expected = reference_reorder(rosters)
        assert order.permutation == expected.permutation
        assert order.cost.hex() == expected.cost.hex()


def test_incremental_greedy_redoes_stale_rejections_on_tie_heavy_lists(monkeypatch):
    folds = logged_folds(monkeypatch)
    rng = random.Random(0)
    redone = 0
    for _ in range(8):
        # 3 or 4 names and empty rosters: thirds and halves that many
        # orders tie on, so folds dip below the current total and rejoin it
        pool = NAMES[: rng.randint(3, 4)]
        n = rng.randint(100, 300)
        rosters = [set(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(n)]
        folds.clear()
        order = reorder(rosters)
        expected = reference_reorder(rosters)
        assert order.permutation == expected.permutation
        assert order.cost.hex() == expected.cost.hex()
        redone += redone_folds(folds)
    assert redone > 0
