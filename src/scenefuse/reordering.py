"""Scene reordering under a causality constraint.

The cost of a scene order is the sum over adjacent pairs of
1 - IOU(rosters); scenes sharing a character must keep their original
relative order. A greedy pass moves each scene as far forward as the
constraint allows, keeping the move only on a strict cost improvement,
and repeats until a full pass changes nothing. An exhaustive oracle
covers small instances.

Distances, and the greedy pass's shares-a-character test, come from
one 0/1 scene-by-speaker membership matrix: its Gram matrix holds every
intersection size, so 1 - IOU is the same correctly rounded division
that iou() computes.

A move changes at most three adjacent pairs, so the greedy pass first
computes that six-term delta and skips the move when the delta is
positive beyond any rounding error of the two full folds (see
_SCREEN_ULPS); only moves that survive the screen are folded and
compared, and strict improvement of the folded total stays the only
accept rule. The screen thus changes the work, never the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import TooLarge

BRUTE_FORCE_MAX_SCENES = 8

# Screen margin, in units of 2**-53, times n*n. Every distance lies in
# [0, 1]. A left fold of n - 1 such terms starting from 0.0 makes n - 2
# rounded additions, each off by at most 2**-53 times a partial sum
# <= n - 1, so each folded total is within (n - 1)(n - 2) 2**-53 of its
# exact value, and the difference of two folds within twice that. Both
# folds share all but the moved pairs, so their exact difference is the
# exact six-term delta; computing that delta rounds at most five times,
# each on a result of magnitude <= 3, adding at most 15 * 2**-53. In
# total the error is at most (2 (n - 1)(n - 2) + 15) 2**-53, which is
# below 8 n n 2**-53 for n >= 2, so a delta above the margin means the
# folded candidate total cannot be below the folded current one.
_SCREEN_ULPS = 8


def iou(a: Iterable[str], b: Iterable[str]) -> float:
    """Intersection over union of two speaker sets; 0 when both empty."""
    sa, sb = set(a), set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


def order_cost(rosters: Sequence[Iterable[str]]) -> float:
    """Sum of 1 - IOU over adjacent scene pairs."""
    sets = [set(r) for r in rosters]
    total = 0.0
    for a, b in zip(sets, sets[1:]):
        total += 1.0 - iou(a, b)
    return total


def causality(rosters: Sequence[Iterable[str]]) -> frozenset[tuple[int, int]]:
    """All ordered index pairs (i, j), i < j, whose scenes share a character."""
    sets = [set(r) for r in rosters]
    return frozenset(
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if sets[i] & sets[j]
    )


@dataclass(frozen=True)
class SceneOrder:
    permutation: tuple[int, ...]
    cost: float

    def to_dict(self) -> dict:
        return {"permutation": list(self.permutation), "reordered_cost": self.cost}

    @classmethod
    def from_dict(cls, data: dict) -> "SceneOrder":
        """Inverse of to_dict; an "original_cost" beside the fields is ignored."""
        return cls(tuple(data["permutation"]), data["reordered_cost"])


def _distances(sets: list[set[str]]) -> tuple[list[list[float]], list[list[bool]]]:
    """1 - IOU and shares-a-character for every ordered scene pair."""
    index: dict[str, int] = {}
    rows, cols = [], []
    for row, roster in enumerate(sets):
        for name in roster:
            rows.append(row)
            cols.append(index.setdefault(name, len(index)))
    member = np.zeros((len(sets), len(index)), np.int64)
    member[rows, cols] = 1
    inter = member @ member.T
    size = member.sum(axis=1)
    union = size[:, None] + size[None, :] - inter
    ratio = np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)
    return (1.0 - ratio).tolist(), (inter > 0).tolist()


def _fold(dist: list[list[float]], perm: Sequence[int]) -> float:
    total = 0.0
    for a, b in zip(perm, perm[1:]):
        total += dist[a][b]
    return total


def _move_delta(dist: list[list[float]], perm: list[int], dest: int, p: int) -> float:
    """Cost change of moving perm[p] to position dest < p, pairs only."""
    scene = perm[p]
    added = dist[scene][perm[dest]]
    removed = dist[perm[p - 1]][scene]
    if dest:
        added += dist[perm[dest - 1]][scene]
        removed += dist[perm[dest - 1]][perm[dest]]
    if p + 1 < len(perm):
        added += dist[perm[p - 1]][perm[p + 1]]
        removed += dist[scene][perm[p + 1]]
    return added - removed


def reorder(rosters: Sequence[Iterable[str]]) -> SceneOrder:
    """Greedy cost reduction by frontmost causality-legal moves.

    Each pass walks positions left to right. A scene's one candidate
    destination is just past the nearest earlier scene sharing one of
    its characters (the front if none). The move is kept only if it
    strictly lowers the total cost; any move restarts the pass.
    """
    n = len(rosters)
    sets = [set(r) for r in rosters]
    if n <= 1:
        return SceneOrder(tuple(range(n)), 0.0)
    dist, shares = _distances(sets)
    margin = _SCREEN_ULPS * n * n * 2.0**-53

    perm = list(range(n))
    current = _fold(dist, perm)
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
            if _move_delta(dist, perm, dest, p) > margin:
                continue
            candidate = perm[:dest] + [scene] + perm[dest:p] + perm[p + 1:]
            cost = _fold(dist, candidate)
            if cost < current:
                perm = candidate
                current = cost
                moved = True
                break
    return SceneOrder(tuple(perm), current)


def brute_force_reorder(rosters: Sequence[Iterable[str]]) -> SceneOrder:
    """Exhaustive minimum over causality-respecting permutations (oracle).

    Permutations are scanned in lexicographic order and replaced only on
    a strictly lower cost, so ties keep the lexicographically first.
    """
    n = len(rosters)
    if n > BRUTE_FORCE_MAX_SCENES:
        raise TooLarge(f"n={n} exceeds brute-force limit {BRUTE_FORCE_MAX_SCENES}")
    sets = [set(r) for r in rosters]
    if n <= 1:
        return SceneOrder(tuple(range(n)), 0.0)
    dist, _ = _distances(sets)
    pairs = causality(rosters)

    best_perm: tuple[int, ...] | None = None
    best_cost = float("inf")
    for perm in permutations(range(n)):
        pos = {scene: t for t, scene in enumerate(perm)}
        if any(pos[i] > pos[j] for i, j in pairs):
            continue
        cost = _fold(dist, perm)
        if cost < best_cost:
            best_perm = perm
            best_cost = cost
    return SceneOrder(best_perm, best_cost)


def order_to_dict(rosters: Sequence[Iterable[str]], order: SceneOrder) -> dict:
    return {**order.to_dict(), "original_cost": order_cost(rosters)}
