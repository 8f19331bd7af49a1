"""Scene reordering under a causality constraint.

The cost of a scene order is the sum over adjacent pairs of
1 - IOU(rosters); scenes sharing a character must keep their original
relative order. A greedy pass moves each scene as far forward as the
constraint allows, keeping the move only on a strict cost improvement,
and repeats until a full pass changes nothing. An exhaustive oracle
covers small instances.

Each roster is one int with a bit per name. Two scenes share a
character when their masks intersect, and 1 - IOU is
1.0 - inter / union from int.bit_count(). Dividing two small ints is
correctly rounded, so every distance equals 1.0 - iou() bit for bit.

The greedy pass returns the order and the cost bits that folding every
candidate order in full would; it only does less work. It keeps
pair[k], the distance of positions k and k + 1, and run[k], the left
fold of pair[:k], so run[-1] is the cost. Moving the scene at p to
dest < p changes only the pairs at dest - 1, dest and p.

- Screen. The six-term delta of those pairs rejects the move unfolded
  when it is positive beyond any rounding error of the two folds (see
  _SCREEN_ULPS).
- Fold. Otherwise the candidate's fold starts from run[dest - 1] and
  adds its new pairs up to position p + 1; from there on it adds the
  same terms as run. Float addition is monotone, so once its total is
  not below run[j] at some j >= p + 1, it cannot end strictly below
  run[-1], and the move is rejected there: at equality the fold has
  rejoined run. Once it is below run[j] by more than the margin, no
  rounding of the later additions closes the gap, and the move is kept
  there. A kept move splices pair and refolds run from dest - 1 with
  itertools.accumulate: the same additions in the same order.
- Verdict horizons. A move to dest leaves perm[:dest] and run[:dest]
  as they were. A rejection at p read perm and run up to its horizon:
  p when no legal move exists, p + 1 for the screen, and for a fold
  the index where it stopped. After a move only the rejections below
  dest - 1 whose horizon is dest or more are redone, in position
  order (they are folds that stopped past p + 1), and the pass then
  goes on from dest - 1. Every other position would get the same
  verdict again.

Strict improvement of the full left fold thus stays the only accept
rule; the screen, the early stops and the horizons change the work,
never the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, permutations
from typing import Iterable, Sequence

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
# folded candidate total cannot be below the folded current one. The
# margin also ends a fold early: past p + 1 both folds add the same at
# most n - 2 terms, each rounding moves either total by at most
# (n - 1) 2**-53, so their gap changes by less than 2 n n 2**-53 in
# all, and a gap above the margin (itself rounded by at most one part
# in 2**53) outlasts it.
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


def _masks(rosters: Sequence[Iterable[str]]) -> list[int]:
    """One int per roster, with one bit per distinct name."""
    bits: dict[str, int] = {}
    masks = []
    for roster in rosters:
        mask = 0
        for name in roster:
            mask |= 1 << bits.setdefault(name, len(bits))
        masks.append(mask)
    return masks


def _distance(a: int, b: int) -> float:
    """1 - IOU of two roster masks, equal to 1.0 - iou() of their sets."""
    union = (a | b).bit_count()
    return 1.0 - (a & b).bit_count() / union if union else 1.0


def _fold_move(
    pair: list[float], run: list[float], lo: int, head: list[float], margin: float
) -> int:
    """Fold a candidate order until its verdict is certain.

    pair[k] is the distance of positions k and k + 1 in the current
    order and run[k] the left fold of pair[:k]. The candidate agrees
    with the current order up to index lo, then adds head, and after
    that the same terms pair[lo + len(head):] that run adds. Returns the
    first index j >= lo + len(head) at which the candidate's total is
    not below run[j]: the move is rejected, and j is the highest index
    its verdict read. Returns -1 when the candidate ends strictly below
    run[-1]: the move is kept.
    """
    total = run[lo]
    for d in head:
        total += d
    j = lo + len(head)
    last = len(run) - 1
    while total < run[j]:
        # a gap above margin outlasts the rounding of every later addition
        if j == last or run[j] - total > margin:
            return -1
        total += pair[j]
        j += 1
    return j


def reorder(rosters: Sequence[Iterable[str]]) -> SceneOrder:
    """Greedy cost reduction by frontmost causality-legal moves.

    Each pass walks positions left to right. A scene's one candidate
    destination is just past the nearest earlier scene sharing one of
    its characters (the front if none). The move is kept only if it
    strictly lowers the total cost; any move restarts the pass, which
    redoes only the verdicts the move can change (see the module notes).
    """
    n = len(rosters)
    if n <= 1:
        return SceneOrder(tuple(range(n)), 0.0)
    masks = _masks(rosters)
    margin = _SCREEN_ULPS * n * n * 2.0**-53

    perm = list(range(n))
    pair = [_distance(masks[k], masks[k + 1]) for k in range(n - 1)]
    run = list(accumulate(pair, initial=0.0))
    # fold rejections that read past p + 1: position -> highest index read
    far: dict[int, int] = {}
    todo: Iterable[int] = range(1, n)
    while True:
        for p in todo:
            mask = masks[perm[p]]
            dest = p
            while dest and not masks[perm[dest - 1]] & mask:
                dest -= 1
            if dest == p:
                continue
            # the new pairs at dest - 1, dest and p against the old ones
            b = _distance(mask, masks[perm[dest]])
            added, removed = b, pair[p - 1]
            if dest:
                a = _distance(masks[perm[dest - 1]], mask)
                added += a
                removed += pair[dest - 1]
            if p + 1 < n:
                c = _distance(masks[perm[p - 1]], masks[perm[p + 1]])
                added += c
                removed += pair[p]
            if added - removed > margin:
                continue
            head = [a, b] if dest else [b]
            head += pair[dest:p - 1]
            if p + 1 < n:
                head.append(c)
            lo = max(dest - 1, 0)
            h = _fold_move(pair, run, lo, head, margin)
            if h < 0:
                break
            if h > p + 1:
                far[p] = h
        else:
            return SceneOrder(tuple(perm), run[-1])
        perm.insert(dest, perm.pop(p))
        pair[lo:p + 1] = head
        run[lo:] = accumulate(pair[lo:], initial=run[lo])
        stale = sorted(q for q, h in far.items() if h >= dest and q < dest - 1)
        far = {q: h for q, h in far.items() if h < dest}
        todo = chain(stale, range(max(dest - 1, 1), n))


def brute_force_reorder(rosters: Sequence[Iterable[str]]) -> SceneOrder:
    """Exhaustive minimum over causality-respecting permutations (oracle).

    Permutations are scanned in lexicographic order and replaced only on
    a strictly lower cost, so ties keep the lexicographically first.
    """
    n = len(rosters)
    if n > BRUTE_FORCE_MAX_SCENES:
        raise TooLarge(f"n={n} exceeds brute-force limit {BRUTE_FORCE_MAX_SCENES}")
    if n <= 1:
        return SceneOrder(tuple(range(n)), 0.0)
    masks = _masks(rosters)
    dist = [[_distance(a, b) for b in masks] for a in masks]
    pairs = causality(rosters)

    best_perm: tuple[int, ...] | None = None
    best_cost = float("inf")
    for perm in permutations(range(n)):
        pos = {scene: t for t, scene in enumerate(perm)}
        if any(pos[i] > pos[j] for i, j in pairs):
            continue
        cost = 0.0
        for a, b in zip(perm, perm[1:]):
            cost += dist[a][b]
        if cost < best_cost:
            best_perm = perm
            best_cost = cost
    return SceneOrder(best_perm, best_cost)
