"""Acceptance gate: one test per shipped behavioral guarantee.

Each test prints a one-line summary with the measured values under -s.
Criterion 1 pins reference break positions and costs for the bundled
46-name fixture; the optimizer finds a strictly cheaper split, so that
single check fails and documents the discrepancy. Everything it pins
that is attainable (the pinned partition's own cost arithmetic, the
runtime bound) is asserted before the failing comparison.
"""

import random
import time

import numpy as np
import pytest

from conftest import (
    EPISODE_TRANSCRIPT,
    EPISODE_VISUAL,
    NAMES_46,
    build_fixture_backends,
    build_mock_backends,
    episode_captions,
    make_transcript,
    write_episode,
)
from test_alignment import enumerate_paths, line_similarity, random_phrase
from test_reordering import brute_force_reorder, causality, iou
from test_segmentation import brute_force_partition
from scenefuse.alignment import dtw_align
from scenefuse.captions import load_lexicon, postprocess_captions
from scenefuse.model import load_episode
from scenefuse.pipeline import PipelineConfig, run_pipeline
from scenefuse.prefs import prefs, score_direction
from scenefuse.reordering import order_cost, reorder
from scenefuse.segmentation import optimal_partition, partition_from_breaks
from scenefuse.stats import SampleStats, ari, clustering_accuracy, nmi, welch_df, welch_t

LEXICON = load_lexicon()


def test_criterion_01_mdl_worked_example():
    transcript = make_transcript(list(NAMES_46))

    started = time.perf_counter()
    result = optimal_partition(transcript)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert elapsed_ms < 50.0

    # the pinned two-break split's own cost arithmetic
    pinned = partition_from_breaks(transcript, [9, 37])
    pinned_scene_costs = [s.cost_bits for s in pinned.scenes]
    for got, expected in zip(pinned_scene_costs, (13.392, 49.508, 13.392)):
        assert got == pytest.approx(expected, abs=0.001)
    assert pinned.total_cost == pytest.approx(76.292, abs=0.005)

    # the pinned split is not the cheapest one; the optimizer's result
    # is held to it anyway, so the discrepancy stays visible
    assert result.breaks == (9, 37), (
        f"optimizer found breaks {result.breaks} at {result.total_cost:.3f} bits; "
        f"the pinned split (9, 37) costs {pinned.total_cost:.3f} bits"
    )
    assert result.total_cost == pytest.approx(76.292, abs=0.005)
    for got, expected in zip(
        [s.cost_bits for s in result.scenes], (13.392, 49.508, 13.392)
    ):
        assert got == pytest.approx(expected, abs=0.001)
    print(
        f"criterion 1: PASS breaks={result.breaks} "
        f"total={result.total_cost:.3f} bits in {elapsed_ms:.1f} ms"
    )


def test_criterion_02_dp_equals_exhaustive_search():
    rng = random.Random(2002)
    pool = ["Ada", "Ben", "Cleo", "Dev"]
    started = time.perf_counter()
    for _ in range(500):
        n_speakers = rng.randint(2, 4)
        m = rng.randint(1, 12)
        names = [rng.choice(pool[:n_speakers]) for _ in range(m)]
        transcript = make_transcript(names)
        fast = optimal_partition(transcript)
        slow = brute_force_partition(transcript)
        assert fast.total_cost == slow.total_cost
        assert fast.breaks == slow.breaks
        assert [s.cost_bits for s in fast.scenes] == [s.cost_bits for s in slow.scenes]
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2: PASS 500 instances exact in {elapsed:.2f} s")


def test_criterion_03_segmentation_scale():
    rng = random.Random(2003)
    pool = [f"Speaker{i}" for i in range(12)]
    names = [rng.choice(pool) for _ in range(400)]
    transcript = make_transcript(names)
    started = time.perf_counter()
    result = optimal_partition(transcript)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert sum(s.length for s in result.scenes) == 400
    print(
        f"criterion 3: PASS 400 lines, {len(result.scenes)} scenes in {elapsed:.2f} s"
    )


def test_criterion_04_reordering_properties():
    assert iou({"Alice", "Bob"}, {"Bob", "Charlie"}) == 1 / 3

    worked = reorder([{"A", "B"}, {"C", "D"}, {"A", "B"}])
    assert worked.cost == 1.0

    rng = random.Random(2004)
    pool = list("ABCDEF")
    gaps = []
    for _ in range(500):
        n = rng.randint(1, 8)
        rosters = [set(rng.sample(pool, rng.randint(1, 3))) for _ in range(n)]
        result = reorder(rosters)
        assert sorted(result.permutation) == list(range(n))
        position = {scene: t for t, scene in enumerate(result.permutation)}
        for i, j in causality(rosters):
            assert position[i] < position[j]
        assert result.cost <= order_cost(rosters) + 1e-12
        assert result.cost == order_cost([rosters[i] for i in result.permutation])
        if n <= 6:  # keep the exhaustive comparison cheap
            gap = result.cost - brute_force_reorder(rosters).cost
            assert gap >= -1e-12
            gaps.append(gap)
    mean_gap = sum(gaps) / len(gaps)
    print(
        f"criterion 4: PASS 500 instances, mean gap to exhaustive "
        f"{mean_gap:.4f} over {len(gaps)} small cases"
    )


def test_criterion_05_dtw_equals_path_enumeration():
    rng = random.Random(2005)
    for _ in range(200):
        m = rng.randint(1, 6)
        k = rng.randint(1, 7)
        lines = [random_phrase(rng) for _ in range(m)]
        cues = [random_phrase(rng) for _ in range(k)]
        alignment = dtw_align(lines, cues)
        cost = [[1.0 - line_similarity(l, c) for c in cues] for l in lines]
        best = min(
            sum(cost[i][j] for i, j in path) for path in enumerate_paths(m, k)
        )
        assert alignment.total_cost == pytest.approx(best, abs=1e-9)

    lines = ["the dock is empty", "call the harbor", "we drive down"]
    identical = dtw_align(lines, list(lines))
    assert identical.total_cost == 0.0
    assert identical.pairs == ((0, 0), (1, 1), (2, 2))
    print("criterion 5: PASS 200 instances match enumeration; identity is diagonal")


def test_criterion_06_caption_rules():
    roster = frozenset({"Brody", "Jessica"})
    assert postprocess_captions(
        ["a man is talking to another man"], roster, LEXICON
    ) == []
    assert postprocess_captions(
        ["two people are seen walking along a dock"], roster, LEXICON
    ) == ["two people are walking along a dock"]
    assert postprocess_captions(
        ["a man is kissing a woman"], roster, LEXICON
    ) == ["Brody is kissing Jessica"]
    print("criterion 6: PASS blacklist, seen-rewrite, and name insertion")


def test_criterion_07_prefs_fixture(prefs_fixture, tmp_path):
    backends = build_fixture_backends(tmp_path / "cache", prefs_fixture)
    percent, counts, _ = score_direction(
        prefs_fixture["summary"], prefs_fixture["reference"], backends
    )
    assert counts.extracted == 83
    assert counts.filtered == 67
    assert counts.supported == 33
    assert percent == pytest.approx(49.25, abs=0.01)
    print(
        f"criterion 7: PASS {counts.supported}/{counts.filtered} of "
        f"{counts.extracted} facts -> {percent:.2f}"
    )


def test_criterion_08_prefs_formula():
    assert prefs(42.29, 48.54) == pytest.approx(45.20, abs=0.02)
    for x in (0.01, 0.5, 1.0, 33.33, 45.2, 50.0, 99.9, 100.0):
        assert prefs(x, x) == x
    assert prefs(0.0, 50.0) == 0.0
    assert prefs(50.0, 0.0) == 0.0
    assert prefs(0.0, 0.0) == 0.0
    print(f"criterion 8: PASS prefs(42.29, 48.54) = {prefs(42.29, 48.54):.2f}")


def test_criterion_09_clustering_metrics():
    rng = np.random.default_rng(2009)
    for _ in range(200):
        length = int(rng.integers(2, 30))
        k = int(rng.integers(1, 5))
        pred = rng.integers(0, k, size=length).tolist()
        gold = rng.integers(0, k, size=length).tolist()
        mapping = {old: 100 - new for new, old in enumerate(rng.permutation(k).tolist())}
        shuffled = [mapping[p] for p in pred]
        assert clustering_accuracy(shuffled, gold) == pytest.approx(
            clustering_accuracy(pred, gold), abs=1e-12
        )
        assert nmi(shuffled, gold) == pytest.approx(nmi(pred, gold), abs=1e-12)
        assert ari(shuffled, gold) == pytest.approx(ari(pred, gold), abs=1e-12)

    labels = [0, 0, 1, 2, 2, 1, 0, 2]
    assert clustering_accuracy(labels, labels) == 1.0
    assert nmi(labels, labels) == 1.0
    assert ari(labels, labels) == 1.0

    k, n = 50, 10_000
    pred = rng.integers(0, k, size=n).tolist()
    gold = rng.integers(0, k, size=n).tolist()
    scores = {
        "acc": clustering_accuracy(pred, gold),
        "nmi": nmi(pred, gold),
        "ari": ari(pred, gold),
    }
    for name, value in scores.items():
        assert abs(value) < 0.05, (name, value)
    print(
        "criterion 9: PASS invariance, identity=1.0, independent "
        + " ".join(f"{k}={v:.4f}" for k, v in scores.items())
    )


def test_criterion_10_welch_statistics():
    a = SampleStats(44.86, 0.60, 5)
    b = SampleStats(42.24, 0.42, 5)
    t = welch_t(a, b)
    df = welch_df(a, b)
    assert t == pytest.approx(8.01, abs=0.02)
    assert welch_t(b, a) == -t
    assert welch_df(b, a) == df
    assert welch_t(SampleStats(5.0, 1.0, 5), SampleStats(5.0, 2.0, 5)) == 0.0
    assert welch_df(SampleStats(1.0, 2.0, 9), SampleStats(4.0, 2.0, 9)) == pytest.approx(16.0)

    # the table this row comes from reports 4.47; direct evaluation does
    # not reproduce it, but both values clear the 3.37 significance bar
    assert abs(t - 4.47) > 3.0
    assert t > 3.37 and 4.47 > 3.37
    print(f"criterion 10: PASS t={t:.3f} df={df:.3f} (reported 4.47 not reproduced)")


INTERLEAVED = """\
Brody: The garden looks great.
Jessica: It really does.
[SCENE_BREAK]
Dante: The dock is empty.
Bridget: Completely empty.
[SCENE_BREAK]
Brody: Back to the garden plans.
Jessica: With better weather this time.
"""

STAGE_FILES = (
    "partition.json", "alignment.json", "spans.json", "captions.json",
    "summaries.json", "order.json", "fusion_input.txt", "summary.txt",
)


def test_criterion_11_end_to_end_determinism(tmp_path):
    episode = load_episode(
        write_episode(
            tmp_path / "ep1",
            EPISODE_TRANSCRIPT,
            captions=episode_captions(),
            visual=EPISODE_VISUAL,
        )
    )

    # byte-identical artifacts across two independent runs
    contents = []
    for run in ("a", "b"):
        config = PipelineConfig(
            backends=build_mock_backends(tmp_path / f"cache-{run}"),
            out_dir=tmp_path / f"out-{run}",
        )
        run_pipeline(episode, config)
        contents.append({
            name: (tmp_path / f"out-{run}" / "ep1" / name).read_bytes()
            for name in STAGE_FILES
        })
    assert contents[0] == contents[1]

    # one upstream call per distinct request: a rerun into a fresh output
    # directory recomputes every stage from the completion cache alone
    backends = build_mock_backends(tmp_path / "cache-shared")
    for out in ("first", "second"):
        config = PipelineConfig(backends=backends, out_dir=tmp_path / out)
        artifacts = run_pipeline(episode, config)
    assert backends.upstream_calls == 4  # 3 scene summaries + 1 fusion

    baseline = artifacts.fusion_input
    caption_text = "standing near a garden"
    summary_text = "talk. It begins with:"
    assert caption_text in baseline and summary_text in baseline

    def ablated(name: str, **flags) -> str:
        config = PipelineConfig(
            backends=build_mock_backends(tmp_path / f"cache-{name}"),
            out_dir=tmp_path / f"out-{name}",
            **flags,
        )
        return run_pipeline(episode, config)

    no_vision = ablated("no-vision", skip_vision=True)
    assert caption_text not in no_vision.fusion_input
    assert summary_text in no_vision.fusion_input

    no_transcript = ablated("no-transcript", skip_transcript=True)
    assert summary_text not in no_transcript.fusion_input
    assert caption_text in no_transcript.fusion_input

    chunked = ablated("chunked", uniform_chunks=True)
    assert len(chunked.partition.scenes) == 1
    assert "\n\n" not in chunked.fusion_input

    interleaved = load_episode(write_episode(tmp_path / "ep2", INTERLEAVED))
    ordered = run_pipeline(
        interleaved,
        PipelineConfig(
            backends=build_mock_backends(tmp_path / "cache-ord"),
            out_dir=tmp_path / "out-ord",
        ),
    )
    unordered = run_pipeline(
        interleaved,
        PipelineConfig(
            backends=build_mock_backends(tmp_path / "cache-unord"),
            out_dir=tmp_path / "out-unord",
            skip_reorder=True,
        ),
    )
    assert ordered.order.permutation == (1, 0, 2)
    assert unordered.order.permutation == (0, 1, 2)
    assert ordered.fusion_input.split("\n\n")[0] != unordered.fusion_input.split("\n\n")[0]
    print("criterion 11: PASS determinism, caching, and ablation flags")
