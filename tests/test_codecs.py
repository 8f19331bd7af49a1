"""Stage file formats: each stage's load reads back exactly what its dump wrote."""

import json
import random

import pytest

from conftest import make_transcript
from scenefuse.alignment import Alignment, TimeSpan, dtw_align
from scenefuse.captions import SceneCaption
from scenefuse.model import Partition
from scenefuse.pipeline import STAGES
from scenefuse.reordering import reorder
from scenefuse.segmentation import optimal_partition, partition_from_breaks

NAMES = ["Brody", "Jessica", "Zoë", "Łukasz", "Ana María", "李雷"]
WORDS = ["the", "dock", "garden", "naïve", "café", "🙂", "is", "seen", ""]


def round_trip(key, value):
    stage = STAGES[key]
    return stage.load(json.loads(json.dumps(stage.dump(value))))


def random_text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 8)))


@pytest.mark.parametrize("seed", range(5))
def test_partition_round_trip(seed):
    rng = random.Random(seed)
    for _ in range(40):
        m = rng.randint(1, 60)
        transcript = make_transcript([rng.choice(NAMES) for _ in range(m)])
        breaks = rng.sample(range(1, m), rng.randint(0, min(m - 1, 6)))
        for partition in (partition_from_breaks(transcript, breaks), optimal_partition(transcript)):
            back = round_trip("segment", partition)
            assert isinstance(back, Partition)
            assert back == partition
            assert repr(back.total_cost) == repr(partition.total_cost)
            assert [repr(s.cost_bits) for s in back.scenes] == [
                repr(s.cost_bits) for s in partition.scenes
            ]


@pytest.mark.parametrize("seed", range(5))
def test_alignment_round_trip(seed):
    rng = random.Random(seed)
    for _ in range(40):
        lines = [random_text(rng) for _ in range(rng.randint(1, 12))]
        cues = [random_text(rng) for _ in range(rng.randint(1, 12))]
        alignment = dtw_align(lines, cues)
        back = round_trip("align", alignment)
        assert isinstance(back, Alignment)
        assert back == alignment
        assert repr(back.total_cost) == repr(alignment.total_cost)


@pytest.mark.parametrize("seed", range(3))
def test_scene_order_round_trip(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rosters = [
            set(rng.sample(NAMES, rng.randint(0, 3))) for _ in range(rng.randint(0, 12))
        ]
        order = reorder(rosters)
        back = round_trip("reorder", order)
        assert back == order
        assert repr(back.cost) == repr(order.cost)
        assert repr(back.original_cost) == repr(order.original_cost)
        # order.json carries the original order's cost, and the loader reads it back
        data = STAGES["reorder"].dump(order)
        assert "original_cost" in data
        assert STAGES["reorder"].load(data) == order


def test_scene_caption_and_time_span_round_trip():
    rng = random.Random(7)
    for i in range(50):
        caption = SceneCaption(i, tuple(random_text(rng) for _ in range(rng.randint(0, 4))))
        assert round_trip("caption", [caption]) == [caption]
        span = TimeSpan(rng.randint(0, 10**9), rng.randint(0, 10**9))
        assert round_trip("spans", [span]) == [span]


def test_spans_file_format_labels_each_scene():
    spans = [TimeSpan(0, 12000), TimeSpan(12000, 24000)]
    data = STAGES["spans"].dump(spans)
    assert [d["scene"] for d in data] == [0, 1]
    # spans.json also carries each scene's index; the loader skips it
    assert STAGES["spans"].load(data) == spans


def test_partition_reader_ignores_the_derived_breaks():
    transcript = make_transcript(["A", "B", "A", "C", "C", "D"])
    partition = partition_from_breaks(transcript, [3])
    data = STAGES["segment"].dump(partition)
    assert data["breaks"] == [3]
    del data["breaks"]
    assert STAGES["segment"].load(data) == partition
