"""Stage file formats: each stage's load reads back exactly what its dump wrote."""

import json
import random
from types import SimpleNamespace

import pytest

from conftest import make_transcript
from scenefuse.alignment import Alignment, TimeSpan, dtw_align
from scenefuse.captions import SceneCaption
from scenefuse.model import Partition, Scene
from scenefuse.pipeline import STAGES
from scenefuse.reordering import reorder
from scenefuse.segmentation import optimal_partition, partition_from_breaks

NAMES = ["Brody", "Jessica", "Zoë", "Łukasz", "Ana María", "李雷"]
WORDS = ["the", "dock", "garden", "naïve", "café", "🙂", "is", "seen", ""]


def scenes_of(rosters) -> Partition:
    """A partition with one one-line scene per roster."""
    return Partition(
        tuple(Scene(i, i + 1, frozenset(r), 0.0) for i, r in enumerate(rosters)), 0.0
    )


class RunStandIn(dict):
    """A run holding only what stage formats read: the partition and the episode."""


def round_trip(key, value, partition=None, episode=None):
    run = RunStandIn(segment=partition)
    run.episode = episode
    stage = STAGES[key]
    return stage.load(run, json.loads(json.dumps(stage.dump(run, value))))


def random_text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 8)))


@pytest.mark.parametrize("seed", range(5))
def test_partition_round_trip(seed):
    rng = random.Random(seed)
    for _ in range(40):
        m = rng.randint(1, 60)
        transcript = make_transcript([rng.choice(NAMES) for _ in range(m)])
        breaks = rng.sample(range(1, m), rng.randint(0, min(m - 1, 6)))
        # the partition format checks that the scenes tile the transcript
        episode = SimpleNamespace(transcript=transcript)
        for partition in (partition_from_breaks(transcript, breaks), optimal_partition(transcript)):
            back = round_trip("segment", partition, episode=episode)
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
        # the alignment format checks its path against the line and cue counts
        episode = SimpleNamespace(
            transcript=SimpleNamespace(lines=lines), captions=SimpleNamespace(cues=cues)
        )
        back = round_trip("align", alignment, episode=episode)
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
        run = {"segment": scenes_of(rosters)}
        back = round_trip("reorder", order, run["segment"])
        assert back == order
        assert repr(back.cost) == repr(order.cost)
        # order.json also carries the original order's cost; the loader skips it
        data = STAGES["reorder"].dump(run, order)
        assert "original_cost" in data
        assert STAGES["reorder"].load(run, data) == order


def test_scene_caption_and_time_span_round_trip():
    rng = random.Random(7)
    one_scene = scenes_of([()])
    for i in range(50):
        caption = SceneCaption(i, tuple(random_text(rng) for _ in range(rng.randint(0, 4))))
        assert round_trip("caption", [caption], one_scene) == [caption]
        span = TimeSpan(rng.randint(0, 10**9), rng.randint(0, 10**9))
        assert round_trip("spans", [span], one_scene) == [span]


def test_spans_file_format_labels_each_scene():
    spans = [TimeSpan(0, 12000), TimeSpan(12000, 24000)]
    data = STAGES["spans"].dump(None, spans)
    assert [d["scene"] for d in data] == [0, 1]
    # spans.json also carries each scene's index; the loader skips it
    assert STAGES["spans"].load({"segment": scenes_of([(), ()])}, data) == spans


def test_partition_reader_ignores_the_derived_breaks():
    transcript = make_transcript(["A", "B", "A", "C", "C", "D"])
    partition = partition_from_breaks(transcript, [3])
    data = STAGES["segment"].dump(None, partition)
    assert data["breaks"] == [3]
    del data["breaks"]
    run = SimpleNamespace(episode=SimpleNamespace(transcript=transcript))
    assert STAGES["segment"].load(run, data) == partition
