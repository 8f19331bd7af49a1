"""Pipeline orchestration: staging, resumability, budgets, and ablations."""

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import pytest

from conftest import (
    EPISODE_TRANSCRIPT,
    EPISODE_VISUAL,
    INTERLEAVED,
    build_mock_backends,
    episode_captions,
    make_transcript,
    write_episode,
)
from scenefuse import backends as be
from scenefuse import pipeline
from scenefuse.alignment import TimeSpan
from scenefuse.backends import (
    ROLES,
    BackendClient,
    Backends,
    HttpTransport,
    MockTransport,
    RoleRuntime,
    default_mock_transport,
    default_template,
)
from scenefuse.captions import GenderLexicon
from scenefuse.errors import (
    BudgetTooSmall,
    ConfigError,
    DataError,
    EmptyCompletion,
)
from scenefuse.model import load_episode
from scenefuse.pipeline import (
    PipelineConfig,
    assemble_fusion_input,
    config_from_dict,
    run_eval,
    run_pipeline,
    uniform_chunk_breaks,
)
from scenefuse.prefs import split_sentences
from scenefuse.reordering import SceneOrder


def build_uncached_backends() -> Backends:
    """Mocks without a completion cache, so every request goes upstream."""
    roles = {}
    for role in ROLES:
        client = BackendClient(default_mock_transport(role), backoff=0.0)
        roles[role] = RoleRuntime(client=client, template=default_template(role))
    return Backends(roles=roles)


def standard_episode(root: Path):
    return load_episode(
        write_episode(
            root / "ep1",
            EPISODE_TRANSCRIPT,
            captions=episode_captions(),
            visual=EPISODE_VISUAL,
        )
    )


STAGE_FILES = (
    "partition.json",
    "alignment.json",
    "spans.json",
    "captions.json",
    "summaries.json",
    "order.json",
    "fusion_input.txt",
    "summary.txt",
)


# ---------------------------------------------------------------------------
# Uniform chunking
# ---------------------------------------------------------------------------

def test_uniform_chunk_breaks_window_arithmetic():
    transcript = make_transcript(["A"] * 6)  # 3 tokens per line
    assert uniform_chunk_breaks(transcript, window=7) == [2, 4]
    assert uniform_chunk_breaks(transcript, window=1000) == []
    # the first line never opens with a break, even when oversized
    assert uniform_chunk_breaks(transcript, window=2) == [1, 2, 3, 4, 5]


def test_uniform_chunk_breaks_counts_speaker_tokens():
    transcript = make_transcript(["Anna Lee", "Anna Lee"])  # 4 tokens per line
    assert uniform_chunk_breaks(transcript, window=4) == [1]


# ---------------------------------------------------------------------------
# Fusion input assembly
# ---------------------------------------------------------------------------

SUMMARIES = ["alpha one. alpha two.", "beta one. beta two.", "gamma one."]
CAPTIONS = [["cap a1", "cap a2"], ["cap b1"], ["cap c1"]]
ORDER = SceneOrder((2, 0, 1), 0.0)


def assemble(budget):
    return assemble_fusion_input(SUMMARIES, CAPTIONS, ORDER, budget)


def test_fusion_input_block_format_and_ordering():
    text = assemble(100)
    assert text == (
        "cap c1\ngamma one.\n\n"
        "cap a1\ncap a2\nalpha one. alpha two.\n\n"
        "cap b1\nbeta one. beta two."
    )


def test_fusion_overflow_drops_last_blocks_captions_first():
    assert assemble(17) == (
        "cap c1\ngamma one.\n\n"
        "cap a1\ncap a2\nalpha one. alpha two.\n\n"
        "beta one. beta two."
    )


def test_fusion_overflow_then_trims_trailing_sentences():
    assert assemble(8) == "gamma one.\n\nalpha one. alpha two.\n\nbeta one."


def test_fusion_overflow_never_trims_the_first_block():
    assert assemble(3) == "gamma one."


def test_fusion_budget_too_small_for_the_first_block():
    with pytest.raises(BudgetTooSmall, match="needs 2 tokens, budget 1"):
        assemble(1)


def test_fusion_input_without_any_content():
    order = SceneOrder((0, 1), 0.0)
    assert assemble_fusion_input([None, None], [[], []], order, 50) == ""


def test_fusion_caption_only_blocks_can_be_trimmed():
    order = SceneOrder((0, 1), 0.0)
    out = assemble_fusion_input(
        [None, None], [["cap one here"], ["cap two there"]], order, 3
    )
    assert out == "cap one here"


def test_fusion_input_budget_validation():
    with pytest.raises(ConfigError):
        assemble(0)


# The trimming loop as it was before it counted each part once: after
# every dropped caption block and every popped sentence it renders all
# blocks and splits the whole text again. Kept as the oracle.

def _tokens(text: str) -> int:
    return len(text.split())


class _Block:
    """One reordered scene's fusion content: captions then summary."""

    def __init__(self, captions: list[str], summary_sentences: list[str]):
        self.captions = captions
        self.summary = summary_sentences

    def render(self) -> str:
        parts = list(self.captions)
        if self.summary:
            parts.append(" ".join(self.summary))
        return "\n".join(parts)

    def empty(self) -> bool:
        return not self.captions and not self.summary


def reference_fusion_input(
    scene_summaries: Sequence[str | None],
    scene_captions: Sequence[Sequence[str]],
    order: SceneOrder,
    budget: int,
) -> str:
    """Concatenate per-scene blocks in reordered sequence, within budget.

    Block format: the scene's caption sentences, one per line, then its
    dialogue summary on one line; blocks joined by blank lines. On
    overflow, captions are dropped first (whole scenes, last reordered
    scene first), then trailing sentences are cut from the end, never
    touching the first block's own content. If that first block alone
    exceeds the budget the call fails rather than truncate it.
    """
    if budget <= 0:
        raise ConfigError(f"budget must be > 0, got {budget}")
    blocks: list[_Block] = []
    for idx in order.permutation:
        captions = list(scene_captions[idx]) if idx < len(scene_captions) else []
        summary = scene_summaries[idx] if idx < len(scene_summaries) else None
        block = _Block(captions, split_sentences(summary) if summary else [])
        if not block.empty():
            blocks.append(block)
    if not blocks:
        return ""

    def render() -> str:
        return "\n\n".join(b.render() for b in blocks if not b.empty())

    def fits() -> bool:
        return _tokens(render()) <= budget

    if fits():
        return render()

    # captions go first, last reordered scene first, while any summary
    # text exists to carry the episode
    if any(b.summary for b in blocks):
        for block in reversed(blocks):
            if block.captions:
                block.captions = []
                if fits():
                    return render()

    # then trailing sentences, never the first block's
    while not fits():
        for block in reversed(blocks[1:]):
            if block.summary:
                block.summary.pop()
                break
            if block.captions:
                block.captions.pop()
                break
        else:
            raise BudgetTooSmall(
                f"first scene block needs {_tokens(render())} tokens, budget {budget}"
            )
    return render()


PARTS = ["", " ", "\t\n", "\xa0", "word", "two words", "a\u2003b c", "Hi there.", "Go! Now?"]


def random_fusion_case(rng: random.Random):
    n = rng.randint(0, 6)
    permutation = list(range(n))
    rng.shuffle(permutation)
    summaries = [
        rng.choice([None, "", "  ", " ".join(rng.choices(PARTS, k=rng.randint(1, 6)))])
        for _ in range(rng.randint(0, n))
    ]
    captions = [rng.choices(PARTS, k=rng.randint(0, 3)) for _ in range(rng.randint(0, n))]
    return summaries, captions, SceneOrder(tuple(permutation), 0.0), rng.randint(-1, 16)


def fusion_outcome(assemble_fn, summaries, captions, order, budget):
    try:
        return assemble_fn(summaries, captions, order, budget)
    except (BudgetTooSmall, ConfigError) as exc:
        return type(exc), str(exc)


def test_fusion_input_equals_the_rerendering_oracle():
    rng = random.Random(19)
    outcomes = set()
    for _ in range(4000):
        case = random_fusion_case(rng)
        expected = fusion_outcome(reference_fusion_input, *case)
        assert fusion_outcome(assemble_fusion_input, *case) == expected, case
        if isinstance(expected, tuple):
            outcomes.add(expected[0])
        else:  # True where the whole text fit, False where it was trimmed
            summaries, captions, order, _ = case
            outcomes.add(expected == reference_fusion_input(summaries, captions, order, 10**6))
    assert outcomes == {True, False, BudgetTooSmall, ConfigError}


# ---------------------------------------------------------------------------
# Full pipeline runs
# ---------------------------------------------------------------------------

def test_pipeline_persists_every_stage(tmp_path):
    episode = standard_episode(tmp_path)
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    artifacts = run_pipeline(episode, config)

    out = tmp_path / "out" / "ep1"
    assert artifacts.out_dir == out
    for name in STAGE_FILES:
        assert (out / name).is_file(), name

    assert [ (s.start, s.end) for s in artifacts.partition.scenes ] == [
        (0, 6), (6, 12), (12, 18)
    ]
    assert artifacts.time_spans == [
        TimeSpan(0, 12000), TimeSpan(12000, 24000), TimeSpan(24000, 36000)
    ]
    # precomputed visual captions, postprocessed per scene roster
    sentences = [list(c.sentences) for c in artifacts.scene_captions]
    assert sentences == [
        ["Brody and Jessica are standing near a garden"],
        [],
        ["two people are walking along a dock"],
    ]
    assert artifacts.scene_summaries[0] == (
        "Brody and Jessica talk. It begins with: Did you see the garden this morning?"
    )
    assert artifacts.order.permutation == (0, 1, 2)
    assert artifacts.fusion_input.startswith(
        "Brody and Jessica are standing near a garden\n"
        "Brody and Jessica talk."
    )
    assert artifacts.final_summary.startswith("Episode recap: Brody and Jessica")


def test_pipeline_runs_are_byte_identical(tmp_path):
    episode = standard_episode(tmp_path)
    outputs = []
    for run in ("a", "b"):
        config = PipelineConfig(
            backends=build_mock_backends(tmp_path / f"cache-{run}"),
            out_dir=tmp_path / f"out-{run}",
        )
        run_pipeline(episode, config)
        outputs.append({
            name: (tmp_path / f"out-{run}" / "ep1" / name).read_bytes()
            for name in STAGE_FILES
        })
    assert outputs[0] == outputs[1]


# sha256 of each stage file for the standard episode under the offline
# mocks. A change to any artifact's format, or to a stage's result, fails
# here; update these only on purpose.
STAGE_SHA256 = {
    "partition.json": "f8b97b7de4743c332e9f3028ad89688b1672f7fdbc92c1bd0ce9329bdc63befa",
    "alignment.json": "dc28bbab7b7bc5b80f90caa43e709af2c4cecb1d450bff36105d190394c0159a",
    "spans.json": "9540d299e65dabb95f882065ac31cf10754031b5bce5e43ab8cadecbbb544968",
    "captions.json": "bce8df2796a7c4d1e0deeea63fcc4b6d4bd67e2b3b6a20c816583dce066fc236",
    "summaries.json": "56d73d78e4f87da0e0191dd3a4bff7f89423533443e3e35c61467fccac6b2f28",
    "order.json": "f45fcbdfb1db9891d2f47b623e7ebc4fbe0fa3561319801401d2c34c8a0ecda9",
    "fusion_input.txt": "2e32c0de451949286dcff61245225c3184eb609556ae6da76f85ac6098d7d7ff",
    "summary.txt": "9f385a3fd99b06e476385fe10dc5f99c84ce0a61caae6070ad0b3e43fd8350e8",
}


def test_stage_files_keep_their_bytes(tmp_path):
    episode = standard_episode(tmp_path)
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    run_pipeline(episode, config)
    out = tmp_path / "out" / "ep1"
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in STAGE_FILES
    }
    assert digests == STAGE_SHA256


def test_stages_json_keeps_its_bytes(tmp_path):
    # the input keys too, so that an --out the mocks filled is still reused
    episode = standard_episode(tmp_path)
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    run_pipeline(episode, config)
    record = (tmp_path / "out" / "ep1" / "stages.json").read_bytes()
    assert hashlib.sha256(record).hexdigest() == (
        "b1b3845261ee5f73df1405dccb2fec875c42fc062c771a94f51cbdc5a9e5f12e"
    )


@pytest.mark.parametrize(
    "flags",
    [{}, {"uniform_chunks": True}, {"skip_reorder": True}, {"skip_vision": True}],
    ids=["default", "uniform_chunks", "skip_reorder", "skip_vision"],
)
def test_resumed_run_equals_the_cold_run(tmp_path, flags):
    episode = standard_episode(tmp_path)
    backends = build_uncached_backends()
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out", **flags)
    cold = run_pipeline(episode, config)
    calls = backends.upstream_calls
    resumed = run_pipeline(episode, config)
    # every stage came from its file
    assert backends.upstream_calls == calls
    assert resumed == cold


def test_pipeline_resumes_from_persisted_artifacts(tmp_path):
    episode = standard_episode(tmp_path)
    backends = build_uncached_backends()
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out")
    first = run_pipeline(episode, config)
    # 3 scene summaries plus 1 fusion request; captions are precomputed
    assert backends.upstream_calls == 4

    again = run_pipeline(episode, config)
    assert backends.upstream_calls == 4
    assert again.final_summary == first.final_summary

    (tmp_path / "out" / "ep1" / "summary.txt").unlink()
    resumed = run_pipeline(episode, config)
    assert backends.upstream_calls == 5
    assert resumed.final_summary == first.final_summary


def test_pipeline_recomputes_only_the_deleted_stage(tmp_path):
    episode = standard_episode(tmp_path)
    backends = build_uncached_backends()
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out")
    run_pipeline(episode, config)
    (tmp_path / "out" / "ep1" / "summaries.json").unlink()
    run_pipeline(episode, config)
    # 3 summarizer requests redone, fusion loaded from disk
    assert backends.upstream_calls == 7


DAMAGE = {
    "half": lambda data: data[: len(data) // 2],
    "empty": lambda data: b"",
    "undecodable": lambda data: b"\xff\xfe not text",
    # valid JSON of the wrong kind, and valid text for a text artifact
    "json-scalar": lambda data: b"7\n",
    # a cut at a line end: valid text, but only its first line
    "first-line": lambda data: data[: data.index(b"\n") + 1],
}
CORRUPTIONS = [
    pytest.param(name, damage, id=f"{damage}-{name}")
    for damage in DAMAGE
    for name in STAGE_FILES
    # summary.txt is one line, so that cut leaves it whole
    if (damage, name) != ("first-line", "summary.txt")
]


@pytest.mark.parametrize(("name", "damage"), CORRUPTIONS)
def test_pipeline_recomputes_a_corrupt_artifact(tmp_path, name, damage):
    episode = standard_episode(tmp_path)
    fresh = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache-fresh"),
        out_dir=tmp_path / "fresh",
    )
    run_pipeline(episode, fresh)
    expected = {n: (tmp_path / "fresh" / "ep1" / n).read_bytes() for n in STAGE_FILES}

    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    run_pipeline(episode, config)
    out = tmp_path / "out" / "ep1"
    damaged = DAMAGE[damage]((out / name).read_bytes())
    assert damaged != expected[name]
    (out / name).write_bytes(damaged)

    run_pipeline(episode, config)
    assert {n: (out / n).read_bytes() for n in STAGE_FILES} == expected
    # the rewrite went through a temp file that os.replace consumed
    assert sorted(p.name for p in out.iterdir()) == sorted(STAGE_FILES + ("stages.json",))


def scenes_edited(edit):
    """A partition.json misfit that maps its scene list through edit."""
    return lambda data: {**data, "scenes": edit(data["scenes"])}


# valid JSON that does not fit the partition's 3 scenes, scenes that do
# not tile the transcript, a value of the wrong JSON type, or a scene
# whose roster or cost is not the one its lines give
MISFITS = [
    pytest.param("spans.json", lambda data: data[:-1], id="short-spans"),
    pytest.param("captions.json", lambda data: data + data[-1:], id="long-captions"),
    pytest.param("summaries.json", lambda data: data[:-1], id="short-summaries"),
    pytest.param(
        "order.json", lambda data: {**data, "permutation": [0, 1, 2, 3]}, id="long-order"
    ),
    pytest.param(
        "order.json", lambda data: {**data, "permutation": [0, 0, 1]}, id="repeated-order"
    ),
    pytest.param(
        "order.json", lambda data: {**data, "permutation": [0.0, 1, 2]}, id="float-order"
    ),
    pytest.param("summaries.json", lambda data: [7, *data[1:]], id="int-summary"),
    pytest.param(
        "captions.json",
        lambda data: [{**data[0], "sentences": [7]}, *data[1:]],
        id="int-caption-sentence",
    ),
    pytest.param(
        "order.json", lambda data: {**data, "reordered_cost": "x"}, id="string-order-cost"
    ),
    pytest.param(
        "alignment.json",
        lambda data: {**data, "path": [*data["path"][:-1], [data["path"][-1][0], 99999]]},
        id="cue-past-the-end",
    ),
    pytest.param(
        "alignment.json",
        lambda data: {**data, "path": [*data["path"][:-1], [data["path"][-1][0], -1]]},
        id="negative-cue",
    ),
    pytest.param(
        "partition.json",
        scenes_edited(lambda s: [*s[:-1], {**s[-1], "end": 99}]),
        id="scene-past-the-end",
    ),
    pytest.param(
        "partition.json",
        scenes_edited(lambda s: [s[0], {**s[1], "start": s[1]["start"] - 1}, *s[2:]]),
        id="overlapping-scenes",
    ),
    pytest.param(
        "partition.json",
        scenes_edited(lambda s: [s[0], {**s[0], "start": s[0]["end"], "roster": []}, *s[1:]]),
        id="empty-scene",
    ),
    pytest.param(
        "partition.json",
        scenes_edited(lambda s: [{**s[0], "roster": s[0]["roster"][0]}, *s[1:]]),
        id="string-roster",
    ),
    pytest.param(
        "captions.json",
        lambda data: [{**data[0], "sentences": data[0]["sentences"][0]}, *data[1:]],
        id="string-caption-sentences",
    ),
    pytest.param(
        "partition.json",
        scenes_edited(lambda s: [{**s[0], "roster": s[-1]["roster"]}, *s[1:]]),
        id="another-scenes-roster",
    ),
    pytest.param(
        "partition.json",
        scenes_edited(lambda s: [{**s[0], "cost_bits": s[0]["cost_bits"] + 1}, *s[1:]]),
        id="edited-cost-bits",
    ),
]


@pytest.mark.parametrize(("name", "misfit"), MISFITS)
def test_pipeline_recomputes_an_artifact_that_does_not_fit_the_partition(
    tmp_path, name, misfit
):
    episode = standard_episode(tmp_path)
    fresh = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache-fresh"),
        out_dir=tmp_path / "fresh",
    )
    run_pipeline(episode, fresh)
    expected = {n: (tmp_path / "fresh" / "ep1" / n).read_bytes() for n in STAGE_FILES}

    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    run_pipeline(episode, config)
    out = tmp_path / "out" / "ep1"
    data = json.loads((out / name).read_text(encoding="utf-8"))
    (out / name).write_text(json.dumps(misfit(data)), encoding="utf-8")

    run_pipeline(episode, config)
    assert {n: (out / n).read_bytes() for n in STAGE_FILES} == expected


def test_pipeline_recomputes_stages_written_for_another_partition(tmp_path):
    episode = standard_episode(tmp_path)
    fresh = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache-fresh"),
        out_dir=tmp_path / "fresh",
        uniform_chunks=True,
    )
    assert len(run_pipeline(episode, fresh).partition.scenes) == 1
    expected = {n: (tmp_path / "fresh" / "ep1" / n).read_bytes() for n in STAGE_FILES}

    # three MDL scenes first; then only the partition and what follows
    # from the summaries are deleted, and the rerun chunks uniformly
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    run_pipeline(episode, config)
    out = tmp_path / "out" / "ep1"
    for name in ("partition.json", "fusion_input.txt", "summary.txt"):
        (out / name).unlink()
    config.uniform_chunks = True
    artifacts = run_pipeline(episode, config)
    assert artifacts.order.permutation == (0,)
    assert {n: (out / n).read_bytes() for n in STAGE_FILES} == expected


def record_computes(monkeypatch) -> list[str]:
    """The keys of the stages computed from now on, in order."""
    computed = []
    for key, stage in pipeline.STAGES.items():
        def compute(run, key=key, compute=stage.compute):
            computed.append(key)
            return compute(run)

        monkeypatch.setitem(pipeline.STAGES, key, stage._replace(compute=compute))
    return computed


def reorderable_episode(root: Path) -> Path:
    """A bundle that runs every stage, and whose reorder moves a scene."""
    return write_episode(
        root / "ep", INTERLEAVED, captions=episode_captions(INTERLEAVED), visual=EPISODE_VISUAL[:3]
    )


def edit_bundle(name: str, old: str, new: str):
    def change(bundle: Path, config: PipelineConfig):
        text = (bundle / name).read_text(encoding="utf-8")
        assert old in text
        (bundle / name).write_text(text.replace(old, new), encoding="utf-8")
    return change


def set_field(field: str, value):
    return lambda bundle, config: setattr(config, field, value)


def set_role(role: str, field: str, value):
    return lambda bundle, config: setattr(config.backends.roles[role], field, value)


class MockedEndpoint(HttpTransport):
    """An endpoint's transport that answers as the role's mock, with no server behind it."""

    def __init__(self, role: str):
        super().__init__("http://127.0.0.1:9/v1")
        self.send = default_mock_transport(role).send


def set_endpoint(role: str):
    return lambda bundle, config: setattr(
        config.backends.roles[role].client, "transport", MockedEndpoint(role)
    )


AFTER_SEGMENT = {"segment", "spans", "caption", "summarize", "reorder", "fuse-input", "fuse"}
FUSION = {"fuse-input", "fuse"}
# one change to the inputs of a filled --out, and the stages it must
# recompute: those that read the change, and those that read a stage
# file whose bytes it changed
KEY_CHANGES = [
    pytest.param(set_field("uniform_chunks", True), AFTER_SEGMENT, id="uniform_chunks"),
    pytest.param(set_field("skip_reorder", True), {"reorder"} | FUSION, id="skip_reorder"),
    pytest.param(set_field("context_budget", 20), FUSION, id="context_budget"),
    pytest.param(set_field("skip_vision", True), FUSION, id="skip_vision"),
    pytest.param(set_field("skip_transcript", True), FUSION, id="skip_transcript"),
    pytest.param(set_field("max_workers", 1), set(), id="max_workers"),
    pytest.param(
        set_field("lexicon", GenderLexicon(frozenset(), frozenset({"jessica"}))),
        {"caption"} | FUSION,
        id="lexicon",
    ),
    *(
        pytest.param(set_role(role, field, value), {stage}, id=f"{role}-{field}")
        for role, stage in (("dialogue_summarizer", "summarize"), ("fusion_summarizer", "fuse"))
        for field, value in (
            ("template", "Recap:\n{scene}{notes}"),
            ("model_name", "another-model"),
            ("max_output_tokens", 100),
            ("temperature", 0.5),
        )
    ),
    *(  # a mock run, then an endpoint run into the same --out
        pytest.param(set_endpoint(role), {stage}, id=f"{role}-endpoint")
        for role, stage in (("dialogue_summarizer", "summarize"), ("fusion_summarizer", "fuse"))
    ),
    *(  # roles that no stage reads
        pytest.param(set_role(role, "model_name", "another-model"), set(), id=role)
        for role in ("fact_extractor", "fact_judge", "vision_captioner")
    ),
    pytest.param(
        edit_bundle("transcript.txt", "garden looks great", "garden looks lovely"),
        {"segment", "align", "spans", "summarize"} | FUSION,
        id="transcript.txt",
    ),
    pytest.param(
        edit_bundle("captions.srt", "Completely empty.", "Totally empty."),
        {"align", "spans"},
        id="captions.srt",
    ),
    pytest.param(
        edit_bundle("captions.visual.json", "near a garden", "near a fountain"),
        {"caption"} | FUSION,
        id="captions.visual.json",
    ),
]


@pytest.mark.parametrize(("change", "recomputed"), KEY_CHANGES)
def test_a_changed_input_recomputes_exactly_the_stages_that_depend_on_it(
    tmp_path, monkeypatch, change, recomputed
):
    bundle = reorderable_episode(tmp_path)
    backends = build_uncached_backends()
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out")
    run_pipeline(load_episode(bundle), config)
    out = tmp_path / "out" / "ep"
    before = {p.name: p.stat() for p in out.iterdir()}

    change(bundle, config)
    episode = load_episode(bundle)
    calls = backends.upstream_calls
    computed = record_computes(monkeypatch)
    artifacts = run_pipeline(episode, config)
    assert set(computed) == recomputed
    scenes = len(artifacts.partition.scenes)
    assert backends.upstream_calls - calls == (
        scenes * ("summarize" in recomputed) + ("fuse" in recomputed)
    )
    # os.replace gives a rewritten file a new inode
    rewritten = {name for name, st in before.items() if (out / name).stat().st_ino != st.st_ino}
    files = {pipeline.STAGES[key].file for key in recomputed}
    assert rewritten == (files | {"stages.json"} if recomputed else set())

    fresh = run_pipeline(episode, replace(config, out_dir=tmp_path / "fresh"))
    assert replace(artifacts, out_dir=fresh.out_dir) == fresh
    fresh_files = {p.name: p.read_bytes() for p in fresh.out_dir.iterdir()}
    record = json.loads(fresh_files.pop("stages.json"))
    assert {name: (out / name).read_bytes() for name in fresh_files} == fresh_files
    reused = json.loads((out / "stages.json").read_text(encoding="utf-8"))
    assert {name: reused[name] for name in record} == record


def test_stage_reads_name_every_stage_its_compute_looks_up(tmp_path):
    class LookupRecorder(pipeline.Run):
        looked_up: set

        def __getitem__(self, key):
            self.looked_up.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.looked_up.add(key)
            return super().get(key, default)

    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    bundle = write_episode(
        tmp_path / "ep1", EPISODE_TRANSCRIPT, captions=episode_captions(), visual=EPISODE_VISUAL,
        gold=["Brooke sails away tonight."],  # so that the prefs compute runs too
    )
    run = LookupRecorder(load_episode(bundle), config)
    run.looked_up = set()
    assert run.stages == list(pipeline.STAGES)
    for key in run.stages:  # made up front, so a compute below makes no other stage
        run[key]
    for key, stage in pipeline.STAGES.items():
        run.looked_up = set()
        stage.compute(run)
        assert run.looked_up == {read for read in stage.reads if read in pipeline.STAGES}, key


def test_stages_json_does_not_depend_on_the_hash_seed(tmp_path):
    episode = standard_episode(tmp_path)
    env = dict(os.environ)
    package_root = str(Path(pipeline.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    records = []
    for seed in ("0", "1"):
        out = tmp_path / f"out-{seed}"
        subprocess.run(
            [sys.executable, "-m", "scenefuse.cli", "--mock", "--episode",
             str(tmp_path / "ep1"), "--out", str(out), "summarize"],
            env={**env, "PYTHONHASHSEED": seed}, capture_output=True, check=True,
        )
        records.append((out / episode.id / "stages.json").read_bytes())
    assert records[0] == records[1]
    assert sorted(json.loads(records[0])) == sorted(STAGE_FILES)


def test_a_failed_run_records_the_stages_it_made(tmp_path, monkeypatch):
    episode = standard_episode(tmp_path)
    backends = build_uncached_backends()
    fusion = backends.roles["fusion_summarizer"].client
    working, fusion.transport = fusion.transport, MockTransport(lambda req: "   ")
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out")
    with pytest.raises(EmptyCompletion, match="^stage fuse: "):
        run_pipeline(episode, config)
    record = json.loads((tmp_path / "out" / "ep1" / "stages.json").read_text(encoding="utf-8"))
    assert sorted(record) == sorted(STAGE_FILES[:-1])

    fusion.transport = working
    calls = backends.upstream_calls
    computed = record_computes(monkeypatch)
    run_pipeline(episode, config)
    assert computed == ["fuse"]
    assert backends.upstream_calls == calls + 1


@pytest.mark.parametrize("name", ["order.json", "summary.txt", "stages.json"])
def test_pipeline_with_nowhere_to_write_sends_no_request(tmp_path, name):
    episode = standard_episode(tmp_path)
    backends = build_uncached_backends()
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out")
    (tmp_path / "out" / "ep1" / name).mkdir(parents=True)
    with pytest.raises(ConfigError, match=f"^cannot write .*{name}: "):
        run_pipeline(episode, config)
    assert backends.upstream_calls == 0
    # it failed before the first stage, so it wrote nothing, temp files included
    assert [p.name for p in (tmp_path / "out" / "ep1").iterdir()] == [name]


def test_pipeline_that_computes_nothing_checks_nothing(tmp_path, monkeypatch):
    episode = standard_episode(tmp_path)
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    cold = run_pipeline(episode, config)
    checked = []
    monkeypatch.setattr(pipeline, "check_writable", lambda *paths: checked.extend(paths))
    assert run_pipeline(episode, config) == cold
    assert checked == []
    (tmp_path / "out" / "ep1" / "summary.txt").unlink()
    assert run_pipeline(episode, config) == cold
    assert tuple(p.name for p in checked) == STAGE_FILES + ("stages.json",)


def test_pipeline_stage_errors_name_the_stage(tmp_path):
    episode = standard_episode(tmp_path)
    backends = build_uncached_backends()
    backends.roles["dialogue_summarizer"].client.transport = MockTransport(
        lambda req: "   "
    )
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out")
    with pytest.raises(EmptyCompletion, match="^stage summarize: "):
        run_pipeline(episode, config)


@pytest.mark.parametrize("workers", [2, 3])
def test_summarize_keeps_up_to_max_workers_requests_in_flight(tmp_path, workers):
    transcript = "\n[SCENE_BREAK]\n".join(
        f"Nick: Scene {i} starts here.\nBrooke: And it ends." for i in range(8)
    )
    episode = load_episode(write_episode(tmp_path / "ep", transcript))
    answer = default_mock_transport("dialogue_summarizer").send
    lock = threading.Lock()
    in_flight = peak = 0

    def delayed(request):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        time.sleep(0.005)
        with lock:
            in_flight -= 1
        return answer(request)

    backends = build_uncached_backends()
    backends.roles["dialogue_summarizer"].client.transport = MockTransport(delayed)
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out", max_workers=workers)
    summaries = pipeline.Run(episode, config)["summarize"]
    assert 1 < peak <= workers
    serial = pipeline.Run(episode, replace(config, max_workers=1))["summarize"]
    assert summaries == serial and len(set(summaries)) == 8


def test_pipeline_skip_vision_removes_captions(tmp_path):
    episode = standard_episode(tmp_path)
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"),
        out_dir=tmp_path / "out",
        skip_vision=True,
    )
    artifacts = run_pipeline(episode, config)
    assert artifacts.scene_captions == []
    assert not (artifacts.out_dir / "captions.json").exists()
    assert "standing near a garden" not in artifacts.fusion_input
    assert "Brody and Jessica talk." in artifacts.fusion_input


def test_pipeline_skip_transcript_keeps_captions_only(tmp_path):
    episode = standard_episode(tmp_path)
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"),
        out_dir=tmp_path / "out",
        skip_transcript=True,
    )
    artifacts = run_pipeline(episode, config)
    assert artifacts.scene_summaries == []
    assert not (artifacts.out_dir / "summaries.json").exists()
    assert artifacts.fusion_input == (
        "Brody and Jessica are standing near a garden\n\n"
        "two people are walking along a dock"
    )


def test_pipeline_uniform_chunks_replaces_the_segmenter(tmp_path):
    episode = standard_episode(tmp_path)
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"),
        out_dir=tmp_path / "out",
        uniform_chunks=True,
    )
    artifacts = run_pipeline(episode, config)
    # 18 lines fit inside one default window
    assert [(s.start, s.end) for s in artifacts.partition.scenes] == [(0, 18)]




def test_pipeline_reorder_groups_shared_casts(tmp_path):
    episode = load_episode(write_episode(tmp_path / "ep2", INTERLEAVED))
    backends = build_mock_backends(tmp_path / "cache")
    config = PipelineConfig(backends=backends, out_dir=tmp_path / "out")
    artifacts = run_pipeline(episode, config)
    # the dock scene moves to the front; the shared-cast scenes end up adjacent
    assert artifacts.order.permutation == (1, 0, 2)
    blocks = artifacts.fusion_input.split("\n\n")
    assert "dock" in blocks[0]
    assert "garden plans" in blocks[2]


def test_pipeline_skip_reorder_keeps_transcript_order(tmp_path):
    episode = load_episode(write_episode(tmp_path / "ep2", INTERLEAVED))
    backends = build_mock_backends(tmp_path / "cache")
    config = PipelineConfig(
        backends=backends, out_dir=tmp_path / "out", skip_reorder=True
    )
    artifacts = run_pipeline(episode, config)
    assert artifacts.order.permutation == (0, 1, 2)
    blocks = artifacts.fusion_input.split("\n\n")
    assert "dock" in blocks[1]
    assert "garden plans" in blocks[2]


# ---------------------------------------------------------------------------
# Config construction
# ---------------------------------------------------------------------------

def test_config_from_dict_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"budget": 10}, tmp_path, tmp_path / "out")
    with pytest.raises(ConfigError, match="root"):
        config_from_dict(["not", "an", "object"], tmp_path, tmp_path / "out")


def test_config_from_dict_applies_settings(tmp_path):
    raw = {"context_budget": 123, "skip_vision": True, "uniform_chunks": True}
    config = config_from_dict(raw, tmp_path, tmp_path / "out", mock=True)
    assert config.context_budget == 123
    assert config.skip_vision is True
    assert config.uniform_chunks is True
    assert config.out_dir == tmp_path / "out"


# JSON values of each type but the one a setting's kind reads
WRONG_TYPED = {
    bool: [None, 0, 1, "true", [], {}],
    int: [None, True, 1.5, "1", [], {}],
    float: [None, True, "1", float("nan"), float("-inf"), 10**400, [], {}],  # 10**400 overflows
    str: [True, 5, [], {}],
    Path: [True, 5, [], {}],
    dict: [None, True, "x", []],
}


@pytest.mark.parametrize(
    ("level", "key", "setting"),
    [
        pytest.param(level, key, setting, id=f"{level}-{key}")
        for level, table in (
            ("top", pipeline.SETTINGS), ("top", be.SETTINGS), ("role", be.ROLE_SETTINGS)
        )
        for key, setting in table.items()
    ],
)
def test_every_setting_refuses_a_wrong_type_and_a_value_below_its_least(
    tmp_path, level, key, setting
):
    def read(value):
        raw = {key: value} if level == "top" else {"backends": {be.FACT_JUDGE: {key: value}}}
        return config_from_dict(raw, tmp_path, tmp_path / "out", mock=True)

    refused = list(WRONG_TYPED[setting.kind])
    if setting.least is not None:
        refused.append(setting.least - (1 if setting.kind is int else 0.5))
        read(setting.least)  # the least itself is accepted
    for value in refused:
        with pytest.raises(ConfigError, match=repr(key)):
            read(value)
    if setting.kind in (str, Path):
        read(None)  # null means absent


def test_pipeline_config_validates_budget(tmp_path):
    with pytest.raises(ConfigError, match="context_budget"):
        PipelineConfig(
            backends=build_uncached_backends(),
            out_dir=tmp_path,
            context_budget=0,
        )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_run_eval_requires_gold_summaries(tmp_path):
    episode = standard_episode(tmp_path)
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    with pytest.raises(DataError, match="gold"):
        run_eval(episode, "Some summary.", config)


def test_run_eval_scores_and_persists_a_report(tmp_path):
    episode = load_episode(
        write_episode(
            tmp_path / "ep3",
            EPISODE_TRANSCRIPT,
            gold=["Brooke sails away tonight."],
        )
    )
    config = PipelineConfig(
        backends=build_mock_backends(tmp_path / "cache"), out_dir=tmp_path / "out"
    )
    report = run_eval(episode, "Nick owns a boat. Brooke sails away.", config)
    assert report.fact_precision == 50.0
    assert report.fact_recall == 0.0
    assert report.prefs == 0.0

    persisted = json.loads(
        (tmp_path / "out" / "ep3" / "prefs.json").read_text(encoding="utf-8")
    )
    assert persisted == report.to_dict()
