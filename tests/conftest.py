"""Shared fixtures: transcripts, episode bundles, and offline backends."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from scenefuse.backends import (
    ROLES,
    Backends,
    BackendClient,
    RoleRuntime,
    default_mock_transport,
    default_template,
    fixture_transport,
)
from scenefuse.model import Transcript, parse_transcript

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Worked segmentation example: two speakers alternate for 9 lines, a crowded
# middle stretch of 28 lines, then another two-speaker tail of 9 lines.
NAMES_46 = (
    ["Elwood", "Casey"] * 4 + ["Elwood"]
    + [
        "Meg", "Paul", "Meg", "Paul", "Meg", "Paul", "Luke",
        "Meg", "Paul", "Luke", "Meg", "Luke", "Meg", "Luke",
        "Meg", "Luke", "Meg", "Paul", "Meg", "Luke", "Meg",
        "Luke", "Meg", "Luke", "Meg", "Luke", "Meg", "Luke",
    ]
    + ["Adam", "Gwen"] * 4 + ["Adam"]
)


def make_transcript(speakers: list[str]) -> Transcript:
    """Build a transcript with one line per speaker name."""
    text = "\n".join(f"{name}: line {i}" for i, name in enumerate(speakers))
    return parse_transcript(text)


@pytest.fixture
def transcript_46() -> Transcript:
    return make_transcript(list(NAMES_46))


def build_mock_backends(cache_dir: Path) -> Backends:
    """Backends wired to the canned offline responses."""
    roles = {}
    for role in ROLES:
        client = BackendClient(
            default_mock_transport(role),
            cache_dir=cache_dir / role,
            backoff=0.0,
        )
        roles[role] = RoleRuntime(client=client, template=default_template(role))
    return Backends(roles=roles)


def build_fixture_backends(cache_dir: Path, fixture: dict) -> Backends:
    """Backends whose extractor and judge replay a recorded fixture."""
    backends = build_mock_backends(cache_dir)
    transport = fixture_transport(fixture)
    for role in ("fact_extractor", "fact_judge"):
        backends.roles[role] = RoleRuntime(
            client=BackendClient(
                transport,
                cache_dir=cache_dir / f"{role}-fixture",
                backoff=0.0,
            ),
            template=default_template(role),
        )
    return backends


@pytest.fixture
def mock_backends(tmp_path) -> Backends:
    return build_mock_backends(tmp_path / "cache")


@pytest.fixture(scope="session")
def prefs_fixture() -> dict:
    with open(FIXTURE_DIR / "prefs_episode.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def fixture_backends(tmp_path, prefs_fixture) -> Backends:
    return build_fixture_backends(tmp_path / "cache", prefs_fixture)


def write_episode(
    root: Path,
    transcript: str,
    captions: str | None = None,
    visual: list[str] | None = None,
    gold: list[str] | None = None,
) -> Path:
    """Lay out an episode bundle directory and return its path."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "transcript.txt").write_text(transcript, encoding="utf-8")
    if captions is not None:
        (root / "captions.srt").write_text(captions, encoding="utf-8")
    if visual is not None:
        (root / "captions.visual.json").write_text(
            json.dumps(visual), encoding="utf-8"
        )
    if gold:
        gold_dir = root / "gold"
        gold_dir.mkdir(exist_ok=True)
        for i, text in enumerate(gold):
            (gold_dir / f"summary{i}.txt").write_text(text, encoding="utf-8")
    return root


# A three-scene episode used by pipeline and CLI tests.  Explicit markers pin
# the partition so downstream stages are deterministic.
EPISODE_TRANSCRIPT = """\
Brody: Did you see the garden this morning?
Jessica: I did, the roses finally opened.
Brody: We should host the party outside then.
Jessica: Only if the weather holds up.
Brody: I will check the forecast tonight.
Jessica: Bring the chairs up from the cellar.
[SCENE_BREAK]
Dante: The shipment never arrived at the dock.
Bridget: Then who signed the manifest?
Dante: Nobody, the page is blank.
Bridget: Call the harbor master right now.
Dante: He stopped answering yesterday.
Bridget: Then we drive down there ourselves.
[SCENE_BREAK]
Nick: The board approved the merger.
Brooke: On what terms?
Nick: Everything we asked for.
Brooke: Then why do you look worried?
Nick: Because they approved it too quickly.
Brooke: You think someone wants us distracted.
"""

# Two scenes that share a cast around one that does not: reordering moves
# the middle scene to the front.
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

EPISODE_VISUAL = [
    "a man and a woman are standing near a garden",
    "a man is talking to another man",
    "two people are seen walking along a dock",
    "a man is kissing a woman",
    "a man and a woman are seen sitting in an office",
    "she is holding a folder",
]


def episode_captions(transcript: str = EPISODE_TRANSCRIPT) -> str:
    """SRT track that echoes each transcript line, 2 seconds per cue."""
    lines = [
        line.split(": ", 1)[1]
        for line in transcript.splitlines()
        if ": " in line
    ]
    blocks = []
    for i, text in enumerate(lines):
        start = i * 2000
        end = start + 2000
        blocks.append(
            f"{i + 1}\n{_srt_time(start)} --> {_srt_time(end)}\n{text}\n"
        )
    return "\n".join(blocks)


def _srt_time(ms: int) -> str:
    hours, rem = divmod(ms, 3600000)
    minutes, rem = divmod(rem, 60000)
    seconds, millis = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{seconds:02d},{millis:03d}"
