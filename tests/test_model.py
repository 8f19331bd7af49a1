"""Transcript/caption parsing and episode bundle loading."""

import pytest

from conftest import write_episode
from scenefuse.errors import DataError, EmptyTranscript, NoCues, RangeOutOfBounds
from scenefuse.model import (
    CaptionCue,
    normalize_speaker,
    parse_captions,
    parse_transcript,
    scene_roster,
    load_episode,
)


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("Alice", "Alice"),
        ("  Alice  ", "Alice"),
        ("Bob  Smith", "Bob Smith"),
        ("Bob:", "Bob"),
        (" Bob : ", "Bob"),
        ("\tCarol\n", "Carol"),
    ],
)
def test_normalize_speaker(raw, expected):
    assert normalize_speaker(raw) == expected


def test_parse_transcript_basic():
    t = parse_transcript("Alice: hi\nBob: hello\nAlice: bye\n")
    assert len(t) == 3
    assert [ln.speaker for ln in t.lines] == ["Alice", "Bob", "Alice"]
    assert [ln.index for ln in t.lines] == [0, 1, 2]
    assert t.lines[1].text == "hello"
    assert t.roster == frozenset({"Alice", "Bob"})
    assert t.explicit_breaks == ()
    assert t.warnings == 0


def test_parse_transcript_keeps_first_seen_casing():
    t = parse_transcript("BROOKE: one\nBrooke: two\nbrooke: three\n")
    assert t.roster == frozenset({"BROOKE"})
    assert all(ln.speaker == "BROOKE" for ln in t.lines)


def test_parse_transcript_counts_stage_directions_between_lines():
    t = parse_transcript("Alice: hi\n(She waves.)\n(Beat.)\nBob: hello\n")
    assert [(ln.speaker, ln.text) for ln in t.lines] == [("Alice", "hi"), ("Bob", "hello")]
    assert t.warnings == 2


def test_parse_transcript_counts_leading_orphan_lines():
    t = parse_transcript("(Fade in.)\nAlice: hi\n")
    assert t.warnings == 1
    assert len(t) == 1


def test_parse_transcript_scene_breaks():
    text = (
        "[SCENE_BREAK]\n"  # before any line: dropped
        "Alice: a\n"
        "[SCENE_BREAK]\n"
        "[SCENE_BREAK]\n"  # duplicate marker: deduplicated
        "Bob: b\n"
        "Alice: c\n"
        "[SCENE_BREAK]\n"  # after the last line: dropped
    )
    t = parse_transcript(text)
    assert t.explicit_breaks == (1,)


def test_parse_transcript_empty_inputs_raise():
    with pytest.raises(EmptyTranscript):
        parse_transcript("")
    with pytest.raises(EmptyTranscript):
        parse_transcript("(Only stage directions here.)\n\n[SCENE_BREAK]\n")


def test_parse_captions_srt():
    track = parse_captions(
        "1\n00:00:01,000 --> 00:00:02,500\nHello\n"
        "\n"
        "2\n00:00:02,500 --> 00:00:03,400\nWorld\n"
    )
    assert track.cues == (
        CaptionCue(1000, 2500, "Hello"),
        CaptionCue(2500, 3400, "World"),
    )
    assert track.warnings == 0


def test_parse_captions_srt_fractional_digits_are_not_raw_ms():
    track = parse_captions("0:0:1.5 --> 0:0:2.25\nhi\n")
    assert track.cues == (CaptionCue(1500, 2250, "hi"),)


def test_parse_captions_srt_joins_multiline_cue_text():
    track = parse_captions("1\n00:00:00,000 --> 00:00:01,000\nline one\nline two\n")
    assert track.cues[0].text == "line one line two"


def test_parse_captions_tsv():
    track = parse_captions("0\t900\thi\n900\t1800\tthere\n")
    assert track.cues == (CaptionCue(0, 900, "hi"), CaptionCue(900, 1800, "there"))


def test_parse_captions_tsv_bad_rows_warn():
    track = parse_captions("garbage row\n0\t900\thi\n")
    assert len(track) == 1
    assert track.warnings == 1


def test_parse_captions_sorts_and_clips_overlap():
    track = parse_captions("500\t2000\tsecond\n0\t1000\tfirst\n")
    assert track.cues[0] == CaptionCue(0, 1000, "first")
    # overlapping start is pushed to the previous cue's end
    assert track.cues[1] == CaptionCue(1000, 2000, "second")


def test_parse_captions_drops_cues_left_without_duration():
    track = parse_captions("0\t1000\tfirst\n200\t800\tswallowed\n1000\t1500\tthird\n")
    assert [c.text for c in track.cues] == ["first", "third"]
    assert track.warnings == 1


def test_parse_captions_nothing_parsable_raises():
    with pytest.raises(NoCues):
        parse_captions("no timing lines here\n")


def test_scene_roster_bounds():
    t = parse_transcript("Alice: a\nBob: b\nCharlie: c\n")
    assert scene_roster(t, 0, 2) == frozenset({"Alice", "Bob"})
    assert scene_roster(t, 2, 3) == frozenset({"Charlie"})
    for start, end in [(-1, 2), (0, 4), (2, 2), (3, 2)]:
        with pytest.raises(RangeOutOfBounds):
            scene_roster(t, start, end)


def test_load_episode_requires_transcript(tmp_path):
    (tmp_path / "ep").mkdir()
    with pytest.raises(DataError):
        load_episode(tmp_path / "ep")


def test_load_episode_full_bundle(tmp_path):
    root = write_episode(
        tmp_path / "ep1",
        "Alice: hi\nBob: hello\n",
        captions="1\n00:00:00,000 --> 00:00:01,000\nhi\n",
        visual=["a man is waving"],
        gold=["Summary one.", "Summary one.", "Summary two."],
    )
    ep = load_episode(root)
    assert ep.id == "ep1"
    assert len(ep.transcript) == 2
    assert ep.captions is not None and len(ep.captions) == 1
    assert ep.precomputed_captions == ("a man is waving",)
    # duplicates collapse, file order is preserved
    assert ep.gold_summaries == ("Summary one.", "Summary two.")


def test_load_episode_prefers_srt_over_tsv(tmp_path):
    root = write_episode(
        tmp_path / "ep2",
        "Alice: hi\n",
        captions="1\n00:00:00,000 --> 00:00:01,000\nfrom srt\n",
    )
    (root / "captions.tsv").write_text("0\t500\tfrom tsv\n", encoding="utf-8")
    ep = load_episode(root)
    assert ep.captions.cues[0].text == "from srt"


def test_load_episode_rejects_non_string_visual_captions(tmp_path):
    root = write_episode(tmp_path / "ep3", "Alice: hi\n", visual=[])
    (root / "captions.visual.json").write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(DataError):
        load_episode(root)


def test_load_episode_without_optional_parts(tmp_path):
    ep = load_episode(write_episode(tmp_path / "ep4", "Alice: hi\n"))
    assert ep.captions is None
    assert ep.precomputed_captions is None
    assert ep.gold_summaries == ()
