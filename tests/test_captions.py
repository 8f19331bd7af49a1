"""Caption cleanup: blacklist filtering, rewriting, and name insertion."""

import pytest

from scenefuse.captions import (
    BLACKLIST_PHRASES,
    Gender,
    GenderLexicon,
    SceneCaption,
    classify_name,
    filter_captions,
    insert_names,
    load_lexicon,
    postprocess_captions,
)
from scenefuse.errors import DataError
from scenefuse.pipeline import STAGES

LEXICON = load_lexicon()


def test_blacklisted_captions_are_dropped():
    assert filter_captions(["a man is talking to another man"]) == []
    for phrase in BLACKLIST_PHRASES:
        assert filter_captions([f"someone {phrase} today"]) == []


def test_blacklist_is_case_insensitive_substring():
    assert filter_captions(["A MAN IS TALKING TO ANOTHER MAN"]) == []
    assert filter_captions(["A Commercial plays"]) == []


def test_seen_rewrite():
    assert filter_captions(["a person is seen riding a bicycle"]) == [
        "a person is riding a bicycle"
    ]
    assert filter_captions(["two people are seen walking along a dock"]) == [
        "two people are walking along a dock"
    ]
    # original casing of is/are survives the rewrite
    assert filter_captions(["She IS SEEN smiling"]) == ["She IS smiling"]


def test_seen_rewrite_respects_word_boundaries():
    assert filter_captions(["the thesis seen by all"]) == ["the thesis seen by all"]


def test_filter_keeps_order_and_is_idempotent():
    sentences = [
        "a man is kissing a woman",
        "a man is talking to another man",
        "she is seen holding a folder",
    ]
    once = filter_captions(sentences)
    assert once == ["a man is kissing a woman", "she is holding a folder"]
    assert filter_captions(once) == once


@pytest.mark.parametrize(
    ("name", "gender"),
    [
        ("Brody", Gender.MALE),
        ("Jessica", Gender.FEMALE),
        ("BRODY", Gender.MALE),
        ("Casey", Gender.NEUTRAL),  # listed under both genders
        ("Zorblax", Gender.NEUTRAL),
        ("Brody Harrington", Gender.MALE),  # surname falls back to given name
    ],
)
def test_classify_name(name, gender):
    assert classify_name(name, LEXICON) is gender


def test_insert_names_worked_example():
    out = insert_names("a man is kissing a woman", {"Brody", "Jessica"}, LEXICON)
    assert out == "Brody is kissing Jessica"


def test_insert_names_rewrites_every_gendered_phrase():
    out = insert_names("a man said he would go", {"Brody"}, LEXICON)
    assert out == "Brody said Brody would go"
    out = insert_names("she waves as a girl runs by", {"Jessica"}, LEXICON)
    assert out == "Jessica waves as Jessica runs by"


def test_insert_names_needs_exactly_one_speaker_of_that_gender():
    # two males: male phrases stay generic, the sole female still resolves
    out = insert_names(
        "a man hugs a woman", {"Brody", "Nick", "Jessica"}, LEXICON
    )
    assert out == "a man hugs Jessica"
    # neutral names never trigger a rewrite
    assert insert_names("he waves", {"Casey"}, LEXICON) == "he waves"


def test_insert_names_matches_whole_words_only():
    assert insert_names("the helmet shines", {"Brody"}, LEXICON) == "the helmet shines"
    assert insert_names("they chat", {"Brody"}, LEXICON) == "they chat"
    # but case-insensitive whole words do match
    assert insert_names("He waved", {"Brody"}, LEXICON) == "Brody waved"


def test_postprocess_runs_filter_then_insertion():
    sentences = [
        "a man is talking to another man",
        "a man is seen waving at a woman",
    ]
    out = postprocess_captions(sentences, {"Brody", "Jessica"}, LEXICON)
    assert out == ["Brody is waving at Jessica"]


def test_load_lexicon_custom_file(tmp_path):
    path = tmp_path / "names.tsv"
    path.write_text(
        "# comment line\n\nRex\tm\nLuna\tf\n", encoding="utf-8"
    )
    lex = load_lexicon(path)
    assert classify_name("Rex", lex) is Gender.MALE
    assert classify_name("luna", lex) is Gender.FEMALE
    assert classify_name("Brody", lex) is Gender.NEUTRAL


@pytest.mark.parametrize("line", ["Rex", "Rex\tx", "Rex\tm\textra"])
def test_load_lexicon_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "names.tsv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_lexicon(path)


def test_lexicon_is_shared_frozen_data():
    assert isinstance(LEXICON, GenderLexicon)
    assert "brody" in LEXICON.male
    assert "jessica" in LEXICON.female
    assert "casey" in LEXICON.male and "casey" in LEXICON.female


def test_scene_caption_to_dict():
    cap = SceneCaption(2, ("Brody waves",))
    assert STAGES["caption"].dump([cap]) == [
        {"scene_index": 2, "sentences": ["Brody waves"]}
    ]
