"""Visual-caption cleanup: filtering, rewriting, and name insertion.

Generic captioner output ("a man is talking to another man") is either
dropped as uninformative or made specific by swapping gendered noun
phrases for a scene's character names when the scene has exactly one
male or exactly one female speaker.
"""

from __future__ import annotations

import re
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError, DataError, read_text

# Captions containing any of these are uninformative and dropped.
BLACKLIST_PHRASES = (
    "a commercial",
    "talking",
    "is shown",
    "sitting on a chair",
    "sitting on a couch",
    "sitting in a chair",
    "walking around",
)

_SEEN_RE = re.compile(r"\b(is|are)\s+seen\b", re.IGNORECASE)

# Multi-word phrases must be replaced before bare pronouns.
MALE_PHRASES = ("a man", "a boy", "he")
FEMALE_PHRASES = ("a woman", "a girl", "she")


class Gender(Enum):
    MALE = "m"
    FEMALE = "f"
    NEUTRAL = "n"


class GenderLexicon(NamedTuple):
    male: frozenset[str]
    female: frozenset[str]


class SceneCaption(NamedTuple):
    scene_index: int
    sentences: tuple[str, ...]


def load_lexicon(path: str | Path | None = None) -> GenderLexicon:
    """Read a `name<TAB>m|f` list; defaults to the bundled one."""
    if path is None:
        text = (Path(__file__).parent / "data" / "name_genders.tsv").read_text(encoding="utf-8")
    else:
        text = read_text(Path(path), ConfigError, "lexicon")
    male: set[str] = set()
    female: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or fields[1] not in ("m", "f"):
            raise DataError(f"lexicon line {lineno}: expected 'name<TAB>m|f', got {raw!r}")
        (male if fields[1] == "m" else female).add(fields[0].strip().lower())
    return GenderLexicon(frozenset(male), frozenset(female))


def classify_name(name: str, lexicon: GenderLexicon) -> Gender:
    """Male / Female from the lexicon; ambiguous or unknown is Neutral."""
    key = name.strip().lower()
    if key not in lexicon.male and key not in lexicon.female:
        # speakers may carry surnames; fall back to the given name
        key = key.split(" ", 1)[0]
    in_male = key in lexicon.male
    in_female = key in lexicon.female
    if in_male and not in_female:
        return Gender.MALE
    if in_female and not in_male:
        return Gender.FEMALE
    return Gender.NEUTRAL


def filter_captions(sentences: Iterable[str]) -> list[str]:
    """Drop blacklisted captions; rewrite "is/are seen" to "is/are"."""
    kept: list[str] = []
    for sentence in sentences:
        lowered = sentence.lower()
        if any(phrase in lowered for phrase in BLACKLIST_PHRASES):
            continue
        kept.append(_SEEN_RE.sub(lambda m: m.group(1), sentence))
    return kept


def _sole_name(speakers: Iterable[str], lexicon: GenderLexicon, gender: Gender) -> str | None:
    names = [s for s in speakers if classify_name(s, lexicon) is gender]
    return names[0] if len(names) == 1 else None


def _replace_phrases(sentence: str, phrases: Sequence[str], name: str) -> str:
    for phrase in phrases:
        pattern = re.compile(rf"\b{re.escape(phrase)}\b", re.IGNORECASE)
        sentence = pattern.sub(name, sentence)
    return sentence


def insert_names(
    sentence: str, scene_speakers: Iterable[str], lexicon: GenderLexicon
) -> str:
    """Swap gendered noun phrases for the scene's unique name of that gender.

    With exactly one male speaker, "he" / "a man" / "a boy" all become
    that name; same for the female side. Any other speaker count leaves
    that gender's phrases alone.
    """
    speakers = list(scene_speakers)
    male = _sole_name(speakers, lexicon, Gender.MALE)
    female = _sole_name(speakers, lexicon, Gender.FEMALE)
    if male is not None:
        sentence = _replace_phrases(sentence, MALE_PHRASES, male)
    if female is not None:
        sentence = _replace_phrases(sentence, FEMALE_PHRASES, female)
    return sentence


def postprocess_captions(
    sentences: Iterable[str], scene_speakers: Iterable[str], lexicon: GenderLexicon
) -> list[str]:
    """Full cleanup chain: filter, rewrite, insert names."""
    speakers = list(scene_speakers)
    return [insert_names(s, speakers, lexicon) for s in filter_captions(sentences)]
