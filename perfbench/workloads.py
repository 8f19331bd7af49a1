"""Seeded synthetic episode bundles, one shape per benchmark workload.

The same (workload, seed) pair always yields a byte-identical bundle.
Speakers are drawn from the bundled gender lexicon with one gender each,
so caption name insertion fires. Line word counts and caption edits come
from fixed multisets that the seed only shuffles: the amount of text, and
with it the alignment work, is the same for every seed, which keeps
timings comparable across seeds. The generator keeps its true scene
breaks so the run can score the found partition against them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from scenefuse.captions import load_lexicon
from scenefuse.model import SCENE_BREAK_TOKEN

VOCAB = (
    "harbor dock garden party weather cellar manifest letter window station "
    "evening morning money contract doctor hospital lawyer office meeting "
    "dinner wedding secret promise mistake brother sister father mother "
    "money river bridge train ticket market island village captain engine "
    "storm winter summer kitchen basement painting camera record message "
    "answer question reason problem future danger silence story picture "
    "night street corner coffee friend stranger witness police evidence "
    "never always maybe really truly quickly slowly tonight tomorrow "
    "remember forget believe promise finish return follow listen wonder "
    "leave stay call wait check bring watch open close find lose keep"
).split()

PLACES = (
    "harbor", "garden", "kitchen", "office", "station", "hospital",
    "bridge", "market", "cellar", "church", "courtroom", "hotel lobby",
)

# Visual caption templates; some hit the caption blacklist on purpose.
VISUAL_TEMPLATES = (
    "a man is standing near the {place}",
    "a woman walks into the {place}",
    "he picks up a letter in the {place}",
    "she is seen holding a camera near the {place}",
    "a man and a woman are talking in the {place}",
    "a boy is sitting on a couch",
    "a girl looks out of the window of the {place}",
    "he is seen running across the {place}",
    "a commercial for a new car",
    "a woman is shown in the {place}",
)

NON_SPEECH = (
    "[music]", "[laughter]", "(door slams)", "[phone rings]", "(sighs)",
    "[thunder]", "[applause]", "(footsteps)",
)


@dataclass(frozen=True)
class Shape:
    """What one workload's episode looks like."""

    lines: int
    cast: int
    per_scene: tuple[int, int]
    scene_lines: tuple[int, int]
    words: tuple[int, int]
    caption_track: bool
    markers: bool
    gold: int
    gold_sentences: int


SHAPES = {
    "align-dense": Shape(
        lines=24, cast=6, per_scene=(2, 3), scene_lines=(6, 14), words=(4, 9),
        caption_track=True, markers=False, gold=3, gold_sentences=16,
    ),
    "long-transcript": Shape(
        lines=1200, cast=16, per_scene=(2, 4), scene_lines=(5, 10), words=(4, 10),
        caption_track=False, markers=False, gold=3, gold_sentences=16,
    ),
    "remote-eval": Shape(
        lines=300, cast=10, per_scene=(2, 4), scene_lines=(6, 14), words=(5, 12),
        caption_track=False, markers=True, gold=3, gold_sentences=30,
    ),
}

# Caption-track edits per 8 lines: lines dropped, split in two,
# word-noised, and non-speech cues interleaved: 24 lines give 27 cues.
CUE_EDITS = {"drop": 1, "split": 1, "noise": 3, "non_speech": 1}


@dataclass(frozen=True)
class GeneratedEpisode:
    transcript: str
    captions_srt: str | None
    visual: tuple[str, ...]
    gold: tuple[str, ...]
    true_breaks: tuple[int, ...]
    n_lines: int


def _cast(rng: random.Random, size: int) -> list[str]:
    lexicon = load_lexicon()
    male = sorted(n.title() for n in lexicon.male - lexicon.female)
    female = sorted(n.title() for n in lexicon.female - lexicon.male)
    names = rng.sample(male, size // 2) + rng.sample(female, size - size // 2)
    rng.shuffle(names)
    return names


def _spread(rng: random.Random, total: int, lo: int, hi: int) -> list[int]:
    """``total`` integers cycling over [lo, hi], shuffled: a fixed multiset."""
    values = [lo + i % (hi - lo + 1) for i in range(total)]
    rng.shuffle(values)
    return values


def _utterance(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(VOCAB) for _ in range(n_words)]
    words[0] = words[0].capitalize()
    return " ".join(words) + rng.choice(".?!.")


def _scenes(rng: random.Random, shape: Shape, cast: list[str]) -> list[tuple[list[str], list[str]]]:
    """(characters, speaker per line) per scene; lines sum to shape.lines.

    Scene lengths cycle over shape.scene_lines and are then shuffled, so
    every seed has the same number of scenes of the same lengths.
    """
    lo, hi = shape.scene_lines
    lengths: list[int] = []
    while sum(lengths) < shape.lines:
        lengths.append(min(lo + len(lengths) % (hi - lo + 1), shape.lines - sum(lengths)))
    rng.shuffle(lengths)
    scenes: list[tuple[list[str], list[str]]] = []
    previous: set[str] = set()
    for length in lengths:
        size = rng.randint(*shape.per_scene)
        # adjacent scenes share nobody, so the true breaks are clear cuts
        chars = rng.sample([c for c in cast if c not in previous], size)
        previous = set(chars)
        scenes.append((chars, _speakers(rng, length, chars)))
    return scenes


def _speakers(rng: random.Random, length: int, chars: list[str]) -> list[str]:
    order = list(chars)
    rng.shuffle(order)
    speakers = order[:length]
    while len(speakers) < length:
        speakers.append(rng.choice([c for c in chars if c != speakers[-1]]))
    return speakers


def _srt_time(ms: int) -> str:
    hours, rem = divmod(ms, 3_600_000)
    minutes, rem = divmod(rem, 60_000)
    seconds, millis = divmod(rem, 1000)
    return f"{hours:02d}:{minutes:02d}:{seconds:02d},{millis:03d}"


def _noised(rng: random.Random, text: str) -> str:
    words = text.split()
    pick = rng.randrange(3)
    at = rng.randrange(len(words))
    if pick == 0:
        words[at] = rng.choice(VOCAB)
    elif pick == 1 and len(words) > 2:
        del words[at]
    else:
        at = min(at, len(words) - 2)
        words[at], words[at + 1] = words[at + 1], words[at]
    return " ".join(words)


def caption_track(rng: random.Random, utterances: list[str]) -> str:
    """SRT cues made from the lines: dropped, split, noised, interleaved."""
    n = len(utterances)
    edits = {name: count * n // 8 for name, count in CUE_EDITS.items()}
    plan = (
        ["drop"] * edits["drop"] + ["split"] * edits["split"]
        + ["noise"] * edits["noise"]
    )
    plan += ["keep"] * (n - len(plan))
    rng.shuffle(plan)
    texts: list[str] = []
    for text, action in zip(utterances, plan):
        if action == "drop":
            continue
        if action == "split":
            words = text.split()
            half = len(words) // 2
            texts += [" ".join(words[:half]), " ".join(words[half:])]
        elif action == "noise":
            texts.append(_noised(rng, text))
        else:
            texts.append(text)
    for _ in range(edits["non_speech"]):
        texts.insert(rng.randrange(len(texts) + 1), rng.choice(NON_SPEECH))

    blocks = []
    clock = 1000
    for i, text in enumerate(texts, start=1):
        end = clock + 900 + 60 * len(text.split())
        blocks.append(f"{i}\n{_srt_time(clock)} --> {_srt_time(end)}\n{text}\n")
        clock = end + 200
    return "\n".join(blocks)


def _gold(
    rng: random.Random, shape: Shape, scenes: list[tuple[list[str], list[str]]]
) -> tuple[str, ...]:
    """Gold summaries from a fixed mix of sentence kinds, in seeded order.

    "talk" sentences use the mock summarizer's wording, so some facts are
    supported; "someone" facts hit the blacklist; "leaves" facts have two
    words and are filtered; repeats are judged duplicates.
    """
    n = shape.gold_sentences
    rare = max(1, n // 12)
    kinds = ["talk"] * max(1, n // 5) + ["someone"] * rare + ["leaves"] * rare
    kinds += ["argue"] * (n - rare - len(kinds))
    summaries = []
    for _ in range(shape.gold):
        rng.shuffle(kinds)
        sentences = []
        for kind in kinds:
            chars, speakers = rng.choice(scenes)
            if kind == "talk":
                sentences.append(" and ".join(dict.fromkeys(speakers)) + " talk.")
            elif kind == "someone":
                sentences.append(f"Someone finds the {rng.choice(VOCAB)}.")
            elif kind == "leaves":
                sentences.append(f"{chars[0]} leaves.")
            else:
                sentences.append(
                    f"{chars[0]} and {chars[1]} argue about the {rng.choice(VOCAB)} "
                    f"near the {rng.choice(PLACES)}."
                )
        for _ in range(rare):
            sentences.insert(rng.randrange(1, len(sentences) + 1), rng.choice(sentences))
        summaries.append(" ".join(sentences))
    return tuple(summaries)


def generate(workload: str, seed: int, lines: int | None = None) -> GeneratedEpisode:
    """The episode for ``workload`` and ``seed``; ``lines`` overrides the size."""
    shape = SHAPES[workload]
    if lines is not None:
        shape = replace(shape, lines=lines)
    rng = random.Random(f"{workload}/{seed}/{shape.lines}")
    cast = _cast(rng, shape.cast)
    scenes = _scenes(rng, shape, cast)
    word_counts = iter(_spread(rng, shape.lines, *shape.words))

    rows: list[str] = []
    utterances: list[str] = []
    breaks: list[int] = []
    for _, speakers in scenes:
        if utterances:
            breaks.append(len(utterances))
            if shape.markers:
                rows.append(SCENE_BREAK_TOKEN)
        for speaker in speakers:
            text = _utterance(rng, next(word_counts))
            utterances.append(text)
            rows.append(f"{speaker}: {text}")

    visual = tuple(
        rng.choice(VISUAL_TEMPLATES).format(place=rng.choice(PLACES)) for _ in scenes
    )
    captions = caption_track(rng, utterances) if shape.caption_track else None
    return GeneratedEpisode(
        transcript="\n".join(rows) + "\n",
        captions_srt=captions,
        visual=visual,
        gold=_gold(rng, shape, scenes),
        true_breaks=tuple(breaks),
        n_lines=len(utterances),
    )


def write_bundle(episode: GeneratedEpisode, root: Path) -> Path:
    """Lay the episode out as the bundle directory ``load_episode`` reads."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "transcript.txt").write_text(episode.transcript, encoding="utf-8")
    if episode.captions_srt is not None:
        (root / "captions.srt").write_text(episode.captions_srt, encoding="utf-8")
    (root / "captions.visual.json").write_text(
        json.dumps(list(episode.visual), indent=1) + "\n", encoding="utf-8"
    )
    gold = root / "gold"
    gold.mkdir(exist_ok=True)
    for i, text in enumerate(episode.gold):
        (gold / f"summary{i}.txt").write_text(text + "\n", encoding="utf-8")
    return root
