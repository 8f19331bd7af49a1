"""Fact-precision, fact-recall, and their harmonic mean.

A summary is split into sentences; a backend extracts atomic facts per
sentence; uninformative facts are filtered; repeats and malformed
sentences count as unsupported; a judge backend answers True/False per
remaining fact against the reference text. Precision runs generated ->
reference, recall the reverse, and the harmonic mean of the two
percentages is the headline score.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Sequence

from . import backends as be
from .backends import normalize_fact
from .errors import BackendError, DataError, NoFactsAfterFiltering, ScenefuseError

GENERATED = "generated"
REFERENCE = "reference"

# Facts containing any of these terms carry no checkable information.
BLACKLIST_TERMS = (
    "someone",
    "somebody",
    "something",
    "is a person",
    "are people",
    "is a character",
    "are characters",
)

_BLACKLIST_RE = re.compile(
    r"\b(?:" + "|".join(re.escape(t) for t in BLACKLIST_TERMS) + r")\b",
    re.IGNORECASE,
)

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


class Reason(Enum):
    JUDGE = "judge"
    FILTERED = "filtered"
    DUPLICATE = "duplicate"
    MALFORMED = "malformed"


@dataclass(frozen=True)
class Fact:
    text: str
    origin: str
    source_sentence_index: int
    malformed: bool = False


@dataclass(frozen=True)
class FactVerdict:
    fact: Fact
    supported: bool
    reason: Reason


@dataclass(frozen=True)
class FactCounts:
    """extracted facts, survivors of filtering, judge queries, supported."""

    extracted: int
    filtered: int
    judged: int
    supported: int

    def to_dict(self) -> dict:
        return {
            "extracted": self.extracted,
            "filtered": self.filtered,
            "judged": self.judged,
            "supported": self.supported,
        }


@dataclass(frozen=True)
class PrefsReport:
    fact_precision: float
    fact_recall: float
    prefs: float
    precision_counts: FactCounts
    recall_counts: tuple[FactCounts, ...]
    recall_per_reference: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "fact_precision": self.fact_precision,
            "fact_recall": self.fact_recall,
            "prefs": self.prefs,
            "precision_counts": self.precision_counts.to_dict(),
            "recall_counts": [c.to_dict() for c in self.recall_counts],
            "recall_per_reference": list(self.recall_per_reference),
        }


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_SPLIT_RE.split(text.strip()) if s]


def _read_facts(
    sentences: Sequence[str], replies: Iterable[Callable[[], str]], origin: str
) -> list[Fact]:
    """Facts from each sentence's extractor reply; a MALFORMED reply yields one flagged fact.

    ``replies`` yields one thunk per sentence, called in sentence order;
    the first that raises a BackendError names its sentence.
    """
    facts: list[Fact] = []
    for i, (sentence, reply) in enumerate(zip(sentences, replies)):
        try:
            completion = reply()
        except BackendError as exc:
            raise type(exc)(f"fact extraction failed at sentence {i}: {exc}") from exc
        if completion.strip() == be.MALFORMED_SIGNAL:
            facts.append(Fact(sentence, origin, i, malformed=True))
            continue
        for line in completion.splitlines():
            fact_text = line.strip().lstrip("-*").strip()
            if fact_text:
                facts.append(Fact(fact_text, origin, i))
    return facts


def _word_count(text: str) -> int:
    tokens = text.split()
    if tokens:
        tokens[-1] = tokens[-1].rstrip(string.punctuation)
    return sum(1 for t in tokens if t)


def _passes_filter(fact: Fact) -> bool:
    if fact.malformed:
        # must survive to be counted unsupported
        return True
    collapsed = " ".join(fact.text.split())
    if _BLACKLIST_RE.search(collapsed):
        return False
    return _word_count(collapsed) != 2


def mark_duplicates(facts: Sequence[Fact]) -> list[FactVerdict | None]:
    """Pre-assign unsupported verdicts to repeats of a normalized text.

    Returns a list aligned with ``facts``: a Duplicate verdict for the
    second and later occurrences, None where judging is still needed.
    Malformed facts are outside the duplicate table.
    """
    seen: set[str] = set()
    stubs: list[FactVerdict | None] = []
    for fact in facts:
        if fact.malformed:
            stubs.append(None)
            continue
        key = normalize_fact(fact.text)
        if key in seen:
            stubs.append(FactVerdict(fact, False, Reason.DUPLICATE))
        else:
            seen.add(key)
            stubs.append(None)
    return stubs


def _parse_answer(completion: str) -> bool | None:
    tokens = completion.strip().split()
    if not tokens:
        return None
    head = tokens[0].strip(string.punctuation).lower()
    if head == "true":
        return True
    if head == "false":
        return False
    return None


def judge_support(fact: Fact, reference: str, backends: be.Backends) -> FactVerdict:
    """One judge query; an unparseable answer is retried once fresh."""
    if fact.malformed:
        return FactVerdict(fact, False, Reason.MALFORMED)
    answer = _parse_answer(
        backends.complete(be.FACT_JUDGE, reference=reference, fact=fact.text)
    )
    if answer is None:
        answer = _parse_answer(
            backends.complete(
                be.FACT_JUDGE, refresh=True, reference=reference, fact=fact.text
            )
        )
    return FactVerdict(fact, bool(answer), Reason.JUDGE)


def _tally(
    facts: Sequence[Fact], keep: Sequence[bool], survivor_verdicts: Sequence[FactVerdict]
) -> tuple[float, FactCounts, list[FactVerdict]]:
    verdict_iter = iter(survivor_verdicts)
    verdicts = [
        next(verdict_iter) if k else FactVerdict(f, False, Reason.FILTERED)
        for f, k in zip(facts, keep)
    ]
    supported = sum(1 for v in survivor_verdicts if v.supported)
    counts = FactCounts(
        extracted=len(facts),
        filtered=len(survivor_verdicts),
        judged=sum(1 for v in survivor_verdicts if v.reason is Reason.JUDGE),
        supported=supported,
    )
    return 100.0 * supported / len(survivor_verdicts), counts, verdicts


def _score_directions(
    directions: Sequence[tuple[str, str, str]], backends: be.Backends, max_workers: int
) -> list[tuple[float, FactCounts, list[FactVerdict]]]:
    """Score each (source text, knowledge text, origin) direction in two fan-outs.

    The first sends one extraction request per distinct sentence, across
    all directions; then, once each direction's facts are filtered and
    marked for duplicates, the second sends one judge request per
    distinct question left. A question is the knowledge text, the fact
    text and the malformed flag, so a malformed sentence never answers a
    real fact of the same text. Every repeat of a question gets its
    verdict, with its own Fact. Verdicts and the error raised first are
    those of scoring the directions one after another: after a failed
    extraction no other is sent, and the directions before the one it
    fails are still judged. Each fan-out keeps at most ``max_workers``
    requests in flight.
    """
    sentences = [split_sentences(source) for source, _, _ in directions]
    replies: dict[str, str] = {}
    stopped: ScenefuseError | None = None

    def extract(sentence: str) -> None:
        replies[sentence] = backends.complete(be.FACT_EXTRACTOR, sentence=sentence)

    try:
        be.fan_out(extract, list(dict.fromkeys(itertools.chain(*sentences))), max_workers)
    except ScenefuseError as exc:  # every sentence before the failing one has its reply
        stopped = exc

    def reply(sentence: str) -> str:
        if sentence not in replies:
            raise stopped
        return replies[sentence]

    screened = []
    failure: ScenefuseError | None = None
    for (_, _, origin), group in zip(directions, sentences):
        try:
            facts = _read_facts(group, [partial(reply, s) for s in group], origin)
            keep = [_passes_filter(f) for f in facts]
            survivors = [f for f, k in zip(facts, keep) if k]
            if not survivors:
                raise NoFactsAfterFiltering(f"no {origin} facts left after filtering")
        except ScenefuseError as exc:
            # serially, the directions before this one are judged first
            failure = exc
            break
        screened.append((facts, keep, survivors, mark_duplicates(survivors)))

    questions: dict[tuple[str, str, bool], Fact] = {}
    for (_, knowledge, _), (_, _, survivors, stubs) in zip(directions, screened):
        for fact, stub in zip(survivors, stubs):
            if stub is None:
                questions.setdefault((knowledge, fact.text, fact.malformed), fact)
    asked = list(questions)
    verdicts = be.fan_out(
        lambda key: judge_support(questions[key], key[0], backends), asked, max_workers
    )
    judged = dict(zip(asked, verdicts))

    results = []
    for (_, knowledge, _), (facts, keep, survivors, stubs) in zip(directions, screened):
        survivor_verdicts = []
        for fact, stub in zip(survivors, stubs):
            if stub is None:
                v = judged[knowledge, fact.text, fact.malformed]
                stub = FactVerdict(fact, v.supported, v.reason)
            survivor_verdicts.append(stub)
        results.append(_tally(facts, keep, survivor_verdicts))
    if failure is not None:
        raise failure
    return results


def score_direction(
    source_text: str,
    knowledge_text: str,
    backends: be.Backends,
    origin: str = GENERATED,
    max_workers: int = 4,
) -> tuple[float, FactCounts, list[FactVerdict]]:
    """Extract facts from source_text and score them against knowledge_text.

    Returns (percent supported, counts, one verdict per extracted fact).
    The denominator is every fact surviving the filter, Duplicate and
    Malformed included.
    """
    [result] = _score_directions([(source_text, knowledge_text, origin)], backends, max_workers)
    return result


def prefs(fp: float, fr: float) -> float:
    """Harmonic mean of two percentages; 0 if either is 0."""
    if fp <= 0.0 or fr <= 0.0:
        return 0.0
    if fp == fr:
        return float(fp)
    return 2.0 / (1.0 / fp + 1.0 / fr)


def prefs_multi_reference(
    generated: str,
    references: Sequence[str],
    backends: be.Backends,
    max_workers: int = 4,
) -> PrefsReport:
    """Precision against all references joined; recall averaged per reference."""
    if not references:
        raise DataError("at least one reference summary is required")
    knowledge = "\n\n".join(references)
    directions = [(generated, knowledge, GENERATED)]
    directions += [(ref, generated, REFERENCE) for ref in references]
    (precision_pct, precision_counts, _), *recalls = _score_directions(
        directions, backends, max_workers
    )
    recall_pcts = [pct for pct, _, _ in recalls]
    recall_counts = [counts for _, counts, _ in recalls]
    recall_pct = sum(recall_pcts) / len(recall_pcts)
    return PrefsReport(
        fact_precision=precision_pct,
        fact_recall=recall_pct,
        prefs=prefs(precision_pct, recall_pct),
        precision_counts=precision_counts,
        recall_counts=tuple(recall_counts),
        recall_per_reference=tuple(recall_pcts),
    )
