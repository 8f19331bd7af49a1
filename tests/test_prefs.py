"""Fact extraction, filtering, judging, and the harmonic-mean score."""

import random
import threading
import time
import zlib
from collections import Counter
from functools import partial

import pytest

from conftest import build_fixture_backends, build_mock_backends
from scenefuse.backends import (
    FACT_EXTRACTOR,
    FACT_JUDGE,
    MALFORMED_SIGNAL,
    BackendClient,
    MockTransport,
    RoleRuntime,
    default_template,
    fixture_transport,
)
from scenefuse.errors import BackendUnavailable, DataError, NoFactsAfterFiltering, ScenefuseError
from scenefuse.prefs import (
    BLACKLIST_TERMS,
    GENERATED,
    REFERENCE,
    Fact,
    FactCounts,
    FactVerdict,
    PrefsReport,
    Reason,
    _passes_filter,
    _read_facts,
    judge_support,
    mark_duplicates,
    normalize_fact,
    prefs,
    prefs_multi_reference,
    score_direction,
    split_sentences,
)

PRECISION_EXACT = 100.0 * 33 / 67
RECALL_EXACT = 100.0 * 8 / 19


def extract_facts(summary, backends, origin=GENERATED):
    """Per-sentence extraction, one request after another."""
    sentences = split_sentences(summary)
    replies = (partial(backends.complete, FACT_EXTRACTOR, sentence=s) for s in sentences)
    return _read_facts(sentences, replies, origin)


def filter_facts(facts):
    """Drop blacklisted and two-word facts; malformed ones always stay."""
    return [f for f in facts if _passes_filter(f)]


def fact(text: str, malformed: bool = False) -> Fact:
    return Fact(text, "generated", 0, malformed=malformed)


def override_role(backends, role, transport, tmp_path=None):
    backends.roles[role] = RoleRuntime(
        client=BackendClient(transport, cache_dir=tmp_path, backoff=0.0),
        template=default_template(role),
    )


def test_split_sentences():
    assert split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]
    assert split_sentences("  Lead.   Trail.  ") == ["Lead.", "Trail."]
    assert split_sentences("") == []
    assert split_sentences("No terminal punctuation") == [
        "No terminal punctuation"
    ]


def test_normalize_fact():
    assert normalize_fact("  Nick   has plans!! ") == "nick has plans"
    assert normalize_fact("Brooke is leaving.") == "brooke is leaving"
    assert normalize_fact("done") == "done"


def test_filter_drops_two_word_facts():
    kept = filter_facts([fact("She says."), fact("He says that."), fact("Nick plans!")])
    assert [f.text for f in kept] == ["He says that."]


def test_filter_blacklist_terms():
    assert len(BLACKLIST_TERMS) == 7
    for term in BLACKLIST_TERMS:
        assert filter_facts([fact(f"Clearly {term} matters here.")]) == []
    assert filter_facts([fact("SOMETHING happened at the dock.")]) == []


def test_filter_blacklist_is_word_bounded():
    kept = filter_facts(
        [
            fact("Ridge and Brooke are two people."),  # not "are people"
            fact("The psychosomething diagnosis held."),  # no word boundary
            fact("Someone's here right now."),
        ]
    )
    assert [f.text for f in kept] == [
        "Ridge and Brooke are two people.",
        "The psychosomething diagnosis held.",
    ]


def test_filter_never_drops_malformed_facts():
    survivors = filter_facts([fact("xx yy", malformed=True)])
    assert len(survivors) == 1


def test_mark_duplicates_by_normalized_text():
    stubs = mark_duplicates(
        [
            fact("Nick has plans."),
            fact("nick  has plans!"),
            fact("Brooke is leaving."),
        ]
    )
    assert stubs[0] is None
    assert stubs[1] is not None
    assert stubs[1].reason is Reason.DUPLICATE
    assert stubs[1].supported is False
    assert stubs[2] is None


def test_malformed_facts_stay_out_of_the_duplicate_table():
    stubs = mark_duplicates(
        [fact("Nick waves.", malformed=True), fact("Nick waves.")]
    )
    assert stubs == [None, None]


def test_extract_facts_strips_bullets_and_tracks_sentences(tmp_path):
    backends = build_mock_backends(tmp_path / "cache")
    override_role(
        backends, FACT_EXTRACTOR, MockTransport(lambda req: "- Fact A.\n* Fact B.\n\n")
    )
    facts = extract_facts("First sentence. Second sentence.", backends)
    assert [f.text for f in facts] == ["Fact A.", "Fact B."] * 2
    assert [f.source_sentence_index for f in facts] == [0, 0, 1, 1]
    assert all(not f.malformed for f in facts)


def test_extract_facts_flags_malformed_sentences(tmp_path):
    backends = build_mock_backends(tmp_path / "cache")
    transport = fixture_transport(
        {
            "extractions": {
                "Good sentence here.": ["A usable fact here."],
                "Broken sentence here.": "MALFORMED",
            }
        }
    )
    override_role(backends, FACT_EXTRACTOR, transport)
    facts = extract_facts("Good sentence here. Broken sentence here.", backends)
    assert [f.malformed for f in facts] == [False, True]
    assert facts[1].text == "Broken sentence here."


def test_extract_facts_reports_failing_sentence(tmp_path):
    backends = build_mock_backends(tmp_path / "cache")
    override_role(
        backends, FACT_EXTRACTOR, fixture_transport({"extractions": {"Known one.": ["F one."]}})
    )
    with pytest.raises(BackendUnavailable, match="sentence 1"):
        extract_facts("Known one. Unknown two.", backends)


def test_judge_retries_unparseable_answer_once(tmp_path):
    replies = iter(["perhaps?", "True."])
    calls = []

    def judge(req):
        calls.append(req)
        return next(replies)

    backends = build_mock_backends(tmp_path / "cache")
    override_role(backends, FACT_JUDGE, MockTransport(judge), tmp_path / "judge")
    verdict = judge_support(fact("Nick sails away today."), "reference text", backends)
    assert verdict.supported is True
    assert verdict.reason is Reason.JUDGE
    assert len(calls) == 2  # the retry bypassed the cached garbage


def test_judge_gives_up_after_one_retry(tmp_path):
    backends = build_mock_backends(tmp_path / "cache")
    override_role(backends, FACT_JUDGE, MockTransport(lambda req: "shrug"))
    verdict = judge_support(fact("Nick sails away today."), "reference", backends)
    assert verdict.supported is False


def test_judge_accepts_quoted_and_punctuated_answers(tmp_path):
    backends = build_mock_backends(tmp_path / "cache")
    override_role(backends, FACT_JUDGE, MockTransport(lambda req: '"False".'))
    verdict = judge_support(fact("Nick sails away today."), "reference", backends)
    assert verdict.supported is False
    assert verdict.reason is Reason.JUDGE


def test_malformed_facts_count_as_unsupported_without_judging(tmp_path):
    backends = build_mock_backends(tmp_path / "cache")

    def explode(req):
        raise AssertionError("malformed facts must never reach the judge")

    override_role(backends, FACT_JUDGE, MockTransport(explode))
    verdict = judge_support(fact("whatever", malformed=True), "ref", backends)
    assert verdict.supported is False
    assert verdict.reason is Reason.MALFORMED


def test_score_direction_requires_a_surviving_fact(tmp_path):
    backends = build_mock_backends(tmp_path / "cache")
    override_role(backends, FACT_EXTRACTOR, MockTransport(lambda req: "Two words."))
    with pytest.raises(NoFactsAfterFiltering):
        score_direction("Only sentence.", "reference", backends)


def test_fixture_episode_precision_counts(prefs_fixture, fixture_backends):
    percent, counts, verdicts = score_direction(
        prefs_fixture["summary"], prefs_fixture["reference"], fixture_backends
    )
    assert percent == pytest.approx(PRECISION_EXACT, abs=1e-9)
    assert counts.extracted == 83
    assert counts.filtered == 67  # survivors of the filter
    assert counts.judged == 67
    assert counts.supported == 33

    # verdict list is aligned with extraction order, filtered rows included
    expected_order = [
        text
        for sentence in split_sentences(prefs_fixture["summary"])
        for text in prefs_fixture["extractions"][sentence]
    ]
    assert [v.fact.text for v in verdicts] == expected_order
    reasons = [v.reason for v in verdicts]
    assert reasons.count(Reason.FILTERED) == 16
    assert reasons.count(Reason.JUDGE) == 67
    assert verdicts[9].reason is Reason.FILTERED  # "Brooke tells Nick something."
    assert not any(v.supported for v in verdicts if v.reason is Reason.FILTERED)


def test_fixture_episode_directional_scores(prefs_fixture, fixture_backends):
    summary, reference = prefs_fixture["summary"], prefs_fixture["reference"]
    fp, _, _ = score_direction(summary, reference, fixture_backends, GENERATED)
    fr, _, _ = score_direction(reference, summary, fixture_backends, REFERENCE)
    assert fp == pytest.approx(PRECISION_EXACT, abs=1e-9)
    assert fr == pytest.approx(RECALL_EXACT, abs=1e-9)


def test_prefs_zero_guard_and_identity():
    assert prefs(0.0, 50.0) == 0.0
    assert prefs(50.0, 0.0) == 0.0
    assert prefs(-3.0, 10.0) == 0.0
    for x in (0.001, 1.0, 42.29, 64.37, 100.0):
        assert prefs(x, x) == x


def test_prefs_is_the_harmonic_mean():
    cases = [(42.29, 48.54), (10.0, 90.0), (33.3, 66.6)]
    for fp, fr in cases:
        expected = 2.0 * fp * fr / (fp + fr)
        assert prefs(fp, fr) == pytest.approx(expected, abs=1e-9)
        assert prefs(fp, fr) == prefs(fr, fp)
        assert min(fp, fr) <= prefs(fp, fr) <= max(fp, fr)


def test_prefs_multi_reference_report(prefs_fixture, fixture_backends):
    report = prefs_multi_reference(
        prefs_fixture["summary"], [prefs_fixture["reference"]], fixture_backends
    )
    assert report.fact_precision == pytest.approx(PRECISION_EXACT, abs=1e-9)
    assert report.fact_recall == pytest.approx(RECALL_EXACT, abs=1e-9)
    assert report.prefs == pytest.approx(
        2 * PRECISION_EXACT * RECALL_EXACT / (PRECISION_EXACT + RECALL_EXACT),
        abs=1e-9,
    )
    assert report.recall_per_reference == (report.fact_recall,)
    data = report.to_dict()
    assert data["precision_counts"]["extracted"] == 83
    assert data["recall_counts"][0]["extracted"] == 19


def test_prefs_multi_reference_averages_recall(prefs_fixture, fixture_backends):
    single = prefs_multi_reference(
        prefs_fixture["summary"], [prefs_fixture["reference"]], fixture_backends
    )
    doubled = prefs_multi_reference(
        prefs_fixture["summary"],
        [prefs_fixture["reference"], prefs_fixture["reference"]],
        fixture_backends,
    )
    assert doubled.fact_recall == pytest.approx(single.fact_recall, abs=1e-9)
    assert len(doubled.recall_per_reference) == 2


def test_prefs_multi_reference_requires_references(fixture_backends):
    with pytest.raises(DataError):
        prefs_multi_reference("Summary.", [], fixture_backends)


# ---------------------------------------------------------------------------
# One pool for every direction against the directions one after another
# ---------------------------------------------------------------------------


def reference_direction(source, knowledge, backends, origin, asked=None):
    """score_direction as a serial loop: extract, filter, mark, judge in turn.

    ``asked`` maps each (knowledge, fact text, malformed) question already
    judged to its verdict; a repeat takes that verdict with its own fact.
    """
    asked = {} if asked is None else asked
    facts = extract_facts(source, backends, origin)
    survivors = filter_facts(facts)
    if not survivors:
        raise NoFactsAfterFiltering(f"no {origin} facts left after filtering")
    survivor_verdicts = []
    for fact, stub in zip(survivors, mark_duplicates(survivors)):
        if stub is None:
            question = (knowledge, fact.text, fact.malformed)
            if question not in asked:
                asked[question] = judge_support(fact, knowledge, backends)
            stub = FactVerdict(fact, asked[question].supported, asked[question].reason)
        survivor_verdicts.append(stub)
    kept = {id(f) for f in survivors}
    in_turn = iter(survivor_verdicts)
    verdicts = [
        next(in_turn) if id(f) in kept else FactVerdict(f, False, Reason.FILTERED)
        for f in facts
    ]
    supported = sum(v.supported for v in survivor_verdicts)
    counts = FactCounts(
        extracted=len(facts),
        filtered=len(survivors),
        judged=sum(v.reason is Reason.JUDGE for v in survivor_verdicts),
        supported=supported,
    )
    return 100.0 * supported / len(survivors), counts, verdicts


def reference_prefs(generated, references, backends):
    """prefs_multi_reference scoring precision, then each reference, in turn,
    asking each distinct question once across the directions."""
    knowledge = "\n\n".join(references)
    asked = {}
    precision, precision_counts, _ = reference_direction(
        generated, knowledge, backends, GENERATED, asked
    )
    recalls = [
        reference_direction(ref, generated, backends, REFERENCE, asked) for ref in references
    ]
    recall = sum(pct for pct, _, _ in recalls) / len(recalls)
    return PrefsReport(
        fact_precision=precision,
        fact_recall=recall,
        prefs=prefs(precision, recall),
        precision_counts=precision_counts,
        recall_counts=tuple(counts for _, counts, _ in recalls),
        recall_per_reference=tuple(pct for pct, _, _ in recalls),
    )


SUBJECTS = ("Nick", "Brooke", "Dante", "Bridget", "The harbor master")
PREDICATES = (
    "sails to Malta tonight", "signs the blank manifest", "hides the folder",
    "calls the board again", "waits at the empty dock", "doubts the merger terms",
)


class ScriptedTransport:
    """Extractor and judge replies per request, and per send of that request.

    Each sentence gets one extraction shape: the sentence itself, bullets
    with a second fact shared by its subject's sentences, a two-word fact
    that the filter drops, only a blacklisted fact, or MALFORMED. Some
    facts get an unparseable first judge answer (the refresh retry then
    answers), some an unparseable answer on every send. Sends in flight
    are counted, and each send takes ``delay`` seconds.
    """

    def __init__(self, shapes: dict[str, str], delay: float = 0.0):
        self.shapes = shapes
        self.delay = delay
        self.sends: Counter[tuple[str, str]] = Counter()
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.sends[request.role, request.prompt] += 1
            nth = self.sends[request.role, request.prompt]
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay)
            if request.role == FACT_EXTRACTOR:
                return self.extract(request.variables["sentence"])
            return self.judge(request.variables["fact"], request.variables["reference"], nth)
        finally:
            with self._lock:
                self.in_flight -= 1

    def extract(self, sentence: str) -> str:
        subject = sentence.split(" ")[0]
        return {
            "plain": sentence,
            "bullets": f"- {sentence}\n* {subject} keeps a secret from everyone.",
            "two-word": f"{subject} waits.\n{sentence}",
            "blacklisted": f"Someone watches {subject} closely.",
            "malformed": MALFORMED_SIGNAL,
        }[self.shapes[sentence]]

    @staticmethod
    def judge(fact: str, reference: str, nth: int) -> str:
        answer = "True." if normalize_fact(fact) in normalize_fact(reference) else "false"
        kind = zlib.crc32(fact.encode()) % 6
        if kind == 0 or (kind == 1 and nth == 1):
            return "Perhaps, hard to say."
        return answer


def random_episode(rng: random.Random) -> tuple[str, list[str], dict[str, str]]:
    """A summary and references drawn from a few sentences, so that
    sentences repeat within and across texts, and each sentence's shape."""
    pool = [
        f"{rng.choice(SUBJECTS)} {rng.choice(PREDICATES)}." for _ in range(rng.randint(4, 9))
    ]
    shapes = rng.choices(
        ("plain", "bullets", "two-word", "blacklisted", "malformed"),
        weights=(5, 3, 2, 1, 1),
        k=len(pool),
    )

    def text() -> str:
        return " ".join(rng.choice(pool) for _ in range(rng.randint(2, 7)))

    return text(), [text() for _ in range(rng.randint(1, 3))], dict(zip(pool, shapes))


def scripted_backends(tmp_path, transport):
    backends = build_mock_backends(tmp_path / "cache")
    for role in (FACT_EXTRACTOR, FACT_JUDGE):
        override_role(backends, role, transport, tmp_path / role)
    return backends


def outcome(score, tmp_path, shapes, delay=0.0):
    """Report (or error) and per-role upstream calls of one scoring, cold cache."""
    transport = ScriptedTransport(shapes, delay)
    backends = scripted_backends(tmp_path, transport)
    try:
        result = score(backends).to_dict()
    except ScenefuseError as exc:
        result = (type(exc), str(exc))
    calls = {role: backends.roles[role].client.calls for role in (FACT_EXTRACTOR, FACT_JUDGE)}
    return result, calls, transport


@pytest.mark.parametrize("seed", range(12))
def test_one_pool_scores_like_the_serial_directions(tmp_path, seed):
    generated, references, shapes = random_episode(random.Random(seed))
    expected, expected_calls, _ = outcome(
        lambda b: reference_prefs(generated, references, b), tmp_path / "serial", shapes
    )
    for workers in (1, 2, 4, 8):
        got, calls, _ = outcome(
            lambda b: prefs_multi_reference(generated, references, b, max_workers=workers),
            tmp_path / f"pool{workers}",
            shapes,
        )
        assert (got, calls) == (expected, expected_calls), workers

    knowledge = "\n\n".join(references)
    for i, (source, against, origin) in enumerate(
        [(generated, knowledge, GENERATED)] + [(r, generated, REFERENCE) for r in references]
    ):
        serial = scripted_backends(tmp_path / f"serial-{i}", ScriptedTransport(shapes))
        pooled = scripted_backends(tmp_path / f"pool-{i}", ScriptedTransport(shapes))
        try:
            expected = reference_direction(source, against, serial, origin)
        except NoFactsAfterFiltering:
            with pytest.raises(NoFactsAfterFiltering):
                score_direction(source, against, pooled, origin)
            continue
        assert score_direction(source, against, pooled, origin) == expected


def test_random_episodes_cover_every_case(tmp_path):
    # the equivalence above is only as strong as the cases its texts reach
    seen = Counter()
    for seed in range(12):
        generated, references, shapes = random_episode(random.Random(seed))
        _, _, transport = outcome(
            lambda b: reference_prefs(generated, references, b), tmp_path / str(seed), shapes
        )
        texts = [split_sentences(t) for t in (generated, *references)]
        seen["repeat within a text"] += any(len(t) > len(set(t)) for t in texts)
        seen["repeat across references"] += any(
            set(a) & set(b) for i, a in enumerate(texts[1:]) for b in texts[i + 2:]
        )
        for shape in ("malformed", "two-word", "blacklisted"):
            seen[shape] += any(shapes[s] == shape for t in texts for s in t)
        # with a cache, only the refresh retry sends a judge request twice
        seen["refresh retry"] += any(
            n > 1 for (role, _), n in transport.sends.items() if role == FACT_JUDGE
        )
    assert len(seen) == 6 and all(seen.values()), seen


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sends_in_flight_never_exceed_max_workers(tmp_path, workers):
    generated, references, shapes = random_episode(random.Random(3))
    _, _, transport = outcome(
        lambda b: prefs_multi_reference(generated, references, b, max_workers=workers),
        tmp_path,
        shapes,
        delay=0.005,
    )
    assert transport.peak <= workers
    assert transport.peak > 1 or workers == 1


def test_a_judge_request_repeated_across_references_is_refreshed_once(tmp_path):
    # both references hold the fact; its first judge answer is unparseable,
    # so the second reference must read the refreshed answer, not the first one
    repeated = "Nick doubts the merger terms."
    assert zlib.crc32(repeated.encode()) % 6 == 1
    generated = f"{repeated} Brooke hides the folder."
    shapes = dict.fromkeys(split_sentences(generated), "plain")
    expected = outcome(
        lambda b: reference_prefs(generated, [repeated, repeated], b), tmp_path / "serial", shapes
    )[:2]
    got = outcome(
        lambda b: prefs_multi_reference(generated, [repeated, repeated], b, max_workers=4),
        tmp_path / "pool",
        shapes,
        delay=0.02,  # long enough for the two references' requests to overlap
    )[:2]
    assert got == expected


@pytest.mark.parametrize("workers", [1, 4])
def test_each_distinct_question_is_judged_once_without_a_cache(tmp_path, workers):
    # both references ask the judge about the repeated fact against the
    # generated summary; every answer about it is unparseable, so each of
    # its questions is sent once and once more as the refresh retry
    repeated = "Nick signs the blank manifest."
    assert zlib.crc32(repeated.encode()) % 6 == 0
    generated = f"{repeated} Brooke hides the folder."
    assert zlib.crc32(b"Brooke hides the folder.") % 6 > 1
    transport = ScriptedTransport(dict.fromkeys(split_sentences(generated), "plain"))
    backends = build_mock_backends(tmp_path)
    for role in (FACT_EXTRACTOR, FACT_JUDGE):
        override_role(backends, role, transport)  # no cache dir
    report = prefs_multi_reference(generated, [repeated, repeated], backends, max_workers=workers)
    assert report.recall_per_reference == (0.0, 0.0)
    judge_sends = {p: n for (role, p), n in transport.sends.items() if role == FACT_JUDGE}
    # two precision questions, one recall question shared by both references
    assert sorted(judge_sends.values()) == [1, 2, 2]
    assert backends.roles[FACT_JUDGE].client.calls == 5


@pytest.mark.parametrize("workers", [1, 4])
def test_a_malformed_sentence_never_answers_a_fact_of_the_same_text(tmp_path, workers):
    # the first reference's sentence A is malformed; the second reference's
    # sentence B yields the fact A, which the judge must still be asked about
    a, b = "Nick sails to Malta tonight.", "Brooke hides the folder."
    fixture = {"extractions": {a: MALFORMED_SIGNAL, b: [a]}, "verdicts": {a: True}}
    backends = build_fixture_backends(tmp_path, fixture)
    report = prefs_multi_reference(f"{a} {b}", [a, b], backends, max_workers=workers)
    assert report.recall_per_reference == (0.0, 100.0)
    assert report.recall_counts[1].judged == 1


@pytest.mark.parametrize("workers", [1, 4])
def test_each_distinct_sentence_is_extracted_once_without_a_cache(tmp_path, workers):
    repeated = "Nick sails to Malta tonight."
    generated = f"{repeated} Brooke hides the folder."
    # repeated within the first reference and across both references
    references = [
        f"{repeated} Dante signs the blank manifest. {repeated}",
        f"Brooke hides the folder. {repeated}",
    ]
    distinct = set(split_sentences(" ".join([generated, *references])))
    transport = ScriptedTransport(dict.fromkeys(distinct, "plain"))
    backends = build_mock_backends(tmp_path)
    for role in (FACT_EXTRACTOR, FACT_JUDGE):
        override_role(backends, role, transport)  # no cache dir
    prefs_multi_reference(generated, references, backends, max_workers=workers)
    extractor_sends = {p: n for (role, p), n in transport.sends.items() if role == FACT_EXTRACTOR}
    assert len(extractor_sends) == len(distinct) == 3
    assert set(extractor_sends.values()) == {1}
    assert backends.roles[FACT_EXTRACTOR].client.calls == 3


FAILING_GENERATED = "Nick sails to Malta tonight. Brooke hides the folder."
FAILING_REFERENCES = [
    "Nick sails to Malta tonight. Dante signs the blank manifest. Bridget waits alone.",
    "Brooke calls the board again. Nick sails to Malta tonight.",
]
KNOWN_EXTRACTIONS = {
    "Nick sails to Malta tonight.": ["Nick sails to Malta tonight."],
    "Brooke hides the folder.": ["Brooke hides the folder."],
    "Dante signs the blank manifest.": ["Dante signs the blank manifest."],
}


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize(
    ("extractions", "error", "message"),
    [
        # lacks sentence 2 of the first reference and sentence 0 of the second
        (KNOWN_EXTRACTIONS, BackendUnavailable, "fact extraction failed at sentence 2:"),
        # the first reference's facts are all filtered out before the second fails
        (
            {
                **{s: [s.split()[0] + " waits."] for s in split_sentences(FAILING_REFERENCES[0])},
                "Brooke hides the folder.": ["Brooke hides the folder."],
            },
            NoFactsAfterFiltering,
            "no reference facts left after filtering",
        ),
    ],
    ids=["two-sentences-missing", "no-facts-before-missing"],
)
def test_the_serially_first_error_is_raised(tmp_path, workers, extractions, error, message):
    fixture = {"extractions": extractions, "verdicts": {"Nick sails to Malta tonight.": True}}
    serial = build_fixture_backends(tmp_path / "serial", fixture)
    with pytest.raises(error) as expected:
        reference_prefs(FAILING_GENERATED, FAILING_REFERENCES, serial)
    assert str(expected.value).startswith(message)
    pooled = build_fixture_backends(tmp_path / "pool", fixture)
    with pytest.raises(error) as got:
        prefs_multi_reference(FAILING_GENERATED, FAILING_REFERENCES, pooled, max_workers=workers)
    assert str(got.value) == str(expected.value)
    # the directions before the failing one were judged, as serially
    assert pooled.roles[FACT_JUDGE].client.calls == serial.roles[FACT_JUDGE].client.calls > 0
