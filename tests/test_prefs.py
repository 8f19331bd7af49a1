"""Fact extraction, filtering, judging, and the harmonic-mean score."""

import pytest

from conftest import build_mock_backends
from scenefuse.backends import (
    FACT_EXTRACTOR,
    FACT_JUDGE,
    BackendClient,
    MockTransport,
    RoleRuntime,
    default_template,
    fixture_transport,
)
from scenefuse.errors import BackendUnavailable, DataError, NoFactsAfterFiltering
from scenefuse.prefs import (
    BLACKLIST_TERMS,
    Fact,
    Reason,
    extract_facts,
    fact_precision,
    fact_recall,
    filter_facts,
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
    fp = fact_precision(
        prefs_fixture["summary"], prefs_fixture["reference"], fixture_backends
    )
    fr = fact_recall(
        prefs_fixture["summary"], prefs_fixture["reference"], fixture_backends
    )
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
