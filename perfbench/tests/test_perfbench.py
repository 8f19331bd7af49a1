"""Tests for the benchmark's own parts: generator, output check, mirror, faults.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import math
import os

import pytest

import run
from clients import Upstream
from measure import Tally, check_values, prepare, reference_run, run_untraced, traced_pass
from outputs import digest
from scenefuse.captions import Gender, classify_name, load_lexicon
from scenefuse.model import parse_captions
from workloads import SHAPES, generate, write_bundle

# small episodes of each shape keep the tests quick
SMALL = {"align-dense": 12, "long-transcript": 120, "remote-eval": 60}


def files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_same_seed_gives_a_byte_identical_bundle(tmp_path, workload):
    a = write_bundle(generate(workload, 7), tmp_path / "a")
    b = write_bundle(generate(workload, 7), tmp_path / "b")
    assert files(a) == files(b)
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files(a))
    assert generate(workload, 8).transcript != generate(workload, 7).transcript


def test_amount_of_text_is_the_same_for_every_seed():
    episodes = [generate("align-dense", seed) for seed in range(4)]
    assert {len(e.transcript.split()) for e in episodes} == {len(episodes[0].transcript.split())}
    assert {len(parse_captions(e.captions_srt).cues) for e in episodes} == {27}
    assert {e.n_lines for e in episodes} == {SHAPES["align-dense"].lines}


def test_speakers_come_from_the_lexicon_with_one_gender():
    lexicon = load_lexicon()
    episode = generate("long-transcript", 3)
    speakers = {line.split(":")[0] for line in episode.transcript.splitlines()}
    assert len(speakers) == SHAPES["long-transcript"].cast
    assert all(classify_name(s, lexicon) is not Gender.NEUTRAL for s in speakers)


@pytest.mark.parametrize(
    "perturb",
    [
        lambda v: {**v, "dtw_total": math.nextafter(v["dtw_total"], math.inf)},
        lambda v: {**v, "breaks": [b + 1 for b in v["breaks"]]},
        lambda v: {**v, "prefs": {**v["prefs"], "fact_recall": v["prefs"]["fact_recall"] + 1e-9}},
        lambda v: {**v, "final_summary": v["final_summary"] + " "},
    ],
    ids=["dtw-total-ulp", "breaks", "prefs", "summary"],
)
def test_output_check_flags_a_perturbed_value(tmp_path, perturb):
    bench = prepare("align-dense", 1, tmp_path, 1, {}, lines=SMALL["align-dense"])
    bench.upstream = Upstream()
    ref = reference_run(bench, tmp_path / "ref")
    values = ref.values
    bench.expected = digest(values)
    tally = Tally()
    check_values(bench, values, ref.config.context_budget, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    check_values(bench, perturb(values), ref.config.context_budget, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_traced_mirror_equals_run_pipeline(tmp_path, workload):
    bench = prepare(workload, 2, tmp_path, 2, {}, lines=SMALL[workload])
    bench.upstream = Upstream()  # no latency: the values do not depend on it
    tally = Tally()
    metrics, spans = traced_pass(bench, 0, tally)
    assert (tally.attempted, tally.failed) == (2, 0), tally.problems
    names = {s["name"] for s in spans}
    assert {"segmentation.partition", "alignment.dtw_align", "kernels.pair_cost",
            "reordering.reorder", "pipeline.fusion_input", "prefs.recall"} <= names
    assert metrics["kernels.pairs"] > 0


def test_injected_faults_are_retried_to_success(tmp_path):
    bench = prepare("remote-eval", 0, tmp_path, 2, {}, lines=SMALL["remote-eval"])
    bench.upstream = Upstream(fail_one_in=bench.upstream.fail_one_in)  # without latency
    tally = Tally()
    metrics, _ = traced_pass(bench, 0, tally)
    assert metrics["backends.retries"] > 0
    assert metrics["backends.sends"] == metrics["backends.upstream_calls"] + metrics["backends.retries"]
    assert tally.failed == 0, tally.problems
    _, tally = run_untraced(bench, seconds=0.01)
    assert (tally.attempted, tally.failed) == (5, 0), tally.problems


def test_worker_count_above_nproc_is_refused(capsys):
    nproc = len(os.sched_getaffinity(0))
    argv = ["--workload", "align-dense", "--seed", "0", "--seconds", "1", "--workers", str(nproc + 1)]
    assert run.main(argv) == 2
    assert "nproc" in capsys.readouterr().err
