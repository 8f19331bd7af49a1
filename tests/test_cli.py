"""Command-line behavior: subcommands, output shapes, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    EPISODE_TRANSCRIPT,
    EPISODE_VISUAL,
    INTERLEAVED,
    episode_captions,
    write_episode,
)
import scenefuse
from scenefuse.cli import main

GOLD = ["Brooke sails away tonight."]


@pytest.fixture
def episode_dir(tmp_path):
    return write_episode(
        tmp_path / "ep1",
        EPISODE_TRANSCRIPT,
        captions=episode_captions(),
        visual=EPISODE_VISUAL,
        gold=GOLD,
    )


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def test_segment_prints_the_partition(capsys, episode_dir):
    data = run_json(capsys, "--episode", episode_dir, "segment")
    assert [(s["start"], s["end"]) for s in data["scenes"]] == [
        (0, 6), (6, 12), (12, 18)
    ]
    assert set(data) == {"scenes", "breaks", "total_cost_bits"}


def test_segment_uniform_chunks_flag(capsys, episode_dir):
    data = run_json(capsys, "--episode", episode_dir, "segment", "--uniform-chunks")
    assert [(s["start"], s["end"]) for s in data["scenes"]] == [(0, 18)]


def test_align_prints_alignment_and_spans(capsys, episode_dir):
    data = run_json(capsys, "--episode", episode_dir, "align")
    assert data["alignment"]["total_cost"] == 0.0
    assert data["spans"] == [
        {"scene": 0, "start_ms": 0, "end_ms": 12000},
        {"scene": 1, "start_ms": 12000, "end_ms": 24000},
        {"scene": 2, "start_ms": 24000, "end_ms": 36000},
    ]


def test_align_without_captions_is_a_data_error(capsys, tmp_path):
    directory = write_episode(tmp_path / "bare", EPISODE_TRANSCRIPT)
    code, _, err = run(capsys, "--episode", directory, "align")
    assert code == 4
    assert "data error" in err


def test_reorder_prints_the_order(capsys, episode_dir):
    data = run_json(capsys, "--episode", episode_dir, "reorder")
    assert data["permutation"] == [0, 1, 2]
    assert data["original_cost"] == 2.0
    assert data["reordered_cost"] == 2.0


def test_captions_clean_prints_cleaned_rows(capsys, episode_dir):
    rows = run_json(capsys, "--episode", episode_dir, "captions", "clean")
    assert rows == [
        {
            "scene_index": 0,
            "sentences": ["Brody and Jessica are standing near a garden"],
        },
        {"scene_index": 1, "sentences": []},
        {
            "scene_index": 2,
            "sentences": ["two people are walking along a dock"],
        },
    ]


def test_captions_clean_without_visual_track(capsys, tmp_path):
    directory = write_episode(tmp_path / "bare", EPISODE_TRANSCRIPT)
    code, _, err = run(capsys, "--episode", directory, "captions", "clean")
    assert code == 4
    assert "captions.visual.json" in err


def test_summarize_prints_the_final_summary(capsys, tmp_path, episode_dir):
    out_dir = tmp_path / "artifacts"
    code, out, err = run(
        capsys, "--episode", episode_dir, "--out", out_dir, "summarize"
    )
    assert code == 0, err
    assert out.startswith("Episode recap: Brody and Jessica")
    assert (out_dir / "ep1" / "summary.txt").is_file()


def test_summarize_recomputes_a_truncated_artifact(capsys, tmp_path, episode_dir):
    out_dir = tmp_path / "artifacts"
    code, first, err = run(capsys, "--episode", episode_dir, "--out", out_dir, "summarize")
    assert code == 0, err
    partition = out_dir / "ep1" / "partition.json"
    intact = partition.read_bytes()
    partition.write_bytes(intact[: len(intact) // 2])

    code, again, err = run(capsys, "--episode", episode_dir, "--out", out_dir, "summarize")
    assert code == 0, err
    assert again == first
    assert partition.read_bytes() == intact


def read_artifact(out_dir, name):
    return json.loads((out_dir / "ep1" / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    ("transcript", "raw"),
    [
        (EPISODE_TRANSCRIPT, {"uniform_chunks": True}),
        (INTERLEAVED, {"skip_reorder": True}),
        (INTERLEAVED, {}),
        (EPISODE_TRANSCRIPT, {"lexicon": "names.tsv"}),
    ],
    ids=["uniform_chunks", "skip_reorder", "reordered", "lexicon"],
)
def test_views_print_what_summarize_persists(capsys, tmp_path, transcript, raw):
    episode = write_episode(
        tmp_path / "ep1", transcript,
        captions=episode_captions(transcript), visual=EPISODE_VISUAL,
    )
    # a lexicon that knows none of the speakers: no name is inserted
    (tmp_path / "names.tsv").write_text("Somebody\tm\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out_dir = tmp_path / "artifacts"
    common = ("--config", config, "--episode", episode, "--out", out_dir)
    code, _, err = run(capsys, *common, "summarize")
    assert code == 0, err

    partition = run_json(capsys, *common, "segment")
    assert partition == read_artifact(out_dir, "partition.json")
    align = run_json(capsys, *common, "align")
    assert align == {
        "alignment": read_artifact(out_dir, "alignment.json"),
        "spans": read_artifact(out_dir, "spans.json"),
    }
    order = run_json(capsys, *common, "reorder")
    assert order == read_artifact(out_dir, "order.json")
    captions = run_json(capsys, *common, "captions", "clean")
    assert captions == read_artifact(out_dir, "captions.json")
    # one row per scene of the partition the config asks for
    assert len(align["spans"]) == len(captions) == len(partition["scenes"])
    if "uniform_chunks" in raw:
        # 18 lines fit one token window, where the markers make 3 scenes
        assert partition["breaks"] == []
    if transcript is INTERLEAVED:
        expected = [0, 1, 2] if "skip_reorder" in raw else [1, 0, 2]
        assert order["permutation"] == expected
    if "lexicon" in raw:
        assert captions[0]["sentences"] == ["a man and a woman are standing near a garden"]


@pytest.mark.parametrize(
    "command", [["segment"], ["align"], ["reorder"], ["captions", "clean"]]
)
def test_views_reject_a_malformed_config(capsys, tmp_path, episode_dir, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "--config", bad, "--episode", episode_dir, *command)
    assert code == 2
    assert out == ""
    assert "not valid JSON" in err


def test_evaluate_with_a_summary_file(capsys, tmp_path, episode_dir):
    summary = tmp_path / "candidate.txt"
    summary.write_text("Nick owns a boat. Brooke sails away.\n", encoding="utf-8")
    data = run_json(
        capsys,
        "--episode", episode_dir,
        "--out", tmp_path / "artifacts",
        "evaluate", "--summary-file", summary,
    )
    assert data["fact_precision"] == 50.0
    assert data["fact_recall"] == 0.0
    assert data["prefs"] == 0.0
    assert (tmp_path / "artifacts" / "ep1" / "prefs.json").is_file()


def test_evaluate_uses_the_persisted_summary(capsys, tmp_path, episode_dir):
    out_dir = tmp_path / "artifacts"
    code, _, _ = run(capsys, "--episode", episode_dir, "--out", out_dir, "summarize")
    assert code == 0
    data = run_json(capsys, "--episode", episode_dir, "--out", out_dir, "evaluate")
    assert set(data) == {
        "fact_precision", "fact_recall", "prefs",
        "precision_counts", "recall_counts", "recall_per_reference",
    }


def test_evaluate_refuses_a_cut_summary(capsys, tmp_path, episode_dir):
    out_dir = tmp_path / "artifacts"
    code, _, err = run(capsys, "--episode", episode_dir, "--out", out_dir, "summarize")
    assert code == 0, err
    summary = out_dir / "ep1" / "summary.txt"
    intact = summary.read_bytes()
    summary.write_bytes(intact[: len(intact) // 2])

    code, out, err = run(capsys, "--episode", episode_dir, "--out", out_dir, "evaluate")
    assert code == 4
    assert out == ""
    assert "rerun summarize" in err
    assert not (out_dir / "ep1" / "prefs.json").exists()


def test_evaluate_without_any_summary(capsys, tmp_path, episode_dir):
    code, _, err = run(
        capsys, "--episode", episode_dir, "--out", tmp_path / "artifacts", "evaluate"
    )
    assert code == 4
    assert "pass --summary-file or run summarize first" in err


def test_stats_scene_split_mdl_recovers_marked_scenes(capsys, episode_dir):
    data = run_json(capsys, "stats", "scene-split", episode_dir)
    assert data["method"] == "mdl"
    (row,) = data["episodes"]
    assert row["episode"] == "ep1"
    assert row["acc"] == 1.0
    assert row["nmi"] == 1.0
    assert row["ari"] == 1.0
    assert data["means"] == {"acc": 1.0, "nmi": 1.0, "ari": 1.0}


def test_stats_scene_split_uniform_methods(capsys, episode_dir):
    data = run_json(
        capsys, "stats", "scene-split", episode_dir, "--method", "uniform", "--k", 3
    )
    assert data["means"]["acc"] == 1.0
    data = run_json(
        capsys, "stats", "scene-split", episode_dir, "--method", "uniform-oracle"
    )
    assert data["means"]["acc"] == 1.0


def test_stats_scene_split_uniform_requires_k(capsys, episode_dir):
    code, _, err = run(
        capsys, "stats", "scene-split", episode_dir, "--method", "uniform"
    )
    assert code == 2
    assert "--k is required" in err


def test_stats_scene_split_requires_markers(capsys, tmp_path):
    directory = write_episode(
        tmp_path / "plain", "Brody: hello.\nJessica: hi there.\n"
    )
    code, _, err = run(capsys, "stats", "scene-split", directory)
    assert code == 4
    assert "SCENE_BREAK" in err


def test_stats_scene_split_requires_episodes(capsys):
    code, _, err = run(capsys, "stats", "scene-split")
    assert code == 2
    assert "episode directories" in err


def test_stats_scene_split_accepts_episode_flag(capsys, episode_dir):
    data = run_json(capsys, "--episode", episode_dir, "stats", "scene-split")
    assert data["means"]["acc"] == 1.0


def test_stats_welch_prints_t_and_df(capsys):
    data = run_json(
        capsys,
        "stats", "welch",
        "--mean1", 44.86, "--std1", 0.60,
        "--mean2", 42.24, "--std2", 0.42,
    )
    assert data["t"] == pytest.approx(7.999, abs=0.001)
    assert data["df"] == pytest.approx(7.161, abs=0.001)


def test_stats_welch_zero_variance_is_a_data_error(capsys):
    code, _, err = run(
        capsys,
        "stats", "welch",
        "--mean1", 1.0, "--std1", 0.0,
        "--mean2", 1.0, "--std2", 0.0,
    )
    assert code == 4
    assert "data error" in err


def test_missing_episode_flag_is_a_config_error(capsys):
    code, _, err = run(capsys, "segment")
    assert code == 2
    assert "--episode" in err


def test_missing_config_file_is_a_config_error(capsys, episode_dir):
    code, _, err = run(
        capsys, "--config", "/nonexistent/config.json", "--episode", episode_dir,
        "summarize",
    )
    assert code == 2
    assert "config file not found" in err


def test_invalid_config_json_is_a_config_error(capsys, tmp_path, episode_dir):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(
        capsys, "--config", bad, "--episode", episode_dir, "summarize"
    )
    assert code == 2
    assert "not valid JSON" in err


def test_unreachable_endpoint_is_a_backend_error(capsys, tmp_path, episode_dir):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"backends": {"fusion_summarizer": {"endpoint": "http://127.0.0.1:9/x"}}}
        ),
        encoding="utf-8",
    )
    code, _, err = run(
        capsys,
        "--config", config,
        "--episode", episode_dir,
        "--out", tmp_path / "artifacts",
        "summarize",
    )
    assert code == 3
    assert "backend error: stage fuse:" in err


def test_mock_flag_overrides_configured_endpoints(capsys, tmp_path, episode_dir):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"backends": {"fusion_summarizer": {"endpoint": "http://127.0.0.1:9/x"}}}
        ),
        encoding="utf-8",
    )
    code, out, err = run(
        capsys,
        "--config", config,
        "--episode", episode_dir,
        "--out", tmp_path / "artifacts",
        "--mock",
        "summarize",
    )
    assert code == 0, err
    assert out.startswith("Episode recap:")


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so no other test's imports can hide a load
    env = dict(os.environ)
    package_root = str(Path(scenefuse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    probe = (
        "import sys, scenefuse.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("scenefuse ")


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return ["--config", path]


def visual_not_json(episode_dir, tmp_path):
    (episode_dir / "captions.visual.json").write_text("[not json", encoding="utf-8")
    return []


def transcript_not_utf8(episode_dir, tmp_path):
    (episode_dir / "transcript.txt").write_bytes(b"\xff\xfeBrody: hi\n")
    return []


def config_not_utf8(episode_dir, tmp_path):
    (tmp_path / "config.json").write_bytes(b'{"lexicon": "\xff"}')
    return ["--config", tmp_path / "config.json"]


def fixture_not_json(episode_dir, tmp_path):
    (tmp_path / "fixture.json").write_text("{not json", encoding="utf-8")
    return write_config(tmp_path, {"mock_fixture": "fixture.json"})


def fixture_holding(fixture):
    def prepare(episode_dir, tmp_path):
        (tmp_path / "fixture.json").write_text(json.dumps(fixture), encoding="utf-8")
        return write_config(tmp_path, {"mock_fixture": "fixture.json"})

    return prepare


@pytest.mark.parametrize(
    ("prepare", "command", "expected"),
    [
        (visual_not_json, ["segment"], 4),
        (transcript_not_utf8, ["segment"], 4),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"fact_judge": {"prompt_template": "missing.txt"}}}
            ),
            ["segment"],
            2,
        ),
        (fixture_not_json, ["segment"], 2),
        (fixture_holding({"extractions": []}), ["segment"], 2),
        (fixture_holding({"verdicts": ["A fact."]}), ["segment"], 2),
        (fixture_holding({"extractions": {"A line.": "A fact."}}), ["segment"], 2),
        (fixture_holding({"extractions": {"A line.": ["A fact.", 7]}}), ["segment"], 2),
        (fixture_holding({"verdicts": {"A fact.": "true"}}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"skip_reorder": "false"}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"uniform_chunks": 1}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"lexicon": "missing.tsv"}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"context_budget": "lots"}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"max_workers": "four"}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"max_workers": 0}), ["summarize"], 2),
        (lambda ep, tmp: write_config(tmp, {"max_workers": -3}), ["evaluate"], 2),
        (
            lambda ep, tmp: write_config(tmp, {"backends": {"fact_judge": {"rate_limit": -2}}}),
            ["evaluate"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"fact_judge": {"max_output_tokens": "many"}}}
            ),
            ["segment"],
            2,
        ),
        (config_not_utf8, ["segment"], 2),
        (lambda ep, tmp: [], ["evaluate", "--summary-file", "missing-summary.txt"], 2),
        (lambda ep, tmp: write_config(tmp, {"cache_dir": 5}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"lexicon": 5}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"mock_fixture": 5}), ["segment"], 2),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"fact_judge": {"prompt_template": 5}}}
            ),
            ["segment"],
            2,
        ),
        (
            lambda ep, tmp: write_config(tmp, {"backends": {"fact_judge": {"temprature": 0.5}}}),
            ["segment"],
            2,
        ),
        (lambda ep, tmp: write_config(tmp, {"max_workers": 2.7}), ["segment"], 2),
        (lambda ep, tmp: write_config(tmp, {"context_budget": 4096.0}), ["segment"], 2),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"fact_judge": {"max_output_tokens": 1.9}}}
            ),
            ["segment"],
            2,
        ),
    ],
    ids=[
        "visual-not-json", "transcript-not-utf8", "missing-template", "fixture-not-json",
        "fixture-extractions-not-object", "fixture-verdicts-not-object",
        "fixture-extraction-not-list", "fixture-extraction-not-strings",
        "fixture-verdict-not-bool", "skip-reorder-string", "uniform-chunks-int",
        "missing-lexicon", "context-budget-not-int", "max-workers-not-int",
        "max-workers-zero", "max-workers-negative", "rate-limit-negative",
        "max-output-tokens-not-int", "config-not-utf8", "missing-summary-file",
        "cache-dir-not-string", "lexicon-not-string", "fixture-path-not-string",
        "template-path-not-string", "unknown-role-key", "max-workers-fraction",
        "context-budget-float", "max-output-tokens-fraction",
    ],
)
def test_unreadable_inputs_exit_with_their_code(
    capsys, monkeypatch, tmp_path, episode_dir, prepare, command, expected
):
    monkeypatch.chdir(tmp_path)  # where the relative --summary-file is missing
    args = prepare(episode_dir, tmp_path)
    code, out, err = run(
        capsys, *args, "--mock", "--episode", episode_dir, "--out", tmp_path / "out", *command
    )
    assert code == expected, err
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("config error: " if expected == 2 else "data error: ")


def test_mocks_follow_custom_prompt_templates(capsys, tmp_path, episode_dir):
    # other wording, markers in another order, a colon in the first line
    templates = {
        "dialogue_summarizer": "Dialogue: recap it.\n{scene}\nRecap:",
        "fact_judge": "Claim: {fact}\nSource: {reference}\nVerdict:",
    }
    for role, template in templates.items():
        (tmp_path / f"{role}.txt").write_text(template, encoding="utf-8")
    config = write_config(
        tmp_path, {"backends": {role: {"prompt_template": f"{role}.txt"} for role in templates}}
    )
    shipped = ("--mock", "--episode", episode_dir, "--out", tmp_path / "shipped")
    custom = (*config, "--mock", "--episode", episode_dir, "--out", tmp_path / "custom")
    for command in ("summarize", "evaluate"):
        code, expected, err = run(capsys, *shipped, command)
        assert code == 0, err
        code, out, err = run(capsys, *custom, command)
        assert code == 0, err
        assert out == expected
