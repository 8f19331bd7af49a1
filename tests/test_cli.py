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
from scenefuse import backends
from scenefuse.cli import main
from scenefuse.errors import ConfigError

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


@pytest.mark.parametrize(
    "edit",
    [
        lambda out: (out / "summary.txt").write_text("Another summary.\n", encoding="utf-8"),
        lambda out: (out / "stages.json").unlink(),
    ],
    ids=["replaced-summary", "missing-stages-json"],
)
def test_evaluate_scores_only_the_summary_that_stages_json_records(
    capsys, tmp_path, episode_dir, edit
):
    out_dir = tmp_path / "artifacts"
    code, _, err = run(capsys, "--episode", episode_dir, "--out", out_dir, "summarize")
    assert code == 0, err
    edit(out_dir / "ep1")

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


def test_evaluate_refuses_a_summary_of_a_changed_transcript(capsys, tmp_path, episode_dir):
    out_dir = tmp_path / "artifacts"
    code, _, err = run(capsys, "--mock", "--episode", episode_dir, "--out", out_dir, "summarize")
    assert code == 0, err
    transcript = episode_dir / "transcript.txt"
    lines = transcript.read_text(encoding="utf-8").splitlines(keepends=True)
    transcript.write_text("Brody: Did you see the fountain?\n" + "".join(lines[1:]), encoding="utf-8")

    code, out, err = run(capsys, "--mock", "--episode", episode_dir, "--out", out_dir, "evaluate")
    assert code == 4
    assert out == ""
    assert "rerun summarize" in err
    assert not (out_dir / "ep1" / "prefs.json").exists()


def count_requests(monkeypatch) -> list:
    """The requests the default fact-extractor and fact-judge mocks answer from now on."""
    requests = []
    for role in (backends.FACT_EXTRACTOR, backends.FACT_JUDGE):
        mock = backends._DEFAULT_MOCKS[role]
        monkeypatch.setitem(
            backends._DEFAULT_MOCKS, role, lambda req, mock=mock: requests.append(req) or mock(req)
        )
    return requests


def fixture_episode(tmp_path, prefs_fixture, table: dict) -> list:
    """Global flags that score the fixture's summary under a mock_fixture holding table."""
    bundle = write_episode(tmp_path / "fx", EPISODE_TRANSCRIPT, gold=[prefs_fixture["reference"]])
    (tmp_path / "summary.txt").write_text(prefs_fixture["summary"], encoding="utf-8")
    (tmp_path / "table.json").write_text(json.dumps(table), encoding="utf-8")
    return ["--mock", "--episode", bundle]


def test_a_fixture_never_reads_what_a_default_mock_cached(capsys, tmp_path, prefs_fixture):
    table = {key: prefs_fixture[key] for key in ("extractions", "verdicts")}
    common = fixture_episode(tmp_path, prefs_fixture, table)
    evaluate = ("evaluate", "--summary-file", tmp_path / "summary.txt")
    shared = write_config(tmp_path, {"cache_dir": "cache"})
    run_json(capsys, *shared, *common, "--out", tmp_path / "mock-out", *evaluate)
    with_fixture = write_config(tmp_path, {"cache_dir": "cache", "mock_fixture": "table.json"})
    data = run_json(capsys, *with_fixture, *common, "--out", tmp_path / "fixture-out", *evaluate)
    assert (round(data["fact_precision"], 2), round(data["fact_recall"], 2)) == (49.25, 42.11)


def test_evaluate_under_another_fixture_rescores(capsys, tmp_path, prefs_fixture):
    table_a = {key: prefs_fixture[key] for key in ("extractions", "verdicts")}
    table_b = {**table_a, "verdicts": dict.fromkeys(table_a["verdicts"], True)}
    common = fixture_episode(tmp_path, prefs_fixture, table_a)
    config = write_config(tmp_path, {"cache_dir": "cache", "mock_fixture": "table.json"})
    evaluate = ("evaluate", "--summary-file", tmp_path / "summary.txt")
    first = run_json(capsys, *config, *common, "--out", tmp_path / "out", *evaluate)
    (tmp_path / "table.json").write_text(json.dumps(table_b), encoding="utf-8")
    second = run_json(capsys, *config, *common, "--out", tmp_path / "out", *evaluate)
    fresh = run_json(capsys, *config, *common, "--out", tmp_path / "fresh", *evaluate)
    assert second == fresh != first


@pytest.mark.parametrize("config", [{}, {"cache_dir": "cache"}], ids=["uncached", "cached"])
def test_a_repeat_evaluate_sends_nothing_and_writes_nothing(
    capsys, monkeypatch, tmp_path, episode_dir, config
):
    common = (*write_config(tmp_path, config), "--mock", "--episode", episode_dir, "--out",
              tmp_path / "out")
    code, _, err = run(capsys, *common, "summarize")
    assert code == 0, err
    code, first, err = run(capsys, *common, "evaluate")
    assert code == 0, err
    files = [tmp_path / "out" / "ep1" / name for name in ("prefs.json", "stages.json")]
    before = [(path.stat().st_ino, path.read_bytes()) for path in files]

    requests = count_requests(monkeypatch)
    code, again, err = run(capsys, *common, "evaluate")
    assert code == 0, err
    assert again == first
    assert requests == []
    assert [(path.stat().st_ino, path.read_bytes()) for path in files] == before


def edit_gold(episode_dir, tmp_path):
    (episode_dir / "gold" / "summary0.txt").write_text("Nick owns a boat.", encoding="utf-8")
    return []


def edit_judge_template(episode_dir, tmp_path):
    (tmp_path / "judge.txt").write_text("Claim: {fact}\nSource: {reference}\n", encoding="utf-8")
    return write_config(tmp_path, {"backends": {"fact_judge": {"prompt_template": "judge.txt"}}})


def edit_summary_file(episode_dir, tmp_path):
    (tmp_path / "candidate.txt").write_text("Brooke sails away tonight.\n", encoding="utf-8")
    return []


@pytest.mark.parametrize("change", [edit_gold, edit_judge_template, edit_summary_file])
def test_a_changed_evaluate_input_recomputes_the_report(
    capsys, monkeypatch, tmp_path, episode_dir, change
):
    (tmp_path / "candidate.txt").write_text("Nick owns a boat. Brooke sails away.\n",
                                            encoding="utf-8")
    evaluate = ("--mock", "--episode", episode_dir, "evaluate", "--summary-file",
                tmp_path / "candidate.txt")
    code, first, err = run(capsys, "--out", tmp_path / "out", *evaluate)
    assert code == 0, err
    prefs = tmp_path / "out" / "ep1" / "prefs.json"
    inode = prefs.stat().st_ino

    config = change(episode_dir, tmp_path)
    requests = count_requests(monkeypatch)
    code, again, err = run(capsys, *config, "--out", tmp_path / "out", *evaluate)
    assert code == 0, err
    assert requests
    assert prefs.stat().st_ino != inode
    code, fresh, err = run(capsys, *config, "--out", tmp_path / "fresh", *evaluate)
    assert code == 0, err
    assert again == fresh
    assert prefs.read_bytes() == (tmp_path / "fresh" / "ep1" / "prefs.json").read_bytes()


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


def test_blank_fusion_completion_is_a_backend_error(capsys, monkeypatch, tmp_path, episode_dir):
    monkeypatch.setitem(backends._DEFAULT_MOCKS, backends.FUSION_SUMMARIZER, lambda req: "  \n")
    out_dir = tmp_path / "artifacts"
    code, out, err = run(capsys, "--episode", episode_dir, "--out", out_dir, "summarize")
    assert code == 3
    assert out == ""
    assert err.startswith("backend error: stage fuse: ")
    assert (out_dir / "ep1" / "fusion_input.txt").is_file()
    assert not (out_dir / "ep1" / "summary.txt").exists()


def test_role_cache_directories_appear_on_first_use(capsys, tmp_path, episode_dir):
    config = write_config(tmp_path, {"cache_dir": "cache"})
    common = (*config, "--episode", episode_dir, "--out", tmp_path / "out")
    run_json(capsys, *common, "segment")
    assert not (tmp_path / "cache").exists()
    summary = tmp_path / "candidate.txt"
    summary.write_text("Nick owns a boat. Brooke sails away.\n", encoding="utf-8")
    run_json(capsys, *common, "evaluate", "--summary-file", summary)
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        "fact_extractor", "fact_judge"
    ]


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


def test_an_endpoint_never_reads_what_a_mock_cached(capsys, tmp_path, episode_dir):
    # nothing listens on the discard port, so only a completion served
    # from the shared cache could let the second run succeed
    dead = {"endpoint": "http://127.0.0.1:9/x"}
    roles = {"dialogue_summarizer": dead, "fusion_summarizer": dead}
    config = write_config(tmp_path, {"cache_dir": "cache", "backends": roles})
    common = (*config, "--episode", episode_dir)
    code, out, err = run(capsys, *common, "--out", tmp_path / "mock-out", "--mock", "summarize")
    assert code == 0, err
    assert out.startswith("Episode recap:")
    code, out, err = run(capsys, *common, "--out", tmp_path / "live-out", "summarize")
    assert code == 3, out
    assert out == ""
    assert err.startswith("backend error: stage summarize: ")


def fresh_python(probe: str) -> str:
    """stdout of probe run in a new interpreter, so no other test's imports hide a load."""
    env = dict(os.environ)
    package_root = str(Path(scenefuse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


@pytest.mark.parametrize(
    "name", ["scipy", "requests", "urllib3", "http", "numpy", "concurrent", "logging"]
)
def test_cli_import_loads_no(name):
    probe = (
        "import sys, scenefuse.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {name!r}))"
    )
    assert fresh_python(probe) == "[]"


def test_numpy_loads_only_where_alignment_runs(tmp_path):
    # segmentation, reordering, fusion and scoring are pure Python; only
    # the alignment kernels need NumPy, and they are imported on first use
    plain = "".join(
        line for line in EPISODE_TRANSCRIPT.splitlines(keepends=True)
        if line.strip() != "[SCENE_BREAK]"
    )
    bare = write_episode(tmp_path / "bare", plain, gold=GOLD)
    captioned = write_episode(
        tmp_path / "captioned", EPISODE_TRANSCRIPT, captions=episode_captions()
    )
    out = tmp_path / "out"
    commands = [
        [bare, "segment"], [bare, "reorder"], [bare, "summarize"], [bare, "evaluate"],
        [captioned, "align"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "from scenefuse.cli import main\n"
        f"for episode, command in {[[str(e), c] for e, c in commands]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = main(['--mock', '--episode', episode, '--out', {str(out)!r}, command])\n"
        "    print(command, code, 'numpy' in sys.modules)\n"
    )
    assert fresh_python(probe).splitlines() == [
        "segment 0 False", "reorder 0 False", "summarize 0 False", "evaluate 0 False",
        "align 0 True",
    ]


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


def file_at(name, *args):
    """A plain file where a directory is wanted; ``args`` go before the command."""

    def prepare(episode_dir, tmp_path):
        (tmp_path / name).write_text("a file\n", encoding="utf-8")
        return list(args)

    return prepare


def cache_dir_is_a_file(episode_dir, tmp_path):
    file_at("cache")(episode_dir, tmp_path)
    return write_config(tmp_path, {"cache_dir": "cache"})


def directory_at(*parts, config=None):
    """A directory where a file is wanted, under ``tmp_path``; ``config`` is written first."""

    def prepare(episode_dir, tmp_path):
        tmp_path.joinpath(*parts).mkdir(parents=True)
        return write_config(tmp_path, config) if config else []

    return prepare


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
        (
            lambda ep, tmp: write_config(
                tmp,
                {
                    "backends": {
                        "dialogue_summarizer": {"endpoint": "http://127.0.0.1:9/x", "auth_env": 5}
                    }
                },
            ),
            ["summarize"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"dialogue_summarizer": {"endpoint": 5}}}
            ),
            ["summarize"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"dialogue_summarizer": {"model_name": ["x"]}}}
            ),
            ["summarize"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"fusion_summarizer": {"temperature": float("nan")}}}
            ),
            ["summarize"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"fact_judge": {"rate_limit": float("nan")}}}
            ),
            ["evaluate"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"fact_judge": {"rate_limit": float("inf")}}}
            ),
            ["evaluate"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"dialogue_summarizer": {"max_output_tokens": -5}}}
            ),
            ["summarize"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"dialogue_summarizer": {"max_output_tokens": 0}}}
            ),
            ["summarize"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"dialogue_summarizer": {"endpoint": "not a url"}}}
            ),
            ["summarize"],
            2,
        ),
        (
            lambda ep, tmp: write_config(
                tmp, {"backends": {"dialogue_summarizer": {"endpoint": "ftp://x/y"}}}
            ),
            ["summarize"],
            2,
        ),
        (cache_dir_is_a_file, ["segment"], 2),
        (file_at("out"), ["summarize"], 2),
        (file_at("out"), ["evaluate", "--summary-file", "ep1/transcript.txt"], 2),
        (directory_at("out", "ep1", "partition.json"), ["summarize"], 2),
        (
            directory_at("out", "ep1", "prefs.json"),
            ["evaluate", "--summary-file", "ep1/transcript.txt"],
            2,
        ),
        (
            directory_at(
                "cache", "dialogue_summarizer", "completions.jsonl", config={"cache_dir": "cache"}
            ),
            ["summarize"],
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
        "context-budget-float", "max-output-tokens-fraction", "auth-env-not-string",
        "endpoint-not-string", "model-name-not-string", "temperature-nan", "rate-limit-nan",
        "rate-limit-infinite", "max-output-tokens-negative", "max-output-tokens-zero",
        "endpoint-not-a-url", "endpoint-not-http", "cache-dir-is-a-file", "out-is-a-file",
        "eval-out-is-a-file", "artifact-is-a-directory", "prefs-is-a-directory",
        "completion-log-is-a-directory",
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
    assert not list(tmp_path.rglob("*.tmp.*"))  # no temp file left behind


@pytest.mark.parametrize("rate", [1e-320, 1e-300, 1e-9])
def test_a_rate_limit_too_small_to_wait_for_is_refused(
    capsys, monkeypatch, tmp_path, episode_dir, rate
):
    slept = []
    monkeypatch.setattr(backends.time, "sleep", slept.append)
    config = write_config(tmp_path, {"backends": {"dialogue_summarizer": {"rate_limit": rate}}})
    code, out, err = run(
        capsys, *config, "--mock", "--episode", episode_dir, "--out", tmp_path / "out", "summarize"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: dialogue_summarizer config key 'rate_limit' must be ")
    assert slept == []
    assert not (tmp_path / "out").exists()


def test_the_least_rate_limit_is_one_request_per_max_interval(tmp_path):
    least = 1 / backends.MAX_RATE_INTERVAL_S
    built = backends.build_backends({"backends": {"fact_judge": {"rate_limit": least}}})
    assert built.runtime("fact_judge").client.limiter is not None
    with pytest.raises(ConfigError, match="'rate_limit'"):
        backends.build_backends({"backends": {"fact_judge": {"rate_limit": least * 0.99}}})


def test_evaluate_with_nowhere_to_write_sends_no_request(
    capsys, monkeypatch, tmp_path, episode_dir
):
    requests = []
    for role in (backends.FACT_EXTRACTOR, backends.FACT_JUDGE):
        mock = backends._DEFAULT_MOCKS[role]
        monkeypatch.setitem(
            backends._DEFAULT_MOCKS, role, lambda req, mock=mock: requests.append(req) or mock(req)
        )
    (tmp_path / "out" / "ep1" / "prefs.json").mkdir(parents=True)
    config = write_config(tmp_path, {"cache_dir": "cache"})
    code, out, err = run(
        capsys, *config, "--mock", "--episode", episode_dir, "--out", tmp_path / "out",
        "evaluate", "--summary-file", episode_dir / "transcript.txt",
    )
    assert code == 2, err
    assert out == ""
    assert err.startswith("config error: cannot write ")
    assert requests == []  # no upstream call
    assert not (tmp_path / "cache").exists()  # so no completion log either
    assert not list(tmp_path.rglob("*.tmp.*"))


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
