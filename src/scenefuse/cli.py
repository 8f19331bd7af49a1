"""Command-line surface.

Subcommands: segment, align, reorder, captions clean, summarize,
evaluate, stats scene-split, stats welch. The first four are views over
the pipeline's stage table: each computes its stages in a Run without
persistence, under the --config that summarize would use, and prints
what summarize writes to the stage's file (align prints the alignment
and the spans file in one object). summarize persists its stages under
--out and prints the summary; evaluate persists prefs and prints it.
Exit codes: 0 success, 2 config error, 3 backend error, 4 data error.
The stats commands import their NumPy module when they run, so the
other commands start without it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import BackendError, ConfigError, DataError, read_json, read_text
from .model import Episode, load_episode
from .pipeline import PipelineConfig, Run, config_from_dict, dumps, run_eval, run_pipeline
from .segmentation import optimal_partition

DEFAULT_OUT = "scenefuse-out"


def _print_json(obj) -> None:
    sys.stdout.write(dumps(obj))


def _pipeline_config(args) -> PipelineConfig:
    raw, base = {}, Path.cwd()
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        raw = read_json(path, ConfigError, "config")
        base = path.parent
    return config_from_dict(raw, base, args.out or DEFAULT_OUT, mock=args.mock)


def _episode(args) -> Episode:
    if not args.episode:
        raise ConfigError("--episode <dir> is required for this command")
    return load_episode(args.episode)


def _view(args) -> Run:
    return Run(_episode(args), _pipeline_config(args))


def cmd_segment(args) -> int:
    _print_json(_view(args).dump("segment"))
    return 0


def cmd_align(args) -> int:
    run = _view(args)
    spans = run.dump("spans")  # makes the partition before the alignment, as summarize does
    _print_json({"alignment": run.dump("align"), "spans": spans})
    return 0


def cmd_reorder(args) -> int:
    _print_json(_view(args).dump("reorder"))
    return 0


def cmd_captions_clean(args) -> int:
    run = _view(args)
    if run.episode.precomputed_captions is None:
        raise DataError(f"episode {run.episode.id} has no captions.visual.json")
    _print_json(run.dump("caption"))
    return 0


def cmd_summarize(args) -> int:
    episode = _episode(args)
    config = _pipeline_config(args)
    try:
        artifacts = run_pipeline(episode, config)
    finally:
        config.backends.close()
    print(artifacts.final_summary)
    return 0


def cmd_evaluate(args) -> int:
    episode = _episode(args)
    config = _pipeline_config(args)
    summary = None  # the persisted one
    if args.summary_file:
        summary = read_text(Path(args.summary_file), ConfigError, "--summary-file").strip()
    try:
        report = run_eval(episode, summary, config)
    finally:
        config.backends.close()
    _print_json(report.to_dict())
    return 0


def _predicted_breaks(episode: Episode, method: str, k: int | None) -> list[int]:
    from .stats import uniform_breaks

    transcript = episode.transcript
    m = len(transcript.lines)
    if method == "mdl":
        return list(optimal_partition(transcript).breaks)
    if method == "uniform":
        if not k:
            raise ConfigError("--k is required for --method uniform")
        return uniform_breaks(m, k)
    # uniform-oracle: uniform split with the gold scene count
    return uniform_breaks(m, len(transcript.explicit_breaks) + 1)


def cmd_stats_scene_split(args) -> int:
    from .stats import ari, clustering_accuracy, labels_from_breaks, nmi

    dirs = args.episodes or ([args.episode] if args.episode else [])
    if not dirs:
        raise ConfigError("pass episode directories (positional) or --episode")
    rows = []
    for directory in dirs:
        episode = load_episode(directory)
        transcript = episode.transcript
        if not transcript.explicit_breaks:
            raise DataError(
                f"episode {episode.id} has no [SCENE_BREAK] markers to score against"
            )
        m = len(transcript.lines)
        gold = labels_from_breaks(m, transcript.explicit_breaks)
        pred = labels_from_breaks(m, _predicted_breaks(episode, args.method, args.k))
        rows.append(
            {
                "episode": episode.id,
                "acc": clustering_accuracy(pred, gold),
                "nmi": nmi(pred, gold),
                "ari": ari(pred, gold),
            }
        )
    means = {
        key: sum(r[key] for r in rows) / len(rows) for key in ("acc", "nmi", "ari")
    }
    _print_json({"episodes": rows, "means": means, "method": args.method})
    return 0


def cmd_stats_welch(args) -> int:
    from .stats import SampleStats, welch_df, welch_t

    a = SampleStats(args.mean1, args.std1, args.n1)
    b = SampleStats(args.mean2, args.std2, args.n2)
    _print_json({"t": welch_t(a, b), "df": welch_df(a, b)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenefuse",
        description="Scene-based TV episode summarization and fact-based evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"scenefuse {__version__}")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--episode", help="episode bundle directory")
    parser.add_argument("--out", help=f"artifact output directory (default {DEFAULT_OUT})")
    parser.add_argument(
        "--mock", action="store_true", help="force deterministic mock backends"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="partition the transcript into scenes")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("align", help="align transcript lines to caption cues")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("reorder", help="reorder scenes to group shared casts")
    p.set_defaults(func=cmd_reorder)

    p = sub.add_parser("captions", help="caption utilities")
    captions_sub = p.add_subparsers(dest="captions_command", required=True)
    clean = captions_sub.add_parser(
        "clean", help="filter captions and insert character names"
    )
    clean.set_defaults(func=cmd_captions_clean)

    p = sub.add_parser("summarize", help="run the full pipeline for one episode")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="score a summary against gold summaries")
    p.add_argument("--summary-file", help="summary to score (default: persisted one)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="agreement metrics and significance tests")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)

    split = stats_sub.add_parser(
        "scene-split", help="ACC/NMI/ARI of predicted vs marked scene breaks"
    )
    split.add_argument("episodes", nargs="*", help="episode directories")
    split.add_argument(
        "--method", choices=("mdl", "uniform", "uniform-oracle"), default="mdl"
    )
    split.add_argument("--k", type=int, help="scene count for --method uniform")
    split.set_defaults(func=cmd_stats_scene_split)

    welch = stats_sub.add_parser("welch", help="Welch t statistic from sample stats")
    welch.add_argument("--mean1", type=float, required=True)
    welch.add_argument("--std1", type=float, required=True)
    welch.add_argument("--n1", type=int, default=5)
    welch.add_argument("--mean2", type=float, required=True)
    welch.add_argument("--std2", type=float, required=True)
    welch.add_argument("--n2", type=int, default=5)
    welch.set_defaults(func=cmd_stats_welch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
