"""Command-line front end: parses arguments, calls the pipeline and renders.

Subcommands: generate, ingest, run, calibrate, export-dot.
All output files are written atomically (temp file + rename) and are
byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import os
import sys
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path

from .dotexport import graph_to_dot
from .evaluate import (
    EvaluationError,
    ExperimentConfig,
    reconstruct,
    run_experiment,
)
from .model import (
    GeneratorConfig,
    Rendered,
    SnapshotError,
    generate_synthetic,
    ingest_edge_list,
    json_text,
    load_snapshot_file,
    read_json,
)
from .oracle import FEATURES, OracleError, PublicView
from .scoring import CalibrationError, CandidateScore, Thresholds, calibrate


class UsageError(Exception):
    pass


def write_atomic(path: Path, text: str) -> None:
    if not path.name:  # "" and "." name no file
        raise UsageError(f"{str(path)!r} names no file")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _cell(value):
    """A CSV cell: a Fraction to six decimals, anything else as it is."""
    # n / d is the division float(value) does, without its two property lookups.
    return f"{value.numerator / value.denominator:.6f}" if type(value) is Fraction else value


# The GeneratorConfig fields with a flag on generate and ingest, in --help order.
# Only generate takes --users and --mean-degree: an edge list fixes ingest's graph.
GENERATOR_FLAGS = ("pictures_per_user", "p_friend", "p_stranger",
                   "p_picture_public", "p_attributes_public", "homophily")


def _generator_config(args) -> GeneratorConfig:
    config = GeneratorConfig.from_dict(read_json(args.config) if args.config else {})
    overrides = {name: getattr(args, name) for name in GENERATOR_FLAGS}
    overrides["n_users"] = getattr(args, "users", None)
    overrides["mean_degree"] = getattr(args, "mean_degree", None)
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _default_out(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("OSNRECON_OUT")
    if env:
        return Path(env)
    return Path("osnrecon-out")


def _write_snapshot(snapshot, out) -> int:
    write_atomic(Path(out), snapshot.to_json())
    print(f"wrote snapshot with {len(snapshot.users)} users to {out}")
    return 0


def cmd_generate(args) -> int:
    snapshot = generate_synthetic(_generator_config(args), seed=args.seed)
    return _write_snapshot(snapshot, args.out)


def cmd_ingest(args) -> int:
    with open(args.edges, encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{args.edges}: not UTF-8 text ({exc})") from exc
    attribute_rows = read_json(args.attrs) if args.attrs else None
    snapshot = ingest_edge_list(
        lines, _generator_config(args), seed=args.seed, attribute_rows=attribute_rows
    )
    return _write_snapshot(snapshot, args.out)


def _victim_files(result, victim_doc: dict) -> dict[str, str]:
    """A victim's artifacts, file name to text; nothing is written."""
    files = {"report.json": json_text(victim_doc)}
    if result.skipped:
        return files
    files["graph.dot"] = graph_to_dot(result.pruned_graph)
    files["mutuals.json"] = json_text(result.survey.mutuals)
    rate_rows = [
        [feature, label, f"{rate.numerator}/{rate.denominator}", _cell(rate)]
        for feature, table in result.rates.items()
        for label, rate in sorted(table.items())
    ]
    files["rates.csv"] = _csv_text(["feature", "label", "rate_exact", "rate"], rate_rows)
    files["friends.csv"] = _csv_text(
        ["source", *FEATURES],
        [
            [friend, *(attrs.get(f, "") for f in FEATURES)]
            for friend, attrs in result.friend_records.items()
        ],
    )
    columns = [f.name for f in fields(CandidateScore)]
    files["scores.csv"] = _csv_text(
        columns, [[_cell(getattr(s, name)) for name in columns] for s in result.scores]
    )
    return files


def cmd_run(args) -> int:
    # An id names the directory of its victim's artifacts: exactly one
    # directory inside the output directory, and not the aggregate's path.
    for victim in args.victim:
        if "/" in victim or victim in ("", ".", "..", "aggregate.json", "aggregate.json.tmp"):
            raise UsageError(f"victim id {victim!r} cannot name an output directory")
    snapshot = load_snapshot_file(args.snapshot)
    # str() gives back the decimal as typed (1e-07 -> 1/10000000), not the
    # exact binary value of the float.
    thresholds = Thresholds(
        best_info=Fraction(str(args.best_info)), best_edges=Fraction(str(args.best_edges))
    )
    config = ExperimentConfig(
        prune=not args.no_prune,
        count_pruned_as_negative=args.count_pruned_as_negative,
        query_budget=args.budget,
    )
    out_dir = _default_out(args)
    # Victims are rendered as they finish and written only once all are
    # done, so a run that fails part-way writes nothing.
    files: dict[Path, str] = {}

    def render(result, victim_doc: dict) -> Rendered:
        victim_files = _victim_files(result, victim_doc)
        victim_dir = out_dir / result.victim
        for name, text in victim_files.items():
            files[victim_dir / name] = text
        # aggregate.json lists the victim's report.json text, not a second rendering
        return Rendered(victim_files["report.json"])

    report = run_experiment(snapshot, args.victim, thresholds, config, on_victim=render)
    for path, text in files.items():
        write_atomic(path, text)
    write_atomic(out_dir / "aggregate.json", json_text(report))
    print(f"wrote report for {len(report['victims'])} victim(s) to {out_dir}")
    return 0


def cmd_calibrate(args) -> int:
    snapshot = load_snapshot_file(args.snapshot)
    config = ExperimentConfig(prune=not args.no_prune, query_budget=args.budget)
    placeholder = Thresholds(best_info=Fraction(0), best_edges=Fraction(0))
    labeled = []

    def label(result, victim_doc: dict) -> None:
        labeled.extend((score, result.truth[score.candidate]) for score in result.scores)

    run_experiment(snapshot, args.victim, placeholder, config, on_victim=label)
    thresholds = calibrate(labeled)
    text = json_text({**asdict(thresholds), "labeled_candidates": len(labeled)})
    if args.out:
        write_atomic(Path(args.out), text)
    print(text, end="")
    return 0


def cmd_export_dot(args) -> int:
    snapshot = load_snapshot_file(args.snapshot)
    oracle = PublicView(snapshot, budget=args.budget)
    _, _, kept = reconstruct(snapshot, args.victim, oracle, prune=not args.no_prune)
    text = graph_to_dot(kept)
    if args.out:
        write_atomic(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osnrecon",
        description=(
            "Reconstruct friendship graphs and infer hidden profile attributes "
            "from public activity in a simulated social network."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    builder = argparse.ArgumentParser(add_help=False)  # shared by generate and ingest
    builder.add_argument("--config", help="JSON file with generator options")
    for name in GENERATOR_FLAGS:
        kind = type(getattr(GeneratorConfig, name))  # the type of the default
        builder.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)
    builder.add_argument("--seed", type=int, required=True)
    builder.add_argument("--out", required=True)
    attack = argparse.ArgumentParser(add_help=False)  # shared by run, calibrate, export-dot
    attack.add_argument("--snapshot", required=True)
    attack.add_argument("--no-prune", action="store_true")
    attack.add_argument("--budget", type=int)
    attack.add_argument("--out")

    p = sub.add_parser("generate", parents=[builder], help="generate a synthetic snapshot")
    p.add_argument("--users", type=int)
    p.add_argument("--mean-degree", type=float)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", parents=[builder], help="build a snapshot from an edge list")
    p.add_argument("--edges", required=True, help="whitespace-separated pairs, one per line")
    p.add_argument("--attrs", help="JSON array of {id, feature, value}")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", parents=[attack], help="run the full pipeline on victims")
    p.add_argument("--victim", action="append", required=True)
    p.add_argument("--best-info", type=float, default=0.0, dest="best_info")
    p.add_argument("--best-edges", type=float, default=0.0, dest="best_edges")
    p.add_argument("--count-pruned-as-negative", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "calibrate", parents=[attack], help="grid-search thresholds against ground truth"
    )
    p.add_argument("--victim", action="append", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "export-dot", parents=[attack], help="export a victim's 2-hop graph as DOT"
    )
    p.add_argument("--victim", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def _check_ranges(args) -> None:
    """Reject out-of-range thresholds and budgets before any work starts."""
    for flag in ("best_info", "best_edges"):
        value = getattr(args, flag, None)
        if value is not None and not 0 <= value <= 1:
            raise UsageError(f"--{flag.replace('_', '-')} {value} outside [0, 1]")
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 0:
        raise UsageError(f"--budget {budget} is negative")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Every command builds trees only (snapshot, survey, graph, rendered
    # text), so reference counting frees all of it and the cyclic collector
    # would only walk the live objects. The caller's setting comes back.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _check_ranges(args)
        return args.func(args)
    except (
        UsageError, SnapshotError, OracleError, EvaluationError, CalibrationError, OSError
    ) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
