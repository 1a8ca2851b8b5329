"""Record paired benchmark runs of the working tree against a git revision.

Usage (from the repository root):

    python3 perf/record.py --label NAME --parent REV --seeds 101 102 103

For each seed and each workload in ``BENCHMARK.json``, this runs
``bench/run.py --trace 0`` once on the working tree and once on ``REV``,
taking turns at running first. Both sides run from a fresh copy in a
temporary directory outside the repository, so they differ only in their
files: ``REV`` is exported with ``git archive``, and the change is a copy
of the files that ``git ls-files --cached --others --exclude-standard``
names, as they are in the working tree. Each side runs the benchmark from
its own copy, and the repository's git state is left as it was. The
result is written to ``BENCH_<NAME>.json`` at the
repository root: per workload and end-to-end metric, each side's median
and quartiles over the seeds and the number of pairs the working tree
won, followed by every run. The exit code is 0 only when every run
printed ``"correct": true``.

With ``--compare BENCH_<old>.json`` it then prints, per workload and
metric, the change's median in the old file and in the new one, and the
difference in percent of the old median. That comparison is cross-run,
not paired: the old file's runs used other seeds, at another time, so
machine drift shows in it as well as code changes.

    python3 perf/record.py --label NAME --parent REV --seeds 101 --compare BENCH_pr20.json

Last it prints, per workload and metric, the inputs of the acceptance
rule for a claimed gain: the pairs the change won out of all pairs, and
whether the change's median lies below, inside or above the parent's
quartiles.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900  # bench/run.py stops its own children well before this


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout


def _export(revision: str, destination: Path) -> None:
    archive = _git("archive", "--format=tar", revision)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(destination, filter="data")


def _copy_working_tree(destination: Path) -> int:
    """Copy the files ``git ls-files --cached --others --exclude-standard``
    names, as they are in the working tree: the tracked files and the
    untracked ones that are not ignored. Returns how many were copied."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    copied = 0
    for name in dict.fromkeys(filter(None, names.decode().split("\0"))):
        source = ROOT / name
        if not source.is_file():  # deleted from the working tree
            continue
        target = destination / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)
        copied += 1
    return copied


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its JSON summary line, or why there is none."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"no result within {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the
    change won (ties count for neither side)."""
    summary = {}
    for metric in declared:
        name = metric["name"]
        pairs = [
            (run["parent"]["metrics"][name], run["change"]["metrics"][name])
            for run in runs
            if "metrics" in run["parent"] and "metrics" in run["change"]
        ]
        if not pairs:
            continue
        parent, change = map(list, zip(*pairs))
        higher = metric["better"] == "higher"
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": _spread(parent),
            "change": _spread(change),
            "change_wins": sum(c > p if higher else c < p for p, c in pairs),
            "pairs": len(pairs),
        }
    return summary


def _compare(old: dict, new: dict) -> list[str]:
    """One line per workload and metric the two records share: the
    change's median in each and the difference in percent."""
    lines = []
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload, {}).get("summary", {})
        for metric, summary in entry["summary"].items():
            if metric not in before:
                continue
            was, now = before[metric]["change"]["median"], summary["change"]["median"]
            percent = f"{(now - was) / was * 100:+.1f}%" if was else "n/a"
            lines.append(f"{workload:<8} {metric:<20} {was:>10.4g} -> {now:<10.4g} "
                         f"{percent:>7} {summary['unit']} ({summary['better']} is better)")
    return lines


def _acceptance(record: dict) -> list[str]:
    """One line per workload and metric: the change's wins out of all
    pairs, and where its median lies against the parent's quartiles."""
    lines = []
    for workload, entry in record["workloads"].items():
        for metric, summary in entry["summary"].items():
            parent, median = summary["parent"], summary["change"]["median"]
            if median < parent["q1"]:
                where = "below"
            elif median > parent["q3"]:
                where = "above"
            else:
                where = "inside"
            lines.append(f"{workload:<8} {metric:<20} won {summary['change_wins']}/"
                         f"{summary['pairs']}, median {median:.4g} {where} the parent's "
                         f"quartiles [{parent['q1']:.4g}, {parent['q3']:.4g}] "
                         f"({summary['better']} is better)")
    return lines


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--compare", type=Path, metavar="BENCH_OLD.json",
                        help="print the change's medians against this earlier file")
    args = parser.parse_args(argv)
    # Read it before the runs, so a bad path fails in seconds, not after them.
    earlier = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None

    parent_sha = _git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    head_sha = _git("rev-parse", "HEAD").decode().strip()
    dirty = bool(_git("status", "--porcelain").strip())
    workloads = [w["name"] for w in declared["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    with tempfile.TemporaryDirectory(prefix="osnrecon-record-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        _export(parent_sha, trees["parent"])
        copied = _copy_working_tree(trees["change"])
        for index, seed in enumerate(args.seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for workload in workloads:
                run: dict = {"seed": seed, "first": order[0]}
                for side in order:
                    start = time.monotonic()
                    run[side] = _bench(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: correct={run[side]['correct']} "
                          f"({time.monotonic() - start:.0f} s)", flush=True)
                runs[workload].append(run)

    record = {
        "command": f"bench/run.py --seconds {args.seconds:g} --trace 0",
        "parent": f"{args.parent} ({parent_sha})",
        "change": (
            f"a copy of the {copied} files `git ls-files --cached --others --exclude-standard`"
            f" names in the working tree at {head_sha}"
            + (", with uncommitted changes" if dirty else "")
        ),
        "seeds": args.seeds,
        "order": "the side that runs first alternates from seed to seed",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "noise": "not controlled",
        "workloads": {
            name: {"summary": _summarize(runs[name], declared["end_to_end"]), "runs": runs[name]}
            for name in workloads
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if earlier is not None:
        print(f"cross-run, not paired (other seeds, another time): change medians "
              f"{args.compare} -> {out.name}")
        print("\n".join(_compare(earlier, record)))
    print("pairs won and the change's median against the parent's quartiles:")
    print("\n".join(_acceptance(record)))
    correct = all(
        run[side]["correct"]
        for name in workloads for run in runs[name] for side in ("parent", "change")
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
