"""End-to-end benchmark of osnrecon, with an optional traced run.

Usage (from the repository root):

    python3 bench/run.py --workload census --seed 1 --seconds 55 --trace 0

The benchmark builds its seeded input snapshot (untimed), then runs
passes for ``--seconds``, each in a fresh child process (see
``child.py``): ``osnrecon run`` passes over the workload's victims and
``osnrecon generate`` passes, taking turns, for as long as the next
pass of a kind fits. Timed passes take speed checkpoints, and every
time is scaled by the checkpoints next to it (see ``speed.py``). With
``--trace 1`` traced ``run`` passes take turns with them, and the
generate passes are traced instead; the per-module metrics come from
those, and the tracing overhead is the traced wall minus the untraced
wall.

The outputs are checked against the benchmark's ground truth (see
``checks.py``). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every pass ran
and every check passed.

Workload parameters, the layer predictions and the measuring conditions
are in ``spec.json``; metric names and units are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
TIME_LIMIT_S = 170  # every child is stopped before the run exceeds this
THRESHOLD_ARGS = ["--best-info", "0.02", "--best-edges", "0.5"]


class BenchError(Exception):
    pass


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99) with at least 10 of ``n``
    samples beyond it, by the nearest-rank definition."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    raise ValueError(f"{n} samples leave fewer than 10 beyond the median")


def percentile(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered) / 100) - 1]


def _child(request: dict, deadline: float) -> dict:
    request_file = WORK / "request.json"
    result_file = WORK / "result.json"
    request_file.write_text(json.dumps(request), encoding="utf-8")
    result_file.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(request_file), str(result_file)],
            stdout=subprocess.DEVNULL,
            timeout=timeout,
            # A fixed hash seed gives every pass the same set and dict layout.
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{request['mode']} pass exceeded the time limit") from None
    if proc.returncode != 0:
        return {"rc": proc.returncode, "problems": [f"child exited with {proc.returncode}"]}
    return json.loads(result_file.read_text(encoding="utf-8"))


class Bench:
    def __init__(self, args, spec: dict):
        self.args = args
        self.spec = spec
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _pass(self, request: dict, operations: int) -> dict:
        request = {"src": str(ROOT / "src"), "nominal_s": self.spec["reference"]["nominal_s"], **request}
        result = _child(request, self.deadline)
        self.attempted += operations
        if result["rc"] != 0:
            self.failed += operations
        self.problems.extend(result["problems"])
        return result

    def run_pass(self, index: int, trace: bool) -> dict:
        out_dir = WORK / f"out-{index}-{'traced' if trace else 'timed'}"
        argv = ["run", "--snapshot", str(self.snapshot), *THRESHOLD_ARGS, "--out", str(out_dir)]
        for victim in self.network.victims:
            argv += ["--victim", victim]
        result = self._pass(
            {
                "mode": "run",
                "trace": trace,
                "argv": argv,
                "snapshot": str(self.snapshot),
                "setup_repeats": self.spec["workloads"][self.args.workload]["setup_repeats"],
                "victims": self.network.victims,
                "out_dir": str(out_dir),
                "spans_file": str(WORK / f"spans-run-{self.args.workload}-{self.args.seed}.jsonl"),
            },
            operations=len(self.network.victims),
        )
        if result["rc"] == 0:
            if not self.run_digests:
                self.problems.extend(checks.check_run(self.network, out_dir))
                with open(out_dir / "aggregate.json", encoding="utf-8") as handle:
                    queries = [v["queries"] for v in json.load(handle)["victims"]]
                self.queries_per_victim = statistics.fmean(queries)
            self.run_digests.add(checks.tree_digest(out_dir))
            if len(self.run_digests) > 1:
                self.problems.append(f"run pass {out_dir.name} wrote different artifacts")
        # Thousands of files left from earlier passes slow the next writes.
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def generate_pass(self, index: int, trace: bool) -> dict:
        shape = self.spec["generate"]
        out_file = WORK / f"generated-{index}.json"
        result = self._pass(
            {
                "mode": "generate",
                "trace": trace,
                "check": not self.generate_digests,
                "argv": [
                    "generate", "--users", str(shape["users"]),
                    "--mean-degree", str(shape["mean_degree"]),
                    "--seed", str(self.args.seed), "--out", str(out_file),
                ],
                "out_file": str(out_file),
                "users": shape["users"],
                "mean_degree": shape["mean_degree"],
                "spans_file": str(WORK / f"spans-generate-{self.args.workload}-{self.args.seed}.jsonl"),
            },
            operations=1,
        )
        if result["rc"] == 0:
            self.generate_digests.add(hashlib.sha256(out_file.read_bytes()).hexdigest())
            if len(self.generate_digests) > 1:
                self.problems.append(f"generate pass {index} wrote a different snapshot")
        out_file.unlink(missing_ok=True)
        return result

    def measure(self) -> dict:
        shape = inputs.Shape(**self.spec["workloads"][self.args.workload]["shape"])
        self.network = inputs.build(shape, self.args.seed)
        if len(self.network.victims) < shape.min_victims:
            raise BenchError(
                f"seed {self.args.seed} gives {len(self.network.victims)} victims, "
                f"fewer than {shape.min_victims}"
            )
        self.snapshot = WORK / "snapshot.json"
        self.snapshot_bytes = inputs.write_snapshot(self.network, self.snapshot)
        self.run_digests: set[str] = set()
        self.generate_digests: set[str] = set()

        kinds = ("timed", "traced", "generated") if self.args.trace else ("timed", "generated")
        passes = {kind: [] for kind in ("timed", "traced", "generated")}
        took: dict[str, float] = {}
        stop = time.monotonic() + self.args.seconds
        while True:
            # Every kind once; then, taking turns, each pass that still fits.
            fits = [k for k in kinds if k not in took or time.monotonic() + took[k] <= stop]
            if not fits:
                break
            kind = min(fits, key=lambda k: len(passes[k]))
            start = time.monotonic()
            index = len(passes[kind])
            if kind == "generated":
                passes[kind].append(self.generate_pass(index, trace=bool(self.args.trace)))
            else:
                passes[kind].append(self.run_pass(index, trace=kind == "traced"))
            took[kind] = time.monotonic() - start
        timed, traced, generated = passes["timed"], passes["traced"], passes["generated"]
        raw = {"timed": timed, "traced": traced, "generated": generated}
        name = f"passes-{self.args.workload}-{self.args.seed}-trace{self.args.trace}.json"
        (WORK / name).write_text(json.dumps(raw), encoding="utf-8")
        return self._metrics(timed, traced, generated)

    def _metrics(self, timed, traced, generated) -> dict:
        ok_runs = [r for r in timed if r["rc"] == 0]
        ok_gens = [r for r in generated if r["rc"] == 0]
        if not ok_runs or not ok_gens or (self.args.trace and not all(r["rc"] == 0 for r in traced)):
            raise BenchError("no successful pass to measure")
        victims = self.network.victims
        # Every time is scaled by the speed checkpoints next to it (see
        # speed.py), then the median is taken over passes.
        self.reference_s = statistics.median(x for r in ok_runs for x in r["reference_s"])
        per_victim = [
            statistics.median(r["victim_scale"][v] * r["victim_s"][v] for r in ok_runs)
            for v in victims
        ]
        tail = tail_percentile(len(per_victim))
        self.notes = {
            "victim_tail_ms": f"p{tail} of {len(per_victim)} victims",
            "setup_s": f"times scaled to a reference chunk of "
            f"{1000 * self.spec['reference']['nominal_s']:.2f} ms; it took {1000 * self.reference_s:.2f} ms",
        }
        if self.args.trace:
            self.notes["generate_s"] = "from traced passes, not scaled"
        end_to_end = {
            "setup_s": statistics.median(x for r in ok_runs for x in r["setup_scaled_s"]),
            "victims_per_s": statistics.median(len(victims) / r["scaled_run_s"] for r in ok_runs),
            "victim_p50_ms": 1000 * percentile(per_victim, 50),
            "victim_tail_ms": 1000 * percentile(per_victim, tail),
            "queries_per_victim": self.queries_per_victim,
            # Traced generate passes take no checkpoints and stay unscaled.
            "generate_s": statistics.median(r.get("scale", 1.0) * r["wall_s"] for r in ok_gens),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_runs),
        }
        if not self.args.trace:
            return end_to_end
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers.update(
            {
                name: statistics.median(r["layers"][name] for r in ok_gens)
                for name in ok_gens[0]["layers"]
            }
        )
        layers["model.snapshot_bytes"] = self.snapshot_bytes
        layers["evaluate.victims"] = len(victims)
        layers["evaluate.tail_percentile"] = tail
        layers["bench.reference_s"] = self.reference_s
        layers["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced
        ) - statistics.median(r["wall_s"] for r in ok_runs)
        self.end_to_end = end_to_end
        return layers


def _remove_pass_outputs() -> None:
    """Delete artifacts and snapshots; keep the span and pass records."""
    for path in WORK.iterdir():
        if path.name.startswith(("spans-", "passes-")):
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def _print_lines(bench: Bench, metrics: dict, units: dict) -> None:
    print(
        f"osnrecon benchmark: workload={bench.args.workload} seed={bench.args.seed} "
        f"trace={bench.args.trace} python={platform.python_version()} nproc={os.cpu_count()}"
    )
    for name, value in metrics.items():
        note = f"  ({bench.notes[name]})" if name in bench.notes else ""
        print(f"  {name:32} {value:14.6f} {units[name]}{note}")
    ratio = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'failed_ratio':32} {ratio:14.6f} ratio  ({bench.failed} failed / {bench.attempted} attempted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "osnrecon" / "__init__.py").is_file():
        print(f"error: no osnrecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    # A terminated benchmark raises here, so that subprocess.run kills and
    # waits for the running child on its way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    WORK.mkdir(parents=True, exist_ok=True)
    _remove_pass_outputs()
    bench = Bench(args, spec)
    try:
        metrics = bench.measure()
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _remove_pass_outputs()
    if set(metrics) != set(units):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    if args.trace:
        _print_lines(bench, bench.end_to_end, {m["name"]: m["unit"] for m in declared["end_to_end"]})
    _print_lines(bench, metrics, units)
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not bench.problems and bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
