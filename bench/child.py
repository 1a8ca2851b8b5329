"""One pass of the program in a fresh process, so that its peak RSS is its own.

Usage: python3 bench/child.py REQUEST.json RESULT.json

The request names the ``src`` directory to import ``osnrecon`` from, the
``mode`` (``run`` or ``generate``), the CLI arguments and whether to
trace. The pass calls ``osnrecon.cli.main`` in-process and writes its
timings, peak RSS and any problems found to the result file. An
untraced pass also writes its speed checkpoints and the scale each
timing gets from them (see ``speed.py``).
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

from speed import SpeedProbe


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ``VmHWM`` is read instead of ``ru_maxrss``, which can carry over the
    parent's peak when the parent forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _query_problems(tracer, aggregate_path: Path) -> list[str]:
    """Each victim's reported queries must equal its per-channel counts."""
    with open(aggregate_path, encoding="utf-8") as handle:
        docs = json.load(handle)["victims"]
    problems = []
    for doc in docs:
        counts = tracer.by_victim[doc["victim"]]
        channels = sum(n for name, n in counts.items() if name.startswith("oracle."))
        if channels != doc["queries"]:
            problems.append(
                f"{doc['victim']}: queries {doc['queries']} != channel sum {channels}"
            )
    return problems


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    sys.path.insert(0, request["src"])
    import tracer as tr
    import osnrecon.cli
    import osnrecon.evaluate
    from osnrecon.cli import main as cli_main
    from osnrecon.model import load_snapshot_file

    mode, trace = request["mode"], request["trace"]
    tracer = tr.Tracer(victims=request.get("victims", ()))
    # Untraced passes take speed checkpoints (see speed.py); traced ones
    # do not, so that the per-module times hold no chunk time.
    probe = None if trace else SpeedProbe(request["nominal_s"])
    if mode == "run" and trace:
        tracer.install(spans=tr.RUN_SPANS, counted=tr.RUN_COUNTED)
    elif mode == "run":
        tracer.install(spans=tr.PROBE_SPANS)
        probe.wrap(osnrecon.cli, "load_snapshot_file", every_call=True)
        probe.wrap(osnrecon.evaluate, "evaluate_victim", every_call=False)
        probe.wrap(osnrecon.cli, "write_atomic", every_call=False)
    elif trace:
        tracer.install(spans=tr.GENERATE_SPANS)

    if probe:
        probe.checkpoint()
    chunks_before_s = probe.total_s if probe else 0.0
    timer = probe.on_timer() if probe and mode == "generate" else contextlib.nullcontext()
    start_ns = time.perf_counter_ns()
    try:
        with timer:
            rc = cli_main(request["argv"])
    except SystemExit as exc:
        rc = exc.code
    end_ns = time.perf_counter_ns()
    wall_s = (end_ns - start_ns) / 1e9
    result = {"rc": rc, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb(), "problems": []}
    if probe:
        # Chunks run inside the wall are the benchmark's, not the program's.
        result["wall_s"] -= probe.total_s - chunks_before_s
        probe.checkpoint()
        result["reference_s"] = probe.durations
        result["scale"] = probe.scale_over(start_ns, end_ns)
    if rc == 0:
        tracer.check_expected()
        if mode == "run":
            result["setup_s"] = tracer.durations("model.load_snapshot_file")[0]
            result["write_s"] = tracer.total_s("cli.write_atomic")
            result["victim_s"] = tracer.victim_durations()
            if probe:
                # Set-up is timed again after the pass, several times, so
                # that its median holds more than one load per pass.
                for _ in range(request["setup_repeats"]):
                    osnrecon.cli.load_snapshot_file(Path(request["snapshot"]))
                result["setup_scaled_s"] = [
                    probe.scale_near(s["start_ns"], s["end_ns"]) * (s["end_ns"] - s["start_ns"]) / 1e9
                    for s in tracer.spans
                    if s["name"] == "model.load_snapshot_file"
                ]
                victims = [s for s in tracer.spans if s["name"] == "evaluate.evaluate_victim"]
                result["victim_scale"] = {
                    s["victim"]: probe.scale_near(s["start_ns"], s["end_ns"]) for s in victims
                }
                # The rest of the run command (report, rendering) comes after
                # the victims, among the checkpoints of the artifact writes.
                victims_s = sum(result["victim_s"].values())
                rest_s = result["wall_s"] - result["setup_s"] - result["write_s"] - victims_s
                result["scaled_run_s"] = sum(
                    result["victim_scale"][v] * d for v, d in result["victim_s"].items()
                ) + rest_s * probe.scale_over(victims[-1]["end_ns"], end_ns)
            if trace:
                result["layers"] = tr.run_layer_metrics(tracer)
                out_dir = Path(request["out_dir"])
                result["problems"] = _query_problems(tracer, out_dir / "aggregate.json")
        else:
            if request["check"]:
                from checks import check_generated

                result["problems"] = check_generated(
                    Path(request["out_file"]), request["users"], request["mean_degree"],
                    load_snapshot_file,
                )
            if trace:
                result["layers"] = {
                    "model.generate_s": tracer.total_s("model.generate_synthetic"),
                    "model.to_json_s": tracer.total_s("model.to_json"),
                    "model.generate_rss_mb": result["peak_rss_mb"],
                }
        if trace:
            tracer.write_spans(Path(request["spans_file"]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
