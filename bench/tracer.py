"""Spans and counters around the program's public functions.

Instrumentation is installed from outside: each function is replaced in
the module namespace where its caller looks it up (for example
``osnrecon.evaluate.collect_2hop``), and the ``PublicView`` channels are
replaced on the class. Nothing under ``src/`` knows about it.

A span records name, start, end, parent span and the victim id, which
serves as the request id. Calls made hundreds of thousands of times (the
oracle channels and ``shared_edge_count``) keep only a count and a
summed busy time. Both kinds add their duration to the enclosing span's
child time, so a span's self time is its duration minus its children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

CHANNELS = ("are_friends", "mutual_friends", "public_pictures_of", "public_attributes_of")

# (where the caller looks the function up, attribute, metric name); an
# owner written ``module:Class`` is a method replaced on the class.
RUN_SPANS = (
    ("osnrecon.cli", "load_snapshot_file", "model.load_snapshot_file"),
    ("osnrecon.cli", "run_experiment", "evaluate.run_experiment"),
    ("osnrecon.evaluate", "evaluate_victim", "evaluate.evaluate_victim"),
    ("osnrecon.evaluate", "collect_2hop", "twohop.collect_2hop"),
    ("osnrecon.twohop", "recover_friends", "recover.recover_friends"),
    ("osnrecon.evaluate", "build_graph", "twohop.build_graph"),
    ("osnrecon.evaluate", "prune_single_edge", "twohop.prune_single_edge"),
    ("osnrecon.evaluate", "collect_friend_records", "attributes.collect_friend_records"),
    ("osnrecon.attributes", "collect_friend_records", "attributes.collect_friend_records"),
    ("osnrecon.evaluate", "extract_rates", "attributes.extract_rates"),
    ("osnrecon.evaluate", "rank_guesses", "attributes.rank_guesses"),
    ("osnrecon.evaluate", "top_k_accuracy", "attributes.top_k_accuracy"),
    ("osnrecon.evaluate", "top_within_k_accuracy", "attributes.top_within_k_accuracy"),
    ("osnrecon.evaluate", "score_candidates", "scoring.score_candidates"),
    ("osnrecon.evaluate", "classify", "scoring.classify"),
    ("osnrecon.cli", "graph_to_dot", "dotexport.graph_to_dot"),
    ("osnrecon.cli", "write_atomic", "cli.write_atomic"),
    ("osnrecon.model:OsnSnapshot", "validate", "model.validate"),
)
RUN_COUNTED = (
    ("osnrecon.twohop", "shared_edge_count", "twohop.shared_edge_count"),
    ("osnrecon.scoring", "shared_edge_count", "twohop.shared_edge_count"),
) + tuple(("osnrecon.oracle:PublicView", c, f"oracle.{c}") for c in CHANNELS)
GENERATE_SPANS = (
    ("osnrecon.cli", "generate_synthetic", "model.generate_synthetic"),
    ("osnrecon.model:OsnSnapshot", "to_json", "model.to_json"),
    ("osnrecon.cli", "write_atomic", "cli.write_atomic"),
)
# Untraced passes keep only what the end-to-end metrics need.
PROBE_SPANS = (
    ("osnrecon.cli", "load_snapshot_file", "model.load_snapshot_file"),
    ("osnrecon.evaluate", "evaluate_victim", "evaluate.evaluate_victim"),
    ("osnrecon.cli", "write_atomic", "cli.write_atomic"),
)


class BoundaryError(Exception):
    """An instrumented boundary is missing from the program or never ran."""


class Tracer:
    def __init__(self, victims=()):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.by_victim: dict[str, Counter] = defaultdict(Counter)
        self.refused = 0
        self.tally: Counter = Counter()
        self.targets: set[str] = set()
        self._victims = set(victims)
        self._stack: list[dict] = []
        self._victim: str | None = None
        self.expected: set[str] = set()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            previous_victim = tracer._victim
            if name == "evaluate.evaluate_victim":
                tracer._victim = args[1]
            elif name == "cli.write_atomic" and args[0].parent.name in tracer._victims:
                tracer._victim = args[0].parent.name
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                "victim": tracer._victim,
                "child_ns": 0,
            }
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._victim = previous_victim
                if tracer._stack:
                    tracer._stack[-1]["child_ns"] += end - span["start_ns"]
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _counted_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "QueryBudgetExceeded":
                    tracer.refused += 1
                raise
            finally:
                elapsed = time.perf_counter_ns() - start
                tracer.counts[name] += 1
                tracer.busy_ns[name] += elapsed
                tracer.by_victim[tracer._victim][name] += 1
                if tracer._stack:
                    tracer._stack[-1]["child_ns"] += elapsed

        return wrapper

    def _observe(self, name: str, args, result) -> None:
        """Reduce a call's arguments and result to the counts the metrics use."""
        tally = self.tally
        if name == "recover.recover_friends":
            self.targets.add(result.target)
            tally["recover.candidates_checked"] += result.candidates_checked
            tally["recover.friends"] += len(result.friends)
        elif name == "twohop.build_graph":
            tally["twohop.graph_nodes"] += len(result.roles)
            tally["twohop.graph_edges"] += len(result.edges)
        elif name == "twohop.prune_single_edge":
            tally["twohop.pruned_ids"] += len(args[0].roles) - len(result.roles)
        elif name == "scoring.score_candidates":
            tally["scoring.candidates"] += len(result)
        elif name == "cli.write_atomic":
            tally["cli.bytes_written"] += len(args[1].encode("utf-8"))

    # -- installation -----------------------------------------------------

    def install(self, spans=(), counted=()) -> None:
        """Wrap every (owner, attribute, name) entry of the tables."""
        for table, make in ((spans, self._span_wrapper), (counted, self._counted_wrapper)):
            for owner_path, attr, name in table:
                module_name, _, class_name = owner_path.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = owner.__dict__.get(attr)
                if original is None:
                    raise BoundaryError(f"{owner_path}.{attr} no longer exists")
                setattr(owner, attr, make(name, original))
                self.expected.add(name)

    # -- reading ----------------------------------------------------------

    def check_expected(self) -> None:
        seen = {span["name"] for span in self.spans} | set(self.counts)
        missing = sorted(self.expected - seen)
        if missing:
            raise BoundaryError(f"instrumented boundaries never called: {missing}")

    def durations(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float:
        return sum(self.durations(name))

    def self_s(self, name: str) -> float:
        return sum(
            (s["end_ns"] - s["start_ns"] - s["child_ns"]) / 1e9
            for s in self.spans
            if s["name"] == name
        )

    def victim_durations(self) -> dict[str, float]:
        return {
            s["victim"]: (s["end_ns"] - s["start_ns"]) / 1e9
            for s in self.spans
            if s["name"] == "evaluate.evaluate_victim"
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def run_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-module metrics of one traced ``run`` pass."""
    counts, busy, tally = tracer.counts, tracer.busy_ns, tracer.tally
    recover_calls = len(tracer.durations("recover.recover_friends"))
    candidates = tally["recover.candidates_checked"]
    victim_total = tracer.total_s("evaluate.evaluate_victim")
    graph_s = tracer.total_s("twohop.build_graph") + tracer.total_s("twohop.prune_single_edge")
    metrics = {
        "model.load_s": tracer.self_s("model.load_snapshot_file"),
        "model.validate_s": tracer.total_s("model.validate"),
        "oracle.busy_s": sum(busy[f"oracle.{c}"] for c in CHANNELS) / 1e9,
        "oracle.refused": tracer.refused,
        "recover.calls": recover_calls,
        "recover.distinct_targets": len(tracer.targets),
        "recover.repeat_ratio": 1 - len(tracer.targets) / recover_calls if recover_calls else 0.0,
        "recover.candidates_checked": candidates,
        "recover.friend_yield": tally["recover.friends"] / candidates if candidates else 0.0,
        "recover.self_s": tracer.self_s("recover.recover_friends"),
        "twohop.survey_self_s": tracer.self_s("twohop.collect_2hop"),
        "twohop.build_s": tracer.total_s("twohop.build_graph"),
        "twohop.prune_s": tracer.total_s("twohop.prune_single_edge"),
        "twohop.shared_edge_calls": counts["twohop.shared_edge_count"],
        "twohop.graph_nodes": tally["twohop.graph_nodes"],
        "twohop.graph_edges": tally["twohop.graph_edges"],
        "twohop.pruned_ids": tally["twohop.pruned_ids"],
        "twohop.graph_share": graph_s / victim_total if victim_total else 0.0,
        "attributes.records_s": tracer.total_s("attributes.collect_friend_records"),
        "attributes.rates_s": tracer.self_s("attributes.extract_rates"),
        "attributes.rank_s": tracer.total_s("attributes.rank_guesses"),
        "attributes.topk_s": tracer.total_s("attributes.top_k_accuracy")
        + tracer.total_s("attributes.top_within_k_accuracy"),
        "scoring.score_self_s": tracer.self_s("scoring.score_candidates"),
        "scoring.classify_s": tracer.total_s("scoring.classify"),
        "scoring.candidates": tally["scoring.candidates"],
        "evaluate.victim_self_s": tracer.self_s("evaluate.evaluate_victim"),
        "evaluate.report_s": tracer.total_s("evaluate.run_experiment") - victim_total,
        "dotexport.render_s": tracer.total_s("dotexport.graph_to_dot"),
        "cli.write_s": tracer.total_s("cli.write_atomic"),
        "cli.files_written": len(tracer.durations("cli.write_atomic")),
        "cli.bytes_written": tally["cli.bytes_written"],
    }
    for channel in CHANNELS:
        metrics[f"oracle.{channel}.calls"] = counts[f"oracle.{channel}"]
    return metrics
