"""Evaluation harness: confusion matrices, precision/recall/F1, and the
end-to-end per-victim experiment against ground truth.

Only this module wires the pipeline stages together and reads the
snapshot's ground truth. Survey, recovery and the one attribute
collector query the oracle; rates, rankings and scoring read only the
records that collector returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable

from .attributes import (
    Ranking,
    Rates,
    collect_friend_records,
    extract_rates,
    rank_guesses,
    top_k_accuracy,
    top_within_k_accuracy,
)
from .model import OsnSnapshot
from .oracle import PublicView, QueryBudgetExceeded
from .scoring import FRIEND, CandidateScore, Thresholds, classify, score_candidates
from .twohop import (
    FriendshipGraph,
    TwoHopSurvey,
    build_graph,
    collect_2hop,
    prune_single_edge,
    two_hop_nodes,
)


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tn: int = 0
    fp: int = 0
    fn: int = 0
    tp: int = 0

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            tn=self.tn + other.tn,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            tp=self.tp + other.tp,
        )


@dataclass(frozen=True)
class Metrics:
    precision: Fraction | None
    recall: Fraction | None
    f1: Fraction | None


def confusion(predictions: dict[str, bool], truth: dict[str, bool]) -> ConfusionMatrix:
    """Count the four cells; every predicted id needs a ground-truth flag."""
    tn = fp = fn = tp = 0
    for candidate, predicted in predictions.items():
        if candidate not in truth:
            raise EvaluationError(f"candidate {candidate!r} has no ground-truth flag")
        actual = truth[candidate]
        if predicted and actual:
            tp += 1
        elif predicted:
            fp += 1
        elif actual:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)


def metrics(matrix: ConfusionMatrix) -> Metrics:
    precision = (
        Fraction(matrix.tp, matrix.tp + matrix.fp) if matrix.tp + matrix.fp else None
    )
    recall = (
        Fraction(matrix.tp, matrix.tp + matrix.fn) if matrix.tp + matrix.fn else None
    )
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return Metrics(precision=precision, recall=recall, f1=f1)


@dataclass(frozen=True)
class ExperimentConfig:
    prune: bool = True
    count_pruned_as_negative: bool = False
    query_budget: int | None = None


@dataclass
class VictimResult:
    victim: str
    skip_reason: str | None = None
    survey: TwoHopSurvey | None = None
    graph: FriendshipGraph | None = None
    pruned_graph: FriendshipGraph | None = None
    friend_records: dict[str, dict[str, str]] = field(default_factory=dict)
    rates: Rates | None = None
    rankings: dict[str, Ranking] = field(default_factory=dict)
    scores: list[CandidateScore] = field(default_factory=list)
    pruned_candidates: list[str] = field(default_factory=list)
    truth: dict[str, bool] = field(default_factory=dict)  # candidate -> is a friend
    matrix: ConfusionMatrix | None = None
    queries: int = 0

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None


def reconstruct(
    snapshot: OsnSnapshot, victim: str, oracle: PublicView, prune: bool
) -> tuple[TwoHopSurvey, FriendshipGraph, FriendshipGraph]:
    """Survey the victim's 2-hop neighbourhood through ``oracle`` and
    build its graph. Returns the survey, the full graph and the graph
    kept for scoring: the full graph less its single-edge 2-hop nodes,
    or the full graph itself when ``prune`` is false."""
    if victim not in snapshot.users:
        raise EvaluationError(f"victim {victim!r} not in snapshot")
    survey = collect_2hop(victim, oracle)
    graph = build_graph(survey)
    return survey, graph, prune_single_edge(graph) if prune else graph


def evaluate_victim(
    snapshot: OsnSnapshot,
    victim: str,
    thresholds: Thresholds,
    config: ExperimentConfig = ExperimentConfig(),
) -> VictimResult:
    """Run the full pipeline for one victim and score it against ground
    truth. A victim that runs out of query budget is skipped whole, so a
    result is either complete or skipped, never truncated."""
    oracle = PublicView(snapshot, budget=config.query_budget)
    try:
        result = _attack(snapshot, victim, oracle, thresholds, config)
    except QueryBudgetExceeded:
        result = VictimResult(victim=victim, skip_reason="budget exhausted")
    result.queries = oracle.query_count
    return result


def _attack(
    snapshot: OsnSnapshot,
    victim: str,
    oracle: PublicView,
    thresholds: Thresholds,
    config: ExperimentConfig,
) -> VictimResult:
    result = VictimResult(victim=victim)
    result.survey, result.graph, result.pruned_graph = reconstruct(
        snapshot, victim, oracle, config.prune
    )
    recovered = result.survey.recovered
    if not recovered.friends:
        result.skip_reason = "no friends recovered"
        return result
    result.pruned_candidates = sorted(result.graph.roles.keys() - result.pruned_graph.roles)

    result.friend_records = collect_friend_records(recovered.friends, oracle)
    result.rates = extract_rates(result.friend_records)
    result.rankings = rank_guesses(result.rates)
    pool = collect_friend_records(two_hop_nodes(result.pruned_graph), oracle)
    scored = score_candidates(result.pruned_graph, result.rates, pool)
    result.scores = classify(scored, thresholds)

    ground_friends = snapshot.users[victim].friends
    predictions = {s.candidate: s.verdict == FRIEND for s in result.scores}
    if config.count_pruned_as_negative:
        for candidate in result.pruned_candidates:
            predictions.setdefault(candidate, False)
    result.truth = {candidate: candidate in ground_friends for candidate in predictions}
    result.matrix = confusion(predictions, result.truth)
    return result


def _victim_doc(result: VictimResult) -> dict:
    doc: dict = {
        "victim": result.victim,
        "skipped": result.skipped,
        "queries": result.queries,
    }
    if result.skipped:
        doc["skip_reason"] = result.skip_reason
        return doc
    assert result.graph is not None and result.rates is not None
    doc.update(
        {
            "recovered_friends": sorted(result.survey.recovered.friends),
            "candidates_checked": result.survey.recovered.candidates_checked,
            "graph": {
                "nodes": len(result.graph.roles),
                "edges": sum(map(len, result.graph.adj.values())) // 2,
                "two_hop": len(two_hop_nodes(result.graph)),
                "pruned_out": result.pruned_candidates,
            },
            "rates": result.rates,
            "rankings": result.rankings,
            "scores": result.scores,
            "confusion": result.matrix,
            "metrics": metrics(result.matrix),
        }
    )
    return doc


def run_experiment(
    snapshot: OsnSnapshot,
    victims: list[str],
    thresholds: Thresholds,
    config: ExperimentConfig = ExperimentConfig(),
    on_victim: Callable[[VictimResult, dict], object] | None = None,
) -> dict:
    """Evaluate each victim in sorted id order and return the report, as
    values for ``model.json_write`` to render.

    Each victim's result is handed to ``on_victim`` with its report entry
    and then dropped. The report lists what ``on_victim`` returns for
    each victim (the entry itself when there is no ``on_victim``); only
    those, the pooled confusion matrix and the attribute rankings carry
    over to the aggregate. A ``model.Rendered`` whose text is read back
    from a file when rendered keeps the entries out of memory. The
    aggregate confusion matrix is reported three ways: exact cell-wise
    means over evaluated victims, the same rounded to integers, and
    pooled sums.
    """
    if not victims:
        raise EvaluationError("no victims given")
    docs: list = []
    pooled = ConfusionMatrix()
    guesses: dict[str, dict[str, Ranking]] = {}
    for victim in sorted(set(victims)):
        result = evaluate_victim(snapshot, victim, thresholds, config)
        doc = _victim_doc(result)
        docs.append(doc if on_victim is None else on_victim(result, doc))
        if not result.skipped:
            pooled = pooled + result.matrix
            guesses[victim] = result.rankings
    del result

    report: dict = {"thresholds": thresholds, "config": config, "victims": docs}
    count = len(guesses)
    if count:
        mean_cells = {
            f.name: Fraction(getattr(pooled, f.name), count) for f in fields(ConfusionMatrix)
        }
        rounded = ConfusionMatrix(
            **{cell: round(value) for cell, value in mean_cells.items()}
        )
        report["aggregate"] = {
            "victims_evaluated": count,
            "victims_skipped": len(docs) - count,
            "confusion_mean": mean_cells,
            "confusion_mean_rounded": rounded,
            "confusion_pooled": pooled,
            "metrics_pooled": metrics(pooled),
            "metrics_mean_rounded": metrics(rounded),
        }

        truth = {victim: snapshot.users[victim].attributes for victim in guesses}
        report["attribute_accuracy"] = {
            "top1": top_k_accuracy(guesses, truth, 1),
            "top2": top_k_accuracy(guesses, truth, 2),
            "within_top2": top_within_k_accuracy(guesses, truth, 2),
        }
    else:
        report["aggregate"] = {
            "victims_evaluated": 0,
            "victims_skipped": len(docs),
        }
    return report
