"""Likelihood scoring of retained 2-hop candidates.

A candidate's information score is the sum of its matching rates across
the features in ``oracle.FEATURES`` divided by their number; values
absent from the rate tables (or hidden by privacy) contribute zero. The
candidates' attributes arrive as records from the one collector,
``attributes.collect_friend_records``; this module never queries. The
edge score is the candidate's shared-friend count normalized by the
pool maximum. Scores are computed on integer counts, with every rate
written over one common denominator per victim, and each reported
score is one exact ``Fraction``. The FRIEND / NOT FRIEND verdict
requires both scores to meet calibrated thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .attributes import Rates
from .oracle import FEATURES
from .twohop import FriendshipGraph, shared_edge_count

FRIEND = "FRIEND"
NOT_FRIEND = "NOT_FRIEND"


class CalibrationError(Exception):
    pass


@dataclass(frozen=True)
class Thresholds:
    best_info: Fraction
    best_edges: Fraction

    def __post_init__(self):
        for value in (self.best_info, self.best_edges):
            if not 0 <= value <= 1:
                raise ValueError(f"threshold {value} outside [0, 1]")


@dataclass(frozen=True)
class CandidateScore:
    candidate: str
    info_score: Fraction
    shared_edges: int
    edge_score: Fraction
    combined: Fraction
    verdict: str | None = None


def score_candidates(
    graph: FriendshipGraph, rates: Rates, records: dict[str, dict[str, str]]
) -> list[CandidateScore]:
    """Score each candidate of ``records`` (retained 2-hop node ->
    visible attributes), in order. Edge scores are normalized by the
    pool's maximum shared-edge count; a pool whose maximum is zero
    scores zero edges everywhere. Rates are summed as numerators over
    their least common denominator ``d``.
    """
    counts = {node: shared_edge_count(graph, node) for node in records}
    highest = max(counts.values(), default=0) or 1  # a zero maximum: every count is 0
    d = lcm(*(rate.denominator for table in rates.values() for rate in table.values()))
    numerators = {
        feature: {label: rate.numerator * (d // rate.denominator) for label, rate in table.items()}
        for feature, table in rates.items()
    }
    info_d = len(FEATURES) * d
    scores = []
    for node, attrs in records.items():
        total = sum(numerators[f].get(v, 0) for f, v in attrs.items())
        shared = counts[node]
        scores.append(
            CandidateScore(
                candidate=node,
                info_score=Fraction(total, info_d),
                shared_edges=shared,
                edge_score=Fraction(shared, highest),
                combined=Fraction(total * highest + info_d * shared, 2 * info_d * highest),
            )
        )
    return scores


def classify(scores: list[CandidateScore], thresholds: Thresholds) -> list[CandidateScore]:
    """Attach a verdict: FRIEND iff both scores meet their thresholds."""
    best_info, best_edges = thresholds.best_info, thresholds.best_edges
    return [
        CandidateScore(
            s.candidate, s.info_score, s.shared_edges, s.edge_score, s.combined,
            FRIEND if s.info_score >= best_info and s.edge_score >= best_edges else NOT_FRIEND,
        )
        for s in scores
    ]


def calibrate(labeled: list[tuple[CandidateScore, bool]]) -> Thresholds:
    """Grid-search thresholds maximizing F1 of the two-threshold rule.

    The grid is the set of observed score values (plus zero), which is
    sufficient: between observed values the rule's output is constant.
    Cell counts come from 2-D suffix sums, so the search costs
    O(n + grid area) instead of re-scanning the data per threshold pair.
    Ties prefer higher precision, then higher thresholds.
    """
    if not labeled:
        raise CalibrationError("no labeled scores to calibrate on")
    total_pos = sum(1 for _, is_friend in labeled if is_friend)
    if total_pos == 0:
        raise CalibrationError("calibration data contains no positives")
    info_grid = sorted({Fraction(0)} | {s.info_score for s, _ in labeled})
    edge_grid = sorted({Fraction(0)} | {s.edge_score for s, _ in labeled})
    info_index = {value: i for i, value in enumerate(info_grid)}
    edge_index = {value: j for j, value in enumerate(edge_grid)}

    rows = len(info_grid)
    cols = len(edge_grid)
    pos = [[0] * (cols + 1) for _ in range(rows + 1)]
    neg = [[0] * (cols + 1) for _ in range(rows + 1)]
    for score, is_friend in labeled:
        table = pos if is_friend else neg
        table[info_index[score.info_score]][edge_index[score.edge_score]] += 1
    # In-place suffix sums: cell (i, j) becomes the count of scores with
    # info >= info_grid[i] and edge >= edge_grid[j].
    for table in (pos, neg):
        for i in range(rows - 1, -1, -1):
            for j in range(cols - 1, -1, -1):
                table[i][j] += table[i + 1][j] + table[i][j + 1] - table[i + 1][j + 1]

    best = None
    for i in range(rows):
        for j in range(cols):
            tp = pos[i][j]
            fp = neg[i][j]
            fn = total_pos - tp
            # F1 = 2*tp / (2*tp + fp + fn); zero when tp is zero.
            f1 = Fraction(2 * tp, 2 * tp + fp + fn) if tp else Fraction(0)
            precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
            key = (f1, precision, info_grid[i], edge_grid[j])
            if best is None or key > best:
                best = key
    return Thresholds(best_info=best[2], best_edges=best[3])
