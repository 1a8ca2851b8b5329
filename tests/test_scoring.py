import random
from fractions import Fraction

import pytest

from osnrecon import (
    FRIEND,
    NOT_FRIEND,
    CalibrationError,
    CandidateScore,
    PublicView,
    Thresholds,
    build_graph,
    calibrate,
    classify,
    collect_2hop,
    collect_friend_records,
    extract_rates,
    info_score,
    prune_single_edge,
    recover_friends,
    score_candidates,
)

from helpers import VICTIM, rates_from_percentages


def table_rates():
    return rates_from_percentages(
        education={"padua": 0.40, "venice": 0.10},
        hometown={"padua": 0.13, "rome": 0.11, "venice": 0.03},
        current_city={"padua": 0.27, "bologna": 0.09, "paris": 0.04, "madrid": 0.02},
    )


def test_info_score_all_three_match():
    attrs = {"education": "padua", "hometown": "padua", "current_city": "padua"}
    score = info_score(attrs, table_rates())
    assert score == Fraction(80, 300)
    assert abs(float(score) - 0.266) <= 0.001


def test_info_score_single_match():
    attrs = {"hometown": "venice"}
    assert info_score(attrs, table_rates()) == Fraction(3, 300)


def test_info_score_value_missing_from_tables():
    attrs = {"education": "venice", "current_city": "venice"}
    # current_city "venice" is not in the rates; only education counts.
    assert info_score(attrs, table_rates()) == Fraction(10, 300)


def test_info_score_private_candidate_is_zero():
    assert info_score(None, table_rates()) == Fraction(0)


def full_pipeline_scores(snapshot):
    view = PublicView(snapshot)
    found = recover_friends(VICTIM, view)
    graph = prune_single_edge(build_graph(collect_2hop(VICTIM, view)))
    rates = extract_rates(collect_friend_records(found, view))
    return score_candidates(graph, rates, view)


def test_worked_example_scores(worked_example):
    scores = {s.candidate: s for s in full_pipeline_scores(worked_example)}
    assert set(scores) == {"c1", "c2", "c3", "c4"}
    assert abs(float(scores["c1"].info_score) - 0.266) <= 0.001
    assert abs(float(scores["c3"].info_score) - 0.010) <= 0.001
    assert abs(float(scores["c4"].info_score) - 0.033) <= 0.001
    assert scores["c1"].edge_score == Fraction(8, 10)
    assert scores["c2"].edge_score == Fraction(3, 10)
    assert scores["c3"].edge_score == Fraction(10, 10)
    assert scores["c4"].edge_score == Fraction(2, 10)
    for s in scores.values():
        assert s.combined == (s.info_score + s.edge_score) / 2


def test_single_candidate_self_normalizes(worked_example):
    scores = full_pipeline_scores(worked_example)
    only = [s for s in scores if s.candidate == "c3"]
    # Normalization is within the pool; a pool of one always hits 1.0.
    pool_of_one = [only[0]]
    assert max(s.edge_score for s in pool_of_one) == Fraction(1)


def make_score(candidate, info, edges, edge_score):
    info = Fraction(info).limit_denominator(1000)
    edge_score = Fraction(edge_score).limit_denominator(1000)
    return CandidateScore(
        candidate=candidate,
        info_score=info,
        shared_edges=edges,
        edge_score=edge_score,
        combined=(info + edge_score) / 2,
    )


def test_classify_degenerate_thresholds():
    scores = [make_score("a", 0.2, 2, 0.5), make_score("b", 0.0, 1, 0.1)]
    verdicts = classify(scores, Thresholds(Fraction(0), Fraction(0)))
    assert all(s.verdict == FRIEND for s in verdicts)


def test_classify_requires_both_thresholds():
    score = make_score("a", 0.266, 8, 0.8)
    top = Thresholds(Fraction(1), Fraction(1))
    assert classify([score], top)[0].verdict == NOT_FRIEND
    info_only = Thresholds(Fraction(1, 5), Fraction(9, 10))
    assert classify([score], info_only)[0].verdict == NOT_FRIEND
    both = Thresholds(Fraction(1, 5), Fraction(1, 2))
    assert classify([score], both)[0].verdict == FRIEND


def test_classify_monotone_in_thresholds():
    rng = random.Random(0)
    scores = [
        make_score(f"c{i}", rng.random() / 3, i, rng.random()) for i in range(30)
    ]
    low = Thresholds(Fraction(1, 10), Fraction(1, 4))
    high = Thresholds(Fraction(1, 5), Fraction(1, 2))
    friends_low = {s.candidate for s in classify(scores, low) if s.verdict == FRIEND}
    friends_high = {s.candidate for s in classify(scores, high) if s.verdict == FRIEND}
    assert friends_high <= friends_low


def brute_force_best_f1(labeled):
    """Exhaustive sweep oracle over the observed-value grid."""
    infos = sorted({Fraction(0)} | {s.info_score for s, _ in labeled})
    edges = sorted({Fraction(0)} | {s.edge_score for s, _ in labeled})
    best = Fraction(0)
    for ti in infos:
        for te in edges:
            tp = fp = fn = 0
            for score, flag in labeled:
                hit = score.info_score >= ti and score.edge_score >= te
                if hit and flag:
                    tp += 1
                elif hit:
                    fp += 1
                elif flag:
                    fn += 1
            if tp:
                p = Fraction(tp, tp + fp)
                r = Fraction(tp, tp + fn)
                best = max(best, 2 * p * r / (p + r))
    return best


def rule_f1(labeled, thresholds):
    tp = fp = fn = 0
    for score, flag in labeled:
        hit = (
            score.info_score >= thresholds.best_info
            and score.edge_score >= thresholds.best_edges
        )
        if hit and flag:
            tp += 1
        elif hit:
            fp += 1
        elif flag:
            fn += 1
    if tp == 0:
        return Fraction(0)
    p = Fraction(tp, tp + fp)
    r = Fraction(tp, tp + fn)
    return 2 * p * r / (p + r)


def test_calibrate_perfectly_separable():
    labeled = [
        (make_score("a", 0.3, 5, 0.9), True),
        (make_score("b", 0.25, 4, 0.8), True),
        (make_score("c", 0.05, 1, 0.2), False),
        (make_score("d", 0.01, 1, 0.1), False),
    ]
    thresholds = calibrate(labeled)
    assert rule_f1(labeled, thresholds) == Fraction(1)


def test_calibrate_rejects_all_negative():
    labeled = [(make_score("a", 0.1, 1, 0.5), False)]
    with pytest.raises(CalibrationError):
        calibrate(labeled)


def test_calibrate_rejects_empty():
    with pytest.raises(CalibrationError):
        calibrate([])


def test_calibrate_matches_exhaustive_sweep():
    rng = random.Random(42)
    for trial in range(10):
        labeled = []
        for i in range(rng.randrange(5, 40)):
            flag = rng.random() < 0.3
            info = rng.random() / 3 + (0.1 if flag else 0.0)
            edge = rng.random() * (0.6 if not flag else 1.0)
            labeled.append((make_score(f"c{i}", info, i, min(edge, 1.0)), flag))
        if not any(flag for _, flag in labeled):
            labeled[0] = (labeled[0][0], True)
        thresholds = calibrate(labeled)
        assert rule_f1(labeled, thresholds) == brute_force_best_f1(labeled)
