import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osnrecon import (
    FEATURES,
    FRIEND,
    NOT_FRIEND,
    CalibrationError,
    CandidateScore,
    FriendshipGraph,
    PublicView,
    Role,
    Thresholds,
    build_graph,
    calibrate,
    classify,
    collect_2hop,
    collect_friend_records,
    extract_rates,
    prune_single_edge,
    rank_guesses,
    recover_friends,
    score_candidates,
    two_hop_nodes,
)

from helpers import (
    VICTIM,
    brute_rankings,
    brute_rates,
    brute_scores,
    rates_from_percentages,
)


def table_rates():
    return rates_from_percentages(
        education={"padua": 0.40, "venice": 0.10},
        hometown={"padua": 0.13, "rome": 0.11, "venice": 0.03},
        current_city={"padua": 0.27, "bologna": 0.09, "paris": 0.04, "madrid": 0.02},
    )


def pool_graph(shared_counts: list[int]) -> FriendshipGraph:
    """A victim ``v`` with friends ``f0``, ``f1``, ... and candidates
    ``c00``, ``c01``, ..., each adjacent to its first ``shared_counts[i]``
    friends."""
    friends = [f"f{i}" for i in range(max(shared_counts, default=0))]
    roles = {"v": Role.VICTIM, **dict.fromkeys(friends, Role.ONE_HOP)}
    adj = {"v": set(friends), **{f: {"v"} for f in friends}}
    for i, shared in enumerate(shared_counts):
        candidate = f"c{i:02d}"
        roles[candidate] = Role.TWO_HOP_SINGLE_EDGE if shared == 1 else Role.TWO_HOP_RELEVANT
        adj[candidate] = set(friends[:shared])
        for friend in friends[:shared]:
            adj[friend].add(candidate)
    return FriendshipGraph(roles=roles, adj=adj, one_hop=frozenset(friends))


def info_of(attrs):
    """The information score of one candidate showing ``attrs``."""
    [score] = score_candidates(pool_graph([2]), table_rates(), {"c00": attrs})
    return score.info_score


def test_info_score_all_three_match():
    attrs = {"education": "padua", "hometown": "padua", "current_city": "padua"}
    score = info_of(attrs)
    assert score == Fraction(80, 300)
    assert abs(float(score) - 0.266) <= 0.001


def test_info_score_single_match():
    attrs = {"hometown": "venice"}
    assert info_of(attrs) == Fraction(3, 300)


def test_info_score_value_missing_from_tables():
    attrs = {"education": "venice", "current_city": "venice"}
    # current_city "venice" is not in the rates; only education counts.
    assert info_of(attrs) == Fraction(10, 300)


def test_info_score_private_candidate_is_zero():
    assert info_of({}) == Fraction(0)


def as_fields(value):
    """Every field of a score as (type, value), so 1 and Fraction(1) differ."""
    return [(type(getattr(value, f.name)), getattr(value, f.name)) for f in fields(value)]


def typed(table):
    """feature -> [(label, type of rate, rate)] in order, from a rate table
    or a ranking."""
    return {
        feature: [(label, type(rate), rate) for label, rate in dict(pairs).items()]
        for feature, pairs in table.items()
    }


LABELS = st.sampled_from(["padua", "rome", "venice", "milan"])
# A friend's visible attributes: any subset of FEATURES; {} is private.
ATTRS = st.dictionaries(st.sampled_from(FEATURES), LABELS)
RATE = st.fractions(0, 1, max_denominator=12)
THRESHOLD = st.sampled_from([Fraction(0), Fraction(1)]) | RATE


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(ATTRS, min_size=1, max_size=8),
    extra=st.dictionaries(st.sampled_from(FEATURES), st.dictionaries(LABELS, RATE)),
    # Private candidates ({}) and labels the friends never show.
    pool=st.lists(
        st.tuples(st.dictionaries(st.sampled_from(FEATURES), LABELS | st.just("oslo")),
                  st.integers(0, 4)),
        max_size=6,
    ),
    best_info=THRESHOLD,
    best_edges=THRESHOLD,
    use_extra=st.booleans(),
)
# Six friends, counts 2 and 3: the rates 1/3 and 1/2 share the factor 6.
@example(
    records=[{"hometown": "rome"}] * 2 + [{"hometown": "padua"}] * 3 + [{}],
    extra={}, pool=[({"hometown": "rome"}, 2), ({"hometown": "padua"}, 3)],
    best_info=Fraction(0), best_edges=Fraction(1), use_extra=False,
)
@example(records=[{}], extra={}, pool=[], best_info=Fraction(1), best_edges=Fraction(1),
         use_extra=False)
def test_integer_kernel_equals_fraction_formulas(
    records, extra, pool, best_info, best_edges, use_extra
):
    records = {f"f{i}": attrs for i, attrs in enumerate(records)}
    extracted = extract_rates(records)
    assert typed(extracted) == typed(brute_rates(records))
    # Or rate tables with unrelated denominators, some empty.
    rates = {f: extra.get(f, {}) for f in FEATURES} if use_extra else extracted
    assert typed(rank_guesses(rates)) == typed(brute_rankings(rates))
    graph = pool_graph([shared for _, shared in pool])
    by_node = {f"c{i:02d}": entry for i, entry in enumerate(pool)}
    thresholds = Thresholds(best_info, best_edges)
    scored = score_candidates(graph, rates, {c: attrs for c, (attrs, _) in by_node.items()})
    assert [as_fields(s) for s in scored] == [
        as_fields(s) for s in brute_scores(by_node, rates)
    ]
    assert [as_fields(s) for s in classify(scored, thresholds)] == [
        as_fields(s) for s in brute_scores(by_node, rates, thresholds)
    ]


def full_pipeline_scores(snapshot):
    view = PublicView(snapshot)
    found = recover_friends(VICTIM, view)
    graph = prune_single_edge(build_graph(collect_2hop(VICTIM, view)))
    rates = extract_rates(collect_friend_records(found.friends, view))
    return score_candidates(graph, rates, collect_friend_records(two_hop_nodes(graph), view))


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


@pytest.mark.parametrize(
    "best_info, best_edges",
    [(Fraction(-1, 10), Fraction(0)), (Fraction(0), Fraction(11, 10))],
)
def test_thresholds_outside_unit_interval_rejected(best_info, best_edges):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        Thresholds(best_info, best_edges)


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
