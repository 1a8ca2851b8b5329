import random
from fractions import Fraction

import pytest

from osnrecon import (
    ConfusionMatrix,
    EvaluationError,
    ExperimentConfig,
    GeneratorConfig,
    PublicView,
    Role,
    Thresholds,
    confusion,
    evaluate_victim,
    generate_synthetic,
    metrics,
    run_experiment,
)
from osnrecon.model import json_text

from helpers import VICTIM, reference_graph


def test_confusion_all_correct():
    matrix = confusion({"a": True, "b": False}, {"a": True, "b": False})
    assert (matrix.tp, matrix.tn, matrix.fp, matrix.fn) == (1, 1, 0, 0)


def test_confusion_matches_hand_count_on_random_verdicts():
    rng = random.Random(5)
    predictions = {f"c{i}": rng.random() < 0.5 for i in range(20)}
    truth = {f"c{i}": rng.random() < 0.5 for i in range(20)}
    matrix = confusion(predictions, truth)
    tp = sum(1 for c in predictions if predictions[c] and truth[c])
    fp = sum(1 for c in predictions if predictions[c] and not truth[c])
    fn = sum(1 for c in predictions if not predictions[c] and truth[c])
    tn = sum(1 for c in predictions if not predictions[c] and not truth[c])
    assert (matrix.tp, matrix.fp, matrix.fn, matrix.tn) == (tp, fp, fn, tn)
    assert matrix.tn + matrix.fp + matrix.fn + matrix.tp == 20


def test_confusion_missing_truth_flag():
    with pytest.raises(EvaluationError, match="'b'"):
        confusion({"a": True, "b": False}, {"a": True})


def test_metrics_perfect():
    m = metrics(ConfusionMatrix(tn=0, fp=0, fn=0, tp=1))
    assert m.precision == m.recall == m.f1 == Fraction(1)


def test_metrics_reported_aggregate():
    m = metrics(ConfusionMatrix(tn=253, fp=118, fn=28, tp=11))
    assert m.precision == Fraction(11, 129)
    assert m.recall == Fraction(11, 39)
    assert abs(float(m.precision) - 0.0853) <= 0.0005
    assert abs(float(m.recall) - 0.2821) <= 0.0005
    assert abs(float(m.f1) - 0.1310) <= 0.0005


def test_metrics_undefined_cells():
    m = metrics(ConfusionMatrix(tn=5, fp=0, fn=0, tp=0))
    assert m.precision is None
    assert m.recall is None
    assert m.f1 is None


def loose_thresholds():
    return Thresholds(best_info=Fraction(0), best_edges=Fraction(0))


def test_evaluate_victim_worked_example(worked_example):
    result = evaluate_victim(worked_example, VICTIM, loose_thresholds())
    assert not result.skipped
    assert len(result.survey.recovered.friends) == 100
    # All four candidates predicted FRIEND at zero thresholds; none are
    # ground-truth friends of the victim.
    assert result.matrix == ConfusionMatrix(tn=0, fp=4, fn=0, tp=0)


def test_each_friend_and_candidate_attributes_charged_once(worked_example, monkeypatch):
    calls = []
    original = PublicView.public_attributes_of

    def counted(self, user_id):
        calls.append(user_id)
        return original(self, user_id)

    monkeypatch.setattr(PublicView, "public_attributes_of", counted)
    result = evaluate_victim(worked_example, VICTIM, loose_thresholds())
    assert len(calls) == len(result.survey.recovered.friends) + len(result.scores)
    assert len(calls) == len(set(calls))
    # Friends first, then the pool, each in id order: this order decides
    # at which query a budget stops a victim.
    assert calls == sorted(result.survey.recovered.friends) + [s.candidate for s in result.scores]


def test_evaluate_victim_unknown(worked_example):
    with pytest.raises(EvaluationError, match="'ghost'"):
        evaluate_victim(worked_example, "ghost", loose_thresholds())


def test_pruned_candidates_excluded_by_default(worked_example_with_single_edge):
    result = evaluate_victim(
        worked_example_with_single_edge, VICTIM, loose_thresholds()
    )
    assert result.pruned_candidates == ["c5"]
    matrix = result.matrix
    assert matrix.tn + matrix.fp + matrix.fn + matrix.tp == 4


def test_pruned_candidates_counted_when_configured(worked_example_with_single_edge):
    config = ExperimentConfig(count_pruned_as_negative=True)
    result = evaluate_victim(
        worked_example_with_single_edge, VICTIM, loose_thresholds(), config
    )
    matrix = result.matrix
    assert matrix.tn + matrix.fp + matrix.fn + matrix.tp == 5
    # c5 is not a ground-truth friend, so it lands in TN.
    assert result.matrix.tn == 1


def experiment_snapshot():
    config = GeneratorConfig(
        n_users=40,
        mean_degree=7.0,
        pictures_per_user=2,
        p_friend=0.9,
        p_stranger=0.05,
        p_picture_public=0.9,
        p_attributes_public=0.7,
    )
    return generate_synthetic(config, seed=99)


def test_run_experiment_structure():
    snap = experiment_snapshot()
    victims = sorted(snap.users)[:4]
    report = run_experiment(snap, victims, loose_thresholds())
    assert len(report["victims"]) == 4
    agg = report["aggregate"]
    assert agg["victims_evaluated"] + agg["victims_skipped"] == 4
    if agg["victims_evaluated"]:
        assert set(agg["confusion_mean"]) == {"tn", "fp", "fn", "tp"}
        assert set(report["attribute_accuracy"]) == {"top1", "top2", "within_top2"}
        # Mean-of-cells times count equals pooled sums, exactly.
        count = agg["victims_evaluated"]
        for cell in ("tn", "fp", "fn", "tp"):
            mean = agg["confusion_mean"][cell]
            assert type(mean) is Fraction
            assert mean * count == getattr(agg["confusion_pooled"], cell)


def test_run_experiment_deterministic():
    snap = experiment_snapshot()
    victims = sorted(snap.users)[:4]
    one = run_experiment(snap, victims, loose_thresholds())
    two = run_experiment(snap, victims, loose_thresholds())
    assert json_text(one) == json_text(two)


def test_run_experiment_skips_victims_without_recovery():
    snap = generate_synthetic(
        GeneratorConfig(n_users=10, mean_degree=2.0, pictures_per_user=0), seed=1
    )
    victims = sorted(snap.users)[:3]
    report = run_experiment(snap, victims, loose_thresholds())
    assert len(report["victims"]) == 3
    assert all(doc["skipped"] for doc in report["victims"])
    assert report["aggregate"]["victims_skipped"] == 3


def test_run_experiment_hands_each_victim_to_on_victim_once():
    snap = experiment_snapshot()
    victims = sorted(snap.users)[:5]
    seen = []

    def on_victim(result, doc):
        seen.append((result.victim, doc))
        return ("marker", result.victim)

    report = run_experiment(
        snap, victims[::-1] + victims[:2], loose_thresholds(), on_victim=on_victim
    )
    assert [victim for victim, _ in seen] == victims
    # The report lists what on_victim returned, in sorted victim order.
    assert report["victims"] == [("marker", victim) for victim in victims]
    plain = run_experiment(snap, victims, loose_thresholds())
    assert [doc for _, doc in seen] == plain["victims"]


@pytest.mark.parametrize("prune", [True, False])
def test_report_counts_the_full_graph(prune):
    # graph.nodes, edges and two_hop count the surveyed graph before
    # single-edge pruning, whether or not the scored pool was pruned.
    snap = experiment_snapshot()
    seen = []
    report = run_experiment(
        snap, sorted(snap.users), loose_thresholds(), ExperimentConfig(prune=prune),
        on_victim=lambda result, doc: seen.append((result.survey, doc)),
    )
    evaluated = [(survey, doc["graph"]) for survey, doc in seen if not doc["skipped"]]
    assert len(evaluated) == report["aggregate"]["victims_evaluated"] > 0
    assert any(graph["pruned_out"] for _, graph in evaluated) == prune
    for survey, graph in evaluated:
        ref = reference_graph(survey)
        assert graph["nodes"] == len(ref.roles)
        assert graph["edges"] == sum(map(len, ref.adj.values())) // 2
        assert graph["two_hop"] == sum(
            role not in (Role.VICTIM, Role.ONE_HOP) for role in ref.roles.values()
        )


@pytest.mark.parametrize("budget", [0, 60, 120, 200, 1000])
def test_budgeted_victim_is_complete_or_skipped(budget):
    snap = experiment_snapshot()
    victims = sorted(snap.users)[:6]
    unbudgeted = run_experiment(snap, victims, loose_thresholds())["victims"]
    budgeted = run_experiment(
        snap, victims, loose_thresholds(), ExperimentConfig(query_budget=budget)
    )["victims"]
    for doc, full in zip(budgeted, unbudgeted, strict=True):
        if doc != full:
            assert doc == {
                "victim": full["victim"],
                "skipped": True,
                "skip_reason": "budget exhausted",
                "queries": budget,
            }


CHANNELS = ("are_friends", "mutual_friends", "public_pictures_of", "public_attributes_of")


def _logged(name):
    original = getattr(PublicView, name)

    def channel(self, *args):
        answer = original(self, *args)
        self.calls.append((name, args, answer))
        return answer

    return channel


@pytest.mark.parametrize(
    "snapshot",
    [
        experiment_snapshot,
        lambda: generate_synthetic(GeneratorConfig(n_users=60, mean_degree=8.0), seed=3),
    ],
)
def test_queries_equal_channel_calls_and_none_repeats(snapshot, monkeypatch):
    views = []

    class LoggingView(PublicView):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = []  # (channel, ids, answer), one per channel call
            views.append(self)

    for name in CHANNELS:
        setattr(LoggingView, name, _logged(name))
    monkeypatch.setattr("osnrecon.evaluate.PublicView", LoggingView)
    snap = snapshot()
    report = run_experiment(snap, sorted(snap.users), loose_thresholds())
    assert any(not doc["skipped"] for doc in report["victims"])
    for view, doc in zip(views, report["victims"], strict=True):
        assert doc["queries"] == len(view.calls)
        # A pair question is the same question in either order.
        questions = [(name, frozenset(ids)) for name, ids, _ in view.calls]
        assert len(set(questions)) == len(questions)
        # Recovery asks are_friends(candidate, target). A mutual-friends
        # answer for a pair with endpoint t names friends of t, so it
        # settles the check of each id in it as a candidate of t.
        settled = set()
        for name, ids, answer in view.calls:
            if name == "mutual_friends":
                settled.update((common, end) for common in answer for end in ids)
            elif name == "are_friends":
                assert ids not in settled
        # Every survey question comes before the first attribute fetch.
        names = [name for name, _, _ in view.calls]
        if "public_attributes_of" in names:
            first = names.index("public_attributes_of")
            assert set(names[first:]) == {"public_attributes_of"}


def test_run_experiment_requires_victims(worked_example):
    with pytest.raises(EvaluationError):
        run_experiment(worked_example, [], loose_thresholds())
