from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnrecon import (
    GeneratorConfig,
    InferenceError,
    PublicView,
    collect_friend_records,
    extract_rates,
    generate_synthetic,
    load_snapshot,
    rank_guesses,
    recover_friends,
    top_k_accuracy,
    top_within_k_accuracy,
)
from osnrecon.attributes import FEATURES

from helpers import VICTIM, worked_example_snapshot


def snapshot_with_friends(friend_entries):
    users = [{"id": "v", "friends": [e["id"] for e in friend_entries]}]
    for entry in friend_entries:
        users.append({**entry, "friends": ["v"]})
    pictures = [
        {
            "id": "p",
            "owner": "v",
            "public": True,
            "likers": [e["id"] for e in friend_entries],
            "commenters": [],
        }
    ]
    return load_snapshot({"users": users, "pictures": pictures})


def recovered(snapshot, victim="v"):
    return recover_friends(victim, PublicView(snapshot))


def test_uniform_education():
    snap = snapshot_with_friends(
        [{"id": f"f{i}", "education": "padua"} for i in range(4)]
    )
    rates = extract_rates(collect_friend_records(recovered(snap).friends, PublicView(snap)))
    assert rates["education"] == {"padua": Fraction(1)}


def test_private_friends_dilute_rates():
    entries = [
        {"id": "f0", "hometown": "rome"},
        {"id": "f1", "hometown": "rome"},
        {"id": "f2", "privacy": {"attributes_public": False}},
        {"id": "f3", "privacy": {"attributes_public": False}},
    ]
    snap = snapshot_with_friends(entries)
    rates = extract_rates(collect_friend_records(recovered(snap).friends, PublicView(snap)))
    assert rates["hometown"] == {"rome": Fraction(1, 2)}
    assert sum(rates["hometown"].values()) < 1


def test_zero_recovered_friends_is_an_error():
    snap = snapshot_with_friends([{"id": "f0"}])
    with pytest.raises(InferenceError):
        extract_rates(collect_friend_records((), PublicView(snap)))


def test_worked_example_rates(worked_example):
    found = recover_friends(VICTIM, PublicView(worked_example))
    rates = extract_rates(collect_friend_records(found.friends, PublicView(worked_example)))
    assert rates["current_city"] == {
        "padua": Fraction(27, 100),
        "bologna": Fraction(9, 100),
        "paris": Fraction(4, 100),
        "madrid": Fraction(2, 100),
    }
    assert rates["hometown"] == {
        "padua": Fraction(13, 100),
        "rome": Fraction(11, 100),
        "venice": Fraction(3, 100),
    }
    assert rates["education"] == {"padua": Fraction(40, 100), "venice": Fraction(10, 100)}


def test_worked_example_ranking(worked_example):
    found = recover_friends(VICTIM, PublicView(worked_example))
    rates = extract_rates(collect_friend_records(found.friends, PublicView(worked_example)))
    ranking = rank_guesses(rates)
    assert ranking["education"][0][0] == "padua"
    assert ranking["education"][1][0] == "venice"
    assert ranking["current_city"][0][0] == "padua"
    assert ranking["hometown"][0] == ("padua", Fraction(13, 100))


def test_single_value_is_top_one():
    snap = snapshot_with_friends([{"id": "f0", "education": "rome"}])
    records = collect_friend_records(recovered(snap).friends, PublicView(snap))
    ranking = rank_guesses(extract_rates(records))
    assert ranking["education"] == (("rome", Fraction(1)),)
    assert ranking["hometown"] == ()


def test_tie_broken_by_label_order():
    snap = snapshot_with_friends(
        [{"id": "f0", "hometown": "rome"}, {"id": "f1", "hometown": "milan"}]
    )
    for _ in range(3):
        records = collect_friend_records(recovered(snap).friends, PublicView(snap))
        ranking = rank_guesses(extract_rates(records))
        assert [label for label, _ in ranking["hometown"]] == ["milan", "rome"]


def _ranking(labels):
    return tuple((label, Fraction(1, i + 2)) for i, label in enumerate(labels))


def test_top_k_accuracy_hand_enumerated():
    # 4 targets; true education ranked 1st, 1st, 2nd, absent.
    guesses = {
        "v1": {f: _ranking(["padua", "rome"]) for f in FEATURES},
        "v2": {f: _ranking(["padua"]) for f in FEATURES},
        "v3": {f: _ranking(["rome", "padua"]) for f in FEATURES},
        "v4": {f: _ranking(["rome"]) for f in FEATURES},
    }
    truth = {v: {f: "padua" for f in FEATURES} for v in guesses}
    top1 = top_k_accuracy(guesses, truth, 1)
    top2 = top_k_accuracy(guesses, truth, 2)
    within2 = top_within_k_accuracy(guesses, truth, 2)
    for feature in FEATURES:
        assert top1[feature] == Fraction(2, 4)
        assert top2[feature] == Fraction(1, 4)
        assert within2[feature] == Fraction(3, 4)


def test_top_within_k_stops_at_position_k():
    # The true label sits at position k + 1: a hit for k + 1, none for k.
    guesses = {"v1": {f: _ranking(["rome", "milan", "padua"]) for f in FEATURES}}
    truth = {"v1": {f: "padua" for f in FEATURES}}
    for feature in FEATURES:
        assert top_within_k_accuracy(guesses, truth, 2)[feature] == 0
        assert top_within_k_accuracy(guesses, truth, 3)[feature] == 1
        assert top_k_accuracy(guesses, truth, 2)[feature] == 0


def test_top_k_skips_targets_without_truth():
    guesses = {
        "v1": {f: _ranking(["padua"]) for f in FEATURES},
        "v2": {f: _ranking(["rome"]) for f in FEATURES},
    }
    truth = {"v1": {f: "padua" for f in FEATURES}, "v2": {f: None for f in FEATURES}}
    top1 = top_k_accuracy(guesses, truth, 1)
    for feature in FEATURES:
        assert top1[feature] == Fraction(1)


def test_top_k_empty_targets_rejected():
    with pytest.raises(InferenceError):
        top_k_accuracy({}, {}, 1)


def test_top_k_below_one_rejected():
    guesses = {"v1": {f: _ranking(["padua"]) for f in FEATURES}}
    with pytest.raises(ValueError, match="k must be >= 1"):
        top_k_accuracy(guesses, {}, 0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 20))
def test_rate_mass_invariant(seed, n):
    snap = generate_synthetic(
        GeneratorConfig(
            n_users=n, mean_degree=3.0, p_friend=0.9, p_stranger=0.1,
            p_picture_public=1.0,
        ),
        seed,
    )
    victim = sorted(snap.users)[seed % n]
    found = recover_friends(victim, PublicView(snap))
    if not found.friends:
        return
    view = PublicView(snap)
    rates = extract_rates(collect_friend_records(found.friends, view))
    total = len(found.friends)
    for feature in FEATURES:
        table = rates[feature]
        visible = sum(
            1
            for friend in found.friends
            if feature in (view.public_attributes_of(friend) or {})
        )
        assert sum(table.values(), Fraction(0)) == Fraction(visible, total)
        assert all(rate > 0 for rate in table.values())


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 12), data=st.data())
def test_collect_friend_records_matches_brute_force(seed, n, data):
    snap = generate_synthetic(
        GeneratorConfig(n_users=n, mean_degree=3.0, p_attributes_public=0.5), seed
    )
    # Any ids in any order: the recovered friends and the pool alike.
    ids = data.draw(st.lists(st.sampled_from(sorted(snap.users)), unique=True))
    view = PublicView(snap)
    records = collect_friend_records(ids, view)
    assert records == {
        user: profile.attributes if profile.attributes_public else {}
        for user, profile in snap.users.items()
        if user in ids
    }
    assert list(records) == sorted(ids)
    assert view.query_count == len(ids)
