import itertools
import json
import threading

import pytest

from osnrecon import (
    GeneratorConfig,
    PublicView,
    QueryBudgetExceeded,
    generate_synthetic,
    load_snapshot,
)
from osnrecon import model, oracle
from osnrecon.oracle import IdenticalIdsError, UnknownUserError

from helpers import brute_mutual_friends


def two_user_snapshot():
    return load_snapshot(
        {
            "users": [
                {"id": "a", "friends": ["b"], "hometown": "rome"},
                {
                    "id": "b",
                    "friends": ["a"],
                    "privacy": {"friends_list_public": False, "attributes_public": False},
                },
                {"id": "c", "friends": []},
            ],
            "pictures": [
                {"id": "p1", "owner": "a", "public": True, "likers": ["b"], "commenters": []},
                {"id": "p2", "owner": "a", "public": False, "likers": ["c"], "commenters": []},
            ],
        }
    )


def test_are_friends_basic():
    view = PublicView(two_user_snapshot())
    assert view.are_friends("a", "b") is True
    assert view.are_friends("a", "c") is False


def test_friendship_leaks_despite_private_list():
    # b hides its friends list; the pairwise check still answers.
    view = PublicView(two_user_snapshot())
    assert view.are_friends("b", "a") is True


def test_identical_ids_rejected():
    view = PublicView(two_user_snapshot())
    with pytest.raises(IdenticalIdsError):
        view.are_friends("a", "a")


def test_unknown_id_rejected():
    view = PublicView(two_user_snapshot())
    with pytest.raises(UnknownUserError):
        view.mutual_friends("a", "ghost")


def test_public_pictures_only():
    view = PublicView(two_user_snapshot())
    pictures = view.public_pictures_of("a")
    assert [p.id for p in pictures] == ["p1"]
    assert pictures[0].likers == ("b",)


def test_pictures_listed_out_of_id_order_come_back_in_id_order():
    def pic(pid, owner, public=True):
        return {"id": pid, "owner": owner, "public": public, "likers": [], "commenters": []}

    snap = load_snapshot(
        {
            "users": [{"id": "a", "friends": []}, {"id": "b", "friends": []}],
            "pictures": [
                pic("p10", "a"), pic("p15", "b"), pic("p3", "a", public=False),
                pic("p2", "a"), pic("p1", "a"),
            ],
        }
    )
    view = PublicView(snap)
    assert [p.id for p in view.public_pictures_of("a")] == ["p1", "p10", "p2"]
    listed = [p["id"] for p in json.loads(snap.to_json())["pictures"]]
    assert listed == ["p1", "p10", "p15", "p2", "p3"]


def test_attributes_respect_privacy():
    view = PublicView(two_user_snapshot())
    assert view.public_attributes_of("b") is None
    attrs = view.public_attributes_of("a")
    assert attrs == {"hometown": "rome"}


def test_public_attributes_are_a_copy():
    snap = two_user_snapshot()
    view = PublicView(snap)
    attrs = view.public_attributes_of("a")
    attrs["hometown"] = "paris"
    attrs["education"] = "milan"
    assert snap.users["a"].attributes == {"hometown": "rome"}
    assert view.public_attributes_of("a") == {"hometown": "rome"}


def test_only_features_are_public():
    snap = load_snapshot(
        {"users": [{"id": "a", "friends": [], "education": "padua", "high_school": "rome"}]}
    )
    assert snap.users["a"].attributes == {"education": "padua"}
    assert PublicView(snap).public_attributes_of("a") == {"education": "padua"}
    assert set(model.ATTRIBUTES) == set(oracle.FEATURES)


def test_exhaustive_pairwise_adjacency():
    snap = generate_synthetic(GeneratorConfig(n_users=10, mean_degree=3.0), seed=5)
    view = PublicView(snap)
    for a, b in itertools.permutations(sorted(snap.users), 2):
        assert view.are_friends(a, b) == (b in snap.users[a].friends)


def test_mutual_friends_matches_brute_force():
    snap = generate_synthetic(GeneratorConfig(n_users=30, mean_degree=6.0), seed=2)
    view = PublicView(snap)
    ids = sorted(snap.users)
    for a, b in itertools.combinations(ids, 2):
        expected = brute_mutual_friends(snap, a, b)
        got = view.mutual_friends(a, b)
        assert got == expected
        assert view.mutual_friends(b, a) == got
        assert a not in got and b not in got


def test_query_counter_counts_every_call():
    view = PublicView(two_user_snapshot())
    view.are_friends("a", "b")
    view.mutual_friends("a", "b")
    view.public_pictures_of("a")
    view.public_attributes_of("b")
    assert view.query_count == 4


def test_failed_precondition_does_not_charge():
    view = PublicView(two_user_snapshot())
    with pytest.raises(UnknownUserError):
        view.are_friends("a", "ghost")
    assert view.query_count == 0


def test_budget_exhaustion():
    view = PublicView(two_user_snapshot(), budget=2)
    view.are_friends("a", "b")
    view.are_friends("a", "c")
    with pytest.raises(QueryBudgetExceeded):
        view.are_friends("b", "c")
    assert view.query_count == 2


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="budget must be non-negative"):
        PublicView(two_user_snapshot(), budget=-1)


def test_counter_is_atomic_under_threads():
    snap = generate_synthetic(GeneratorConfig(n_users=10, mean_degree=3.0), seed=1)
    view = PublicView(snap)
    ids = sorted(snap.users)

    def worker():
        for _ in range(200):
            view.are_friends(ids[0], ids[1])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert view.query_count == 8 * 200


# Each channel and the arguments of one call it answers on two_user_snapshot.
CHANNEL_ARGS = {
    "are_friends": ("a", "b"),
    "mutual_friends": ("a", "b"),
    "public_pictures_of": ("a",),
    "public_attributes_of": ("a",),
}
PAIR_REFUSALS = [
    (("ghost", "ghost"), IdenticalIdsError, None),
    (("a", "a"), IdenticalIdsError, None),
    (("ghost1", "ghost2"), UnknownUserError, "ghost1"),
    (("a", "ghost"), UnknownUserError, "ghost"),
    (("ghost", "a"), UnknownUserError, "ghost"),
]
REFUSALS = [
    pytest.param(channel, args, error, user_id, id=f"{channel}-{'-'.join(args)}")
    for channel, answered in CHANNEL_ARGS.items()
    for args, error, user_id in (
        PAIR_REFUSALS if len(answered) == 2 else [(("ghost",), UnknownUserError, "ghost")]
    )
]


@pytest.mark.parametrize("budget", [1, 0])
@pytest.mark.parametrize("channel, args, error, user_id", REFUSALS)
def test_pair_channel_errors_charge_nothing(channel, args, error, user_id, budget):
    # An identical or unknown id is refused before the budget is looked at.
    view = PublicView(two_user_snapshot(), budget=budget)
    call = getattr(view, channel)
    with pytest.raises(error) as raised:
        call(*args)
    if user_id is not None:
        assert raised.value.user_id == user_id
    assert view.query_count == 0
    if budget:
        call(*CHANNEL_ARGS[channel])  # the one budgeted query is still there
    else:
        with pytest.raises(QueryBudgetExceeded):
            call(*CHANNEL_ARGS[channel])
    assert view.query_count == budget


@pytest.mark.parametrize("channel", CHANNEL_ARGS)
def test_pair_channel_past_budget(channel):
    view = PublicView(two_user_snapshot(), budget=2)
    call = getattr(view, channel)
    arity = len(CHANNEL_ARGS[channel])
    call(*("a", "b")[:arity])
    call(*("b", "c")[:arity])
    with pytest.raises(QueryBudgetExceeded) as raised:
        call(*("c", "a")[:arity])
    # The benchmark tracer counts refusals by this type name.
    assert type(raised.value).__name__ == "QueryBudgetExceeded"
    assert str(raised.value) == "query budget of 2 exhausted"
    assert view.query_count == 2


def test_mutual_friends_returns_frozenset():
    view = PublicView(two_user_snapshot())
    assert type(view.mutual_friends("a", "b")) is frozenset
    assert type(view.mutual_friends("b", "c")) is frozenset
