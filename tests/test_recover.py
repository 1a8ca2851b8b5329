from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from osnrecon import (
    GeneratorConfig,
    PublicView,
    generate_synthetic,
    load_snapshot,
    recover_friends,
)
from osnrecon.oracle import UnknownUserError

from helpers import engaged_users


def test_no_public_pictures_means_no_friends():
    snap = load_snapshot(
        {
            "users": [{"id": "v", "friends": ["f"]}, {"id": "f", "friends": ["v"]}],
            "pictures": [
                {"id": "p", "owner": "v", "public": False, "likers": ["f"], "commenters": []}
            ],
        }
    )
    found = recover_friends("v", PublicView(snap))
    assert found.friends == frozenset()
    assert found.candidates_checked == 0


def test_forced_positive_single_liker():
    snap = load_snapshot(
        {
            "users": [{"id": "v", "friends": ["f"]}, {"id": "f", "friends": ["v"]}],
            "pictures": [
                {"id": "p", "owner": "v", "public": True, "likers": ["f"], "commenters": []}
            ],
        }
    )
    found = recover_friends("v", PublicView(snap))
    assert found.friends == frozenset({"f"})
    assert found.candidates_checked == 1


def test_commenters_count_as_candidates():
    snap = load_snapshot(
        {
            "users": [{"id": "v", "friends": ["f"]}, {"id": "f", "friends": ["v"]}],
            "pictures": [
                {"id": "p", "owner": "v", "public": True, "likers": [], "commenters": ["f"]}
            ],
        }
    )
    assert recover_friends("v", PublicView(snap)).friends == frozenset({"f"})


def test_self_likes_excluded():
    snap = load_snapshot(
        {
            "users": [{"id": "v", "friends": ["f"]}, {"id": "f", "friends": ["v"]}],
            "pictures": [
                {"id": "p", "owner": "v", "public": True, "likers": ["v", "f"], "commenters": []}
            ],
        }
    )
    found = recover_friends("v", PublicView(snap))
    assert "v" not in found.friends
    assert found.candidates_checked == 1


def test_unknown_victim():
    snap = load_snapshot(
        {"users": [{"id": "a", "friends": ["b"]}, {"id": "b", "friends": ["a"]}], "pictures": []}
    )
    with pytest.raises(UnknownUserError):
        recover_friends("ghost", PublicView(snap))


def test_strangers_rejected_on_synthetic_corpus():
    config = GeneratorConfig(
        n_users=50,
        mean_degree=8.0,
        pictures_per_user=2,
        p_friend=1.0,
        p_stranger=0.2,
        p_picture_public=1.0,
    )
    snap = generate_synthetic(config, seed=13)
    view = PublicView(snap)
    for victim in sorted(snap.users)[:10]:
        found = recover_friends(victim, view)
        expected = engaged_users(snap, victim) & set(snap.users[victim].friends)
        assert found.friends == expected
        # Soundness: no stranger survives verification.
        assert found.friends <= set(snap.users[victim].friends)


def test_query_cost_is_one_check_per_candidate():
    config = GeneratorConfig(n_users=20, mean_degree=4.0, p_friend=0.8, p_stranger=0.1)
    snap = generate_synthetic(config, seed=3)
    victim = sorted(snap.users)[0]
    view = PublicView(snap)
    found = recover_friends(victim, view)
    # One picture-listing call plus one friendship check per candidate.
    assert view.query_count == 1 + found.candidates_checked


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 20))
def test_recovery_sound_and_bounded(seed, n):
    snap = generate_synthetic(
        GeneratorConfig(n_users=n, mean_degree=3.0, p_friend=0.7, p_stranger=0.3), seed
    )
    victim = sorted(snap.users)[seed % n]
    found = recover_friends(victim, PublicView(snap))
    ground = set(snap.users[victim].friends)
    assert found.friends <= ground
    assert victim not in found.friends
    assert len(found.friends) <= found.candidates_checked
