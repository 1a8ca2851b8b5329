import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnrecon import (
    GeneratorConfig,
    PublicView,
    Thresholds,
    Role,
    FriendshipGraph,
    FriendsFound,
    build_graph,
    collect_2hop,
    evaluate_victim,
    generate_synthetic,
    graph_to_dot,
    load_snapshot,
    prune_single_edge,
    recover_friends,
    shared_edge_count,
    two_hop_nodes,
)
from osnrecon.oracle import UnknownUserError

from helpers import (
    VICTIM,
    brute_mutual_friends,
    brute_shared_edges,
    brute_survey_edges,
    engaged_users,
    reference_dot,
    reference_graph,
)


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


def full_engagement_config(n=20, degree=4.0):
    return GeneratorConfig(
        n_users=n,
        mean_degree=degree,
        pictures_per_user=1,
        p_friend=1.0,
        p_stranger=0.0,
        p_picture_public=1.0,
    )


def pic(owner, likers):
    """One public picture of ``owner`` liked by ``likers``."""
    return {
        "id": f"{owner}_pic",
        "owner": owner,
        "public": True,
        "likers": likers,
        "commenters": [],
    }


def path_snapshot():
    # V - A - B path, everyone engages everyone's pictures fully.
    return load_snapshot(
        {
            "users": [
                {"id": "v", "friends": ["a"]},
                {"id": "a", "friends": ["v", "b"]},
                {"id": "b", "friends": ["a"]},
            ],
            "pictures": [pic("v", ["a"]), pic("a", ["v", "b"]), pic("b", ["a"])],
        }
    )


def test_collect_empty_when_no_friends_recovered():
    snap = load_snapshot(
        {
            "users": [{"id": "v", "friends": ["a"]}, {"id": "a", "friends": ["v"]}],
            "pictures": [],
        }
    )
    survey = collect_2hop("v", PublicView(snap))
    assert survey.recovered.friends == frozenset()
    assert survey.mutuals == {}


def test_collect_path_graph():
    survey = collect_2hop("v", PublicView(path_snapshot()))
    assert survey.recovered.friends == frozenset({"a"})
    # The victim is excluded from a's recovered set, leaving only b;
    # a and b share no third friend.
    assert survey.mutuals == {"a": {"b": frozenset()}}


def test_mirror_pair_asked_once():
    # v's friends a and b are friends and engage each other's pictures,
    # so the survey meets both (a, b) and (b, a).
    snap = load_snapshot(
        {
            "users": [
                {"id": "v", "friends": ["a", "b"]},
                {"id": "a", "friends": ["v", "b"]},
                {"id": "b", "friends": ["v", "a"]},
            ],
            "pictures": [pic("v", ["a", "b"]), pic("a", ["v", "b"]), pic("b", ["v", "a"])],
        }
    )
    view = PublicView(snap)
    survey = collect_2hop("v", view)
    assert survey.mutuals == {"a": {"b": {"v"}}, "b": {"a": {"v"}}}
    # Pictures of v, a and b; the pairs {v, a}, {v, b} and {a, b} checked
    # once each; one mutual-friends call for {a, b}.
    assert view.query_count == 3 + 3 + 1


def test_mutual_friends_answer_settles_a_later_check(monkeypatch):
    # v's friends a and b are friends; c is a common friend of a and b
    # and engages b's pictures. Surveying a asks mutual_friends(a, b),
    # whose answer names c, so recovery on b need not check c.
    snap = load_snapshot(
        {
            "users": [
                {"id": "v", "friends": ["a", "b"]},
                {"id": "a", "friends": ["v", "b", "c"]},
                {"id": "b", "friends": ["v", "a", "c"]},
                {"id": "c", "friends": ["a", "b"]},
            ],
            "pictures": [pic("v", ["a", "b"]), pic("a", ["v", "b"]), pic("b", ["v", "a", "c"])],
        }
    )
    found = []

    def recording(*args, **kwargs):
        found.append(recover_friends(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr("osnrecon.twohop.recover_friends", recording)
    view = PublicView(snap)
    survey = collect_2hop("v", view)
    assert found == [
        FriendsFound("v", frozenset({"a", "b"}), {"a", "b"}),
        FriendsFound("a", frozenset({"v", "b"}), {"v", "b"}),
        FriendsFound("b", frozenset({"v", "a", "c"}), {"v", "a", "c"}),
    ]
    assert survey.recovered == found[0]
    assert survey.mutuals == {"a": {"b": {"v", "c"}}, "b": {"a": {"v", "c"}, "c": {"a"}}}
    # Pictures of v, a and b; the pairs {v, a}, {v, b} and {a, b}
    # checked once each, and {b, c} settled by mutual_friends(a, b);
    # mutual-friends calls for {a, b} and {b, c}.
    assert view.query_count == 3 + 3 + 2


def test_mutuals_keep_pairs_whose_joined_ids_collide():
    # (x, y&z) and (x&y, z) would both read "x&y&z" as one joined key.
    snap = load_snapshot(
        {
            "users": [
                {"id": "v", "friends": ["x", "x&y"]},
                {"id": "x", "friends": ["v", "x&y", "y&z"]},
                {"id": "x&y", "friends": ["v", "x", "z"]},
                {"id": "y&z", "friends": ["x"]},
                {"id": "z", "friends": ["x&y"]},
            ],
            "pictures": [
                pic("v", ["x", "x&y"]), pic("x", ["v", "x&y", "y&z"]), pic("x&y", ["v", "x", "z"]),
            ],
        }
    )
    survey = collect_2hop("v", PublicView(snap))
    assert survey.mutuals == {
        "x": {"x&y": {"v"}, "y&z": set()},
        "x&y": {"x": {"v"}, "z": set()},
    }


@pytest.mark.parametrize(
    "p_friend, p_stranger", [(1.0, 0.0), (0.5, 0.0), (0.5, 0.3)], ids=["1.0", "0.5", "0.5-0.3"]
)
def test_collect_matches_brute_force_on_corpus(p_friend, p_stranger):
    # Below full engagement, recovery on a can find b while recovery on b
    # misses a, so some surveyed pairs have no mirror. Strangers who engage
    # make some recovered friends candidates, not friends, of each other,
    # and the ledger must record those as non-friends.
    config = replace(
        full_engagement_config(n=40, degree=6.0), p_friend=p_friend, p_stranger=p_stranger
    )
    snap = generate_synthetic(config, seed=21)
    for victim in sorted(snap.users)[:8]:
        survey = collect_2hop(victim, PublicView(snap))
        # Pairs (f, s): f a recovered friend, s a friend of f that engaged
        # one of f's public pictures, other than the victim.
        expected = {}
        for f in sorted(set(snap.users[victim].friends) & engaged_users(snap, victim)):
            seconds = sorted(set(snap.users[f].friends) & engaged_users(snap, f) - {victim})
            if seconds:
                expected[f] = {s: brute_mutual_friends(snap, f, s) for s in seconds}
        assert survey.mutuals == expected
        # mutuals.json lists the pairs in this order.
        assert list(survey.mutuals) == list(expected)
        assert all(list(survey.mutuals[f]) == list(expected[f]) for f in expected)


@pytest.mark.parametrize("p_friend", [1.0, 0.5])
def test_pool_is_every_surveyed_id_with_two_shared_edges(p_friend):
    # Many ids are first named as a common friend of an earlier pair; they
    # are scored like every other friend of a friend.
    config = replace(full_engagement_config(n=40, degree=6.0), p_friend=p_friend)
    snap = generate_synthetic(config, seed=21)
    zero = Thresholds(Fraction(0), Fraction(0))
    for victim in sorted(snap.users)[:8]:
        friends, edges = brute_survey_edges(snap, victim)
        shared = {
            node: sum(frozenset((node, f)) in edges for f in friends)
            for node in set().union(*edges) - friends - {victim}
        }
        expected = {node: count for node, count in shared.items() if count >= 2}
        scores = evaluate_victim(snap, victim, zero).scores
        assert {s.candidate: s.shared_edges for s in scores} == expected


def _relabelled(snapshot, mapping):
    """``snapshot`` with every user id ``u`` renamed ``mapping[u]``."""
    document = json.loads(snapshot.to_json())
    for user in document["users"]:
        user["id"] = mapping[user["id"]]
        user["friends"] = [mapping[f] for f in user["friends"]]
    for picture in document["pictures"]:
        picture["owner"] = mapping[picture["owner"]]
        for key in ("likers", "commenters"):
            picture[key] = [mapping[u] for u in picture[key]]
    return load_snapshot(document)


def test_roles_do_not_depend_on_id_order():
    snap = generate_synthetic(full_engagement_config(n=40, degree=6.0), seed=21)
    ids = sorted(snap.users)
    mapping = dict(zip(ids, reversed(ids)))  # reverses the order of the ids
    mirrored = _relabelled(snap, mapping)
    for victim in ids[:8]:
        graph = build_graph(collect_2hop(victim, PublicView(snap)))
        other = build_graph(collect_2hop(mapping[victim], PublicView(mirrored)))
        assert {mapping[n]: role for n, role in graph.roles.items()} == other.roles
        pool = two_hop_nodes(prune_single_edge(graph))
        assert {mapping[n] for n in pool} == set(two_hop_nodes(prune_single_edge(other)))


def test_build_star_graph():
    # Two recovered friends with no recoverable friends of their own.
    snap = load_snapshot(
        {
            "users": [
                {"id": "v", "friends": ["a", "b"]},
                {"id": "a", "friends": ["v"]},
                {"id": "b", "friends": ["v"]},
            ],
            "pictures": [
                {"id": "p", "owner": "v", "public": True, "likers": ["a", "b"], "commenters": []}
            ],
        }
    )
    survey = collect_2hop("v", PublicView(snap))
    assert survey.mutuals == {}  # a friend with no surveyed pair gets no row
    graph = build_graph(survey)
    assert set(graph.roles) == {"v", "a", "b"}
    assert graph.edges == {("a", "v"), ("b", "v")}
    assert graph.roles["v"] == Role.VICTIM
    assert graph.roles["a"] == Role.ONE_HOP


def test_build_path_graph_roles():
    graph = build_graph(collect_2hop("v", PublicView(path_snapshot())))
    assert graph.roles == {
        "v": Role.VICTIM,
        "a": Role.ONE_HOP,
        "b": Role.TWO_HOP_SINGLE_EDGE,
    }
    assert graph.edges == {("a", "v"), ("a", "b")}


def test_edges_subset_of_ground_truth():
    snap = generate_synthetic(full_engagement_config(n=40, degree=6.0), seed=8)
    truth = snap.friendship_edges()
    for victim in sorted(snap.users)[:5]:
        graph = build_graph(collect_2hop(victim, PublicView(snap)))
        assert graph.edges <= truth
        for friend in graph.one_hop:
            assert friend in graph.adj[victim]


def test_shared_edge_counts_on_worked_example(worked_example):
    graph = build_graph(collect_2hop(VICTIM, PublicView(worked_example)))
    assert shared_edge_count(graph, "c1") == 8
    assert shared_edge_count(graph, "c2") == 3
    assert shared_edge_count(graph, "c3") == 10
    assert shared_edge_count(graph, "c4") == 2


def test_shared_edge_count_unknown_node(worked_example):
    graph = build_graph(collect_2hop(VICTIM, PublicView(worked_example)))
    with pytest.raises(KeyError):
        shared_edge_count(graph, "ghost")


def test_shared_edge_count_matches_brute_force():
    snap = generate_synthetic(full_engagement_config(n=40, degree=6.0), seed=17)
    for victim in sorted(snap.users)[:5]:
        graph = build_graph(collect_2hop(victim, PublicView(snap)))
        one_hop = set(graph.one_hop)
        for node in two_hop_nodes(graph):
            assert shared_edge_count(graph, node) == brute_shared_edges(
                snap, one_hop, node
            )


def test_prune_removes_single_edge_nodes():
    graph = build_graph(collect_2hop("v", PublicView(path_snapshot())))
    pruned = prune_single_edge(graph)
    assert "b" not in pruned.roles
    assert pruned.edges == {("a", "v")}


def test_prune_keeps_multi_edge_nodes(worked_example_with_single_edge):
    graph = build_graph(collect_2hop(VICTIM, PublicView(worked_example_with_single_edge)))
    assert graph.roles["c5"] == Role.TWO_HOP_SINGLE_EDGE
    pruned = prune_single_edge(graph)
    assert "c5" not in pruned.roles
    for kept in ("c1", "c2", "c3", "c4"):
        assert pruned.roles[kept] == Role.TWO_HOP_RELEVANT


def test_prune_is_idempotent_and_preserves_core():
    snap = generate_synthetic(full_engagement_config(n=30, degree=5.0), seed=4)
    for victim in sorted(snap.users)[:5]:
        graph = build_graph(collect_2hop(victim, PublicView(snap)))
        pruned = prune_single_edge(graph)
        twice = prune_single_edge(pruned)
        assert twice.roles == pruned.roles
        assert twice.edges == pruned.edges
        assert victim in pruned.roles
        assert graph.one_hop <= set(pruned.roles) or not graph.one_hop


def test_graph_is_simple():
    snap = generate_synthetic(full_engagement_config(n=25, degree=5.0), seed=6)
    victim = sorted(snap.users)[0]
    graph = build_graph(collect_2hop(victim, PublicView(snap)))
    for a, b in graph.edges:
        assert a < b
        assert a in graph.roles and b in graph.roles
    assert set(graph.adj) == set(graph.roles)
    for a, near in graph.adj.items():
        assert a not in near
        assert all(a in graph.adj[b] for b in near)
    assert graph.edges == {(min(a, b), max(a, b)) for a in graph.adj for b in graph.adj[a]}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 12))
def test_graph_soundness_property(seed, n):
    snap = generate_synthetic(full_engagement_config(n=n, degree=3.0), seed)
    victim = sorted(snap.users)[seed % n]
    graph = build_graph(collect_2hop(victim, PublicView(snap)))
    truth = snap.friendship_edges()
    assert graph.edges <= truth
    assert set(two_hop_nodes(graph)).isdisjoint(graph.one_hop)
    pruned = prune_single_edge(graph)
    single = {
        node
        for node in two_hop_nodes(graph)
        if brute_shared_edges(snap, set(graph.one_hop), node) == 1
    }
    assert set(graph.roles) - set(pruned.roles) == single
    again = prune_single_edge(pruned)
    assert again.roles == pruned.roles and again.edges == pruned.edges


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    shape=st.one_of(
        st.tuples(st.integers(3, 12), st.just(3.0)),
        # Dense: most survey pairs have several common friends, where
        # set-at-a-time insertion differs most from one edge at a time.
        st.tuples(st.integers(12, 20), st.floats(8.0, 11.0)),
    ),
)
def test_build_graph_matches_reference(seed, shape):
    n, degree = shape
    snap = generate_synthetic(full_engagement_config(n=n, degree=degree), seed)
    survey = collect_2hop(sorted(snap.users)[seed % n], PublicView(snap))
    graph = build_graph(survey)
    ref = reference_graph(survey)
    assert graph.roles == ref.roles
    assert graph.adj == ref.adj


# Ids that need escaping, and ids that are prefixes of each other.
dot_ids = st.sampled_from(['"', '""', "\\", '\\"', "a", "ab", "abc", 'a"', "a\\b"])
dot_ids |= st.text(max_size=3)


@st.composite
def role_graphs(draw):
    nodes = draw(st.lists(dot_ids, min_size=1, max_size=12, unique=True))
    roles = {node: draw(st.sampled_from(list(Role))) for node in nodes}
    adj: dict[str, set[str]] = {node: set() for node in nodes}
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    for a, b in draw(st.lists(pairs, max_size=40)):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return FriendshipGraph(roles=roles, adj=adj, one_hop=frozenset())


@settings(max_examples=200, deadline=None)
@given(role_graphs())
def test_graph_to_dot_matches_reference(graph):
    assert graph_to_dot(graph) == reference_dot(graph)
