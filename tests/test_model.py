import copy
import io
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnrecon import (
    FRIEND,
    NOT_FRIEND,
    CandidateScore,
    ConfusionMatrix,
    ExperimentConfig,
    GeneratorConfig,
    IntegrityError,
    Metrics,
    Role,
    SchemaError,
    SnapshotError,
    Thresholds,
    generate_synthetic,
    ingest_edge_list,
    load_snapshot,
    load_snapshot_file,
)

import osnrecon.model
from osnrecon.model import Rendered, json_text, json_write, read_json

from helpers import (
    reference,
    reference_friendships,
    reference_load,
    worked_example_document,
)


def minimal_document():
    return {
        "users": [
            {"id": "a", "friends": ["b"]},
            {"id": "b", "friends": ["a"]},
        ],
        "pictures": [],
    }


def assert_engagement_strictly_increasing(snap):
    for user in snap.users.values():
        for pic in user.pictures:
            for engaged in (pic.likers, pic.commenters):
                assert type(engaged) is tuple
                assert all(a < b for a, b in zip(engaged, engaged[1:]))


class TestLoadSnapshot:
    def test_minimal_two_user_snapshot(self):
        snap = load_snapshot(minimal_document())
        assert set(snap.users) == {"a", "b"}
        assert snap.users["a"].friends == frozenset({"b"})
        assert snap.friendship_edges() == {("a", "b")}

    def test_asymmetric_friendship_names_pair(self):
        doc = minimal_document()
        doc["users"][1]["friends"] = []
        with pytest.raises(IntegrityError) as exc:
            load_snapshot(doc)
        assert "'a'" in str(exc.value) and "'b'" in str(exc.value)

    def test_self_friendship_rejected(self):
        doc = minimal_document()
        doc["users"][0]["friends"] = ["a", "b"]
        with pytest.raises(IntegrityError, match="itself"):
            load_snapshot(doc)

    def test_dangling_friend_reference(self):
        doc = minimal_document()
        doc["users"][0]["friends"] = ["b", "ghost"]
        with pytest.raises(IntegrityError, match="ghost"):
            load_snapshot(doc)

    def test_picture_with_unknown_owner(self):
        doc = minimal_document()
        doc["pictures"] = [
            {"id": "p1", "owner": "ghost", "public": True, "likers": [], "commenters": []}
        ]
        with pytest.raises(IntegrityError, match="ghost"):
            load_snapshot(doc)

    def test_unknown_liker_rejected(self):
        doc = minimal_document()
        doc["pictures"] = [
            {"id": "p1", "owner": "a", "public": True, "likers": ["ghost"], "commenters": []}
        ]
        with pytest.raises(IntegrityError, match="ghost"):
            load_snapshot(doc)

    @pytest.mark.parametrize(
        "friends, likers, commenters, message",
        [
            (["g5", "g3", "g7", "g1", "g6", "g4", "g2"], [], [],
             "user 'a' references unknown friend 'g1'"),
            (["s4", "s2", "s5", "s1", "s3"], [], [],
             "asymmetric friendship: 'a' lists 's1' but not vice versa"),
            (["g3", "s4", "g2", "s2", "s1", "g4"], [], [],
             "user 'a' references unknown friend 'g2'"),
            (["s3", "x5", "s2", "x4", "s1"], [], [],
             "asymmetric friendship: 'a' lists 's1' but not vice versa"),
            ([], ["g6", "g3", "g7", "g4"], ["g5", "g2", "g8"],
             "picture 'p' engaged by unknown user 'g2'"),
        ],
        ids=["unknown", "asymmetric", "unknown-first", "asymmetric-first", "engagers"],
    )
    def test_error_names_least_offending_id(self, friends, likers, commenters, message):
        # The s* users exist but list no friends, so each is asymmetric.
        doc = {
            "users": [{"id": "a", "friends": friends}]
            + [{"id": f"s{k}", "friends": []} for k in range(1, 6)],
            "pictures": [{"id": "p", "owner": "a", "public": True,
                          "likers": likers, "commenters": commenters}],
        }
        with pytest.raises(IntegrityError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "key, ids",
        [("likers", [5]), ("likers", ["a", 5]), ("friends", ["b", 5]),
         ("friends", ["a", 5]), ("commenters", [True]), ("commenters", [5, 6.5])],
    )
    def test_non_string_id_is_a_schema_error(self, key, ids):
        doc = minimal_document()
        picture = {"id": "p", "owner": "a", "public": True, "likers": [], "commenters": []}
        doc["pictures"] = [picture]
        if key == "friends":
            doc["users"][0]["friends"] = ids
            where = "user 'a'"
        else:
            picture[key] = ids
            where = "picture 'p'"
        with pytest.raises(SchemaError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == f"{where}: field {key!r} must be a list of strings"

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"id": None}, "picture: missing field 'id'"),
            ({"id": 5}, "picture: field 'id' must be str"),
            ({"owner": None}, "picture 'p': missing field 'owner'"),
            ({"owner": 5}, "picture 'p': field 'owner' must be str"),
            ({"public": "true"}, "picture 'p': field 'public' must be bool"),
            ({"likers": "b"}, "picture 'p': field 'likers' must be list"),
            ({"commenters": None}, "picture 'p': missing field 'commenters'"),
            ({"commenters": [["b"]]}, "picture 'p': field 'commenters' must be a list of strings"),
            ({"likers": ["b", ["b"]], "public": 1}, "picture 'p': field 'public' must be bool"),
            ({"id": "q", "owner": None}, "picture 'q': duplicate picture id"),
        ],
    )
    def test_picture_field_errors_in_field_order(self, change, message):
        # The first picture is 'q', so only a change to that id repeats one.
        doc = minimal_document()
        picture = {"id": "p", "owner": "a", "public": True, "likers": ["b"], "commenters": []}
        faulty = {**picture, **change}
        for key in [key for key, value in change.items() if value is None]:
            del faulty[key]
        doc["pictures"] = [{**picture, "id": "q"}, faulty]
        with pytest.raises(SchemaError) as exc:
            load_snapshot(doc)
        assert str(exc.value) == message

    def test_engagement_is_sorted_distinct_ids(self):
        doc = minimal_document()
        doc["users"].append({"id": "c", "friends": []})
        doc["pictures"] = [
            {"id": "p", "owner": "a", "public": True, "likers": ["c", "b", "b"],
             "commenters": []}
        ]
        snap = load_snapshot(doc)
        assert snap.users["a"].pictures[0].likers == ("b", "c")
        assert snap.users["a"].pictures[0].commenters == ()
        assert json.loads(snap.to_json())["pictures"][0]["likers"] == ["b", "c"]

    def test_missing_field_is_schema_error(self):
        with pytest.raises(SchemaError, match="friends"):
            load_snapshot({"users": [{"id": "a"}], "pictures": []})

    def test_attribute_canonicalization(self):
        doc = minimal_document()
        doc["users"][0]["hometown"] = "  Padua "
        snap = load_snapshot(doc)
        assert snap.users["a"].attributes["hometown"] == "padua"

    def test_empty_attribute_rejected(self):
        doc = minimal_document()
        doc["users"][0]["hometown"] = "   "
        with pytest.raises(SchemaError):
            load_snapshot(doc)

    def test_unread_profile_keys_are_ignored(self):
        doc = minimal_document()
        doc["users"][0].update(personal={"age": 30}, pages_liked=["x"], groups=["g"])
        snap = load_snapshot(doc)
        assert snap.to_document() == load_snapshot(minimal_document()).to_document()

    def test_worked_example_fixture_loads(self):
        snap = load_snapshot(worked_example_document())
        assert len(snap.users) == 1 + 100 + 4

    def test_roundtrip_through_document(self):
        snap = load_snapshot(worked_example_document())
        again = load_snapshot(snap.to_document())
        assert again.to_json() == snap.to_json()


class TestGenerator:
    def test_forced_engagement(self):
        config = GeneratorConfig(
            n_users=2,
            mean_degree=1.0,
            pictures_per_user=1,
            p_friend=1.0,
            p_stranger=0.0,
            p_picture_public=1.0,
        )
        snap = generate_synthetic(config, seed=1)
        ids = sorted(snap.users)
        assert snap.users[ids[0]].friends == frozenset({ids[1]})
        for owner, user in snap.users.items():
            other = ids[1] if owner == ids[0] else ids[0]
            for pic in user.pictures:
                assert other in pic.likers

    def test_determinism_same_seed(self):
        config = GeneratorConfig(n_users=30, mean_degree=5.0)
        assert (
            generate_synthetic(config, seed=9).to_json()
            == generate_synthetic(config, seed=9).to_json()
        )

    def test_different_seeds_differ(self):
        config = GeneratorConfig(n_users=30, mean_degree=5.0)
        assert (
            generate_synthetic(config, seed=1).to_json()
            != generate_synthetic(config, seed=2).to_json()
        )

    def test_engagement_rates_within_binomial_bounds(self):
        # Counting oracle: liker and commenter counts per picture should sit
        # within 3 sigma of the binomial expectation, aggregated over
        # pictures, for sparse and for dense stranger engagement.
        for p_stranger, seed in ((0.01, 7), (0.3, 8)):
            config = GeneratorConfig(
                n_users=50,
                mean_degree=8.0,
                pictures_per_user=2,
                p_friend=0.6,
                p_stranger=p_stranger,
                p_picture_public=1.0,
            )
            snap = generate_synthetic(config, seed=seed)
            for engagement in ("likers", "commenters"):
                friend_trials = friend_hits = 0
                stranger_trials = stranger_hits = 0
                for owner, user in snap.users.items():
                    for pic in user.pictures:
                        engaged = getattr(pic, engagement)
                        friends = user.friends
                        assert owner not in engaged
                        friend_trials += len(friends)
                        stranger_trials += len(snap.users) - 1 - len(friends)
                        friend_hits += len(friends.intersection(engaged))
                        stranger_hits += len(set(engaged) - friends)
                for hits, trials, p in (
                    (friend_hits, friend_trials, 0.6),
                    (stranger_hits, stranger_trials, p_stranger),
                ):
                    mean = trials * p
                    sigma = (trials * p * (1 - p)) ** 0.5
                    assert abs(hits - mean) <= 3 * sigma

    @pytest.mark.parametrize("p_stranger", [0.0, 1.0])
    def test_stranger_engagement_exact_at_zero_and_one(self, p_stranger):
        config = GeneratorConfig(
            n_users=40, mean_degree=4.0, p_friend=0.5, p_stranger=p_stranger,
            p_picture_public=1.0,
        )
        snap = generate_synthetic(config, seed=3)
        for owner, user in snap.users.items():
            friends = user.friends
            strangers = set(snap.users) - friends - {owner}
            for pic in user.pictures:
                for engaged in (pic.likers, pic.commenters):
                    assert owner not in engaged
                    assert set(engaged) - friends == (strangers if p_stranger else set())

    @pytest.mark.parametrize("p_stranger", [5e-324, 1e-300])
    def test_tiny_stranger_probability_generates(self, p_stranger):
        config = GeneratorConfig(n_users=30, p_stranger=p_stranger, p_picture_public=1.0)
        generate_synthetic(config, seed=1).validate()

    @pytest.mark.parametrize("n", [2, 3, 32, 33, 60, 1025])
    def test_friendships_drawn_as_randrange_draws_them(self, n):
        ids = [f"u{idx}" for idx in range(n)]
        everyone = set(ids)
        # A complete graph takes about n * n * ln(n) attempts: about 7
        # million at n = 1025, so that n stays sparse.
        dense = (n - 1, 2 * n) if n < 1000 else ()
        for mean_degree in (0, 1.5, 6, *dense):
            for seed in range(3):
                expected_rng = random.Random(seed)
                expected = reference_friendships(ids, mean_degree, expected_rng)
                rng = random.Random(seed)
                friends = osnrecon.model._draw_friendships(ids, mean_degree, rng)
                assert friends == expected
                # Equal states: the stream was consumed the same way.
                assert rng.getstate() == expected_rng.getstate()
                if mean_degree == 0:
                    assert not any(friends.values())
                elif mean_degree >= n - 1:
                    assert all(friends[uid] == everyone - {uid} for uid in ids)

    @pytest.mark.parametrize("n", [200, 2000])
    def test_draws_linear_in_users_and_edges(self, monkeypatch, n):
        # With no stranger engagement the generator's output is O(n + m),
        # so its draws must be too; two draws per (public picture, user)
        # pair would be about 3 * n * n here.
        counted = []

        class CountingRandom(random.Random):
            def random(self):
                counted.append(None)
                return super().random()

            # Defined so that choice and the friendship draws keep their
            # own stream: both draw through getrandbits.
            def getrandbits(self, k):
                counted.append(None)
                return super().getrandbits(k)

        monkeypatch.setattr(osnrecon.model.random, "Random", CountingRandom)
        config = GeneratorConfig(n_users=n, mean_degree=4.0, p_stranger=0.0)
        snap = generate_synthetic(config, seed=2)
        edges = len(snap.friendship_edges())
        assert len(counted) <= 20 * (n + edges)

    def test_invalid_probability_rejected(self):
        with pytest.raises(SnapshotError, match="p_friend"):
            generate_synthetic(GeneratorConfig(n_users=5, p_friend=1.5), seed=0)

    @pytest.mark.parametrize(
        "vocabulary", [{"cities": ("Rome",)}, {"cities": ("  ", "rome")}, {"schools": ("",)}]
    )
    def test_non_canonical_vocabulary_rejected(self, vocabulary):
        # The loader would rewrite "Rome" and reject "  " and "".
        with pytest.raises(SnapshotError, match="label"):
            generate_synthetic(GeneratorConfig(n_users=5, **vocabulary), seed=0)

    def test_config_file_labels_are_canonicalised(self):
        config = GeneratorConfig.from_dict({"cities": [" Rome "]})
        assert config.cities == ("rome",)
        config.validate()

    def test_too_few_users_rejected(self):
        with pytest.raises(SnapshotError, match="n_users"):
            generate_synthetic(GeneratorConfig(n_users=1), seed=0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6), n=st.integers(2, 25),
        p_stranger=st.sampled_from([0.01, 0.3, 1.0]),
    )
    def test_generated_snapshots_validate(self, seed, n, p_stranger):
        config = GeneratorConfig(n_users=n, mean_degree=3.0, p_stranger=p_stranger)
        snap = generate_synthetic(config, seed)
        snap.validate()
        for uid, user in snap.users.items():
            assert uid not in user.friends
        assert_engagement_strictly_increasing(snap)


class TestIngest:
    def test_triangle(self):
        snap = ingest_edge_list(
            ["a b", "b c", "a c"], GeneratorConfig(), seed=0, attribute_rows=[]
        )
        assert snap.friendship_edges() == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_self_loop_names_line(self):
        with pytest.raises(IntegrityError, match="line 2"):
            ingest_edge_list(["a b", "a a"], GeneratorConfig(), seed=0)

    def test_malformed_line_names_line(self):
        with pytest.raises(SchemaError, match="line 3"):
            ingest_edge_list(["a b", "", "a b c"], GeneratorConfig(), seed=0)

    def test_path_graph_friendships_exact(self):
        snap = ingest_edge_list(
            ["a b", "b c", "c d"], GeneratorConfig(pictures_per_user=1), seed=4
        )
        assert snap.friendship_edges() == {("a", "b"), ("b", "c"), ("c", "d")}

    def test_contradictory_attribute_rows(self):
        with pytest.raises(IntegrityError, match="contradictory"):
            ingest_edge_list(
                ["a b"],
                GeneratorConfig(),
                seed=0,
                attribute_rows=[
                    {"id": "a", "feature": "hometown", "value": "rome"},
                    {"id": "a", "feature": "hometown", "value": "padua"},
                ],
            )

    def test_duplicate_identical_attribute_rows_ok(self):
        snap = ingest_edge_list(
            ["a b"],
            GeneratorConfig(),
            seed=0,
            attribute_rows=[
                {"id": "a", "feature": "hometown", "value": "Rome"},
                {"id": "a", "feature": "hometown", "value": "rome"},
            ],
        )
        assert snap.users["a"].attributes["hometown"] == "rome"

    def test_attribute_row_for_unknown_user(self):
        with pytest.raises(IntegrityError, match="ghost"):
            ingest_edge_list(
                ["a b"],
                GeneratorConfig(),
                seed=0,
                attribute_rows=[{"id": "ghost", "feature": "hometown", "value": "x"}],
            )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10**6))
    def test_ingested_snapshots_validate(self, data, seed):
        ids = st.sampled_from(["a", "b", "c", "d", "e", "f"])
        pairs = data.draw(
            st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), min_size=1, max_size=20)
        )
        # Some pairs again in reverse, among comments and blank lines.
        lines = [f"{a} {b}\n" for a, b in pairs]
        lines += [f"{b}\t{a}\n" for a, b in pairs if data.draw(st.booleans())]
        lines += data.draw(st.lists(st.sampled_from(["\n", "  \n", "# a b\n", "#c d e"])))
        lines = data.draw(st.permutations(lines))
        users = sorted({uid for pair in pairs for uid in pair})
        rows = data.draw(st.none() | st.lists(
            st.tuples(st.sampled_from(users), st.sampled_from(["hometown", "education"]),
                      st.sampled_from(["Rome", "padua"])),
            unique_by=lambda row: row[:2],
        ))
        attribute_rows = (
            None if rows is None
            else [{"id": uid, "feature": f, "value": value} for uid, f, value in rows]
        )
        config = GeneratorConfig(p_stranger=0.3)
        snap = ingest_edge_list(lines, config, seed, attribute_rows=attribute_rows)
        snap.validate()
        assert_engagement_strictly_increasing(snap)
        assert snap.friendship_edges() == {(min(p), max(p)) for p in pairs}
        if rows is not None:
            assert {
                (uid, f, label) for uid, user in snap.users.items()
                for f, label in user.attributes.items()
            } == {(uid, f, value.casefold()) for uid, f, value in rows}


def _generated(tmp_path):
    return generate_synthetic(GeneratorConfig(n_users=60, p_stranger=0.05), seed=3)


def _ingested(tmp_path):
    rng = random.Random(5)
    lines = [f"n{rng.randrange(30)} m{rng.randrange(30)}" for _ in range(50)]
    return ingest_edge_list(lines, GeneratorConfig(p_stranger=0.05), seed=5)


def _loaded(tmp_path):
    path = tmp_path / "snapshot.json"
    path.write_text(_generated(tmp_path).to_json(), encoding="utf-8")
    return load_snapshot_file(path)


@pytest.mark.parametrize("build", [_generated, _ingested, _loaded])
def test_snapshot_holds_one_object_per_id(tmp_path, build):
    snap = build(tmp_path)
    key = {uid: uid for uid in snap.users}  # each id to the key object itself
    refs = [ref for user in snap.users.values() for ref in user.friends]
    for user in snap.users.values():
        for picture in user.pictures:
            refs += [*picture.likers, *picture.commenters]
    assert len(refs) > 2 * len(key)
    assert all(key[ref] is ref for ref in refs)


def test_load_snapshot_file_round_trips_generated_text(tmp_path):
    text = _generated(tmp_path).to_json()
    path = tmp_path / "snapshot.json"
    path.write_text(text, encoding="utf-8")
    assert load_snapshot_file(path).to_json() == text


def test_load_snapshot_releases_its_document(tmp_path):
    path = tmp_path / "snapshot.json"
    config = GeneratorConfig(n_users=1500, mean_degree=20)
    path.write_text(generate_synthetic(config, seed=1).to_json(), encoding="utf-8")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        document = read_json(path)
        read = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        snap = load_snapshot(document)
        peak = tracemalloc.get_traced_memory()[1]
        left = len(document["users"]), len(document["pictures"])
        del document
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(snap.users) == 1500
    # The document is released as the snapshot is built, so the two never
    # coexist in full.
    assert peak - start < (retained - start) + (read - start) / 2
    assert left == (0, 0)


FAULTS = ("none", "asymmetric", "unknown friend", "self-friend", "empty id",
          "unknown engager", "non-string id", "unhashable id", "unsorted engagers",
          "duplicate engagers", "blank label")


@st.composite
def planted_faults(draw):
    """A small snapshot document with one fault planted, or none."""
    n = draw(st.integers(2, 6))
    ids = [f"u{k}" for k in range(n)]
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1]), max_size=8))
    friends = {uid: [] for uid in ids}
    for i, j in sorted(pairs):
        friends[ids[i]].append(ids[j])
        friends[ids[j]].append(ids[i])
    users = [
        {"id": uid, "friends": draw(st.permutations(friends[uid])),
         "privacy": {"friends_list_public": draw(st.booleans())},
         **({"hometown": draw(st.sampled_from([" Padua", "rome"]))} if draw(st.booleans()) else {})}
        for uid in ids
    ]
    pictures = [
        {"id": f"p{k}", "owner": draw(st.sampled_from(ids)), "public": draw(st.booleans()),
         "likers": sorted(draw(st.sets(st.sampled_from(ids)))),
         "commenters": sorted(draw(st.sets(st.sampled_from(ids))))}
        for k in range(draw(st.integers(0, 4)))
    ]
    fault = draw(st.sampled_from(FAULTS))
    user = draw(st.sampled_from(users))
    engaged = (draw(st.sampled_from(pictures))[draw(st.sampled_from(["likers", "commenters"]))]
               if pictures else user["friends"])
    id_list = draw(st.sampled_from([user["friends"], engaged]))
    if fault in ("non-string id", "unhashable id") and draw(st.booleans()):
        id_list.clear()  # a list of the odd id alone
    # Not a user id: below, between and above the users' ids.
    stranger = draw(st.sampled_from(["", "a", "u", "u00", "u3x", "z"]))
    if fault == "asymmetric":
        other = draw(st.sampled_from([u for u in users if u is not user]))
        if other["id"] in user["friends"]:
            other["friends"].remove(user["id"])
        else:
            user["friends"].append(other["id"])
    elif fault == "unknown friend" and stranger not in ids:
        user["friends"].insert(draw(st.integers(0, len(user["friends"]))), stranger)
    elif fault == "self-friend":
        user["friends"].append(user["id"])
    elif fault == "empty id":
        old = user["id"]
        for entry in users + pictures:
            for key in ("id", "owner"):
                if entry.get(key) == old:
                    entry[key] = ""
            for key in ("friends", "likers", "commenters"):
                if old in entry.get(key, ()):
                    entry[key] = sorted(i if i != old else "" for i in entry[key])
    elif fault == "unknown engager" and stranger not in ids:
        engaged.insert(draw(st.integers(0, len(engaged))), stranger)
    elif fault == "non-string id":
        id_list.insert(draw(st.integers(0, len(id_list))),
                       draw(st.sampled_from([5, 2.5, True, None])))
    elif fault == "unhashable id":
        id_list.insert(draw(st.integers(0, len(id_list))), draw(st.sampled_from([["u0"], {}])))
    elif fault == "unsorted engagers":
        engaged.reverse()
    elif fault == "duplicate engagers" and engaged:
        engaged.insert(draw(st.integers(0, len(engaged))), draw(st.sampled_from(engaged)))
    elif fault == "blank label":
        user["education"] = draw(st.sampled_from(["", " \t"]))
    return {"users": users, "pictures": pictures}


def _outcome(load, document):
    try:
        return load(document)
    except SnapshotError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(planted_faults())
def test_load_snapshot_matches_the_ordered_walk(document):
    # load_snapshot empties the document's lists, so it gets a copy.
    loaded = _outcome(load_snapshot, copy.deepcopy(document))
    assert loaded == _outcome(reference_load, document)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300])
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "caf\u00e9 \u2603 \U0001f600"])
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.text(max_size=4), max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_json_text_matches_json_dumps(document):
    assert json_text(document) == json.dumps(document, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_json_text_splices_rendered_text(document):
    spliced = {"k": [Rendered(json_text(document)), 1]}
    assert json_text(spliced) == json_text({"k": [document, 1]})


@pytest.mark.parametrize(
    "document", [{1: "a", 2: ["b"]}, {"a": {2.5: [True, None]}}, [[], {}, ()], ({},)]
)
def test_json_text_non_string_keys_and_empty_containers(document):
    assert json_text(document) == json.dumps(document, sort_keys=True, indent=2) + "\n"


fractions = st.fractions(-(10**6), 10**6, max_denominator=10**6) | st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(7, 3), Fraction(10**20, 3)]
)
optional_fractions = st.none() | fractions
report_leaves = (
    json_scalars
    | fractions
    | st.builds(
        CandidateScore,
        candidate=st.text(max_size=4),
        info_score=fractions,
        shared_edges=st.integers(0, 50),
        edge_score=fractions,
        combined=fractions,
        verdict=st.sampled_from([None, FRIEND, NOT_FRIEND]),
    )
    | st.builds(ConfusionMatrix, *[st.integers(0, 500)] * 4)
    | st.builds(Metrics, optional_fractions, optional_fractions, optional_fractions)
    | st.builds(Thresholds, *[st.fractions(0, 1, max_denominator=10**6)] * 2)
    | st.builds(ExperimentConfig, st.booleans(), st.booleans(), st.none() | st.integers(0, 10**6))
    # A str subclass, which json_text leaves to json.dumps.
    | st.sampled_from(list(Role))
    # A ranking: (label, rate) pairs.
    | st.lists(st.tuples(st.text(max_size=4), fractions), max_size=4).map(tuple)
)
report_trees = st.recursive(
    report_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    # Starts with a string, so json_text tries to join it as a list of strings.
    | st.builds(lambda head, rest: [head, *rest], st.text(max_size=4), st.lists(inner, max_size=3))
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | inner.map(lambda value: Rendered(json_text(value))),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(report_trees)
def test_json_text_renders_report_values(value):
    assert json_text(value) == json.dumps(reference(value), sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(json_documents | report_trees)
def test_json_write_streams_what_json_text_returns(value):
    stream = io.StringIO()
    json_write(value, stream.write)
    assert stream.getvalue() == json_text(value)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=4), st.frozensets(st.text(max_size=4), max_size=6), max_size=4))
def test_json_text_writes_frozensets_as_sorted_lists(rows):
    assert json_text(frozenset()) == "[]\n"
    assert json_text(frozenset({"b", "a", "c"})) == '[\n  "a",\n  "b",\n  "c"\n]\n'
    sorted_rows = {key: sorted(commons) for key, commons in rows.items()}
    assert json_text({"f": rows}) == json.dumps({"f": sorted_rows}, sort_keys=True, indent=2) + "\n"


def test_json_text_rejects_unknown_types():
    with pytest.raises(TypeError):
        json_text({"a": [object()]})
