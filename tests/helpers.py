"""Shared test fixtures: the worked-example snapshot and brute-force
oracles kept independent of the library code they check."""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from operator import attrgetter
from types import SimpleNamespace

from osnrecon import (
    FEATURES,
    FRIEND,
    NOT_FRIEND,
    CandidateScore,
    IntegrityError,
    OsnSnapshot,
    Picture,
    Role,
    SchemaError,
    TwoHopSurvey,
    UserProfile,
    load_snapshot,
)
from osnrecon.dotexport import ROLE_COLORS
from osnrecon.model import Rendered

# Rate tables for the victim's 100 recovered friends. The percentage is
# realized exactly as count/100.
CURRENT_CITY_COUNTS = [("padua", 27), ("bologna", 9), ("paris", 4), ("madrid", 2)]
HOMETOWN_COUNTS = [("padua", 13), ("rome", 11), ("venice", 3)]
EDUCATION_COUNTS = [("padua", 40), ("venice", 10)]

# 2-hop candidates: visible attribute triple plus the number of the
# victim's friends each one is connected to.
CANDIDATES = {
    "c1": {
        "current_city": "padua",
        "hometown": "padua",
        "education": "padua",
        "n_edges": 8,
    },
    "c2": {
        "current_city": "brussels",
        "hometown": "turin",
        "education": "rome",
        "n_edges": 3,
    },
    "c3": {"hometown": "venice", "n_edges": 10},
    "c4": {"current_city": "venice", "education": "venice", "n_edges": 2},
}

VICTIM = "victim"
N_FRIENDS = 100


def _spread(pairs: list[tuple[str, int]], n: int) -> list[str | None]:
    values: list[str | None] = []
    for label, count in pairs:
        values.extend([label] * count)
    values.extend([None] * (n - len(values)))
    return values


def worked_example_document(single_edge_candidate: bool = False) -> dict:
    """Snapshot document realizing the worked scoring example.

    The victim has 100 friends, all recovered through one fully liked
    public picture. Each candidate befriends (and engages the pictures
    of) its first ``n_edges`` friends. Optionally adds a candidate with
    a single shared edge, which pruning must remove.
    """
    friend_ids = [f"f{i:02d}" for i in range(N_FRIENDS)]
    candidates = dict(CANDIDATES)
    if single_edge_candidate:
        candidates = {**candidates, "c5": {"hometown": "padua", "n_edges": 1}}

    cc = _spread(CURRENT_CITY_COUNTS, N_FRIENDS)
    home = _spread(HOMETOWN_COUNTS, N_FRIENDS)
    edu = _spread(EDUCATION_COUNTS, N_FRIENDS)

    candidate_friends = {
        cid: set(friend_ids[: spec["n_edges"]]) for cid, spec in candidates.items()
    }

    users = [
        {
            "id": VICTIM,
            "friends": friend_ids,
            "hometown": "padua",
            "current_city": "padua",
            "education": "padua",
            "privacy": {"friends_list_public": False, "attributes_public": False},
        }
    ]
    pictures = [
        {
            "id": "victim_pic",
            "owner": VICTIM,
            "public": True,
            "likers": friend_ids,
            "commenters": [],
        }
    ]
    for i, fid in enumerate(friend_ids):
        entry: dict = {
            "id": fid,
            "friends": [VICTIM]
            + sorted(c for c, members in candidate_friends.items() if fid in members),
            "privacy": {"friends_list_public": False, "attributes_public": True},
        }
        for key, values in (("current_city", cc), ("hometown", home), ("education", edu)):
            if values[i] is not None:
                entry[key] = values[i]
        users.append(entry)
        pictures.append(
            {
                "id": f"{fid}_pic",
                "owner": fid,
                "public": True,
                "likers": sorted(
                    c for c, members in candidate_friends.items() if fid in members
                ),
                "commenters": [],
            }
        )
    for cid, spec in candidates.items():
        entry = {
            "id": cid,
            "friends": sorted(candidate_friends[cid]),
            "privacy": {"friends_list_public": False, "attributes_public": True},
        }
        for key in ("current_city", "hometown", "education"):
            if key in spec:
                entry[key] = spec[key]
        users.append(entry)
    return {"users": users, "pictures": pictures}


def worked_example_snapshot(single_edge_candidate: bool = False) -> OsnSnapshot:
    return load_snapshot(worked_example_document(single_edge_candidate))


def brute_mutual_friends(snapshot: OsnSnapshot, a: str, b: str) -> set[str]:
    """Independent mutual-friend oracle: raw adjacency intersection."""
    return (set(snapshot.users[a].friends) & set(snapshot.users[b].friends)) - {a, b}


def brute_shared_edges(snapshot: OsnSnapshot, one_hop: set[str], node: str) -> int:
    """Independent shared-edge oracle: ground-truth friends of ``node``
    restricted to the recovered 1-hop set."""
    return len(set(snapshot.users[node].friends) & one_hop)


def brute_survey_edges(snapshot: OsnSnapshot, victim: str) -> tuple[set[str], set[frozenset]]:
    """Independent survey oracle over ground truth: the victim's recovered
    friends (friends that engaged its public pictures) and every edge the
    survey observes. Those are victim-f for each recovered friend f, f-s
    for each friend s of f other than the victim that engaged f's public
    pictures, and f-c and c-s for each common friend c of f and s."""
    friends = set(snapshot.users[victim].friends) & engaged_users(snapshot, victim)
    edges = {frozenset((victim, f)) for f in friends}
    for f in friends:
        for s in set(snapshot.users[f].friends) & engaged_users(snapshot, f) - {victim}:
            edges.add(frozenset((f, s)))
            for c in brute_mutual_friends(snapshot, f, s):
                edges |= {frozenset((f, c)), frozenset((c, s))}
    return friends, edges


def reference_graph(survey: TwoHopSurvey) -> SimpleNamespace:
    """Independent 2-hop graph builder: inserts one undirected edge at a
    time (victim-friend, friend-second, friend-common, common-second).
    The victim is VICTIM and each recovered friend ONE_HOP; every other
    node is TWO_HOP_SINGLE_EDGE when its brute-force count of
    recovered-friend neighbours is 1, TWO_HOP_RELEVANT otherwise.
    Returns ``roles`` and ``adj``."""
    victim = survey.recovered.target
    friends = survey.recovered.friends
    adj: dict[str, set[str]] = {victim: set()}

    def edge(a: str, b: str) -> None:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for friend in sorted(friends):
        edge(victim, friend)
    for friend, row in survey.mutuals.items():
        for second, commons in row.items():
            edge(friend, second)
            for common in sorted(commons):
                edge(friend, common)
                edge(common, second)
    roles: dict[str, Role] = {}
    for node in adj:
        shared = sum(1 for near in adj[node] if near in friends)
        if node == victim:
            roles[node] = Role.VICTIM
        elif node in friends:
            roles[node] = Role.ONE_HOP
        elif shared == 1:
            roles[node] = Role.TWO_HOP_SINGLE_EDGE
        else:
            roles[node] = Role.TWO_HOP_RELEVANT
    return SimpleNamespace(roles=roles, adj=adj)


def reference_dot(graph) -> str:
    """Independent DOT renderer: every node in sorted order, then every
    pair of ``graph.edges`` in sorted order, quoting each id where it is
    written."""

    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph friendship {", "  node [style=filled];"]
    for node in sorted(graph.roles):
        lines.append(f"  {quote(node)} [fillcolor={ROLE_COLORS[graph.roles[node]]}];")
    for a, b in sorted(graph.edges):
        lines.append(f"  {quote(a)} -- {quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference(value):
    """Independent report-value converter: the JSON document whose
    ``json.dumps`` text ``json_text(value)`` must equal. A ``Fraction``
    becomes ``{"exact": "n/d", "value": float}``, a dataclass a dict of
    its fields, a ``Rendered`` the document its text decodes to; dicts,
    lists and tuples are converted item by item; anything else is kept."""
    if isinstance(value, Fraction):
        return {"exact": f"{value.numerator}/{value.denominator}", "value": float(value)}
    if isinstance(value, Rendered):
        return json.loads(value.text)
    if is_dataclass(value):
        return {f.name: reference(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: reference(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference(item) for item in value]
    return value


def brute_rates(records: dict[str, dict[str, str]]) -> dict[str, dict[str, Fraction]]:
    """Independent rate tables: each recovered friend adds ``1/n`` to the
    rate of every label it shows, one ``Fraction`` sum at a time."""
    rates: dict[str, dict[str, Fraction]] = {f: {} for f in FEATURES}
    unit = Fraction(1, len(records))
    for attrs in records.values():
        for feature, value in attrs.items():
            rates[feature][value] = rates[feature].get(value, Fraction(0)) + unit
    return rates


def brute_rankings(rates: dict[str, dict[str, Fraction]]) -> dict[str, tuple]:
    """Independent rankings: each feature's (label, rate) pairs sorted by
    negated rate, then label."""
    return {
        feature: tuple(sorted(rates[feature].items(), key=lambda kv: (-kv[1], kv[0])))
        for feature in FEATURES
    }


def brute_scores(pool, rates, thresholds=None) -> list[CandidateScore]:
    """Independent candidate scores in ``Fraction`` arithmetic. ``pool``
    maps each candidate, in scoring order, to its visible attributes ({}
    when private) and its shared-edge count. With ``thresholds`` each
    score carries the two-threshold verdict, otherwise none."""
    highest = max((shared for _, shared in pool.values()), default=0)
    scores = []
    for candidate, (attrs, shared) in pool.items():
        info = sum(
            (rates[f].get(v, 0) for f, v in attrs.items()), Fraction(0)
        ) / len(FEATURES)
        edge = Fraction(shared, highest) if highest else Fraction(0)
        verdict = None
        if thresholds is not None:
            meets = info >= thresholds.best_info and edge >= thresholds.best_edges
            verdict = FRIEND if meets else NOT_FRIEND
        scores.append(CandidateScore(candidate, info, shared, edge, (info + edge) / 2, verdict))
    return scores


def reference_friendships(ids: list[str], mean_degree: float, rng) -> dict[str, set[str]]:
    """A plain G(n, m) over ``ids``: two ``rng.randrange(n)`` calls per
    attempt, a self-pair or a repeated pair skipped, with the generator's
    edge target and attempt limit."""
    n = len(ids)
    max_edges = n * (n - 1) // 2
    target = max_edges if mean_degree >= n - 1 else round(n * mean_degree / 2)
    pairs: set[tuple[int, int]] = set()
    attempts = 0
    while len(pairs) < target and attempts < 50 * max_edges + 100:
        i = rng.randrange(n)
        j = rng.randrange(n)
        attempts += 1
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    friends: dict[str, set[str]] = {uid: set() for uid in ids}
    for i, j in pairs:
        friends[ids[i]].add(ids[j])
        friends[ids[j]].add(ids[i])
    return friends


def engaged_users(snapshot: OsnSnapshot, owner: str) -> set[str]:
    """Everyone who liked or commented one of ``owner``'s public pictures."""
    users: set[str] = set()
    for pic in snapshot.users[owner].pictures:
        if pic.public:
            users |= set(pic.likers) | set(pic.commenters)
    users.discard(owner)
    return users


def rates_from_percentages(
    education: dict[str, float],
    hometown: dict[str, float],
    current_city: dict[str, float],
) -> dict[str, dict[str, Fraction]]:
    """Build a rate table directly from fractional rates."""

    def as_fractions(table: dict[str, float]) -> dict[str, Fraction]:
        return {label: Fraction(rate).limit_denominator(10**6) for label, rate in table.items()}

    return {
        "education": as_fractions(education),
        "hometown": as_fractions(hometown),
        "current_city": as_fractions(current_city),
    }


def reference_load(document: dict) -> OsnSnapshot:
    """``load_snapshot`` as an ordered walk, for documents whose fields all
    have their JSON types and whose pictures all have known owners.

    Each id list is parsed as it comes, pictures before users, and the
    built snapshot then goes through ``reference_validate``."""

    def ids(values: list, where: str, key: str, build):
        try:
            return build(values)
        except TypeError:
            raise SchemaError(f"{where}: field {key!r} must be a list of strings") from None

    def sorted_distinct(values: list) -> tuple:
        return tuple(sorted(set(values)))

    def label(udoc: dict, key: str) -> str:
        if not udoc[key].strip():
            raise SchemaError(f"user {udoc['id']!r}: field {key!r} must be a non-empty string")
        return udoc[key].strip().casefold()

    owned: dict[str, list[Picture]] = {}
    for pdoc in document["pictures"]:
        where = f"picture {pdoc['id']!r}"
        owned.setdefault(pdoc["owner"], []).append(Picture(
            pdoc["id"], pdoc["public"],
            ids(pdoc["likers"], where, "likers", sorted_distinct),
            ids(pdoc["commenters"], where, "commenters", sorted_distinct),
        ))
    users = {}
    for udoc in document["users"]:
        uid = udoc["id"]
        privacy = udoc.get("privacy", {})
        users[uid] = UserProfile(
            ids(udoc["friends"], f"user {uid!r}", "friends", frozenset),
            tuple(sorted(owned.pop(uid, ()), key=attrgetter("id"))),
            {key: label(udoc, key) for key in FEATURES if key in udoc},
            privacy.get("friends_list_public", False),
            privacy.get("attributes_public", True),
        )
    snapshot = OsnSnapshot(users)
    reference_validate(snapshot)
    return snapshot


def reference_validate(snapshot: OsnSnapshot) -> None:
    """``OsnSnapshot.validate`` as an ordered walk: users and pictures in
    order, each error naming the least offending id of the first faulty
    one."""

    def strings(values, where: str, key: str) -> None:
        if not all(isinstance(v, str) for v in values):
            raise SchemaError(f"{where}: field {key!r} must be a list of strings")

    users = snapshot.users
    for uid, user in users.items():
        if not uid:
            raise IntegrityError("empty user id")
        if uid in user.friends:
            strings(user.friends, f"user {uid!r}", "friends")
            raise IntegrityError(f"user {uid!r} lists itself as a friend")
        strays = [
            fid for fid in user.friends
            if (other := users.get(fid)) is None or uid not in other.friends
        ]
        if strays:
            strings(strays, f"user {uid!r}", "friends")
            fid = min(strays)
            if fid not in users:
                raise IntegrityError(f"user {uid!r} references unknown friend {fid!r}")
            raise IntegrityError(
                f"asymmetric friendship: {uid!r} lists {fid!r} but not vice versa"
            )
        for pic in user.pictures:
            strays = [e for e in (*pic.likers, *pic.commenters) if e not in users]
            if strays:
                strings(pic.likers, f"picture {pic.id!r}", "likers")
                strings(pic.commenters, f"picture {pic.id!r}", "commenters")
                raise IntegrityError(
                    f"picture {pic.id!r} engaged by unknown user {min(strays)!r}"
                )
