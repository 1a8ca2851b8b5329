"""Seeded snapshot builder owned by the benchmark.

The benchmark builds its own inputs so that a change to the program's
generator cannot change what the ``census`` and ``sample`` workloads
measure. Everything here is stdlib-only and runs in O(n + m): edges are
drawn with geometric skips over the pair sequence (Batagelj & Brandes,
"Efficient generation of large random networks", Phys. Rev. E 71, 2005)
and stranger engagement is a fixed count per picture, so no step loops
over all users per user or per picture.

The network is a planted-partition graph: users sit in equal-sized
communities, and a set share of each user's expected degree falls
inside its community. That keeps mutual-friend sets non-trivial, as in
the real networks the attack targets.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

CITIES = ("padua", "rome", "venice", "bologna", "milan", "turin", "naples", "paris")
SCHOOLS = ("padua", "venice", "bologna", "rome", "milan")
FEATURES = (
    ("hometown", CITIES),
    ("current_city", CITIES),
    ("education", SCHOOLS),
    ("high_school", SCHOOLS),
)


# Fixed for every workload; the program's generator uses the same values.
INSIDE_SHARE = 0.8  # expected share of a user's friends in its own community
PICTURES_PER_USER = 2
P_PICTURE_PUBLIC = 0.8
P_FRIEND_ENGAGES = 0.6  # per friend and picture, for likes and comments alike
P_ATTRIBUTES_PUBLIC = 0.6
P_FRIENDS_LIST_PUBLIC = 0.2
P_ATTRIBUTE_PRESENT = 0.8
HOMOPHILY = 0.6  # chance that a present attribute takes its community's value


@dataclass(frozen=True)
class Shape:
    """Parameters of one benchmark network and its victim list."""

    users: int
    mean_degree: float
    community_size: int
    strangers_per_picture: int  # non-friend engagements on each public picture
    victims: str  # "all" users, or "disjoint" (see _pick_victims)
    max_victims: int = 0  # cap for "disjoint"; 0 means no cap
    min_victims: int = 1  # a seed giving fewer victims is refused


@dataclass
class Network:
    """Ground truth of a built snapshot, kept for the output checks."""

    ids: list[str]
    friends: dict[str, set[str]]
    engaged: dict[str, set[str]]  # owner -> users engaging a public picture
    public_attrs: dict[str, dict[str, str]]  # only users with public attributes
    document: dict
    victims: list[str]

    @property
    def edge_count(self) -> int:
        return sum(len(f) for f in self.friends.values()) // 2


def _gnp_pairs(n: int, p: float, rng: random.Random):
    """Yield the pairs (v, w), w < v < n, of G(n, p) in O(n + m)."""
    if p <= 0.0:
        return
    if p >= 1.0:
        for v in range(1, n):
            for w in range(v):
                yield v, w
        return
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            yield v, w


def _edges(shape: Shape, rng: random.Random) -> list[set[int]]:
    n, size = shape.users, shape.community_size
    adj: list[set[int]] = [set() for _ in range(n)]

    def link(a: int, b: int) -> None:
        adj[a].add(b)
        adj[b].add(a)

    p_in = INSIDE_SHARE * shape.mean_degree / max(1, size - 1)
    for start in range(0, n, size):
        block = min(size, n - start)
        for v, w in _gnp_pairs(block, p_in, rng):
            link(start + v, start + w)
    p_out = (1.0 - INSIDE_SHARE) * shape.mean_degree / max(1, n - 1)
    for v, w in _gnp_pairs(n, p_out, rng):
        link(v, w)
    return adj


def _pick_victims(
    shape: Shape, ids: list[str], adj: list[set[int]], exposed: set[str], rng
) -> list[str]:
    """All users, or a seeded greedy set of users with a public picture
    whose closed neighbourhoods are pairwise disjoint."""
    if shape.victims == "all":
        return list(ids)
    if shape.victims != "disjoint":
        raise ValueError(f"unknown victim rule {shape.victims!r}")
    order = list(range(len(ids)))
    rng.shuffle(order)
    covered: set[int] = set()
    chosen: list[str] = []
    for v in order:
        if ids[v] not in exposed:
            continue
        closed = adj[v] | {v}
        if covered.isdisjoint(closed):
            covered |= closed
            chosen.append(ids[v])
            if len(chosen) == shape.max_victims:
                break
    return sorted(chosen)


def build(shape: Shape, seed: int) -> Network:
    """Build the snapshot for ``shape``; the same seed gives the same network."""
    rng = random.Random(seed)
    n = shape.users
    width = max(3, len(str(n - 1)))
    ids = [f"u{i:0{width}d}" for i in range(n)]
    adj = _edges(shape, rng)

    community_values = [
        {feature: rng.choice(vocab) for feature, vocab in FEATURES}
        for _ in range(0, n, shape.community_size)
    ]
    users = []
    public_attrs: dict[str, dict[str, str]] = {}
    for i, uid in enumerate(ids):
        home = community_values[i // shape.community_size]
        attributes_public = rng.random() < P_ATTRIBUTES_PUBLIC
        entry: dict = {
            "id": uid,
            "friends": sorted(ids[j] for j in adj[i]),
            "privacy": {
                "friends_list_public": rng.random() < P_FRIENDS_LIST_PUBLIC,
                "attributes_public": attributes_public,
            },
        }
        for feature, vocab in FEATURES:
            if rng.random() < P_ATTRIBUTE_PRESENT:
                entry[feature] = (
                    home[feature] if rng.random() < HOMOPHILY else rng.choice(vocab)
                )
        if attributes_public:
            public_attrs[uid] = {
                f: entry[f] for f in ("education", "hometown", "current_city") if f in entry
            }
        users.append(entry)

    pictures = []
    engaged: dict[str, set[str]] = {uid: set() for uid in ids}
    for i, uid in enumerate(ids):
        friend_ids = sorted(adj[i])
        for k in range(PICTURES_PER_USER):
            public = rng.random() < P_PICTURE_PUBLIC
            likers: set[int] = set()
            commenters: set[int] = set()
            if public:
                for j in friend_ids:
                    if rng.random() < P_FRIEND_ENGAGES:
                        likers.add(j)
                    if rng.random() < P_FRIEND_ENGAGES:
                        commenters.add(j)
                wanted = min(shape.strangers_per_picture, n - 1 - len(friend_ids))
                strangers: set[int] = set()
                while len(strangers) < wanted:
                    j = rng.randrange(n)
                    if j != i and j not in adj[i]:
                        strangers.add(j)
                for j in sorted(strangers):
                    (likers if rng.random() < 0.5 else commenters).add(j)
                engaged[uid].update(ids[j] for j in likers | commenters)
            pictures.append(
                {
                    "id": f"{uid}_p{k}",
                    "owner": uid,
                    "public": public,
                    "likers": sorted(ids[j] for j in likers),
                    "commenters": sorted(ids[j] for j in commenters),
                }
            )

    return Network(
        ids=ids,
        friends={uid: {ids[j] for j in adj[i]} for i, uid in enumerate(ids)},
        engaged=engaged,
        public_attrs=public_attrs,
        document={"users": users, "pictures": pictures},
        victims=_pick_victims(shape, ids, adj, {uid for uid in ids if engaged[uid]}, rng),
    )


def write_snapshot(network: Network, path) -> int:
    """Write the snapshot in the documented JSON format; return its size."""
    text = json.dumps(network.document, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return len(text.encode("utf-8"))
