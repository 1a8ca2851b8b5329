"""In-memory model of a simulated online social network.

A snapshot holds the ground truth: user profiles, symmetric friendship
edges, uploaded pictures with their like/comment engagement, and privacy
flags. Everything downstream of this module must go through the
restricted public view in :mod:`osnrecon.oracle`; only the evaluation
harness is allowed to read ground truth directly.

Snapshots come from three sources: a JSON document, the synthetic
generator, or an ingested edge list with synthesized activity.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cache
from itertools import repeat
from operator import attrgetter, itemgetter, lt


class SnapshotError(Exception):
    """Base class for snapshot loading/generation failures."""


class SchemaError(SnapshotError):
    """The input document does not conform to the snapshot schema."""


class IntegrityError(SnapshotError):
    """The document parses but violates a structural invariant."""


def canonical(label: str) -> str:
    """Canonical form of an attribute label: trimmed and case-folded."""
    return label.strip().casefold()


# Each stored profile attribute with the GeneratorConfig vocabulary its
# generated labels are drawn from. The generator draws them in this order,
# so reordering the table changes same-seed snapshots.
ATTRIBUTES = {
    "hometown": "cities",
    "current_city": "cities",
    "education": "schools",
}


@dataclass(frozen=True)
class Picture:
    id: str
    public: bool
    # Distinct ids in sorted order, not frozensets: nothing probes them one
    # by one, and 23 ids take 224 bytes as a tuple, 2.2 KB as a frozenset.
    likers: tuple[str, ...] = ()
    commenters: tuple[str, ...] = ()


@dataclass(frozen=True)
class UserProfile:
    friends: frozenset[str] = frozenset()
    pictures: tuple[Picture, ...] = ()  # the user's own, sorted by id
    # attribute -> canonical label, only for the attributes filled in
    attributes: dict[str, str] = field(default_factory=dict)
    friends_list_public: bool = False
    attributes_public: bool = True


@dataclass(frozen=True)
class OsnSnapshot:
    """Ground-truth snapshot: user id -> profile.

    Each fact is stored once. A picture belongs to the profile that holds
    it, and a profile's id is its key in ``users``. The dataclasses are
    frozen, but ``users`` and each profile's ``attributes`` are plain
    dicts. Nothing in the package writes to them after the snapshot is
    built, and the oracle hands out copies, never the stored dicts.
    """

    users: dict[str, UserProfile]

    def validate(self) -> None:
        """Check a snapshot read from a document or built by hand: non-empty
        ids, symmetric friendships without self-pairs, known friends and
        engagers. The generator and ``ingest_edge_list`` build valid
        snapshots by construction, so only ``load_snapshot`` calls it.

        One bulk check over the whole snapshot (``_consistent``) accepts or
        rejects it. Only a rejected snapshot is walked in order, user by user
        and picture by picture, and the walk only words the error, so every
        error text is the walk's: within the first faulty user or picture,
        it names the least offending id, whatever the hash seed. A
        non-string id, never a user and so always a stray, is a
        ``SchemaError``."""
        users = self.users
        try:
            if _consistent(users):
                return
        except (KeyError, TypeError):  # an unknown or non-string id
            pass
        for uid, user in users.items():
            if not uid:
                raise IntegrityError("empty user id")
            if uid in user.friends:
                _strings(user.friends, f"user {uid!r}", "friends")
                raise IntegrityError(f"user {uid!r} lists itself as a friend")
            strays = [
                fid for fid in user.friends
                if (other := users.get(fid)) is None or uid not in other.friends
            ]
            if strays:
                _strings(strays, f"user {uid!r}", "friends")
                fid = min(strays)
                if fid not in users:
                    raise IntegrityError(f"user {uid!r} references unknown friend {fid!r}")
                raise IntegrityError(
                    f"asymmetric friendship: {uid!r} lists {fid!r} but not vice versa"
                )
            for pic in user.pictures:
                strays = [e for e in (*pic.likers, *pic.commenters) if e not in users]
                if strays:
                    _strings(pic.likers, f"picture {pic.id!r}", "likers")
                    _strings(pic.commenters, f"picture {pic.id!r}", "commenters")
                    raise IntegrityError(
                        f"picture {pic.id!r} engaged by unknown user {min(strays)!r}"
                    )

    def friendship_edges(self) -> set[tuple[str, str]]:
        """All ground-truth edges as sorted pairs."""
        edges = set()
        for uid, user in self.users.items():
            for fid in user.friends:
                edges.add((uid, fid) if uid < fid else (fid, uid))
        return edges

    def to_document(self) -> dict:
        users = []
        for uid in sorted(self.users):
            u = self.users[uid]
            entry: dict = {
                "id": uid,
                "friends": sorted(u.friends),
                "privacy": {
                    "friends_list_public": u.friends_list_public,
                    "attributes_public": u.attributes_public,
                },
                **u.attributes,
            }
            users.append(entry)
        pictures = [
            {
                "id": pic.id,
                "owner": uid,
                "public": pic.public,
                # Already sorted; a list keeps the document loadable.
                "likers": list(pic.likers),
                "commenters": list(pic.commenters),
            }
            for uid, user in self.users.items()
            for pic in user.pictures
        ]
        pictures.sort(key=itemgetter("id"))
        return {"users": users, "pictures": pictures}

    def to_json(self) -> str:
        return json_text(self.to_document())


def _consistent(users: dict[str, UserProfile]) -> bool:
    """Whether ``OsnSnapshot.validate``'s walk would pass, from whole-snapshot
    sets and counts.

    Each friendship is probed once, from its lesser id: every friend ``f >
    u`` of ``u`` must be a user listing ``u``. Those probes find, for each
    of the ``up`` entries, a distinct mirror entry that is not itself up,
    so the ``total`` friend entries number at least ``2 * up``; equality
    leaves no room for an unprobed entry, a self-pair or an unknown id.
    """
    up = total = 0
    engaged: set[str] = set()
    for uid, user in users.items():
        friends = user.friends
        total += len(friends)
        for fid in friends:
            if fid > uid:
                if uid not in users[fid].friends:
                    return False
                up += 1
        for pic in user.pictures:
            engaged.update(pic.likers, pic.commenters)
    return 2 * up == total and all(users) and users.keys() >= engaged


def _strings(ids, where: str, key: str) -> None:
    if not all(isinstance(i, str) for i in ids):
        raise SchemaError(f"{where}: field {key!r} must be a list of strings")


def json_write(document, write) -> None:
    """Write ``json.dumps(document, sort_keys=True, indent=2)`` plus a
    newline, for pipeline values too, piece by piece through ``write``
    (say, an open text file's ``write``): the one renderer of the JSON
    artifacts. It never holds the whole text: each piece is one leaf, one
    list of strings or one spliced text, with the prefix before it.

    A ``Fraction`` is written as ``{"exact": "n/d", "value": float}``, a
    ``frozenset`` as its sorted list, a dataclass as the object of its
    fields, and a :class:`Rendered` value as the text it holds.
    ``json.dumps`` falls back to its pure-Python encoder whenever
    ``indent`` is set; this uses the C string encoder and writes each
    leaf where it sits. Other scalars (``str`` and ``int`` subclasses
    too) and dicts with a non-string key go through ``json.dumps``, so a
    type it cannot write raises ``TypeError``.
    """
    _items(("",), (document,), "\n", write)
    write("\n")


def json_text(document) -> str:
    """What :func:`json_write` writes for ``document``, as one string."""
    pieces: list[str] = []
    json_write(document, pieces.append)
    return "".join(pieces)


class Rendered:
    """Text that ``json_text`` returned, to be placed in a larger
    document as it is, indented to where it sits. ``ensure_ascii``
    output has no raw newline inside a string, so every newline in the
    text is a line break. ``json_write`` reads ``text`` once, when it
    reaches the value, and writes it before it reads the next value, so
    a subclass may make it a property that fetches the text from where
    it is kept: a streamed document then holds one such text at a time."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


_encode_str = json.encoder.encode_basestring_ascii


def _items(prefixes, values, newline: str, write) -> None:
    """Write each value after its prefix, each at the indentation of
    ``newline``: leaves of the exact types JSON decodes to, ``Fraction``s
    and lists or frozensets of strings in place, containers item by item.
    A container's prefix and a ``Rendered`` text are pieces of their own."""
    for prefix, value in zip(prefixes, values):
        kind = type(value)
        if kind is frozenset:  # as its sorted list, through the list branches
            value, kind = sorted(value), list
        if kind is str:
            write(prefix + _encode_str(value))
            continue
        if kind is list and value and type(value[0]) is str:
            inner = newline + "  "
            try:
                text = ("," + inner).join(map(_encode_str, value))
            except TypeError:  # a non-string item: written as any other list
                pass
            else:
                write(prefix + "[" + inner + text + newline + "]")
                continue
        if kind is list and not value:
            write(prefix + "[]")
        elif kind is int or kind is float and math.isfinite(value):
            write(prefix + repr(value))  # what json.dumps writes for these
        elif kind is Fraction:
            n, d = value.numerator, value.denominator  # n / d rounds as float(value) does
            write(f'{prefix}{{{newline}  "exact": "{n}/{d}",{newline}  "value": {n / d!r}'
                  f'{newline}}}')
        elif kind is bool:
            write(prefix + ("true" if value else "false"))
        elif value is None:
            write(prefix + "null")
        elif isinstance(value, Rendered):
            write(prefix)
            write(value.text[:-1].replace("\n", newline))
        else:
            separator = "," + newline + "  "
            if isinstance(value, dict):
                keys = sorted(value)
                try:
                    heads = [separator + _encode_str(key) + ": " for key in keys]
                except TypeError:  # a non-string key
                    write(prefix)
                    write(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))
                    continue
                items, brackets = map(value.__getitem__, keys), "{}"
            elif isinstance(value, (list, tuple)):
                heads, items, brackets = [separator] * len(value), value, "[]"
            elif (layout := _field_heads(kind)) is not None:
                names, keys = layout
                heads = [separator + key for key in keys]
                items, brackets = map(getattr, repeat(value), names), "{}"
            else:
                write(prefix + json.dumps(value))
                continue
            write(prefix)
            if not heads:
                write(brackets)
                continue
            heads[0] = brackets[0] + heads[0][1:]
            _items(heads, items, newline + "  ", write)
            write(newline + brackets[1])


@cache
def _field_heads(kind: type) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """A dataclass's sorted field names and their encoded keys, else None."""
    if not is_dataclass(kind):
        return None
    names = tuple(sorted(f.name for f in fields(kind)))
    return names, tuple(_encode_str(name) + ": " for name in names)


def _require(doc: dict, key: str, kind: type, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _ids(doc: dict, key: str, where: str, build):
    # Only an unhashable entry, or ids that ``build`` cannot sort, fail here;
    # a non-string scalar id is left to validate(), which gives it the same
    # error without a per-id check here.
    values = _require(doc, key, list, where)
    try:
        return build(values)
    except TypeError:
        raise SchemaError(f"{where}: field {key!r} must be a list of strings") from None


def _sorted_distinct(values: list) -> tuple:
    ids = tuple(values)
    # Snapshot files write each list in order: a string first item and each
    # item less than the next prove it holds distinct strings, sorted. A
    # non-string item makes ``lt`` raise the TypeError the sort would.
    if ids and type(ids[0]) is str and all(map(lt, ids, ids[1:])):
        return ids
    return tuple(sorted(set(values)))


def _flag(doc: dict, key: str, default: bool, where: str) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise SchemaError(f"{where}: privacy flag {key!r} must be true or false")
    return value


def _opt_label(doc: dict, key: str, where: str) -> str | None:
    if key not in doc or doc[key] is None:
        return None
    value = doc[key]
    if not isinstance(value, str) or not value.strip():
        raise SchemaError(f"{where}: field {key!r} must be a non-empty string")
    return canonical(value)


def _picture(pdoc: dict, seen: set[str]) -> tuple[str, Picture]:
    """A picture entry's owner and picture, its fields checked in order."""
    pid = _require(pdoc, "id", str, "picture")
    where = f"picture {pid!r}"
    if pid in seen:
        raise SchemaError(f"{where}: duplicate picture id")
    owner = _require(pdoc, "owner", str, where)
    return owner, Picture(
        id=pid,
        public=_require(pdoc, "public", bool, where),
        likers=_ids(pdoc, "likers", where, _sorted_distinct),
        commenters=_ids(pdoc, "commenters", where, _sorted_distinct),
    )


_PICTURE_FIELDS = itemgetter("id", "owner", "public", "likers", "commenters")


def load_snapshot(document: dict) -> OsnSnapshot:
    """Build and validate a snapshot from its JSON document form.

    A picture entry whose fields have their JSON types is built inline. Any
    other is read again by ``_picture``, which checks its fields in order
    and words the first fault.

    Each entry is taken off the document as it is converted, so the document
    shrinks as the snapshot grows. A load empties the document's ``pictures``
    and ``users`` lists; a failed one leaves them partly taken.
    """
    if not isinstance(document, dict):
        raise SchemaError("snapshot document must be an object")
    user_docs = _require(document, "users", list, "snapshot")
    picture_docs = document.get("pictures", [])
    if not isinstance(picture_docs, list):
        raise SchemaError("snapshot: field 'pictures' must be a list")

    seen: set[str] = set()
    owned: dict[str, list[Picture]] = {}
    picture_docs.reverse()  # so that pop() takes the entries in order
    while picture_docs:
        pdoc = picture_docs.pop()
        if not isinstance(pdoc, dict):
            raise SchemaError("picture entry must be an object")
        try:
            pid, owner, public, likers, commenters = _PICTURE_FIELDS(pdoc)
            if not (type(pid) is str and pid not in seen and type(owner) is str
                    and type(public) is bool and type(likers) is list
                    and type(commenters) is list):
                raise TypeError
            picture = Picture(pid, public, _sorted_distinct(likers), _sorted_distinct(commenters))
        except (KeyError, TypeError):  # a missing field, a wrong type or a repeated id
            owner, picture = _picture(pdoc, seen)
        seen.add(picture.id)
        owned.setdefault(owner, []).append(picture)

    users: dict[str, UserProfile] = {}
    user_docs.reverse()
    while user_docs:
        udoc = user_docs.pop()
        if not isinstance(udoc, dict):
            raise SchemaError("user entry must be an object")
        uid = _require(udoc, "id", str, "user")
        where = f"user {uid!r}"
        if uid in users:
            raise SchemaError(f"{where}: duplicate user id")
        privacy_doc = udoc.get("privacy", {})
        if not isinstance(privacy_doc, dict):
            raise SchemaError(f"{where}: field 'privacy' must be an object")
        users[uid] = UserProfile(
            friends=_ids(udoc, "friends", where, frozenset),
            pictures=tuple(sorted(owned.pop(uid, ()), key=attrgetter("id"))),
            attributes={
                key: label
                for key in ATTRIBUTES
                if (label := _opt_label(udoc, key, where)) is not None
            },
            friends_list_public=_flag(privacy_doc, "friends_list_public", False, where),
            attributes_public=_flag(privacy_doc, "attributes_public", True, where),
        )

    for owner, orphans in owned.items():  # pictures no user claims
        raise IntegrityError(f"picture {orphans[0].id!r} has unknown owner {owner!r}")
    snapshot = OsnSnapshot(users=users)
    snapshot.validate()
    return snapshot


def read_json(path):
    """Decode any JSON input file, keeping one string object per string.

    ``json`` shares object keys but gives every string value its own
    object: one per friend, liker and commenter reference in a snapshot.
    The hook shares string values and string list items as each object
    decodes, so the copies are freed before the whole document exists,
    which is when a load peaks. Undecodable text, non-UTF-8 bytes and
    too deep nesting raise ``SchemaError``."""
    share = {}.setdefault

    def shared_strings(obj: dict) -> dict:
        for key, value in obj.items():
            if type(value) is str:
                obj[key] = share(value, value)
            elif type(value) is list:
                obj[key] = [share(v, v) if type(v) is str else v for v in value]
        return obj

    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, object_hook=shared_strings)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def load_snapshot_file(path) -> OsnSnapshot:
    """Load and validate a snapshot file."""
    return load_snapshot(read_json(path))


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic snapshot generator.

    Friendships are a uniform G(n, m) with m = round(n * mean_degree / 2)
    (every pair once mean_degree >= n - 1), drawn by rejection straight
    into each user's friend set; a self-pair or a repeated pair is
    skipped. Each endpoint is drawn as ``randrange(n)`` draws it, so a
    same-seed snapshot is the bytes that two ``randrange`` calls per
    attempt give.

    Engagement follows a two-probability Bernoulli model: each friend of
    a picture's owner likes (and, independently, comments) the picture
    with probability ``p_friend``; every non-friend does the same with
    probability ``p_stranger``. Friends take two draws each; strangers
    are drawn by geometric skips over all users, one draw per hit plus
    one. So a public picture costs O(friends + engagements), and a
    snapshot O(n + m + engagements) for n users and m friendships.
    """

    n_users: int = 50
    mean_degree: float = 6.0
    pictures_per_user: int = 2
    p_friend: float = 0.6
    p_stranger: float = 0.01
    p_picture_public: float = 0.8
    p_friends_list_public: float = 0.2
    p_attributes_public: float = 0.6
    p_attribute_present: float = 0.8
    homophily: float = 0.6
    cities: tuple[str, ...] = (
        "padua", "rome", "venice", "bologna", "milan", "turin", "naples", "paris",
    )
    schools: tuple[str, ...] = (
        "padua", "venice", "bologna", "rome", "milan",
    )

    def validate(self) -> None:
        probabilities = (
            "p_friend", "p_stranger", "p_picture_public", "p_friends_list_public",
            "p_attributes_public", "p_attribute_present", "homophily",
        )
        for name in ("n_users", "pictures_per_user", "mean_degree", *probabilities):
            value = getattr(self, name)
            integral = name in ("n_users", "pictures_per_user")
            kinds = int if integral else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = "an integer" if integral else "a number"
                raise SnapshotError(f"{name} must be {kind}, got {value!r}")
        if self.n_users < 2:
            raise SnapshotError(f"n_users must be >= 2, got {self.n_users}")
        for name in probabilities:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SnapshotError(f"{name} must be in [0, 1], got {value}")
        if not 0 <= self.mean_degree < math.inf:
            raise SnapshotError(f"mean_degree must be finite and >= 0, got {self.mean_degree}")
        if self.pictures_per_user < 0:
            raise SnapshotError("pictures_per_user must be >= 0")
        for label in (*self.cities, *self.schools):
            # The loader canonicalises labels, so no other label round-trips.
            if not isinstance(label, str) or not label or label != canonical(label):
                raise SnapshotError(f"vocabulary label {label!r} is empty or not canonical")

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        if not isinstance(doc, dict):
            raise SnapshotError("generator config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise SnapshotError(f"unknown generator option(s): {sorted(unknown)}")
        doc = dict(doc)
        for key in ("cities", "schools"):
            labels = doc.get(key, [])
            if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
                raise SnapshotError(f"generator option {key!r}: expected a list of strings")
            if key in doc:
                doc[key] = tuple(canonical(v) for v in labels)
        return cls(**doc)


def _draw_friendships(ids: list[str], mean_degree: float, rng: random.Random) -> dict[str, set[str]]:
    """Friend sets of a uniform G(n, m) over ``ids`` (see ``GeneratorConfig``).

    Each endpoint is ``rng.randrange(n)`` inlined: ``getrandbits`` of n's
    bit length, drawn again while ``>= n``."""
    n = len(ids)
    max_edges = n * (n - 1) // 2
    # Compared before rounding: a huge mean degree makes the product infinite.
    target = max_edges if mean_degree >= n - 1 else round(n * mean_degree / 2)
    adjacency: dict[str, set[str]] = {uid: set() for uid in ids}
    friends = list(adjacency.values())
    bits = rng.getrandbits
    k = n.bit_length()
    drawn = attempts = 0
    while drawn < target and attempts < 50 * max_edges + 100:
        i = bits(k)
        while i >= n:
            i = bits(k)
        j = bits(k)
        while j >= n:
            j = bits(k)
        attempts += 1
        if i != j and ids[j] not in friends[i]:
            friends[i].add(ids[j])
            friends[j].add(ids[i])
            drawn += 1
    return adjacency


def _bernoulli_subset(items: list[str], p: float, rng: random.Random) -> list[str]:
    """Each item with probability ``p``, independently, in list order.

    Geometric skips (Batagelj & Brandes, "Efficient generation of large
    random networks", Phys. Rev. E 71, 2005) take one draw per item
    returned plus one, not one per item.
    """
    if p <= 0.0:
        return []
    if p >= 1.0:
        return list(items)
    log_q = math.log1p(-p)
    last = len(items) - 1
    chosen: list[str] = []
    index = -1
    while True:
        # Compared as a float first: a tiny p makes the skip overflow int().
        skip = math.log(1.0 - rng.random()) / log_q
        if skip >= last - index:
            return chosen
        index += 1 + int(skip)
        chosen.append(items[index])


def _assign_attributes(
    ids: list[str],
    adjacency: dict[str, set[str]],
    config: GeneratorConfig,
    rng: random.Random,
) -> dict[str, dict[str, str]]:
    assigned: dict[str, dict[str, str]] = {uid: {} for uid in ids}
    for uid in ids:
        friends = sorted(adjacency[uid])
        for feature, vocab_name in ATTRIBUTES.items():
            vocab = getattr(config, vocab_name)
            if not vocab or rng.random() >= config.p_attribute_present:
                continue
            # Homophily: prefer copying from an already-labelled friend.
            friend_values = [
                assigned[fid][feature] for fid in friends if feature in assigned[fid]
            ]
            if friend_values and rng.random() < config.homophily:
                assigned[uid][feature] = rng.choice(friend_values)
            else:
                assigned[uid][feature] = rng.choice(vocab)
    return assigned


def _synthesize_activity(
    ids: list[str],
    adjacency: dict[str, set[str]],
    attributes: dict[str, dict[str, str]],
    config: GeneratorConfig,
    rng: random.Random,
) -> OsnSnapshot:
    """Assemble a snapshot from a fixed friendship graph plus generated
    privacy flags, pictures, and engagement. ``adjacency`` must be
    symmetric, without self-pairs: the snapshot is not validated."""
    privacy = {
        uid: {
            "friends_list_public": rng.random() < config.p_friends_list_public,
            "attributes_public": rng.random() < config.p_attributes_public,
        }
        for uid in ids
    }

    users: dict[str, UserProfile] = {}
    for uid in ids:
        friends = adjacency[uid]
        ordered_friends = sorted(friends)
        pictures = []
        for k in range(config.pictures_per_user):
            pid = f"{uid}_p{k}"
            public = rng.random() < config.p_picture_public
            likers = []
            commenters = []
            if public:
                for other in ordered_friends:
                    if rng.random() < config.p_friend:
                        likers.append(other)
                    if rng.random() < config.p_friend:
                        commenters.append(other)
                # A hit on the owner or a friend is dropped, which leaves
                # every other user's probability exactly p_stranger.
                for engaged in (likers, commenters):
                    engaged += [
                        hit for hit in _bernoulli_subset(ids, config.p_stranger, rng)
                        if hit not in friends and hit != uid
                    ]
            pictures.append(Picture(
                id=pid, public=public,
                likers=tuple(sorted(likers)), commenters=tuple(sorted(commenters)),
            ))
        pictures.sort(key=attrgetter("id"))  # as text: "_p10" before "_p2"
        users[uid] = UserProfile(
            friends=frozenset(friends),
            pictures=tuple(pictures),
            attributes=attributes[uid],
            **privacy[uid],
        )
    return OsnSnapshot(users=users)


def generate_synthetic(config: GeneratorConfig, seed: int) -> OsnSnapshot:
    """Generate a snapshot deterministically from (config, seed)."""
    config.validate()
    rng = random.Random(seed)
    n = config.n_users
    width = max(3, len(str(n - 1)))
    ids = [f"u{idx:0{width}d}" for idx in range(n)]

    adjacency = _draw_friendships(ids, config.mean_degree, rng)
    attributes = _assign_attributes(ids, adjacency, config, rng)
    return _synthesize_activity(ids, adjacency, attributes, config, rng)


def ingest_edge_list(
    lines,
    config: GeneratorConfig,
    seed: int,
    attribute_rows: list[dict] | None = None,
) -> OsnSnapshot:
    """Build a snapshot whose friendships equal an undirected edge list.

    ``lines`` is an iterable of whitespace-separated pairs; blank lines
    and ``#`` comments are skipped. Attributes may be supplied as rows of
    ``{"id", "feature", "value"}``; pictures, engagement, and privacy
    flags are synthesized from ``config`` with the given seed.
    """
    config.validate()
    adjacency: dict[str, set[str]] = {}
    share = {}.setdefault  # one object per id, not one per token
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SchemaError(f"edge list line {lineno}: expected two ids, got {line!r}")
        a, b = map(share, parts, parts)
        if a == b:
            raise IntegrityError(f"edge list line {lineno}: self-friendship {a!r}")
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    if len(adjacency) < 2:
        raise SnapshotError("edge list must mention at least two users")

    ids = sorted(adjacency)
    attributes: dict[str, dict[str, str]] = {uid: {} for uid in ids}
    if attribute_rows is not None and not isinstance(attribute_rows, list):
        raise SchemaError("attribute rows must be a JSON array")
    for row in attribute_rows or []:
        uid = _require(row, "id", str, "attribute row")
        feature = _require(row, "feature", str, "attribute row")
        _require(row, "value", str, "attribute row")
        value = _opt_label(row, "value", f"attribute row for {uid!r}")
        if feature not in ATTRIBUTES:
            raise SchemaError(f"attribute row for {uid!r}: unknown feature {feature!r}")
        if uid not in attributes:
            raise IntegrityError(f"attribute row references unknown user {uid!r}")
        previous = attributes[uid].get(feature)
        if previous is not None and previous != value:
            raise IntegrityError(
                f"contradictory attribute rows for {uid!r}.{feature}: "
                f"{previous!r} vs {value!r}"
            )
        attributes[uid][feature] = value

    rng = random.Random(seed)
    if attribute_rows is None:
        attributes = _assign_attributes(ids, adjacency, config, rng)
    return _synthesize_activity(ids, adjacency, attributes, config, rng)
