"""Friend recovery, the two-hop survey and friendship-graph assembly.

Recovery takes everyone who liked or commented one of the target's
public pictures as a candidate and verifies each with a pairwise
friendship check through the oracle, unless the survey already holds
the answer. Verification is exact, so the result contains no false
positives; recall is bounded by how many real friends engaged.

The survey recovers the victim's friends, then re-runs recovery on each
of them and maps the mutual friends of every (friend, friend-of-friend)
pair as ``mutuals.json`` writes them: friend -> friend-of-friend ->
common friends. The graph assembler turns the survey into a simple
undirected graph in which every id other than the victim and its
recovered friends is 2-hop, whichever pair named it; single-edge
pruning drops 2-hop ids that share only one friend with the target.

Each fact is paid for once per victim. ``(b, a)`` reuses the mutual
friends of ``(a, b)``, and recovery on a friend ``t`` asks no friendship
check whose answer the survey holds: one an earlier target asked, or one
of an id in the answer of an earlier pair ``(f, t)``, since every id in
that answer is a friend of ``t``. That reuse stays sound under a rule
that narrows the answer, such as leaving out users who hide their friend
list, because the answer then still holds only true common friends. The
survey does not reuse the reverse facts (``f`` and ``s`` are friends of
each id in ``mutual_friends(f, s)``): they would save under 1% of the
queries for a set operation on every pair.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass
from enum import Enum

from .oracle import PublicView


class Role(str, Enum):
    VICTIM = "victim"
    ONE_HOP = "one_hop"
    TWO_HOP_RELEVANT = "two_hop_relevant"
    TWO_HOP_SINGLE_EDGE = "two_hop_single_edge"


@dataclass(frozen=True)
class FriendsFound:
    target: str
    friends: frozenset[str]
    candidates: Set[str]

    @property
    def candidates_checked(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class TwoHopSurvey:
    """``mutuals`` maps friend -> friend-of-friend -> their common friends,
    sorted at both levels; a friend with no surveyed pair has no row. The
    victim is ``recovered.target``."""

    recovered: FriendsFound
    mutuals: dict[str, dict[str, frozenset[str]]]


@dataclass
class FriendshipGraph:
    roles: dict[str, Role]  # the victim is the one VICTIM node
    adj: dict[str, set[str]]  # symmetric; every node in ``roles`` has an entry
    one_hop: frozenset[str]

    @property
    def edges(self) -> set[tuple[str, str]]:
        """Each edge once, as a sorted pair."""
        return {(a, b) for a, near in self.adj.items() for b in near if a < b}


def recover_friends(
    target: str, oracle: PublicView, held: Mapping[str, bool] = {}
) -> FriendsFound:
    """Recover the target's friends visible through picture engagement.

    ``held`` maps ids to whether each is a friend of the target, for the
    facts the caller has already paid for. A candidate in it is settled
    by that answer; every other candidate costs one friendship check.
    The order of the checks does not matter: a query budget trips at the
    same count in any order, and a victim that trips it is skipped whole.
    """
    pictures = oracle.public_pictures_of(target)
    candidates = set().union(
        *(picture.likers for picture in pictures),
        *(picture.commenters for picture in pictures),
    )
    candidates.discard(target)

    settled = candidates & held.keys()
    # In place, the two updates cost O(len(settled)); a copy of the
    # candidates less the settled ones would cost O(len(candidates)).
    candidates -= settled
    friends = {c for c in candidates if oracle.are_friends(c, target)}
    candidates |= settled
    friends.update(c for c in settled if held[c])
    return FriendsFound(target=target, friends=frozenset(friends), candidates=candidates)


def collect_2hop(victim: str, oracle: PublicView) -> TwoHopSurvey:
    """Run recovery on the victim and each recovered friend, and map the
    mutual friends of every (friend, friend-of-friend) pair.

    Each profile is surveyed once: the victim's friends are distinct.
    The pair (friend, victim) is skipped by design, though its answer
    names friends of the victim that recovery missed (see ROADMAP.md).
    ``held`` is the ledger of facts paid for (see the module docstring):
    friend still to recover -> id -> whether the two are friends.
    """
    recovered = recover_friends(victim, oracle)
    held = {friend: {victim: True} for friend in recovered.friends}
    mutuals: dict[str, dict[str, frozenset[str]]] = {}
    for friend in sorted(recovered.friends):
        found = recover_friends(friend, oracle, held.pop(friend))
        for later in found.candidates & held.keys():
            held[later][friend] = later in found.friends
        row = {}
        for second in sorted(found.friends - {victim}):
            # None also when recovery on an earlier ``second`` missed ``friend``
            mirror = mutuals.get(second, {}).get(friend)
            common = row[second] = (
                oracle.mutual_friends(friend, second) if mirror is None else mirror
            )
            if second in held:
                held[second].update(dict.fromkeys(common, True))
        if row:
            mutuals[friend] = row
    return TwoHopSurvey(recovered=recovered, mutuals=mutuals)


def build_graph(survey: TwoHopSurvey) -> FriendshipGraph:
    """Assemble the 2-hop friendship graph from a survey.

    Every inserted edge is a known-true friendship: victim-to-friend
    edges are verified during recovery, friend-to-second-hop edges come
    from recovery on the friend, and mutual-friend edges come from the
    oracle. Edges are inserted even when both endpoints already exist,
    so the graph carries every fact the survey established. Edges go in
    set-at-a-time and one side only, then one pass makes ``adj``
    symmetric. Roles follow from the graph alone: besides the victim and
    its recovered friends, every node is 2-hop, TWO_HOP_SINGLE_EDGE
    exactly when its shared-edge count is 1.
    """
    victim = survey.recovered.target
    one_hop = survey.recovered.friends
    adj = {victim: set(one_hop), **{friend: {victim} for friend in one_hop}}
    for friend, row in survey.mutuals.items():
        for second, commons in row.items():
            if second in adj:
                adj[second] |= commons
            else:
                adj[second] = set(commons)
            adj[friend] |= commons
        adj[friend].update(row)
    for a, near in list(adj.items()):  # add the missing side of each edge
        for b in near:
            if b in adj:
                adj[b].add(a)
            else:  # a common friend, so far only on the sides of its pair
                adj[b] = {a}
    roles = {victim: Role.VICTIM, **dict.fromkeys(one_hop, Role.ONE_HOP)}
    graph = FriendshipGraph(roles=roles, adj=adj, one_hop=one_hop)
    for node in adj:
        if node not in roles:
            single = shared_edge_count(graph, node) == 1
            roles[node] = Role.TWO_HOP_SINGLE_EDGE if single else Role.TWO_HOP_RELEVANT
    return graph


def shared_edge_count(graph: FriendshipGraph, node: str) -> int:
    """Number of the victim's recovered friends adjacent to ``node``.

    Raises KeyError for a node that is not in the graph.
    """
    return len(graph.adj[node] & graph.one_hop)


def two_hop_nodes(graph: FriendshipGraph) -> list[str]:
    """The 2-hop nodes in no particular order."""
    return [
        node
        for node, role in graph.roles.items()
        if role in (Role.TWO_HOP_RELEVANT, Role.TWO_HOP_SINGLE_EDGE)
    ]


def prune_single_edge(graph: FriendshipGraph) -> FriendshipGraph:
    """Drop 2-hop nodes sharing exactly one friend with the victim.

    Relies on the invariant ``build_graph`` establishes: a node has role
    TWO_HOP_SINGLE_EDGE exactly when its shared-edge count is 1, so the
    prune is a filter on that role. Idempotent: removed nodes are never
    in ``one_hop``, so surviving nodes keep their shared-edge counts and
    the invariant still holds on the result.
    """
    doomed = {
        node for node, role in graph.roles.items() if role == Role.TWO_HOP_SINGLE_EDGE
    }
    roles = {node: role for node, role in graph.roles.items() if node not in doomed}
    adj = {node: graph.adj[node] - doomed for node in roles}
    return FriendshipGraph(roles=roles, adj=adj, one_hop=graph.one_hop)
