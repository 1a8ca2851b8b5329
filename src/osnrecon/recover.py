"""Friend recovery from public picture engagement.

Everyone who liked or commented one of the target's public pictures is a
candidate; each candidate is then verified with a pairwise friendship
check through the oracle, unless the caller already holds the answer.
Verification is exact, so the result contains no false positives;
recall is bounded by how many real friends engaged.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass

from .oracle import PublicView


@dataclass(frozen=True)
class FriendsFound:
    target: str
    friends: frozenset[str]
    candidates: Set[str]

    @property
    def candidates_checked(self) -> int:
        return len(self.candidates)


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
