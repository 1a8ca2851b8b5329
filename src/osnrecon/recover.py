"""Friend recovery from public picture engagement.

Everyone who liked or commented one of the target's public pictures is a
candidate; each candidate is then verified with a pairwise friendship
check through the oracle. Verification is exact, so the result contains
no false positives; recall is bounded by how many real friends engaged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import PublicView


@dataclass(frozen=True)
class FriendsFound:
    target: str
    friends: frozenset[str]
    candidates_checked: int


def recover_friends(target: str, oracle: PublicView) -> FriendsFound:
    """Recover the target's friends visible through picture engagement.

    Each candidate costs one friendship check. The order of the checks
    does not matter: a query budget trips at the same count in any
    order, and a victim that trips it is skipped whole.
    """
    candidates: set[str] = set()
    for picture in oracle.public_pictures_of(target):
        candidates |= picture.likers | picture.commenters
    candidates.discard(target)

    friends = {candidate for candidate in candidates if oracle.are_friends(candidate, target)}
    return FriendsFound(
        target=target,
        friends=frozenset(friends),
        candidates_checked=len(candidates),
    )
