"""Friend recovery from public picture engagement.

Everyone who liked or commented one of the target's public pictures is a
candidate; each candidate is then verified with a pairwise friendship
check through the oracle. Verification is exact, so the result contains
no false positives; recall is bounded by how many real friends engaged.
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
    target: str, oracle: PublicView, earlier: Mapping[str, FriendsFound] = {}
) -> FriendsFound:
    """Recover the target's friends visible through picture engagement.

    ``earlier`` maps the targets already recovered in the same survey to
    their results. A candidate ``c`` in it that had the target among its
    own candidates was checked against the target then, so its answer
    is reused; every other candidate costs one friendship check. The
    order of the checks does not matter: a query budget trips at the
    same count in any order, and a victim that trips it is skipped whole.
    """
    pictures = oracle.public_pictures_of(target)
    candidates = set().union(
        *(picture.likers for picture in pictures),
        *(picture.commenters for picture in pictures),
    )
    candidates.discard(target)

    answered = {c for c in candidates.intersection(earlier) if target in earlier[c].candidates}
    # In place, the two updates cost O(len(answered)); a copy of the
    # candidates less the answered ones would cost O(len(candidates)).
    candidates -= answered
    friends = {c for c in candidates if oracle.are_friends(c, target)}
    candidates |= answered
    friends.update(c for c in answered if target in earlier[c].friends)
    return FriendsFound(target=target, friends=frozenset(friends), candidates=candidates)
