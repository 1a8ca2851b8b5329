"""Restricted public view over a snapshot.

This is the only surface the reconstruction pipeline may query. It
exposes exactly the channels that leak in the platform being modelled:

* pairwise friendship checks (the mutual-content page shows a
  "friends since" banner regardless of friends-list privacy),
* mutual friends of a pair (same page),
* a user's public pictures with their engagement,
* a user's filled-in attributes, only when attributes are public.

Ground-truth friend sets are never returned directly. Every call is
counted, and an optional budget turns rate limiting into a hard error.
Each fact is paid for once per victim: the survey
(``twohop.collect_2hop``) reuses the answer to a pair it has already
asked, in either order, and recovery on a friend ``t`` does not check
the ids in an earlier ``mutual_friends(f, t)`` answer, each of which is
a friend of ``t``. That reuse stays sound under a rule that narrows the
answer, such as leaving out users who hide their friend list, because
the answer then still holds only true common friends. The survey does
not reuse the reverse facts (``f`` and ``s`` are friends of each id in
``mutual_friends(f, s)``): they would save under 1% of the queries for
a set operation on every pair.
"""

from __future__ import annotations

from .model import OsnSnapshot, Picture

# The attributes a public profile can show, in artifact column order.
FEATURES = ("education", "hometown", "current_city")


class OracleError(Exception):
    pass


class UnknownUserError(OracleError):
    def __init__(self, user_id: str):
        super().__init__(f"unknown user id {user_id!r}")
        self.user_id = user_id


class IdenticalIdsError(OracleError):
    def __init__(self, user_id: str):
        super().__init__(f"cannot query a pair of identical ids ({user_id!r})")


class QueryBudgetExceeded(OracleError):
    def __init__(self, budget: int):
        super().__init__(f"query budget of {budget} exhausted")
        self.budget = budget


class PublicView:
    """Read-only oracle over one snapshot."""

    def __init__(self, snapshot: OsnSnapshot, budget: int | None = None):
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self._snapshot = snapshot
        self._budget = budget
        self._count = 0

    @property
    def query_count(self) -> int:
        return self._count

    def _charge(self) -> None:
        if self._budget is not None and self._count >= self._budget:
            raise QueryBudgetExceeded(self._budget)
        self._count += 1

    def _profile(self, user_id: str):
        profile = self._snapshot.users.get(user_id)
        if profile is None:
            raise UnknownUserError(user_id)
        return profile

    def _pair(self, a: str, b: str):
        if a == b:
            raise IdenticalIdsError(a)
        return self._profile(a), self._profile(b)

    # The pair channels are the hottest calls of a survey, so their
    # success path is inlined; ``_pair`` runs only to raise the error.
    def are_friends(self, a: str, b: str) -> bool:
        users = self._snapshot.users
        pa, pb = users.get(a), users.get(b)
        if pa is None or pb is None or a == b:
            self._pair(a, b)
        if self._budget is not None and self._count >= self._budget:
            raise QueryBudgetExceeded(self._budget)
        self._count += 1
        return b in pa.friends

    def mutual_friends(self, a: str, b: str) -> frozenset[str]:
        """Common friends of ``a`` and ``b``. Neither endpoint is among
        them: ``OsnSnapshot.validate`` rejects a user who lists itself."""
        users = self._snapshot.users
        pa, pb = users.get(a), users.get(b)
        if pa is None or pb is None or a == b:
            self._pair(a, b)
        if self._budget is not None and self._count >= self._budget:
            raise QueryBudgetExceeded(self._budget)
        self._count += 1
        return pa.friends & pb.friends

    def public_pictures_of(self, user_id: str) -> list[Picture]:
        profile = self._profile(user_id)
        self._charge()
        return [p for p in profile.pictures if p.public]

    def public_attributes_of(self, user_id: str) -> dict[str, str] | None:
        """Feature -> label for the features the user filled in, or None
        when the profile's attributes are private."""
        profile = self._profile(user_id)
        self._charge()
        if not profile.attributes_public:
            return None
        stored = profile.attributes
        return {f: stored[f] for f in FEATURES if f in stored}
