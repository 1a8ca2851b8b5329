"""Restricted public view over a snapshot.

This is the only surface the reconstruction pipeline may query. It
exposes exactly the channels that leak in the platform being modelled:

* pairwise friendship checks (the mutual-content page shows a
  "friends since" banner regardless of friends-list privacy),
* mutual friends of a pair (same page),
* a user's public pictures with their engagement,
* a user's filled-in attributes, only when attributes are public.

Ground-truth friend sets are never returned directly. Every answered
call is charged one query; an optional budget turns rate limiting into
a hard error. One rule refuses a call, and a refused call charges
nothing: identical ids raise ``IdenticalIdsError``, else the first
unknown id (``a`` before ``b``) raises ``UnknownUserError``, else a
spent budget raises ``QueryBudgetExceeded``. Each victim's survey pays
for each fact once; ``twohop`` states that rule and keeps the ledger.
"""

from __future__ import annotations

import sys
from typing import NoReturn

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
        self._users = snapshot.users
        # No count reaches sys.maxsize, so "no budget" needs no test of its own.
        self._budget = sys.maxsize if budget is None else budget
        self._count = 0

    @property
    def query_count(self) -> int:
        return self._count

    def _refuse(self, a: str, b: str | None = None) -> NoReturn:
        """Raise the error that refuses a call on ``a`` (and ``b``)."""
        if a == b:
            raise IdenticalIdsError(a)
        for user_id in (a, b):
            if user_id is not None and user_id not in self._users:
                raise UnknownUserError(user_id)
        raise QueryBudgetExceeded(self._budget)

    def are_friends(self, a: str, b: str) -> bool:
        pa, pb = self._users.get(a), self._users.get(b)
        if pa is None or pb is None or a == b or self._count >= self._budget:
            self._refuse(a, b)
        self._count += 1
        return b in pa.friends

    def mutual_friends(self, a: str, b: str) -> frozenset[str]:
        """Common friends of ``a`` and ``b``. Neither endpoint is among
        them: ``OsnSnapshot.validate`` rejects a user who lists itself."""
        pa, pb = self._users.get(a), self._users.get(b)
        if pa is None or pb is None or a == b or self._count >= self._budget:
            self._refuse(a, b)
        self._count += 1
        return pa.friends & pb.friends

    def public_pictures_of(self, user_id: str) -> list[Picture]:
        profile = self._users.get(user_id)
        if profile is None or self._count >= self._budget:
            self._refuse(user_id)
        self._count += 1
        return [p for p in profile.pictures if p.public]

    def public_attributes_of(self, user_id: str) -> dict[str, str] | None:
        """Feature -> label for the features the user filled in, or None
        when the profile's attributes are private."""
        profile = self._users.get(user_id)
        if profile is None or self._count >= self._budget:
            self._refuse(user_id)
        self._count += 1
        if not profile.attributes_public:
            return None
        stored = profile.attributes
        return {f: stored[f] for f in FEATURES if f in stored}
