"""Attribute-rate tables and ranked guesses.

For each feature (education, hometown, current city) the rate of a value
is the number of recovered friends carrying it divided by the total
number of recovered friends. Friends with private or absent attributes
contribute nothing to the numerator but stay in the denominator, so the
per-feature rate mass is at most 1. Rates use exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .oracle import ProfileAttributes, PublicView
from .recover import FriendsFound

FEATURES = ("education", "hometown", "current_city")


class InferenceError(Exception):
    pass


@dataclass(frozen=True)
class AttributeRates:
    education: dict[str, Fraction]
    hometown: dict[str, Fraction]
    current_city: dict[str, Fraction]
    denominator: int

    def table(self, feature: str) -> dict[str, Fraction]:
        if feature not in FEATURES:
            raise KeyError(f"unknown feature {feature!r}")
        return getattr(self, feature)


@dataclass(frozen=True)
class RankedGuess:
    feature: str
    values: tuple[tuple[str, Fraction], ...]  # descending by rate, label tie-break

    def at(self, position: int) -> str | None:
        """Label at 1-based ``position``, or None past the end."""
        if 1 <= position <= len(self.values):
            return self.values[position - 1][0]
        return None


@dataclass(frozen=True)
class FriendRecord:
    """One recovered friend's visible attribute triple."""

    source: str
    education: str | None
    hometown: str | None
    current_city: str | None


def collect_friend_records(
    friends: FriendsFound, oracle: PublicView
) -> list[FriendRecord]:
    records = []
    for friend in sorted(friends.friends):
        attrs = oracle.public_attributes_of(friend) or ProfileAttributes()
        records.append(
            FriendRecord(
                source=friend,
                education=attrs.education,
                hometown=attrs.hometown,
                current_city=attrs.current_city,
            )
        )
    return records


def extract_rates(records: list[FriendRecord]) -> AttributeRates:
    """Build per-feature rate tables from the recovered friends' records."""
    if not records:
        raise InferenceError("no recovered friends; inference impossible")
    tables: dict[str, dict[str, Fraction]] = {f: {} for f in FEATURES}
    unit = Fraction(1, len(records))
    for record in records:
        for feature in FEATURES:
            value = getattr(record, feature)
            if value is not None:
                table = tables[feature]
                table[value] = table.get(value, Fraction(0)) + unit
    return AttributeRates(
        education=tables["education"],
        hometown=tables["hometown"],
        current_city=tables["current_city"],
        denominator=len(records),
    )


def rank_guesses(rates: AttributeRates) -> dict[str, RankedGuess]:
    """Sort each feature's values by descending rate, labels break ties."""
    out = {}
    for feature in FEATURES:
        ordered = sorted(rates.table(feature).items(), key=lambda kv: (-kv[1], kv[0]))
        out[feature] = RankedGuess(feature=feature, values=tuple(ordered))
    return out


def _accuracy(
    guesses: dict[str, dict[str, RankedGuess]],
    truth: dict[str, dict[str, str | None]],
    k: int,
    hit: Callable[[RankedGuess, str], bool],
) -> dict[str, Fraction | None]:
    """Per feature, the fraction of targets with known truth where ``hit``
    holds for the target's ranking and true value."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not guesses:
        raise InferenceError("no targets to evaluate")
    out: dict[str, Fraction | None] = {}
    for feature in FEATURES:
        hits = 0
        total = 0
        for target, per_feature in guesses.items():
            true_value = truth.get(target, {}).get(feature)
            if true_value is None:
                continue
            total += 1
            if hit(per_feature[feature], true_value):
                hits += 1
        out[feature] = Fraction(hits, total) if total else None
    return out


def top_k_accuracy(
    guesses: dict[str, dict[str, RankedGuess]],
    truth: dict[str, dict[str, str | None]],
    k: int,
) -> dict[str, Fraction | None]:
    """Fraction of targets whose true value sits at exactly position k.

    ``guesses`` maps target id -> feature -> ranking; ``truth`` maps
    target id -> feature -> true label (None when unknown). Targets with
    no ground truth for a feature are excluded from that feature's
    denominator; a feature with no ground truth at all yields None.
    """
    return _accuracy(guesses, truth, k, lambda ranked, value: ranked.at(k) == value)


def top_within_k_accuracy(
    guesses: dict[str, dict[str, RankedGuess]],
    truth: dict[str, dict[str, str | None]],
    k: int,
) -> dict[str, Fraction | None]:
    """Cumulative variant: true value anywhere in the first k positions."""
    return _accuracy(
        guesses,
        truth,
        k,
        lambda ranked, value: any(label == value for label, _ in ranked.values[:k]),
    )
