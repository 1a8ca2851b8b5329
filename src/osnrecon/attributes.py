"""Attribute-rate tables and ranked guesses.

A profile's visible attributes are a plain feature -> label mapping
holding only the features the user filled in. For each feature
(education, hometown, current city) the rate of a value is the number of
recovered friends carrying it divided by the total number of recovered
friends. Friends with private or absent attributes contribute nothing to
the numerator but stay in the denominator, so the per-feature rate mass
is at most 1. Labels are counted as integers, and each rate is reported
as one exact ``Fraction(count, friends)``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable

from .oracle import FEATURES, PublicView
from .twohop import FriendsFound

# feature -> label -> rate, with every feature as a key, in FEATURES order
Rates = dict[str, dict[str, Fraction]]
# (label, rate) pairs, descending by rate, labels breaking ties
Ranking = tuple[tuple[str, Fraction], ...]


class InferenceError(Exception):
    pass


def collect_friend_records(
    friends: FriendsFound, oracle: PublicView
) -> dict[str, dict[str, str]]:
    """Each recovered friend's visible attributes, in sorted id order; a
    private profile gives an empty mapping."""
    return {
        friend: oracle.public_attributes_of(friend) or {}
        for friend in sorted(friends.friends)
    }


def extract_rates(records: dict[str, dict[str, str]]) -> Rates:
    """Build per-feature rate tables from the recovered friends' records."""
    if not records:
        raise InferenceError("no recovered friends; inference impossible")
    counts: dict[str, dict[str, int]] = {f: {} for f in FEATURES}
    for attrs in records.values():
        for feature, value in attrs.items():
            table = counts[feature]
            table[value] = table.get(value, 0) + 1
    n = len(records)
    return {
        feature: {value: Fraction(count, n) for value, count in table.items()}
        for feature, table in counts.items()
    }


def rank_guesses(rates: Rates) -> dict[str, Ranking]:
    """Sort each feature's values by descending rate, labels break ties."""
    rankings = {}
    for feature in FEATURES:
        ranked = sorted(rates[feature].items())  # by label: labels are distinct
        ranked.sort(key=itemgetter(1), reverse=True)  # stable: ties keep label order
        rankings[feature] = tuple(ranked)
    return rankings


def _accuracy(
    guesses: dict[str, dict[str, Ranking]],
    truth: dict[str, dict[str, str | None]],
    k: int,
    hit: Callable[[Ranking, str], bool],
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
    guesses: dict[str, dict[str, Ranking]],
    truth: dict[str, dict[str, str | None]],
    k: int,
) -> dict[str, Fraction | None]:
    """Fraction of targets whose true value sits at exactly position k.

    ``guesses`` maps target id -> feature -> ranking; ``truth`` maps
    target id -> feature -> true label (None when unknown). Targets with
    no ground truth for a feature are excluded from that feature's
    denominator; a feature with no ground truth at all yields None.
    """
    return _accuracy(
        guesses, truth, k, lambda ranked, value: len(ranked) >= k and ranked[k - 1][0] == value
    )


def top_within_k_accuracy(
    guesses: dict[str, dict[str, Ranking]],
    truth: dict[str, dict[str, str | None]],
    k: int,
) -> dict[str, Fraction | None]:
    """Cumulative variant: true value anywhere in the first k positions."""
    return _accuracy(
        guesses, truth, k, lambda ranked, value: any(label == value for label, _ in ranked[:k])
    )
