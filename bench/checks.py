"""Output checks against the benchmark's own ground truth.

Each check returns a list of problems; an empty list means the output is
correct. The ground truth comes from :mod:`inputs`, never from the
program under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from inputs import Network

VICTIM_FILES = {"report.json", "graph.dot", "mutuals.json", "rates.csv", "friends.csv", "scores.csv"}
RATE_FEATURES = ("education", "hometown", "current_city")
BEST_INFO = Fraction(1, 50)  # what the program makes of --best-info 0.02
BEST_EDGES = Fraction(1, 2)  # --best-edges 0.5


def _cell(value: Fraction) -> str:
    return f"{float(value):.6f}"


def _rates(network: Network, recovered: set[str]) -> dict[str, dict[str, Fraction]]:
    unit = Fraction(1, len(recovered))
    tables: dict[str, dict[str, Fraction]] = {f: {} for f in RATE_FEATURES}
    for friend in recovered:
        for feature, value in network.public_attrs.get(friend, {}).items():
            tables[feature][value] = tables[feature].get(value, Fraction(0)) + unit
    return tables


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _observed_edges(network: Network, victim: str, recovered: set[str]) -> set[tuple[str, str]]:
    """True friendships that the 2-hop survey of ``victim`` establishes.

    The survey sees victim-friend edges for each recovered friend f, the
    edge f-s for each friend s that recovery on f finds, and, through
    the mutual-friends channel, f-m and m-s for every common friend m of
    such a pair. A friendship outside this set is invisible to the
    attacker, so a shared-edge count cannot include it.
    """
    edges = {_pair(victim, f) for f in recovered}
    for f in recovered:
        for s in (network.friends[f] & network.engaged[f]) - {victim}:
            edges.add(_pair(f, s))
            for m in (network.friends[f] & network.friends[s]) - {f, s}:
                edges.add(_pair(f, m))
                edges.add(_pair(m, s))
    return edges


def _check_scores(network: Network, victim: str, recovered: set[str], path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    shared = {}
    observed = _observed_edges(network, victim, recovered) if rows else set()
    for row in rows:
        candidate = row["candidate"]
        if candidate not in network.friends or candidate == victim or candidate in recovered:
            problems.append(f"{victim}: scores.csv lists invalid candidate {candidate!r}")
            continue
        truth = sum(1 for f in recovered if _pair(f, candidate) in observed)
        if int(row["shared_edges"]) != truth:
            problems.append(
                f"{victim}: {candidate} shared_edges {row['shared_edges']} != {truth}"
            )
        if truth <= 1:
            problems.append(f"{victim}: {candidate} kept with {truth} shared edge(s)")
        shared[candidate] = truth
    if problems or not rows:
        return problems
    highest = max(shared.values())
    rates = _rates(network, recovered)
    for row in rows:
        candidate = row["candidate"]
        attrs = network.public_attrs.get(candidate, {})
        info = sum(
            (rates[f].get(v, Fraction(0)) for f, v in attrs.items()), Fraction(0)
        ) / 3
        edge = Fraction(shared[candidate], highest)
        expected = {
            "info_score": _cell(info),
            "edge_score": _cell(edge),
            "combined": _cell((info + edge) / 2),
            "verdict": "FRIEND" if info >= BEST_INFO and edge >= BEST_EDGES else "NOT_FRIEND",
        }
        for column, value in expected.items():
            if row[column] != value:
                problems.append(
                    f"{victim}: {candidate} {column} {row[column]!r} != {value!r}"
                )
    return problems


def check_run(network: Network, out_dir: Path) -> list[str]:
    """Check one ``run`` output tree against the network's ground truth."""
    aggregate_path = out_dir / "aggregate.json"
    if not aggregate_path.is_file():
        return [f"{aggregate_path} missing"]
    with open(aggregate_path, encoding="utf-8") as handle:
        aggregate = json.load(handle)
    docs = {doc["victim"]: doc for doc in aggregate["victims"]}
    if sorted(docs) != sorted(network.victims):
        return ["aggregate.json does not list exactly the requested victims"]
    problems = []
    for victim in network.victims:
        doc = docs[victim]
        recovered = network.friends[victim] & network.engaged[victim]
        base = out_dir / victim
        present = {p.name for p in base.iterdir()} if base.is_dir() else set()
        if not recovered:
            if not doc["skipped"] or doc.get("skip_reason") != "no friends recovered":
                problems.append(f"{victim}: expected a skip for no recovered friends")
            if present != {"report.json"}:
                problems.append(f"{victim}: skipped victim has files {sorted(present)}")
            continue
        if doc["skipped"]:
            problems.append(f"{victim}: skipped ({doc.get('skip_reason')})")
            continue
        if present != VICTIM_FILES:
            problems.append(f"{victim}: artifact set is {sorted(present)}")
            continue
        if set(doc["recovered_friends"]) != recovered:
            problems.append(f"{victim}: recovered friends differ from ground truth")
            continue
        problems.extend(_check_scores(network, victim, recovered, base / "scores.csv"))
    return problems


def tree_digest(root: Path) -> str:
    """One digest over every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_generated(path: Path, users: int, mean_degree: float, load) -> list[str]:
    """Reload a ``generate`` output through the program's loader.

    The program's generator draws exactly round(users * mean_degree / 2)
    distinct edges, which is the count checked here.
    """
    snapshot = load(path)
    problems = []
    if len(snapshot.users) != users:
        problems.append(f"generate wrote {len(snapshot.users)} users, expected {users}")
    edges = len(snapshot.friendship_edges())
    expected = round(users * mean_degree / 2)
    if edges != expected:
        problems.append(f"generate wrote {edges} edges, expected {expected}")
    return problems
