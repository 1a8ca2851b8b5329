"""Golden outputs: sha256 digests of what the CLI writes for fixed inputs.

A refactor must leave every digest unchanged. A change that alters
outputs on purpose updates the digests here and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from osnrecon.cli import main

GENERATE_ARGS = ["--users", "60", "--mean-degree", "6", "--seed", "3"]
RUN_ARGS = ["--best-info", "0.02", "--best-edges", "0.5"]
# The non-default report sections: unpruned graphs, pruned candidates
# counted as negatives, and victims skipped for budget.
OPTION_ARGS = [*RUN_ARGS, "--no-prune", "--count-pruned-as-negative", "--budget", "100"]
EDGES = "a b\nb c\nc a\nc d\nd e\ne a\nb d\n"
ATTRS = [
    {"id": "a", "feature": "hometown", "value": "Rome"},
    {"id": "b", "feature": "current_city", "value": "padua"},
    {"id": "c", "feature": "education", "value": " Venice "},
    {"id": "d", "feature": "hometown", "value": "rome"},
]

GENERATE_SHA256 = "fee8f218c3037a2b77756f6cbda5a379b155575f1fc103f244fe4b0d6d2f1d2f"
INGEST_SHA256 = "51fd63b8d19a801a5d8ddec0ae11be74e8792674334024765144aa1a3bc605af"
RUN_TREE_SHA256 = "766bda78d40e0a419c435596d008bd464ef0bd8dbd371d9416c3fd2a372953de"
OPTION_TREE_SHA256 = "3daebb5f3f851e8c972911205450f6920f58d00a3c9598278cd94f2590e3d2f7"
CALIBRATE_SHA256 = "4208e51f75a4d4dae3250f85e501f43cb1130bf106be4029c68cc94b6b50cc1c"
EXPORT_DOT_SHA256 = {
    "pruned": "1836cae48f3fee21f37784dcc4838f5503722312afd42728c87539360564bd91",
    "unpruned": "e628ec942b8642babe4a839357ac248e9bae0724bdd034e8d6e3c2086110da66",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_sha256(root) -> str:
    """Digest of every file under ``root``: relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(_sha256(path.read_bytes()).encode("ascii") + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "snap.json"
    assert main(["generate", *GENERATE_ARGS, "--out", str(path)]) == 0
    return path


def test_generate_output(generated):
    assert _sha256(generated.read_bytes()) == GENERATE_SHA256


def test_ingest_output(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text(EDGES)
    attrs = tmp_path / "attrs.json"
    attrs.write_text(json.dumps(ATTRS))
    out = tmp_path / "snap.json"
    argv = ["ingest", "--edges", str(edges), "--attrs", str(attrs), "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == INGEST_SHA256


def _users(snapshot) -> list[str]:
    return [user["id"] for user in json.loads(snapshot.read_text())["users"]]


def _run_every_user(snapshot, out, args) -> None:
    argv = ["run", "--snapshot", str(snapshot), *args, "--out", str(out)]
    assert main(argv + [arg for uid in _users(snapshot) for arg in ("--victim", uid)]) == 0


def test_run_artifact_tree(generated, tmp_path):
    out = tmp_path / "out"
    _run_every_user(generated, out, RUN_ARGS)
    assert _tree_sha256(out) == RUN_TREE_SHA256


def test_run_artifact_tree_with_options(generated, tmp_path):
    out = tmp_path / "out"
    _run_every_user(generated, out, OPTION_ARGS)
    aggregate = json.loads((out / "aggregate.json").read_text())["aggregate"]
    assert (aggregate["victims_evaluated"], aggregate["victims_skipped"]) == (26, 34)
    reports = [json.loads(path.read_text()) for path in out.glob("*/report.json")]
    evaluated = [report for report in reports if not report["skipped"]]
    # Every evaluated victim scores a single-edge candidate that pruning
    # would have removed.
    assert all(any(s["shared_edges"] == 1 for s in r["scores"]) for r in evaluated)
    assert _tree_sha256(out) == OPTION_TREE_SHA256


def test_aggregate_lists_each_report(generated, tmp_path):
    out = tmp_path / "out"
    _run_every_user(generated, out, OPTION_ARGS)
    entries = json.loads((out / "aggregate.json").read_text())["victims"]
    assert [entry["victim"] for entry in entries] == sorted(_users(generated))
    assert {entry["skipped"] for entry in entries} == {False, True}
    for entry in entries:
        assert entry == json.loads((out / entry["victim"] / "report.json").read_text())


def test_calibrate_output(generated, capsys):
    victims = [arg for uid in _users(generated) for arg in ("--victim", uid)]
    assert main(["calibrate", "--snapshot", str(generated), *victims]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["labeled_candidates"] == 276
    assert _sha256(printed.encode("utf-8")) == CALIBRATE_SHA256


@pytest.mark.parametrize("name, flags", [("pruned", []), ("unpruned", ["--no-prune"])])
def test_export_dot_output(generated, capsys, name, flags):
    victim = _users(generated)[0]
    assert main(["export-dot", "--snapshot", str(generated), "--victim", victim, *flags]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == EXPORT_DOT_SHA256[name]
