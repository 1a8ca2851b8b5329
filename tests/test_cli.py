import argparse
import gc
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnrecon.cli import _cell, build_parser, main

from helpers import worked_example_snapshot


def write_worked_example(tmp_path, single_edge_candidate=False):
    path = tmp_path / "snap.json"
    path.write_text(worked_example_snapshot(single_edge_candidate).to_json())
    return path


def test_generate_then_run_smoke(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    out = tmp_path / "out"
    assert main(["generate", "--users", "50", "--seed", "7", "--out", str(snap)]) == 0
    assert main(
        ["run", "--snapshot", str(snap), "--victim", "u012", "--out", str(out)]
    ) == 0
    victim_dir = out / "u012"
    assert (out / "aggregate.json").is_file()
    assert (victim_dir / "report.json").is_file()
    report = json.loads((victim_dir / "report.json").read_text())
    assert report["victim"] == "u012"
    if not report["skipped"]:
        for name in ("graph.dot", "mutuals.json", "rates.csv", "scores.csv"):
            assert (victim_dir / name).is_file()


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    documented = set(re.findall(r"^osnrecon ([\w-]+)", block, re.M))
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert documented == set(subparsers.choices)


# Each subcommand's options, and which of them are required. Moving options
# into a shared parser must neither drop nor add one.
GENERATOR_OPTIONS = {
    "--config", "--pictures-per-user", "--p-friend", "--p-stranger", "--p-picture-public",
    "--p-attributes-public", "--homophily", "--seed", "--out", "-h", "--help",
}
ATTACK_OPTIONS = {"--snapshot", "--victim", "--no-prune", "--budget", "--out", "-h", "--help"}
SUBCOMMAND_OPTIONS = {
    "generate": (GENERATOR_OPTIONS | {"--users", "--mean-degree"}, {"--seed", "--out"}),
    "ingest": (GENERATOR_OPTIONS | {"--edges", "--attrs"}, {"--seed", "--out", "--edges"}),
    "run": (
        ATTACK_OPTIONS | {"--best-info", "--best-edges", "--count-pruned-as-negative"},
        {"--snapshot", "--victim"},
    ),
    "calibrate": (ATTACK_OPTIONS, {"--snapshot", "--victim"}),
    "export-dot": (ATTACK_OPTIONS, {"--snapshot", "--victim"}),
}


def test_each_subcommand_keeps_its_options():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    found = {
        name: (
            {option for action in parser._actions for option in action.option_strings},
            {option for action in parser._actions if action.required
             for option in action.option_strings},
        )
        for name, parser in subparsers.choices.items()
    }
    assert found == SUBCOMMAND_OPTIONS


def test_run_missing_victim_names_id(tmp_path, capsys):
    snap = write_worked_example(tmp_path)
    out = tmp_path / "o"
    # "c1" is evaluated before "nobody"; a failed run still writes nothing.
    code = main(
        ["run", "--snapshot", str(snap), "--victim", "nobody", "--victim", "c1",
         "--out", str(out)]
    )
    assert code != 0
    assert "nobody" in capsys.readouterr().err
    assert not out.exists()


def test_run_budget_skips_victims_and_continues(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    out = tmp_path / "out"
    assert main(["generate", "--users", "30", "--seed", "7", "--out", str(snap)]) == 0
    victims = ["u000", "u001", "u002"]
    argv = ["run", "--snapshot", str(snap), "--budget", "5", "--out", str(out)]
    assert main(argv + [arg for v in victims for arg in ("--victim", v)]) == 0
    report = json.loads((out / "aggregate.json").read_text())
    assert [doc["victim"] for doc in report["victims"]] == victims
    for doc in report["victims"]:
        assert doc["skip_reason"] == "budget exhausted"
        assert doc["queries"] == 5
        assert [p.name for p in (out / doc["victim"]).iterdir()] == ["report.json"]


def test_run_artifacts_are_byte_identical(tmp_path, capsys):
    snap = write_worked_example(tmp_path)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert main(
            [
                "run", "--snapshot", str(snap), "--victim", "victim",
                "--best-info", "0.02", "--best-edges", "0.5", "--out", str(out),
            ]
        ) == 0
    for name in ("aggregate.json", "victim/report.json", "victim/graph.dot",
                 "victim/scores.csv", "victim/rates.csv", "victim/mutuals.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_verdicts_respect_thresholds(tmp_path, capsys):
    snap = write_worked_example(tmp_path)
    out = tmp_path / "out"
    assert main(
        [
            "run", "--snapshot", str(snap), "--victim", "victim",
            "--best-info", "0.02", "--best-edges", "0.5", "--out", str(out),
        ]
    ) == 0
    scores = (out / "victim" / "scores.csv").read_text().splitlines()
    verdicts = {row.split(",")[0]: row.split(",")[-1] for row in scores[1:]}
    # c1 (0.266, 0.8) passes both thresholds; the rest fail at least one.
    assert verdicts == {
        "c1": "FRIEND", "c2": "NOT_FRIEND", "c3": "NOT_FRIEND", "c4": "NOT_FRIEND",
    }


@pytest.mark.parametrize(
    "given, exact", [("1e-7", "1/10000000"), ("0.02", "1/50"), ("0.5", "1/2")]
)
def test_run_keeps_threshold_as_given(tmp_path, capsys, given, exact):
    snap = write_worked_example(tmp_path)
    out = tmp_path / "out"
    argv = ["run", "--snapshot", str(snap), "--victim", "victim", "--out", str(out)]
    assert main(argv + ["--best-info", given, "--best-edges", given]) == 0
    thresholds = json.loads((out / "aggregate.json").read_text())["thresholds"]
    assert thresholds["best_info"]["exact"] == thresholds["best_edges"]["exact"] == exact


def test_export_dot(tmp_path, capsys):
    snap = write_worked_example(tmp_path)
    target = tmp_path / "graph.dot"
    assert main(
        ["export-dot", "--snapshot", str(snap), "--victim", "victim", "--out", str(target)]
    ) == 0
    text = target.read_text()
    assert "fillcolor=green" in text
    assert "fillcolor=orange" in text
    assert '"c1" [fillcolor=orange];' in text


@pytest.mark.parametrize("flags", [[], ["--no-prune"]])
def test_export_dot_stdout_matches_run_graph(tmp_path, capsys, flags):
    snap = write_worked_example(tmp_path, single_edge_candidate=True)
    out = tmp_path / "out"
    run = ["run", "--snapshot", str(snap), "--victim", "victim", "--out", str(out)]
    assert main(run + flags) == 0
    capsys.readouterr()
    assert main(["export-dot", "--snapshot", str(snap), "--victim", "victim", *flags]) == 0
    assert capsys.readouterr().out == (out / "victim" / "graph.dot").read_text()
    report = json.loads((out / "victim" / "report.json").read_text())
    scored = {score["candidate"] for score in report["scores"]}
    # c5 shares a single edge with the victim's friends.
    if flags:
        assert "c5" in scored and report["graph"]["pruned_out"] == []
    else:
        assert "c5" not in scored and report["graph"]["pruned_out"] == ["c5"]


def test_export_dot_unknown_victim_exit_2(tmp_path, capsys):
    snap = write_worked_example(tmp_path)
    assert main(["export-dot", "--snapshot", str(snap), "--victim", "nobody"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error (export-dot): ")
    assert "nobody" in captured.err
    assert captured.out == ""


# The last two would name the aggregate report's own path as a directory.
@pytest.mark.parametrize("victim", ["../x", "..", "aggregate.json", "aggregate.json.tmp"])
def test_run_rejects_victim_ids_that_leave_out(tmp_path, capsys, victim):
    # The worked example with the victim renamed, so the id is in the snapshot.
    text = worked_example_snapshot().to_json().replace('"victim"', json.dumps(victim))
    snap = tmp_path / "snap.json"
    snap.write_text(text)
    out = tmp_path / "out" / "inner"
    argv = ["run", "--snapshot", str(snap), "--victim", victim, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error (run): ")
    assert not (tmp_path / "out").exists()


def test_run_out_defaults_to_environment(tmp_path, capsys, monkeypatch):
    snap = write_worked_example(tmp_path)
    monkeypatch.setenv("OSNRECON_OUT", str(tmp_path / "env"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--snapshot", str(snap), "--victim", "victim"]) == 0
    assert (tmp_path / "env" / "aggregate.json").is_file()
    assert (tmp_path / "env" / "victim" / "report.json").is_file()
    assert not (tmp_path / "osnrecon-out").exists()


def test_generate_huge_mean_degree_is_complete_graph(tmp_path, capsys):
    huge, complete = tmp_path / "huge.json", tmp_path / "complete.json"
    argv = ["generate", "--users", "20", "--seed", "1", "--mean-degree"]
    assert main(argv + ["1e308", "--out", str(huge)]) == 0
    assert main(argv + ["19", "--out", str(complete)]) == 0
    assert huge.read_bytes() == complete.read_bytes()


def test_ingest_subcommand(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\na c\n")
    snap = tmp_path / "snap.json"
    assert main(["ingest", "--edges", str(edges), "--seed", "3", "--out", str(snap)]) == 0
    doc = json.loads(snap.read_text())
    assert {u["id"] for u in doc["users"]} == {"a", "b", "c"}


def test_ingest_has_no_mean_degree_flag(tmp_path, capsys):
    # The edge list fixes the friendships, so no mean degree could apply.
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\n")
    out = tmp_path / "snap.json"
    argv = ["ingest", "--edges", str(edges), "--seed", "3", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--mean-degree", "5"])
    assert exc.value.code == 2
    assert "--mean-degree" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_subcommand(tmp_path, capsys):
    snap = tmp_path / "snap.json"
    assert main(
        [
            "generate", "--users", "60", "--mean-degree", "10", "--p-friend", "0.7",
            "--seed", "11", "--out", str(snap),
        ]
    ) == 0
    capsys.readouterr()
    # Every user is a victim, so the labelled set holds positives whatever
    # the generator's random stream.
    users = [user["id"] for user in json.loads(snap.read_text())["users"]]
    argv = ["calibrate", "--snapshot", str(snap), *(a for u in users for a in ("--victim", u))]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    document = json.loads(printed)
    assert 0.0 <= document["best_info"]["value"] <= 1.0
    assert 0.0 <= document["best_edges"]["value"] <= 1.0
    assert document["labeled_candidates"] > 0

    target = tmp_path / "thresholds.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == printed
    assert target.read_text() == printed


def test_unreadable_snapshot(tmp_path, capsys):
    code = main(["run", "--snapshot", str(tmp_path / "missing.json"), "--victim", "v"])
    assert code != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("run", ["--best-info", "1.5"]),
        ("run", ["--best-info", "nan"]),
        ("run", ["--best-edges", "-0.1"]),
        ("run", ["--budget", "-1"]),
        ("calibrate", ["--budget", "-1"]),
        ("export-dot", ["--budget", "-1"]),
    ],
)
def test_out_of_range_options_exit_2(tmp_path, capsys, command, flags):
    snap = write_worked_example(tmp_path)
    out = tmp_path / "out"
    argv = [command, "--snapshot", str(snap), "--victim", "victim", "--out", str(out)]
    assert main(argv + flags) == 2
    assert capsys.readouterr().err.startswith(f"error ({command}): {flags[0]} ")
    assert not out.exists()


DEEP = "[" * 100_000 + "]" * 100_000
INVALID = "invalid JSON ("  # every JSON input's decode failure, from model.read_json


def _input_row(command, flag, content, message):
    """A row whose test id names the command, flag and content, not the
    expected message."""
    text = content.decode("latin-1") if isinstance(content, bytes) else content
    return pytest.param(command, flag, content, message, id=f"{command}-{flag}-{text}")


@pytest.mark.parametrize(
    "command, flag, content, message",
    [
        _input_row("generate", "--config", "{bad", INVALID),
        _input_row("generate", "--config", "[1, 2]", "generator config must be a JSON object"),
        _input_row("generate", "--config", '{"cities": [1]}',
                   "generator option 'cities': expected a list of strings"),
        _input_row("generate", "--config", '{"n_users": "x"}',
                   "n_users must be an integer, got 'x'"),
        _input_row("generate", "--config", '{"n_users": 2.5}', "n_users must be an integer, got 2.5"),
        _input_row("generate", "--config", '{"mean_degree": null}',
                   "mean_degree must be a number, got None"),
        _input_row("generate", "--config", '{"mean_degree": NaN}',
                   "mean_degree must be finite and >= 0, got nan"),
        # The generator would write a label its own loader rejects.
        _input_row("generate", "--config", '{"cities": ["  ", "rome"]}',
                   "vocabulary label '' is empty or not canonical"),
        _input_row("generate", "--config", '{"pictures_per_user": -1}',
                   "pictures_per_user must be >= 0"),
        _input_row("generate", "--config", '{"colour": 1}',
                   "unknown generator option(s): ['colour']"),
        _input_row("ingest", "--attrs", "{bad", INVALID),
        _input_row("ingest", "--attrs", "5", "attribute rows must be a JSON array"),
        _input_row("ingest", "--attrs", "[1]", "attribute row: missing field 'id'"),
        _input_row("ingest", "--attrs", '[{"id": "a", "feature": "hometown", "value": "   "}]',
                   "attribute row for 'a': field 'value' must be a non-empty string"),
        _input_row("ingest", "--attrs", '[{"id": "a", "feature": "age", "value": "30"}]',
                   "attribute row for 'a': unknown feature 'age'"),
        _input_row("ingest", "--edges", "# no pairs\n", "edge list must mention at least two users"),
        _input_row("run", "--snapshot", "{bad", INVALID),
        _input_row("run", "--snapshot", "[1]", "snapshot document must be an object"),
        _input_row("run", "--snapshot", '{"users": [], "pictures": {}}',
                   "snapshot: field 'pictures' must be a list"),
        _input_row("run", "--snapshot", '{"users": [], "pictures": [1]}',
                   "picture entry must be an object"),
        _input_row("run", "--snapshot", '{"users": [{"id": "a", "friends": [], "privacy": []}]}',
                   "user 'a': field 'privacy' must be an object"),
        _input_row("run", "--snapshot", '{"users": [{"id": "a", "friends": [],'
                   ' "privacy": {"attributes_public": "false"}}]}',
                   "user 'a': privacy flag 'attributes_public' must be true or false"),
        _input_row("run", "--snapshot", '{"users": [{"id": "a", "friends": [["b"]]}]}',
                   "user 'a': field 'friends' must be a list of strings"),
        _input_row("run", "--snapshot", '{"users": [{"id": "a", "friends": []}], "pictures": [{"id":'
                   ' "p", "owner": "a", "public": true, "likers": [["x"]], "commenters": []}]}',
                   "picture 'p': field 'likers' must be a list of strings"),
        # Non-string ids and entries that the loader's string sharing leaves alone.
        _input_row("run", "--snapshot", '{"users": [{"id": "a", "friends": [1]}]}',
                   "user 'a': field 'friends' must be a list of strings"),
        _input_row("run", "--snapshot", '{"users": [{"id": "a", "friends": []}], "pictures": [{"id":'
                   ' "p", "owner": "a", "public": true, "likers": [{"id": "a"}], "commenters": []}]}',
                   "picture 'p': field 'likers' must be a list of strings"),
        _input_row("run", "--snapshot", '{"users": ["a"]}', "user entry must be an object"),
        _input_row("run", "--snapshot", '{"users": [{"id": "", "friends": []}]}', "empty user id"),
        _input_row("run", "--snapshot",
                   '{"users": [{"id": "a", "friends": []}, {"id": "a", "friends": []}]}',
                   "user 'a': duplicate user id"),
        _input_row("run", "--snapshot", '{"users": [{"id": "a", "friends": []}], "pictures": ['
                   '{"id": "p", "owner": "a", "public": true, "likers": [], "commenters": []}, '
                   '{"id": "p", "owner": "a", "public": false, "likers": [], "commenters": []}]}',
                   "picture 'p': duplicate picture id"),
        # Bytes that are not UTF-8.
        _input_row("generate", "--config", b'{"cities": ["\xff"]}', INVALID),
        _input_row("ingest", "--attrs", b"\xfe\xff[]", INVALID),
        _input_row("ingest", "--edges", b"a b\nb \xe9\n", "not UTF-8 text ("),
        _input_row("run", "--snapshot", b'{"users": [{"id": "\xff", "friends": []}]}', INVALID),
        # Nesting deeper than the decoder's recursion limit.
        pytest.param("generate", "--config", DEEP, INVALID, id="generate---config-deep"),
        pytest.param("ingest", "--attrs", DEEP, INVALID, id="ingest---attrs-deep"),
        pytest.param("run", "--snapshot", '{"users": ' + DEEP + "}", INVALID,
                     id="run---snapshot-deep"),
    ],
)
def test_malformed_input_files_exit_2(tmp_path, capsys, command, flag, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\n")
    out = tmp_path / "out.json"
    argv = {
        "generate": ["generate", "--seed", "1", "--out", str(out)],
        "ingest": ["ingest", "--edges", str(edges), "--seed", "1", "--out", str(out)],
        "run": ["run", "--victim", "a", "--out", str(out)],
    }[command]
    assert main(argv + [flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ({command}): ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "friends, likers, message",
    [
        ([], ["a", 5], "picture 'p': field 'likers'"),
        ([], [5], "picture 'p': field 'likers'"),
        (["b", 5], [], "user 'a': field 'friends'"),
        (["a", 5], [], "user 'a': field 'friends'"),
    ],
)
def test_non_string_ids_exit_2(tmp_path, capsys, friends, likers, message):
    snapshot = tmp_path / "mixed.json"
    snapshot.write_text(json.dumps({
        "users": [{"id": "a", "friends": friends}, {"id": "b", "friends": ["a"]}],
        "pictures": [{"id": "p", "owner": "a", "public": True, "likers": likers,
                      "commenters": []}],
    }))
    out = tmp_path / "out"
    argv = ["run", "--snapshot", str(snapshot), "--victim", "a", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error (run): {message} must be a list of strings\n"
    assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(
    st.fractions(-(10**30), 10**30)
    | st.sampled_from([Fraction(10**20, 3), Fraction(-7, 3)]),
    st.none() | st.integers() | st.floats() | st.text(),
)
def test_cell_writes_a_fraction_as_its_float(fraction, other):
    assert _cell(fraction) == f"{float(fraction):.6f}"
    assert _cell(other) is other


@pytest.fixture(scope="module")
def cycle_inputs(tmp_path_factory):
    """The cycle test's input files: a generated snapshot, the worked
    example (snap.json) and an edge list; and every generated user as
    --victim arguments."""
    root = tmp_path_factory.mktemp("cycles")
    generated = root / "generated.json"
    argv = ["generate", "--users", "60", "--mean-degree", "10", "--p-friend", "0.7",
            "--seed", "11", "--out", str(generated)]
    assert main(argv) == 0
    write_worked_example(root)
    (root / "edges.txt").write_text("a b\nb c\na c\n")
    users = [user["id"] for user in json.loads(generated.read_text())["users"]]
    return root, [arg for user in users for arg in ("--victim", user)]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["generate", "--users", "40", "--seed", "7", "--out", "{root}/out.json"], 0),
        (["ingest", "--edges", "{root}/edges.txt", "--seed", "3", "--out", "{root}/out.json"], 0),
        (["run", "--snapshot", "{root}/generated.json", "--victim", "u000", "--victim", "u003",
          "--out", "{root}/out"], 0),
        # u000 needs more than 200 queries and is skipped; u003 needs fewer.
        (["run", "--snapshot", "{root}/generated.json", "--victim", "u000", "--victim", "u003",
          "--budget", "200", "--out", "{root}/out"], 0),
        (["calibrate", "--snapshot", "{root}/generated.json", "{victims}"], 0),
        (["export-dot", "--snapshot", "{root}/generated.json", "--victim", "u000"], 0),
        (["run", "--snapshot", "{root}/generated.json", "--victim", "nobody",
          "--out", "{root}/out"], 2),
        # The worked example's candidates are all strangers to its victim.
        (["calibrate", "--snapshot", "{root}/snap.json", "--victim", "victim"], 2),
    ],
    ids=["generate", "ingest", "run", "run-budget", "calibrate", "export-dot",
         "unknown-victim", "calibrate-no-positives"],
)
def test_commands_make_no_reference_cycles(cycle_inputs, capsys, argv, code):
    # main turns the cyclic collector off, so a cycle that a command builds
    # is never freed. The collector stays off here across the whole command,
    # and anything it then finds beyond what argparse leaves is such a leak.
    root, victims = cycle_inputs
    argv = [part for arg in argv
            for part in (victims if arg == "{victims}" else [arg.format(root=root)])]
    gc.collect()
    gc.disable()
    try:
        build_parser().parse_args(argv)
        parser_garbage = gc.collect()
        assert main(argv) == code
        assert gc.collect() == parser_garbage
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["exit 0", "exit 2", "exception"])
def test_main_restores_collector_state(tmp_path, capsys, monkeypatch, enabled, outcome):
    snap = write_worked_example(tmp_path)
    argv = ["export-dot", "--snapshot", str(snap), "--victim", "victim"]
    if outcome == "exit 2":
        argv += ["--budget", "-1"]

    def fail(args):
        assert not gc.isenabled()
        raise RuntimeError("unexpected")

    if outcome == "exception":
        monkeypatch.setattr("osnrecon.cli.cmd_export_dot", fail)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "exception":
            with pytest.raises(RuntimeError, match="unexpected"):
                main(argv)
        else:
            assert main(argv) == int(outcome[-1])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "command, out",
    [("generate", "."), ("generate", ""), ("ingest", "."), ("calibrate", "."),
     ("export-dot", "."), ("generate", "existing-dir")],
)
def test_out_that_is_no_file_exits_2_and_leaves_nothing(
    cycle_inputs, tmp_path, capsys, monkeypatch, command, out
):
    # "." and "" name no file; a directory cannot be replaced by one, and
    # the temporary file written next to it must not stay behind.
    root, victims = cycle_inputs
    inputs = {
        "generate": ["--users", "40", "--seed", "7"],
        "ingest": ["--edges", str(root / "edges.txt"), "--seed", "3"],
        "calibrate": ["--snapshot", str(root / "generated.json"), *victims],
        "export-dot": ["--snapshot", str(root / "generated.json"), "--victim", "u000"],
    }
    (tmp_path / "existing-dir").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main([command, *inputs[command], "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error ({command}): ")
    assert [path.name for path in tmp_path.iterdir()] == ["existing-dir"]
    assert not any((tmp_path / "existing-dir").iterdir())
