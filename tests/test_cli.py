"""Command-line behaviour: artifacts, exit codes, determinism."""

import csv
import json

import pytest

import fosg
from fosg import cli, simplex
from fosg.cfr import SolverTree
from fosg.cli import main
from fosg.dot import export_view
from fosg.errors import InvalidArgument
from fosg.io import efg_to_json, spec_to_json

from test_model import chain_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inspect_kuhn(capsys):
    code, out, _ = run_cli(capsys, "inspect", "--game", "kuhn")
    assert code == 0
    doc = json.loads(out)
    assert doc["terminals"] == 30
    assert doc["infosets"] == [6, 6]
    assert doc["serial"] is True


def test_inspect_pennies_not_serial(capsys):
    code, out, _ = run_cli(capsys, "inspect", "--game", "matching_pennies")
    assert code == 0
    assert json.loads(out)["serial"] is False


def test_inspect_malformed_spec_exits_2(capsys, tmp_path):
    doc = spec_to_json(fosg.kuhn_poker())
    doc["player_fn"]["deal"] = [1]
    doc["actions"]["deal/1"] = ["x"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "inspect", "--game", str(path))
    assert code == 2
    assert "initial-state-active" in err


def test_inspect_long_chain_exits_2(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec_to_json(chain_spec(1200))))
    code, out, err = run_cli(capsys, "inspect", "--game", str(path))
    assert (code, out) == (2, "")
    assert "depth-bound" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("argv", [("inspect",), ("solve", "cfr", "--iters", "5"),
                                  ("solve", "lp")])
def test_non_finite_reward_exits_2(capsys, tmp_path, value, argv):
    doc = spec_to_json(fosg.kuhn_poker())
    doc["rewards"]["JQ:b/noop,call"] = [value, 3.0]
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv, "--game", str(path))
    assert (code, out) == (2, "")
    assert "non-finite-reward" in err


def test_solve_lp_pennies(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(capsys, "solve", "lp", "--game", "matching_pennies",
                         "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == 2
    assert "seed" not in doc
    assert doc["method"] == "lp"
    assert abs(doc["game_value"]) <= 1e-9
    assert doc["exploitability"] <= 1e-9


def test_solve_cfr_writes_trace(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "solve", "cfr", "--game", "kuhn",
                         "--iters", "200", "--stride", "100",
                         "--trace", str(trace_path), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["iterations"] == 200
    assert doc["exploitability"] < 0.2
    rows = list(csv.reader(trace_path.read_text().splitlines()))
    assert rows[0] == ["iteration", "exploitability", "value_p1", "wall_ms"]
    assert [r[0] for r in rows[1:]] == ["100", "200"]


def test_solve_cfrd_runs(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(capsys, "solve", "cfrd", "--game", "kuhn",
                         "--iters", "50", "--subgame-iters", "50",
                         "--trunk-depth", "2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["method"] == "cfrd"
    assert doc["exploitability"] < 0.5


@pytest.mark.parametrize("argv", [
    ("cfr", "--iters", "20", "--stride", "5"),
    ("cfrd", "--iters", "10", "--subgame-iters", "10", "--stride", "5"),
    ("lp",),
])
def test_solve_builds_one_solver_tree(capsys, monkeypatch, argv):
    original = SolverTree.__init__
    built = []

    def counting(self, game):
        built.append(game)
        original(self, game)

    monkeypatch.setattr(SolverTree, "__init__", counting)
    code, _, _ = run_cli(capsys, "solve", argv[0], "--game", "kuhn", *argv[1:])
    assert code == 0
    assert len(built) == 1


def test_solve_rejects_general_sum_with_exit_3(capsys, tmp_path):
    spec = fosg.kuhn_poker()
    rewards = dict(spec.rewards)
    key = next(k for k in rewards if rewards[k] != (0.0, 0.0))
    rewards[key] = (rewards[key][0] + 1.0, rewards[key][1])
    skewed = fosg.GameSpec(
        num_players=2, states=spec.states, initial_state=spec.initial_state,
        player_fn=spec.player_fn, legal_actions=spec.legal_actions,
        transitions=spec.transitions, rewards=rewards, observations=spec.observations)
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(spec_to_json(skewed)))
    code, _, _ = run_cli(capsys, "solve", "cfr", "--game", str(path), "--iters", "5",
                         "--stride", "5")
    assert code == 3


def test_timing_check_nontimeable(capsys):
    code, out, _ = run_cli(capsys, "timing", "check", "--game", "nontimeable")
    assert code == 0
    doc = json.loads(out)
    assert doc["timeable"] is False
    assert len(doc["witness_nodes"]) == 4


def test_timing_check_kuhn_labels(capsys):
    code, out, _ = run_cli(capsys, "timing", "check", "--game", "kuhn")
    assert code == 0
    doc = json.loads(out)
    assert doc["timeable"] is True
    assert doc["labels"]["n0"] == 0


def test_timing_pad_chain(capsys, tmp_path):
    out_path = tmp_path / "padded.json"
    code, out, _ = run_cli(capsys, "timing", "pad", "--game", "padding_chain:5",
                           "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["added"] == 10  # skips sum to 5*4/2
    assert doc["padded"] == doc["original"] + doc["added"]
    assert doc["padded"] <= doc["bound"]
    padded = json.loads(out_path.read_text())
    assert len(padded["nodes"]) == doc["padded"]


def test_timing_pad_nontimeable_exits_4(capsys):
    code, _, _ = run_cli(capsys, "timing", "pad", "--game", "nontimeable")
    assert code == 4


@pytest.mark.parametrize("action", ["check", "pad"])
def test_timing_rejects_a_decision_node_outside_every_infoset(capsys, tmp_path, action):
    doc = efg_to_json(fosg.forget_nonacting(fosg.unroll(fosg.kuhn_poker())))
    orphans = doc["infosets"]["1"].pop(0)
    path = tmp_path / "orphan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "timing", action, "--game", str(path))
    assert code == 2
    assert out == ""
    assert f"decision node {orphans[0]!r} of player 1" in err


def test_timing_check_rejects_another_actors_node_in_a_cell_with_exit_2(capsys, tmp_path):
    # Player 2's cell lists player 1's node "g"; loaded, the tree would be
    # re-indexed and solved as a different game.
    doc = efg_to_json(fosg.nontimeable_fixture())
    doc["infosets"]["2"][0].append("g")
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "timing", "check", "--game", str(path))
    assert (code, out) == (2, "")
    assert err == "node 'g' in a cell of player 2 has actor 1\n"


@pytest.mark.parametrize("field, name, value, message", [
    ("action", "h-d", "c", "node 'h-d' is a second child of 'h' under action 'c'"),
    ("id", "g'-b", "g'-a", "node name \"g'-a\" occurs twice"),
], ids=["action", "name"])
def test_timing_check_rejects_duplicate_actions_and_names_with_exit_2(
        capsys, tmp_path, field, name, value, message):
    doc = efg_to_json(fosg.nontimeable_fixture())
    next(entry for entry in doc["nodes"] if entry["id"] == name)[field] = value
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "timing", "check", "--game", str(path))
    assert (code, out) == (2, "")
    assert err == message + "\n"


def test_export_views(capsys, tmp_path):
    for view, needle in (("public", "dealt"), ("history", "deal"), ("infoset:1", "J|dealt")):
        path = tmp_path / f"{view.replace(':', '_')}.dot"
        code, _, _ = run_cli(capsys, "export", "--view", view, "--game", "kuhn",
                             "--out", str(path))
        assert code == 0
        assert needle in path.read_text()


def test_export_writes_the_view_to_stdout_without_out(capsys, kuhn_rep):
    code, out, err = run_cli(capsys, "export", "--view", "history", "--game", "kuhn")
    assert (code, err) == (0, "")
    assert out == export_view(kuhn_rep, "history")


def test_export_lp_dump_of_a_two_player_game(capsys, tmp_path, kuhn_rep):
    dump = tmp_path / "kuhn.lp"
    code, out, _ = run_cli(capsys, "export", "--view", "public", "--game", "kuhn",
                           "--lp-dump", str(dump))
    assert code == 0
    assert out == export_view(kuhn_rep, "public")
    text = dump.read_text()
    assert text.startswith("minimize e.u")
    # Kuhn: per player, a row per infoset plus the root's, and 13 sequences.
    assert "rows E: 7  cols E: 13" in text and "rows F: 7  cols F: 13" in text


def test_export_unknown_view_exits_2(capsys):
    code, _, _ = run_cli(capsys, "export", "--view", "bogus", "--game", "kuhn")
    assert code == 2


def test_export_view_rejects_unknown_views_with_invalid_argument(kuhn_rep):
    for view in ("bogus", "infoset:3", "infoset:x", "infoset:"):
        with pytest.raises(InvalidArgument, match="unknown view"):
            export_view(kuhn_rep, view)


def test_export_lp_dump_of_a_three_player_game_exits_3_and_writes_nothing(capsys, tmp_path):
    game = tmp_path / "three.json"
    game.write_text(json.dumps(spec_to_json(fosg.random_fosg(0, depth=3, players=3))))
    dot, dump = tmp_path / "history.dot", tmp_path / "game.lp"
    code, out, err = run_cli(capsys, "export", "--view", "history", "--game", str(game),
                             "--out", str(dot), "--lp-dump", str(dump))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "two players" in err
    assert not dot.exists() and not dump.exists()


def test_inspect_classical_tree_exits_2(capsys):
    code, out, err = run_cli(capsys, "inspect", "--game", "nontimeable")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "game-spec source" in err


def test_export_public_tree_matches_betting_structure(capsys, tmp_path):
    path = tmp_path / "public.dot"
    run_cli(capsys, "export", "--view", "public", "--game", "kuhn", "--out", str(path))
    text = path.read_text()
    rep = fosg.unroll(fosg.kuhn_poker())
    assert text.count("label=") >= len(rep.public_sets)


def test_unknown_game_exits_2(capsys):
    code, _, err = run_cli(capsys, "inspect", "--game", "nope")
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("argv", [("inspect",), ("solve", "cfr"), ("timing", "check"),
                                  ("export", "--view", "history")])
def test_directory_as_game_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--game", str(tmp_path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "Is a directory" in err


def test_directory_as_trunk_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "solve", "cfrd", "--game", "kuhn",
                             "--trunk-file", str(tmp_path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "Is a directory" in err


@pytest.mark.parametrize("method", ["cfr", "cfrd"])
def test_solve_on_a_tree_too_deep_to_walk_exits_5(capsys, tmp_path, method):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec_to_json(chain_spec(1200))))
    extra = ("--subgame-iters", "2") if method == "cfrd" else ()
    code, out, err = run_cli(capsys, "solve", method, "--game", str(path),
                             "--depth-bound", "5000", "--iters", "2", *extra)
    assert (code, out) == (5, "")
    assert len(err.splitlines()) == 1 and "recursion limit" in err


def test_solver_determinism(capsys, tmp_path):
    paths = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"{tag}.json"
        trace_path = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(capsys, "solve", "cfr", "--game", "kuhn",
                             "--iters", "300", "--stride", "150",
                             "--trace", str(trace_path), "--out", str(out_path))
        assert code == 0
        paths.append((out_path, trace_path))
    doc_a = json.loads(paths[0][0].read_text())
    doc_b = json.loads(paths[1][0].read_text())
    doc_a.pop("wall_s"), doc_b.pop("wall_s")
    assert doc_a == doc_b
    rows_a = [r[:3] for r in csv.reader(paths[0][1].read_text().splitlines())]
    rows_b = [r[:3] for r in csv.reader(paths[1][1].read_text().splitlines())]
    assert rows_a == rows_b  # identical apart from wall-clock column


def test_export_pennies_history_counts(capsys, tmp_path):
    path = tmp_path / "history.dot"
    code, _, _ = run_cli(capsys, "export", "--view", "history",
                         "--game", "matching_pennies", "--out", str(path))
    assert code == 0
    text = path.read_text()
    rep = fosg.unroll(fosg.serialize(fosg.matching_pennies()))
    assert text.count(" -> ") == len(rep.nodes) - 1
    assert text.count("shape=box") == 4  # four terminal leaves


def test_solve_cfrd_with_trunk_file(capsys, tmp_path):
    rep = fosg.unroll(fosg.kuhn_poker())
    keys = [list(k) for k in rep.public_sets if len(k) < 2]
    trunk_path = tmp_path / "trunk.json"
    trunk_path.write_text(json.dumps(keys))
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(capsys, "solve", "cfrd", "--game", "kuhn",
                         "--iters", "20", "--subgame-iters", "20",
                         "--trunk-file", str(trunk_path), "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["method"] == "cfrd"


@pytest.mark.parametrize("argv", [
    ("solve", "cfr", "--game", "kuhn", "--iters", "0"),
    ("solve", "cfr", "--game", "kuhn", "--iters", "ten"),
    ("solve", "cfrd", "--game", "kuhn", "--trunk-depth", "0"),
    ("solve", "cfrd", "--game", "kuhn", "--subgame-iters", "0"),
])
def test_solve_rejects_non_positive_counts_with_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "must be a positive integer" in errors[0]
    assert "Traceback" not in err


def test_solve_cfrd_rejects_trunk_file_without_root_with_exit_2(capsys, tmp_path):
    trunk_path = tmp_path / "trunk.json"
    trunk_path.write_text(json.dumps([["dealt"]]))
    code, _, err = run_cli(capsys, "solve", "cfrd", "--game", "kuhn",
                           "--trunk-file", str(trunk_path))
    assert code == 2
    assert err.splitlines() == ["trunk must contain the root public state"]


@pytest.mark.parametrize("doc", [[1, 2], {"keys": []}, [[["dealt"]]]])
def test_solve_cfrd_rejects_malformed_trunk_file_with_exit_2(capsys, tmp_path, doc):
    trunk_path = tmp_path / "trunk.json"
    trunk_path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", "cfrd", "--game", "kuhn",
                           "--trunk-file", str(trunk_path))
    assert code == 2
    assert len(err.splitlines()) == 1 and "trunk file must hold" in err


def test_solve_lp_exits_5_when_the_pivot_budget_runs_out(capsys, monkeypatch):
    monkeypatch.setattr(simplex, "PIVOTS_PER_DIMENSION", 0)
    code, out, err = run_cli(capsys, "solve", "lp", "--game", "kuhn")
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1 and "pivot budget" in err


@pytest.mark.parametrize("method", ["cfr", "cfrd"])
def test_solve_rejects_a_negative_stride_with_exit_2(capsys, method):
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", method, "--game", "kuhn", "--iters", "3", "--stride", "-1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "must be a non-negative integer" in errors[0]


def test_main_reuses_one_parser_across_subcommands(capsys, monkeypatch):
    # main builds its parser once per process. Two different subcommands run
    # back to back through it give what a freshly built parser gives each.
    argvs = [("solve", "cfr", "--game", "kuhn", "--iters", "3", "--mode", "alternating"),
             ("timing", "check", "--game", "kuhn"),
             ("inspect", "--game", "kuhn", "--depth-bound", "9")]
    assert cli._parser() is cli._parser()
    for argv in argvs:
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    cached = [run_cli(capsys, *argv) for argv in argvs[1:]]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [run_cli(capsys, *argv) for argv in argvs[1:]] == cached
    assert [code for code, _, _ in cached] == [0, 0]


UNWRITABLE = "{unwritable}"


@pytest.mark.parametrize("argv", [
    ("inspect", "--game", "kuhn", "--out", UNWRITABLE),
    ("solve", "cfr", "--game", "kuhn", "--iters", "3", "--out", UNWRITABLE),
    ("solve", "cfr", "--game", "kuhn", "--iters", "3", "--stride", "1", "--trace", UNWRITABLE),
    ("solve", "lp", "--game", "kuhn", "--lp-dump", UNWRITABLE),
    ("export", "--view", "history", "--game", "kuhn", "--out", UNWRITABLE),
    ("export", "--view", "history", "--game", "kuhn", "--lp-dump", UNWRITABLE),
    ("timing", "check", "--game", "kuhn", "--out", UNWRITABLE),
])
@pytest.mark.parametrize("target, reason", [
    ("absent/result", "no such directory"),
    (".", "is a directory"),
])
def test_unwritable_output_exits_2_before_any_work(capsys, monkeypatch, tmp_path, argv,
                                                    target, reason):
    path = str(tmp_path / target)

    def no_work(*_args):
        raise AssertionError("the command started working")

    monkeypatch.setattr(cli, "_load_game", no_work)
    code, out, err = run_cli(capsys, *(path if arg == UNWRITABLE else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"cannot write {path}: {reason}"]


def _refused_before_any_work(capsys, monkeypatch, argv):
    """``argv`` exits 2 in argparse, naming ``argv[-2:]`` as unrecognized; no game loads."""
    def no_work(*_args):
        raise AssertionError("the command started working")

    monkeypatch.setattr(cli, "_load_game", no_work)
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        "error: unrecognized arguments: " + " ".join(argv[-2:]))


@pytest.mark.parametrize("method, target", [
    ("cfr", "dump.lp"),
    # The option is refused before the path, which it would never write.
    ("cfrd", "absent/dump.lp"),
])
def test_lp_dump_with_a_method_other_than_lp_exits_2_before_any_work(capsys, monkeypatch,
                                                                     tmp_path, method, target):
    path = tmp_path / target
    _refused_before_any_work(capsys, monkeypatch, ("solve", method, "--game", "kuhn",
                                                   "--iters", "5", "--lp-dump", str(path)))
    assert not path.exists()


# Every (command, option) pair where the command would not read the option.
FOREIGN_OPTIONS = [
    ("solve", "cfr", "--trunk-depth", "2"),
    ("solve", "cfr", "--trunk-file", "trunk.json"),
    ("solve", "cfr", "--subgame-iters", "5"),
    ("solve", "cfr", "--seed", "0"),
    ("solve", "cfrd", "--mode", "alternating"),
    ("solve", "cfrd", "--seed", "0"),
    ("solve", "lp", "--iters", "5"),
    ("solve", "lp", "--mode", "alternating"),
    ("solve", "lp", "--trunk-depth", "2"),
    ("solve", "lp", "--trunk-file", "trunk.json"),
    ("solve", "lp", "--subgame-iters", "5"),
    ("solve", "lp", "--stride", "1"),
    ("solve", "lp", "--seed", "0"),
    ("solve", "lp", "--trace", "trace.csv"),
    ("inspect", "--seed", "0"),
    ("timing", "check", "--seed", "0"),
    ("export", "--view", "history", "--seed", "0"),
]


@pytest.mark.parametrize("argv", FOREIGN_OPTIONS,
                         ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv[:-1]))
def test_an_option_the_command_does_not_read_exits_2_before_any_work(capsys, monkeypatch, argv):
    _refused_before_any_work(capsys, monkeypatch, (*argv[:-2], "--game", "kuhn", *argv[-2:]))


@pytest.mark.parametrize("argv", [
    ("solve", "cfr", "--iters", "3", "--out"),
    ("solve", "cfr", "--iters", "3", "--stride", "1", "--trace"),
    ("solve", "lp", "--lp-dump"),
])
def test_output_that_fails_when_written_exits_2(capsys, monkeypatch, tmp_path, argv):
    directory = tmp_path / "vanishing"
    directory.mkdir()
    path = directory / "result"

    def remove_directory_then_build(rep):
        directory.rmdir()
        return SolverTree(rep)

    # The directory vanishes as the solve compiles the game's tree, after every check.
    monkeypatch.setattr(fosg.cfr, "SolverTree", remove_directory_then_build)
    code, _, err = run_cli(capsys, argv[0], argv[1], "--game", "kuhn", *argv[2:], str(path))
    assert code == 2
    assert err.splitlines() == [f"cannot write {path}: No such file or directory"]


def test_fixture_catalog_metadata():
    from fosg.games import catalog

    fixtures = catalog()
    assert set(fixtures) >= {"kuhn", "matching_pennies", "nontimeable", "kuhn_chance"}
    kuhn = fixtures["kuhn"]
    rep = fosg.unroll(kuhn.build())
    assert len(rep.terminals()) == kuhn.metadata["terminals"]
    assert tuple(len(rep.acting_infosets(p)) for p in (1, 2)) == \
        kuhn.metadata["acting_infosets"]
