import json
import os
import re

import numpy as np
import pytest
import yaml

from repgame.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, main
from repgame.config import (
    ConfigError,
    build_run_config,
    game_from_dict,
    game_to_dict,
    load_game_file,
    load_run_config,
)
from repgame.games import StageGame
from repgame.schedule import Schedule, never_restart_lower_bound, never_restart_products

from catalog import battle_of_sexes, matching_pennies, prisoners_dilemma


def game_yaml(game: StageGame) -> str:
    """``game`` as a YAML game file: its inline mapping."""
    return yaml.safe_dump(game_to_dict(game))


MP_YAML = game_yaml(matching_pennies())

# Matching pennies as the README writes it.
MP_BY_HAND = """\
num_players: 2
action_names: [[H, T], [H, T]]
payoffs: [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]]
"""


def _no_pure_ne_3p() -> StageGame:
    """Players 0 and 1 play matching pennies, whatever player 2 plays, and player 2's payoff is 0."""
    u = np.zeros((3, 2, 2, 2))
    u[:2] = matching_pennies().payoffs[:, :, :, None]
    return StageGame(u, action_names=(("a", "b"),) * 3)


NO_PURE_NE_3P = game_yaml(_no_pure_ne_3p())


# -- game files ----------------------------------------------------------------------


def test_a_game_file_is_the_inline_mapping(tmp_path):
    path = tmp_path / "mp.yaml"
    path.write_text(MP_YAML)
    assert game_to_dict(load_game_file(path)) == game_to_dict(matching_pennies())


def test_game_mapping_rejects_unknown_keys(tmp_path):
    # A typo such as payoff: for payoffs would otherwise be dropped unread.
    game = {**game_to_dict(matching_pennies()), "bogus": 1}
    with pytest.raises(ConfigError, match="game: invalid inline game: unknown keys bogus"):
        build_run_config(make_config_doc(tmp_path, game=game))


def test_game_mapping_names_missing_payoffs(tmp_path):
    game = {"num_players": 2, "action_names": [["H", "T"], ["H", "T"]]}
    with pytest.raises(ConfigError, match="game: invalid inline game: missing key payoffs"):
        build_run_config(make_config_doc(tmp_path, game=game))


@pytest.mark.parametrize("num_players", [True, 1.0])
def test_game_mapping_needs_an_integer_num_players(num_players):
    # Both equal 1, the player count of a one-player game.
    with pytest.raises(ValueError, match=f"num_players must be an integer >= 1, got {num_players!r}"):
        game_from_dict({"num_players": num_players, "payoffs": [[1.0, 2.0]]})


@pytest.mark.parametrize("entry", ["1", True, "1e-200"], ids=["string", "bool", "string-1e-200"])
def test_game_mapping_needs_number_payoffs(tmp_path, entry):
    # numpy would read each as a number.
    game = game_to_dict(matching_pennies())
    game["payoffs"][1][0][1] = entry
    with pytest.raises(ConfigError, match=re.escape(f"payoffs[1][0][1] must be a number, got {entry!r}")):
        build_run_config(make_config_doc(tmp_path, game=game))


def test_cli_solve_rejects_a_payoff_yaml_reads_as_a_string(tmp_path, capsys):
    # PyYAML reads 1e-200, without a dot, as a string; 1.0e-200 is a float.
    path = tmp_path / "mp.yaml"
    path.write_text(MP_BY_HAND.replace("[[[1, -1]", "[[[1e-200, -1]"))
    assert main(["solve", str(path)]) == EXIT_CONFIG
    assert f"{path}: invalid game: payoffs[0][0][0] must be a number, got '1e-200'" in capsys.readouterr().err
    path.write_text(MP_BY_HAND.replace("[[[1, -1]", "[[[1.0e-200, -1]"))
    assert main(["solve", str(path)]) == EXIT_OK


# -- run config ----------------------------------------------------------------------


def make_config_doc(tmp_path, **overrides):
    game_path = tmp_path / "mp.yaml"
    game_path.write_text(MP_YAML)
    doc = {
        "game": str(game_path),
        "roster": [
            {"agent": "learner"},
            {"agent": "opponent", "policy": {"kind": "stationary", "probs": [0.5, 0.5]}},
        ],
        "schedule": {"epsilon_base": 0.5},
        "round_budget": 50_000,
        "epoch_budget": 4,
        "master_seed": 3,
        "trial_count": 2,
    }
    doc.update(overrides)
    return doc


def test_build_run_config(tmp_path):
    cfg = build_run_config(make_config_doc(tmp_path))
    assert cfg.game.actions_total == 4
    assert cfg.schedule.actions_total == 4  # derived from the game
    assert cfg.master_seed == 3


def test_build_run_config_roster_mismatch(tmp_path):
    doc = make_config_doc(tmp_path, roster=[{"agent": "learner"}])
    with pytest.raises(ConfigError, match="roster"):
        build_run_config(doc)
    # An inline game whose num_players disagrees with its payoffs.
    game = {"num_players": 3, "payoffs": matching_pennies().payoffs.tolist()}
    doc = make_config_doc(tmp_path, game=game, roster=[{"agent": "learner"}] * 3)
    with pytest.raises(ConfigError, match="num_players"):
        build_run_config(doc)


def test_build_run_config_needs_string_action_names(tmp_path):
    # Each name, not only the list of them: a null or a mapping would be
    # written back into every trace header.
    game = {"num_players": 2, "action_names": [[None, {}], [[], 1.5]], "payoffs": matching_pennies().payoffs.tolist()}
    with pytest.raises(ConfigError, match=r"action_names of player 0 must be strings"):
        build_run_config(make_config_doc(tmp_path, game=game))
    # A player's entry is a list: [HT, HT] is not the names H and T.
    game["action_names"] = ["HT", "HT"]
    with pytest.raises(ConfigError, match=r"action_names of player 0 must be a list of names, got 'HT'"):
        build_run_config(make_config_doc(tmp_path, game=game))


def test_build_run_config_without_learner(tmp_path):
    doc = make_config_doc(tmp_path)
    doc["roster"][0] = doc["roster"][1]
    with pytest.raises(ConfigError, match="learner"):
        build_run_config(doc)


def test_build_run_config_bad_policy(tmp_path):
    doc = make_config_doc(tmp_path)
    doc["roster"][1]["policy"] = {"kind": "psychic"}
    with pytest.raises(ConfigError, match="psychic"):
        build_run_config(doc)


def test_build_run_config_override_validation(tmp_path):
    doc = make_config_doc(tmp_path, equilibrium_override=[[0.5, 0.5], [0.5, 0.5, 0.0]])
    with pytest.raises(ConfigError, match="player 1"):
        build_run_config(doc)


def test_build_run_config_rejects_unknown_keys(tmp_path):
    # A typo would otherwise run with the default budget of 1,000,000.
    doc = make_config_doc(tmp_path, round_budjet=500)
    with pytest.raises(ConfigError, match="round_budjet"):
        build_run_config(doc)
    # A schema-3 trace header named the override eq_override.
    doc = make_config_doc(tmp_path, eq_override={"strategies": [[0.5, 0.5], [0.5, 0.5]]})
    with pytest.raises(ConfigError, match="eq_override"):
        build_run_config(doc)


def test_load_run_config_rejects_schedule_cap(tmp_path):
    doc = make_config_doc(tmp_path, schedule={"epsilon_base": 0.5, "cap": 8})
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="invalid schedule"):
        load_run_config(path)


def test_load_run_config_yaml(tmp_path):
    doc = make_config_doc(tmp_path, output={"trace_dir": "out", "make_dirs": True})
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg, output = load_run_config(path)
    assert cfg.trial_count == 2
    assert output["trace_dir"] == "out"


# -- CLI -----------------------------------------------------------------------------


def write_yaml_config(tmp_path, **overrides):
    doc = make_config_doc(tmp_path, **overrides)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_cli_run_rejects_a_game_whose_payoff_range_overflows(tmp_path, capsys):
    # Each payoff is finite, but 1e308 - (-1e308) is not: the run would write a
    # margin of Infinity into every epoch record.
    game = {"num_players": 2, "payoffs": [[[1e308, -1e308], [-1e308, 1e308]], [[-1e308, 1e308], [1e308, -1e308]]]}
    cfg = write_yaml_config(tmp_path, game=game)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "game: invalid inline game: payoff range of player 0 is not finite" in err


@pytest.mark.parametrize(
    "overrides",
    [
        # N^t passes 2**63 at t = 25, inside the epoch budget.
        {"schedule": {"epsilon_base": 0.5, "decay": "geometric", "rate": 0.5}, "round_budget": 10**30,
         "epoch_budget": 40},
        {"schedule": {"epsilon_base": 0.5, "epoch0_rounds": 10**19}, "round_budget": 10**20},
    ],
    ids=["geometric-epochs-past-int64", "first-epoch-past-int64"],
)
def test_cli_run_rejects_a_round_budget_past_int64(tmp_path, capsys, overrides):
    # The histogram path draws a segment of up to the budget's rounds with
    # multinomial, which takes an int64: past it the run raised OverflowError.
    cfg = write_yaml_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"round_budget must be at most 2**63 - 1, got {overrides['round_budget']}" in err


def test_cli_solve_matching_pennies(tmp_path, capsys):
    path = tmp_path / "mp.yaml"
    path.write_text(MP_YAML)
    assert main(["solve", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.500000, 0.500000" in out
    assert "regret" in out


def test_cli_solve_pd_prints_pure_defect(tmp_path, capsys):
    path = tmp_path / "pd.yaml"
    path.write_text(game_yaml(prisoners_dilemma()))
    assert main(["solve", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[D]" in out and "kind: pure" in out


_REGRETS_0 = "regret certificate:\nplayer 0: regret = 0.000e+00\nplayer 1: regret = 0.000e+00\n"
_MP_OUT = ("equilibrium kind: mixed (support-enumeration-2p)\n"
           "player 0: (0.500000, 0.500000)\nplayer 1: (0.500000, 0.500000)\n" + _REGRETS_0)


@pytest.mark.parametrize(
    "text, out",
    [
        (MP_YAML, _MP_OUT),
        (MP_BY_HAND, _MP_OUT),
        (game_yaml(prisoners_dilemma()), "equilibrium kind: pure (support-enumeration-2p)\n"
         "player 0: (0.000000, 1.000000)  [D]\nplayer 1: (0.000000, 1.000000)  [D]\n" + _REGRETS_0),
        (game_yaml(battle_of_sexes()), "equilibrium kind: pure (support-enumeration-2p)\n"
         "player 0: (1.000000, 0.000000)  [O]\nplayer 1: (1.000000, 0.000000)  [O]\n" + _REGRETS_0),
    ],
    ids=["matching-pennies", "matching-pennies-by-hand", "prisoners-dilemma", "battle-of-sexes"],
)
def test_cli_solve_prints_what_the_text_game_format_printed(tmp_path, capsys, text, out):
    # Each output is the one printed for the game in the line-oriented text
    # format that game files were written in before this one.
    path = tmp_path / "game.yaml"
    path.write_text(text)
    assert main(["solve", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == out


def test_cli_solve_unavailable_equilibrium(tmp_path, capsys):
    path = tmp_path / "hard.yaml"
    path.write_text(NO_PURE_NE_3P)
    assert main(["solve", str(path)]) == EXIT_SOLVER
    assert "override" in capsys.readouterr().err


def test_cli_solve_malformed_game(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("num_players: 2\npayoffs: [[[1, -1], [-1, 1]],\n")
    assert main(["solve", str(path)]) == EXIT_CONFIG
    assert f"{path}:3: YAML parse error" in capsys.readouterr().err


@pytest.mark.parametrize("command, what", [("solve", "game"), ("run", "config")])
def test_cli_rejects_a_file_that_is_not_utf8(tmp_path, capsys, command, what):
    # One reader for both: it raised UnicodeDecodeError out of main.
    path = tmp_path / "latin1.yaml"
    path.write_bytes("num_players: 2  # \u00e9\n".encode("latin-1"))
    assert main([command, str(path)]) == EXIT_CONFIG
    assert f"{path}: cannot read {what} file: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_cli_solve_rejects_a_game_in_the_text_format(tmp_path, capsys):
    # The line-oriented format is gone: its first payoff line is not YAML.
    path = tmp_path / "mp.game"
    path.write_text("players: 2\nactions 0: H T\nactions 1: H T\npayoffs:\n1 -1\n-1 1\n-1 1\n1 -1\n")
    assert main(["solve", str(path)]) == EXIT_CONFIG
    assert f"{path}:6: YAML parse error" in capsys.readouterr().err


def test_cli_schedule_table(capsys):
    assert main(["schedule", "-T", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["t", "eps_e", "eps_s", "N", "prod"]
    rows = [l.split() for l in out.splitlines()[1:4]]
    assert [r[3] for r in rows] == ["32", "128", "906"]
    assert "valid" in out


def test_cli_schedule_product_columns_match_the_bound(capsys):
    assert main(["schedule", "-T", "100"]) == EXIT_OK
    rows = [l.split() for l in capsys.readouterr().out.splitlines()[1:101]]
    for horizon in (1, 10, 100):
        assert rows[horizon - 1][4:] == [f"{never_restart_lower_bound(Schedule(), horizon):.6g}"]


def test_cli_schedule_reports_an_infinite_epoch_length(capsys):
    args = ["schedule", "-T", "4000", "--decay", "geometric", "--rate", "0.9"]
    assert main(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    # Row t holds the product through t + 1.  The factor at t = 3277 fails,
    # so row 3275 has the last product, and row 3276, whose N is finite,
    # has none.
    prods = never_restart_products(Schedule(decay="geometric", rate=0.9), 3276)
    assert lines[1 + 3275].split()[4:] == [f"{prods[-1]:.6g}"]
    assert lines[1 + 3276].split()[3].isdigit() and len(lines[1 + 3276].split()) == 4
    assert lines[1 + 3277].split()[3] == "inf"
    assert lines[-1] == "INVALID: nonpositive or non-finite product factor (first offending t=3277)"


def test_cli_schedule_empty_horizon(capsys):
    assert main(["schedule", "-T", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "deferred" in out


def test_cli_schedule_invalid_params(capsys):
    assert main(["schedule", "--epsilon-base", "2.0"]) == EXIT_CONFIG


def test_cli_run_deterministic_outputs(tmp_path):
    cfg = write_yaml_config(
        tmp_path, output={"trace_dir": str(tmp_path / "out"), "make_dirs": True}
    )
    assert main(["run", str(cfg), "--trial", "0"]) == EXIT_OK
    first = (tmp_path / "out" / "trial-0000.jsonl").read_bytes()
    assert main(["run", str(cfg), "--trial", "0"]) == EXIT_OK
    second = (tmp_path / "out" / "trial-0000.jsonl").read_bytes()
    assert first == second


def test_cli_batch_row_count_and_validate(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = write_yaml_config(
        tmp_path,
        output={
            "trace_dir": str(out_dir),
            "summary_csv": str(out_dir / "summary.csv"),
            "report_json": str(out_dir / "report.json"),
            "make_dirs": True,
        },
    )
    assert main(["batch", str(cfg)]) == EXIT_OK
    lines = (out_dir / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 trials
    capsys.readouterr()
    assert main(["validate", str(out_dir / "trial-0000.jsonl")]) == EXIT_OK
    assert "zero divergences" in capsys.readouterr().out


@pytest.mark.parametrize(
    "output, message",
    [
        ({"trace_dir": 5}, "trace_dir must be a path string, got 5"),
        ({"trace_dirr": "out"}, "unknown keys trace_dirr"),
        ({"trace_dir": "out", "make_dirs": "no"}, "make_dirs must be true or false, got 'no'"),
    ],
    ids=["path-not-a-string", "unknown-key", "make_dirs-not-a-bool"],
)
def test_cli_checks_the_output_section(tmp_path, capsys, monkeypatch, output, message):
    monkeypatch.chdir(tmp_path)
    cfg = write_yaml_config(tmp_path, output=output)
    assert main(["batch", str(cfg)]) == EXIT_CONFIG
    assert f"output: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_batch_needs_at_least_one_worker(tmp_path, capsys, workers):
    cfg = write_yaml_config(tmp_path)
    assert main(["batch", str(cfg), "--workers", workers]) == EXIT_CONFIG
    assert f"workers must be an integer >= 1, got {workers}" in capsys.readouterr().err


def test_cli_batch_needs_fork_for_more_than_one_worker(tmp_path, capsys, monkeypatch):
    cfg = write_yaml_config(tmp_path)
    monkeypatch.delattr(os, "fork")
    assert main(["batch", str(cfg), "--workers", "2"]) == EXIT_CONFIG
    assert "workers > 1 needs os.fork" in capsys.readouterr().err


def test_cli_missing_output_dir_rejected(tmp_path, capsys):
    cfg = write_yaml_config(
        tmp_path, output={"trace_dir": str(tmp_path / "nope"), "make_dirs": False}
    )
    assert main(["run", str(cfg)]) == EXIT_IO
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy",
    [
        {"kind": "stationary", "probs": [1.0]},
        {"kind": "stationary", "probs": [0.5, 0.3, 0.2]},
        {"kind": "scripted", "actions": [0, 7]},
        {"kind": "scripted", "actions": [-1]},
        {"kind": "eventually_stationary", "pre": {"kind": "scripted", "actions": [0]},
         "switch_round": 5, "probs": [0.2, 0.2, 0.6]},
        *(
            {"kind": "eventually_stationary", "pre": {"kind": "scripted", "actions": [0]},
             "switch_round": bad, "probs": [0.5, 0.5]}
            for bad in (2.5, -1, True)
        ),
        {"kind": "fictitious_play", "initial_counts": [[1.0, 1.0, 1.0]]},
        {"kind": "fictitious_play", "initial_counts": [[0.0, 0.0]]},
        # YAML's .inf: a trace header must hold it as JSON, which has no infinity.
        pytest.param({"kind": "fictitious_play", "initial_counts": [[float("inf"), 1.0]]}, id="initial-counts-inf"),
        # Unknown keys: a typo must not run with the defaults.
        pytest.param({"kind": "fictitious_play", "initial_count": [[50, 1]]}, id="initial_count"),
        pytest.param({"agent": "learner", "seed": 4}, id="learner-seed"),
    ],
)
def test_cli_rejects_opponent_that_does_not_fit_game(tmp_path, capsys, policy):
    # A parameter with an ``agent`` key is the whole roster entry.
    entry = policy if "agent" in policy else {"agent": "opponent", "policy": policy}
    cfg = write_yaml_config(
        tmp_path,
        roster=[{"agent": "learner"}, entry],
        output={"trace_dir": str(tmp_path / "out"), "make_dirs": True},
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "roster[1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_validate_rejects_a_header_json_cannot_hold(tmp_path, capsys):
    # Python's json reads Infinity, but no config with it builds, so no run
    # wrote the header.
    out_dir = tmp_path / "out"
    fictitious = {"kind": "fictitious_play", "initial_counts": [[0.5, 1.5]]}
    cfg = write_yaml_config(
        tmp_path,
        roster=[{"agent": "learner"}, {"agent": "opponent", "policy": fictitious}],
        output={"trace_dir": str(out_dir), "make_dirs": True},
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    trace_path = out_dir / "trial-0000.jsonl"
    text = trace_path.read_text()
    assert text.count('"initial_counts":[[0.5,1.5]]') == 1
    trace_path.write_text(text.replace('"initial_counts":[[0.5,1.5]]', '"initial_counts":[[Infinity,1.5]]'))
    capsys.readouterr()
    assert main(["validate", str(trace_path)]) == EXIT_CONFIG
    assert "roster[1]: not a JSON value" in capsys.readouterr().err


def test_cli_validate_detects_tampering(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = write_yaml_config(
        tmp_path, output={"trace_dir": str(out_dir), "make_dirs": True}
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    trace_path = out_dir / "trial-0000.jsonl"
    lines = trace_path.read_text().splitlines()
    lines[1] = lines[1].replace('"switched":false', '"switched":true')
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(trace_path)]) == EXIT_CONFIG
    assert "DIVERGENCE" in capsys.readouterr().out


def test_cli_rejects_negative_master_seed(tmp_path, capsys):
    out_dir = tmp_path / "out"
    output = {"trace_dir": str(out_dir), "make_dirs": True}
    cfg = write_yaml_config(tmp_path, master_seed=-5, output=output)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "master_seed" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_rejects_negative_trial(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = write_yaml_config(tmp_path, output={"trace_dir": str(out_dir), "make_dirs": True})
    assert main(["run", str(cfg), "--trial", "-1"]) == EXIT_CONFIG
    assert "--trial" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "batch"])
def test_cli_rejects_override_that_is_not_an_equilibrium(tmp_path, capsys, command):
    game_path = tmp_path / "bos.yaml"
    game_path.write_text(game_yaml(battle_of_sexes()))
    out_dir = tmp_path / "out"
    cfg = write_yaml_config(
        tmp_path,
        game=str(game_path),
        roster=[{"agent": "learner"}, {"agent": "learner"}],
        equilibrium_override=[[0.5, 0.5], [0.5, 0.5]],
        output={"trace_dir": str(out_dir), "make_dirs": True},
    )
    assert main([command, str(cfg)]) == EXIT_CONFIG
    assert "not an equilibrium" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "probs, entry",
    [(["0.5", "0.5"], "'0.5'"), (["1e-200", 1.0], "'1e-200'"), ([True, False], "True")],
    ids=["strings", "yaml-string", "bools"],
)
def test_cli_run_needs_number_probs(tmp_path, capsys, probs, entry):
    # numpy would read each as a probability.
    policy = {"kind": "eventually_stationary", "pre": {"kind": "stationary", "probs": probs},
              "switch_round": 5, "probs": [0.5, 0.5]}
    for policy in ({"kind": "stationary", "probs": probs}, policy):
        cfg = write_yaml_config(tmp_path, roster=[{"agent": "learner"}, {"agent": "opponent", "policy": policy}])
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert f"roster[1]: invalid opponent policy: probs[0] must be a number, got {entry}" in capsys.readouterr().err


@pytest.mark.parametrize("counts, entry", [([["1", "2"]], "'1'"), ([[True, True]], "True")], ids=["strings", "bools"])
def test_cli_run_needs_number_initial_counts(tmp_path, capsys, counts, entry):
    policy = {"kind": "fictitious_play", "initial_counts": counts}
    cfg = write_yaml_config(tmp_path, roster=[{"agent": "learner"}, {"agent": "opponent", "policy": policy}])
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert f"invalid opponent policy: initial_counts[0][0] must be a number, got {entry}" in capsys.readouterr().err


def test_cli_run_needs_a_number_equilibrium_override(tmp_path, capsys):
    cfg = write_yaml_config(
        tmp_path, roster=[{"agent": "learner"}, {"agent": "learner"}],
        equilibrium_override=[["0.5", "0.5"], ["0.5", "0.5"]],
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "equilibrium_override[0][0] must be a number, got '0.5'" in capsys.readouterr().err


def test_cli_run_rejects_initial_counts_whose_values_overflow(tmp_path, capsys):
    # Each count is finite, but a value of matching pennies at ±2 against
    # them is not: fictitious play would answer from NaN values.
    game = {"num_players": 2, "payoffs": (2 * matching_pennies().payoffs).tolist()}
    policy = {"kind": "fictitious_play", "initial_counts": [[1.0e308, 1.0e308]]}
    cfg = write_yaml_config(tmp_path, game=game, roster=[{"agent": "learner"}, {"agent": "opponent", "policy": policy}])
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "roster[1]: invalid opponent policy: initial_counts overflow" in capsys.readouterr().err


def test_cli_run_rejects_default_counts_whose_values_overflow(tmp_path, capsys):
    # A payoff range of 0 passes the game's check, but fictitious play's
    # default counts, one of each action, give values of 1e308 + 1e308.
    game = {"num_players": 2, "payoffs": np.full((2, 2, 2), 1.0e308).tolist()}
    policy = {"kind": "fictitious_play"}
    cfg = write_yaml_config(tmp_path, game=game, roster=[{"agent": "learner"}, {"agent": "opponent", "policy": policy}])
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "roster[1]: invalid opponent policy: initial_counts overflow" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "batch"])
def test_cli_unavailable_equilibrium_exits_3(tmp_path, capsys, command):
    game_path = tmp_path / "hard.yaml"
    game_path.write_text(NO_PURE_NE_3P)
    cfg = write_yaml_config(tmp_path, game=str(game_path), roster=[{"agent": "learner"}] * 3)
    assert main([command, str(cfg)]) == EXIT_SOLVER
    assert "override" in capsys.readouterr().err


def test_cli_rejects_non_integer_schedule_count(tmp_path, capsys):
    # A NaN offset too: it would reach int(N^t) as NaN.
    for key, value in (("epoch0_rounds", 2.5), ("offset", float("nan"))):
        cfg = write_yaml_config(tmp_path, schedule={"epsilon_base": 0.5, key: value})
        assert main(["run", str(cfg)]) == EXIT_CONFIG, key
        err = capsys.readouterr().err
        assert "invalid schedule" in err and key in err, err


def _drop(key):
    def edit(lines, index):
        rec = json.loads(lines[index])
        del rec[key]
        lines[index] = json.dumps(rec)

    return edit


def _replace(text):
    def edit(lines, index):
        lines[index] = text

    return edit


def _set(*keys, value):
    """Set the record's field at ``keys`` to ``value``, or drop it when
    ``value`` is None."""

    def edit(lines, index):
        rec = json.loads(lines[index])
        parent = rec
        for key in keys[:-1]:
            parent = parent[key]
        if value is None:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        lines[index] = json.dumps(rec)

    return edit


def _reorder(order):
    """Put the trace's lines in the order ``order(n)`` lists, n the line count."""

    def edit(lines, index):
        lines[:] = [lines[i] for i in order(len(lines))]

    return edit


# ``located``: the message names the record's line (``index`` after the
# edit); otherwise it names the trace file and the first header field that
# is not the one run_trial writes for the header's config.
@pytest.mark.parametrize(
    "index, edit, message, located",
    [
        (-1, _drop("rounds_used"), "end record without rounds_used", True),
        (1, _replace("[1, 2]"), "not a header, epoch or end record", True),
        (1, _drop("seq"), "epoch record without seq", True),
        (0, _drop("config"), "header record without config", True),
        (0, _drop("equilibrium"), "header record without equilibrium", True),
        (1, _set("seq", value=[1]), "epoch seq must be an integer >= 0", True),
        (0, _set("config", "game", value=None), "trace header config.game must be an inline game mapping", False),
        (0, _set("config", "game", value="mp.game"), "trace header config.game must be an inline game mapping", False),
        (0, _set("config", "schedule", "epsilon_base", value="x"),
         "trace header config: schedule: invalid schedule", False),
        (0, _set("equilibrium", "provenance", value=None), "trace header equilibrium.provenance is not what", False),
        (0, _set("equilibrium", "kind", value="mixed"), "trace header equilibrium.kind is not what", False),
        (0, _set("config", "round_budget", value=None), "trace header config.round_budget is not what", False),
        (-1, _set("truncated", value=True), "end record with unknown truncated", True),
        (0, _set("note", value="checked by hand"), "header record with unknown note", True),
        (0, _set("config", "master_seed", value=-1), "trace header config: master_seed must be an integer >= 0", False),
        (0, _set("config", "trial_count", value=0), "trace header config: trial_count must be an integer >= 1", False),
        (0, _set("trial", value=-1), "trace header trial must be an integer >= 0", False),
        (0, _set("trial", value="first"), "trace header trial must be an integer >= 0", False),
        (-1, _reorder(lambda n: [*range(n), n - 1]), "end record after the end record", True),
        (2, _reorder(lambda n: [0, n - 1, *range(1, n - 1)]), "epoch record after the end record", True),
        (0, _reorder(lambda n: [*range(1, n), 0]), "epoch record before the header", True),
        (2, _reorder(lambda n: [0, *range(n - 2, 0, -1), n - 1]), "epoch seq 2 after seq 3", True),
    ],
    ids=["end-without-rounds_used", "not-an-object", "epoch-without-seq",
         "header-without-config", "header-without-equilibrium", "epoch-seq-a-list",
         "config-without-game", "config-game-a-string", "schedule-epsilon_base-a-string",
         "equilibrium-without-provenance", "equilibrium-with-kind", "config-without-round_budget",
         "end-with-truncated", "header-with-an-extra-key", "config-master_seed-negative",
         "config-trial_count-0", "trial-negative", "trial-a-string", "end-twice", "end-before-the-epochs",
         "header-last", "epochs-reversed"],
)
def test_cli_validate_rejects_malformed_records(tmp_path, capsys, index, edit, message, located):
    out_dir = tmp_path / "out"
    cfg = write_yaml_config(tmp_path, output={"trace_dir": str(out_dir), "make_dirs": True})
    assert main(["run", str(cfg)]) == EXIT_OK
    trace_path = out_dir / "trial-0000.jsonl"
    lines = trace_path.read_text().splitlines()
    edit(lines, index)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(trace_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    where = f"{trace_path}:{index % len(lines) + 1}" if located else f"{trace_path}"
    assert f"{where}: {message}" in err


@pytest.mark.parametrize(
    "strategies",
    [[[1.0], [0.5, 0.5]], [[float("nan"), 0.5], [0.5, 0.5]], [[2.0, -1.0], [0.5, 0.5]]],
    ids=["one-entry-short", "nan-entry", "negative-entry"],
)
def test_cli_validate_rejects_a_header_equilibrium_that_is_no_strategy(tmp_path, capsys, strategies):
    # The header's strategies must be the equilibrium run_trial writes for
    # the header's config; the replay would otherwise fail deep inside the
    # epoch rule, or report an arbitrary divergence.
    out_dir = tmp_path / "out"
    cfg = write_yaml_config(tmp_path, output={"trace_dir": str(out_dir), "make_dirs": True})
    assert main(["run", str(cfg)]) == EXIT_OK
    trace_path = out_dir / "trial-0000.jsonl"
    lines = trace_path.read_text().splitlines()
    _set("equilibrium", "strategies", value=strategies)(lines, 0)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(trace_path)]) == EXIT_CONFIG
    assert f"{trace_path}: trace header equilibrium.strategies is not what" in capsys.readouterr().err
