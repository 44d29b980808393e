import copy
import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repgame import harness, traceio
from repgame.catalog import battle_of_sexes, matching_pennies, rock_paper_scissors
from repgame.config import build_run_config, config_to_dict
from repgame.equilibrium import EquilibriumUnavailableError, compute_equilibrium
from repgame.games import StageGame
from repgame.harness import (
    RunConfig,
    detect_convergence,
    run_batch,
    run_trial,
    validate_trace,
)
from repgame.schedule import Schedule

LEARNER = {"agent": "learner"}


def stationary(probs):
    return {"agent": "opponent", "policy": {"kind": "stationary", "probs": list(probs)}}


def mp_config(**kw):
    g = matching_pennies()
    defaults = dict(
        game=g,
        roster=(LEARNER, stationary([0.5, 0.5])),
        schedule=Schedule(epsilon_base=0.5, actions_total=g.actions_total),
        round_budget=200_000,
        epoch_budget=5,
        master_seed=7,
        trial_count=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def trace_bytes(trace) -> str:
    return "\n".join(traceio.trace_lines(trace))


# -- run_trial -----------------------------------------------------------------


def test_run_trial_deterministic_byte_identical():
    cfg = mp_config()
    assert trace_bytes(run_trial(cfg, 0)) == trace_bytes(run_trial(cfg, 0))


def test_trials_differ_across_indices():
    cfg = mp_config()
    assert trace_bytes(run_trial(cfg, 0)) != trace_bytes(run_trial(cfg, 1))


def test_mp_vs_equilibrium_opponent_keeps_hypothesis():
    # In the no-rejection event (this seed), the equilibrium hypothesis
    # survives all five epochs.
    trace = run_trial(mp_config(), 0)
    assert trace.epochs == 5
    assert all(rec["eq_hyp_after"] for rec in trace.events)


def test_scripted_opponent_histograms_exact():
    g = matching_pennies()
    cfg = mp_config(
        roster=(
            LEARNER,
            {"agent": "opponent", "policy": {"kind": "scripted", "actions": [0, 1]}},
        ),
        epoch_budget=1,
    )
    trace = run_trial(cfg, 0)
    rec = trace.events[0]
    n = rec["rounds"]
    assert rec["counts"][1] == [1, n - 1]  # script [0,1] then repeat-last


def test_budget_truncation_marks_partial_epoch():
    cfg = mp_config(round_budget=40, epoch_budget=5)  # epoch 0 needs 32, epoch 1 128
    trace = run_trial(cfg, 0)
    assert trace.truncated
    assert trace.epochs == 1
    assert trace.partial_rounds == 8
    assert trace.rounds_used == 40


@pytest.mark.parametrize(
    "policy",
    [
        {"kind": "stationary", "probs": [0.5, 0.5]},
        {"kind": "stationary", "probs": [0.25, 0.25, 0.25, 0.25]},
        {"kind": "stationary", "probs": [float("nan"), 0.5, 0.5]},
        {"kind": "scripted", "actions": [0, 7]},
        {"kind": "scripted", "actions": [-1]},
        {"kind": "scripted", "actions": [0, 1.5]},
        {"kind": "eventually_stationary", "pre": {"kind": "scripted", "actions": [0]},
         "switch_round": 5, "probs": [0.5, 0.5]},
        {"kind": "eventually_stationary", "pre": {"kind": "scripted", "actions": [3]},
         "switch_round": 5, "probs": [0.5, 0.3, 0.2]},
        *(
            {"kind": "eventually_stationary", "pre": {"kind": "scripted", "actions": [0]},
             "switch_round": bad, "probs": [0.5, 0.3, 0.2]}
            for bad in (2.5, -1, True, "3")
        ),
        {"kind": "fictitious_play", "initial_counts": [[1.0, 1.0]]},
        {"kind": "fictitious_play", "initial_counts": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]},
        {"kind": "fictitious_play", "initial_counts": [[0.0, 0.0, 0.0]]},
        {"kind": "fictitious_play", "initial_counts": [[-1.0, 1.0, 2.0]]},
        {"kind": "eventually_stationary", "pre": {"kind": "fictitious_play", "initial_counts": [[1.0]]},
         "switch_round": 5, "probs": [0.5, 0.3, 0.2]},
        *(
            {"kind": "eventually_stationary", "pre": pre, "switch_round": 5, "probs": [0.5, 0.3, 0.2]}
            for pre in ({"kind": "psychic"}, 5)
        ),
        # Unknown keys: a typo must not run with the defaults.
        pytest.param({"kind": "fictitious_play", "initial_count": [[50, 1, 1]]}, id="initial_count"),
        pytest.param({"kind": "stationary", "probs": [0.5, 0.3, 0.2], "seed": 4}, id="stationary-seed"),
        pytest.param(
            {"kind": "eventually_stationary", "pre": {"kind": "scripted", "actions": [0], "loop": True},
             "switch_round": 5, "probs": [0.5, 0.3, 0.2]},
            id="pre-loop",
        ),
        pytest.param({"agent": "learner", "seed": 4}, id="learner-seed"),
        pytest.param(
            {"agent": "opponent", "policy": {"kind": "stationary", "probs": [0.5, 0.3, 0.2]}, "seed": 4},
            id="opponent-seed",
        ),
    ],
)
def test_run_config_rejects_opponent_that_does_not_fit_game(policy):
    g = rock_paper_scissors()
    # A parameter with an ``agent`` key is the whole roster entry.
    entry = policy if "agent" in policy else {"agent": "opponent", "policy": policy}
    with pytest.raises(ValueError, match=r"roster\[1\]"):
        RunConfig(
            game=g,
            roster=(LEARNER, entry),
            schedule=Schedule(epsilon_base=0.5, actions_total=g.actions_total),
        )


def test_history_dependent_opponent_uses_per_round_path():
    g = rock_paper_scissors()
    cfg = RunConfig(
        game=g,
        roster=(LEARNER, {"agent": "opponent", "policy": {"kind": "fictitious_play"}}),
        schedule=Schedule(epsilon_base=0.5, actions_total=g.actions_total),
        round_budget=2000,
        epoch_budget=3,
        master_seed=1,
    )
    trace = run_trial(cfg, 0)
    assert trace.epochs >= 1
    assert validate_trace(trace).ok


def test_per_round_trace_bytes_are_frozen():
    # SHA-256 over every line of a matching-pennies trial against fictitious
    # play (6 epochs, a restart and a switch).  A change that alters trace
    # bytes must update it and say why in CHANGES.md.
    fp = {"agent": "opponent", "policy": {"kind": "fictitious_play"}}
    cfg = mp_config(
        roster=(LEARNER, fp), round_budget=5000, epoch_budget=1000, master_seed=9, trial_count=1
    )
    lines = "".join(line + "\n" for line in traceio.trace_lines(run_trial(cfg, 0)))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "0353b9d710aef8c43438ca46e8c904e3e23b80d8f3ed259312d607094c84a6f8"


def test_three_player_trace_bytes_are_frozen():
    # SHA-256 over every line of a 3-player trial with non-integer payoffs
    # and a pure equilibrium: two learners and a stationary opponent on the
    # histogram path, 8 epochs with switches and restarts.  With 3 players
    # the order of the payoff contraction can change the float values, so
    # this pins it.  A change that alters trace bytes must update it and
    # say why in CHANGES.md.
    payoffs = [
        [[[0.17, -0.53, 1.46], [1.66, 0.53, 1.92]], [[0.93, 1.32, 1.58], [-0.91, 1.95, -0.44]]],
        [[[-0.01, -1.28, 1.29], [-0.65, 0.76, -1.13]], [[-0.59, -0.46, -1.05], [-1.86, 1.08, 1.8]]],
        [[[-1.1, -1.35, -0.61], [-1.67, 0.6, -0.53]], [[0.25, 1.62, 1.45], [1.69, 1.74, 0.36]]],
    ]
    cfg = RunConfig(
        game=StageGame(np.array(payoffs)),
        roster=(LEARNER, LEARNER, stationary([0.01, 0.07, 0.92])),
        schedule=Schedule(epsilon_base=1 / 30, actions_total=7, offset=29.0, epoch0_rounds=200),
        round_budget=400_000,
        epoch_budget=8,
        master_seed=502,
        trial_count=1,
    )
    trace = run_trial(cfg, 0)
    assert any(rec["switched"] for rec in trace.events)
    assert any(rec["restart"] for rec in trace.events)
    lines = "".join(line + "\n" for line in traceio.trace_lines(trace))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "d25071a5102bbf2719515e651a9f9638ac63b12b2b76699697a6cc2147c1bae2"


def test_self_play_flag_tuples_synchronized():
    cfg = mp_config(roster=(LEARNER, LEARNER), epoch_budget=6)
    trace = run_trial(cfg, 0)
    by_seq = {}
    for rec in trace.events:
        by_seq.setdefault(rec["seq"], []).append(rec)
    for group in by_seq.values():
        tuples = {
            (r["t"], r["eq_hyp_after"], r["stat_hyp_after"], r["grace_after"], r["restarts_total"])
            for r in group
        }
        assert len(group) == 2 and len(tuples) == 1


# -- property: one sampling path for every roster ----------------------------------


def mixed_strategies(k: int):
    weights = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    return weights.map(lambda w: [x / sum(w) for x in w])


@st.composite
def policy_descriptors(draw, k: int, history_free: bool = False):
    kinds = ["stationary", "scripted", "eventually_stationary"]
    kind = draw(st.sampled_from(kinds if history_free else kinds + ["fictitious_play"]))
    if kind == "stationary":
        return {"kind": kind, "probs": draw(mixed_strategies(k))}
    if kind == "scripted":
        return {"kind": kind, "actions": draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=5))}
    if kind == "fictitious_play":
        return {"kind": kind}
    pre = draw(st.one_of(st.just({"kind": "fictitious_play"}), policy_descriptors(k, history_free=True)))
    return {"kind": kind, "pre": pre, "switch_round": draw(st.integers(0, 200)), "probs": draw(mixed_strategies(k))}


@st.composite
def small_runs(draw):
    n = draw(st.integers(2, 3))
    counts = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    size = n * int(np.prod(counts))
    payoffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    game = StageGame(np.asarray(payoffs, dtype=np.float64).reshape([n] + counts))
    try:
        compute_equilibrium(game)
    except EquilibriumUnavailableError:
        assume(False)
    lead = draw(st.integers(0, n - 1))  # the learner need not be player 0
    roster = []
    for p in range(n):
        if p == lead or draw(st.integers(0, 3)) == 0:
            roster.append(LEARNER)
        else:
            roster.append({"agent": "opponent", "policy": draw(policy_descriptors(counts[p]))})
    return RunConfig(
        game=game,
        roster=tuple(roster),
        schedule=Schedule(epsilon_base=0.5, actions_total=game.actions_total, epoch0_rounds=draw(st.integers(1, 40))),
        round_budget=draw(st.integers(1, 1200)),
        epoch_budget=draw(st.integers(1, 4)),
        master_seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_runs())
def test_every_roster_validates_and_reruns_byte_identical(cfg):
    trace = run_trial(cfg, 0)
    report = validate_trace(trace)
    assert report.ok, report.divergence
    assert trace.rounds_used == cfg.round_budget or trace.epochs == cfg.epoch_budget
    assert trace_bytes(run_trial(cfg, 0)) == trace_bytes(trace)
    rebuilt = build_run_config(json.loads(json.dumps(trace.header["config"])))
    assert trace_bytes(run_trial(rebuilt, 0)) == trace_bytes(trace)
    with tempfile.TemporaryDirectory() as tmp:
        traceio.write_trace(trace, Path(tmp) / "trace.jsonl")
        assert traceio.read_trace(Path(tmp) / "trace.jsonl") == trace
    if trace.truncated and trace.rounds_used > trace.partial_rounds:
        # The epoch cut short by the budget is left out of the statistics:
        # a budget that ends where that epoch began gives the same events
        # and summary.
        cut = run_trial(dataclasses.replace(cfg, round_budget=trace.rounds_used - trace.partial_rounds), 0)
        assert cut.events == trace.events
        summary = detect_convergence(trace)
        assert detect_convergence(cut) == dataclasses.replace(summary, rounds_used=cut.rounds_used)


# -- convergence detection ---------------------------------------------------------


def test_detect_equilibrium_hypothesis_held():
    summary = detect_convergence(run_trial(mp_config(), 0))
    assert summary.converged is True
    assert summary.kind == "equilibrium-hypothesis-held"
    assert summary.final_phi[0] == (0.5, 0.5)


def test_detect_insufficient_data():
    cfg = mp_config(epoch_budget=2)
    summary = detect_convergence(run_trial(cfg, 0), window=3)
    assert summary.converged is None
    assert summary.kind == "insufficient-data"


def test_detect_best_response_lock():
    g = rock_paper_scissors()
    cfg = RunConfig(
        game=g,
        roster=(LEARNER, stationary([0.5, 0.3, 0.2])),
        schedule=Schedule(epsilon_base=1 / 30, actions_total=g.actions_total, offset=29.0),
        round_budget=500_000,
        epoch_budget=40,
        master_seed=11,
    )
    summary = detect_convergence(run_trial(cfg, 0))
    assert summary.converged is True
    assert summary.kind == "best-response-lock"
    assert summary.final_phi[0] == (0.0, 1.0, 0.0)  # Paper vs (0.5, 0.3, 0.2)


def test_detect_restart_in_window_is_not_converged():
    # Opponent flips distribution every epoch boundary region; find a trace
    # whose final window contains a restart.
    g = matching_pennies()
    cfg = RunConfig(
        game=g,
        roster=(
            LEARNER,
            {
                "agent": "opponent",
                "policy": {
                    "kind": "eventually_stationary",
                    "pre": {"kind": "scripted", "actions": [0]},
                    "switch_round": 1055,  # mid-epoch-3 flip: nonstationary
                    "probs": [0.0, 1.0],
                },
            },
        ),
        schedule=Schedule(epsilon_base=0.5, actions_total=4),
        round_budget=1100,
        epoch_budget=4,
        master_seed=5,
        window=4,
    )
    trace = run_trial(cfg, 0)
    if any(rec["restart"] for rec in trace.events[-4:]):
        summary = detect_convergence(trace, window=2)
        assert summary.converged is False
        assert summary.kind == "none"


# -- trace replay validation ----------------------------------------------------------


@pytest.fixture(scope="module")
def sample_trace():
    g = matching_pennies()
    cfg = RunConfig(
        game=g,
        roster=({"agent": "learner"}, {"agent": "learner"}),
        schedule=Schedule(epsilon_base=0.5, actions_total=4),
        round_budget=200_000,
        epoch_budget=6,
        master_seed=13,
    )
    return run_trial(cfg, 1)


def test_validate_clean_trace(sample_trace):
    report = validate_trace(sample_trace)
    assert report.ok and report.divergence is None
    assert report.epochs_checked == sample_trace.epochs


def test_validate_detects_count_perturbation(sample_trace):
    tampered = copy.deepcopy(sample_trace)
    tampered.events[3]["counts"][0][0] += 1
    report = validate_trace(tampered)
    assert not report.ok
    assert report.divergence["epoch"] == tampered.events[3]["seq"]


def test_validate_detects_phi_switch_without_margin(sample_trace):
    tampered = copy.deepcopy(sample_trace)
    rec = next(r for r in tampered.events if not r["switched"] and r["eq_hyp_before"] == r["eq_hyp_after"])
    rec["switched"] = True
    rec["phi_after"] = [1.0, 0.0]
    report = validate_trace(tampered)
    assert not report.ok


def test_validate_detects_flag_perturbation(sample_trace):
    tampered = copy.deepcopy(sample_trace)
    rec = tampered.events[-1]
    rec["eq_hyp_after"] = not rec["eq_hyp_after"]
    assert not validate_trace(tampered).ok


def test_validate_reports_player_missing_from_first_epoch():
    tampered = run_trial(mp_config(), 0)  # one learner, player 0
    tampered.events[2]["player"] = 1
    report = validate_trace(tampered)
    assert not report.ok
    assert report.divergence["field"] == "player"
    assert report.divergence["epoch"] == 2


@pytest.mark.parametrize("first", [0, 0.0])
def test_validate_reports_a_player_index_that_is_not_an_int(first):
    tampered = run_trial(mp_config(), 0)  # one learner, player 0
    for rec in tampered.events[1:] if first == 0 else tampered.events:
        rec["player"] = 0.0
    report = validate_trace(tampered)
    assert not report.ok
    assert report.divergence["field"] == "player"


def test_validate_reports_too_few_histograms():
    tampered = run_trial(mp_config(), 0)
    tampered.events[2]["counts"] = tampered.events[2]["counts"][:1]
    report = validate_trace(tampered)
    assert not report.ok
    assert report.divergence["field"] == "counts"


def test_validate_reports_a_field_the_replay_does_not_give():
    tampered = run_trial(mp_config(epoch_budget=3), 0)
    tampered.events[1]["note"] = "checked by hand"
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["field"]) == (1, "note")


@pytest.mark.parametrize(
    "budget, field, value, reported",
    [
        (200_000, "epochs", 99, "epochs"),
        (200_000, "epochs", 3.0, "epochs"),
        (200_000, "rounds_used", 7, "rounds_used"),
        (200_000, "rounds_used", "all", "rounds_used"),
        (200_000, "partial_rounds", -1, "partial_rounds"),
        (200_000, "partial_rounds", None, "partial_rounds"),
        (200_000, "truncated", True, "truncated"),
        # Epoch 0 needs 32 rounds, so a budget of 40 leaves 8 partial.
        (40, "truncated", False, "truncated"),
        (40, "truncated", 1, "truncated"),
        (40, "partial_rounds", 0, "truncated"),
        (40, "rounds_used", 32, "rounds_used"),
    ],
)
def test_validate_checks_the_end_record(budget, field, value, reported):
    tampered = run_trial(mp_config(round_budget=budget, epoch_budget=3), 0)
    assert validate_trace(tampered).ok
    setattr(tampered, field, value)
    report = validate_trace(tampered)
    assert not report.ok
    epochs = len({rec["seq"] for rec in tampered.events})
    assert (report.divergence["epoch"], report.divergence["player"]) == (epochs, None)
    assert report.divergence["field"] == reported


@pytest.mark.parametrize("edit", ["delete", "duplicate"])
def test_validate_reports_one_learner_record_too_few_or_too_many(sample_trace, edit):
    tampered = copy.deepcopy(sample_trace)  # two learners
    last = tampered.events[-1]
    if edit == "delete":
        tampered.events.remove(last)
    else:
        tampered.events.append(copy.deepcopy(last))
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"]) == (last["seq"], last["player"])
    assert report.divergence["field"] == "player"


def test_validate_reports_a_deleted_last_epoch():
    tampered = run_trial(mp_config(epoch_budget=3), 0)
    del tampered.events[-1]
    report = validate_trace(tampered)
    assert not report.ok
    assert report.divergence == {
        "epoch": 2, "player": None, "field": "epochs", "message": "need 2 epochs, trace has 3",
    }


def test_validate_reports_a_run_stopped_before_its_budgets():
    tampered = run_trial(mp_config(), 0)  # epoch_budget 5, 13,955 of 200,000 rounds
    last = tampered.events.pop()
    tampered.epochs -= 1
    tampered.rounds_used -= last["rounds"]
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"]) == (4, None)
    assert report.divergence["field"] == "rounds_used"
    assert "round_budget 200000 used up, or epoch_budget 5 epochs" in report.divergence["message"]


@pytest.mark.parametrize(
    "added, reported, message",
    [
        # Epoch 0 needs 32 rounds and epoch 1 needs 128, so a budget of 40
        # leaves 8 partial rounds of epoch 1.
        (10**9, "partial_rounds", "below N^1 = 128"),
        (100, "rounds_used", "at most round_budget 40"),
        (-4, "rounds_used", "round_budget 40 used up"),
    ],
)
def test_validate_checks_the_end_record_against_the_budgets(added, reported, message):
    tampered = run_trial(mp_config(round_budget=40, epoch_budget=3), 0)
    assert (tampered.epochs, tampered.partial_rounds) == (1, 8)
    tampered.partial_rounds += added
    tampered.rounds_used += added
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"]) == (1, None)
    assert report.divergence["field"] == reported
    assert message in report.divergence["message"]


def test_validate_checks_partial_rounds_of_a_trace_without_epochs():
    tampered = run_trial(mp_config(round_budget=20), 0)
    assert (tampered.epochs, tampered.partial_rounds) == (0, 20)
    tampered.partial_rounds = tampered.rounds_used = 32
    report = validate_trace(tampered)
    assert (report.divergence["epoch"], report.divergence["field"]) == (0, "partial_rounds")
    assert "below N^0 = 32" in report.divergence["message"]


@pytest.mark.parametrize("budget", ["round_budget", "epoch_budget"])
@pytest.mark.parametrize("value", [None, 0, 2.5, "many"])
def test_validate_needs_the_header_budgets(sample_trace, budget, value):
    tampered = copy.deepcopy(sample_trace)
    if value is None:
        del tampered.header["config"][budget]
    else:
        tampered.header["config"][budget] = value
    with pytest.raises(ValueError, match=f"trace header config.{budget} cannot be built"):
        validate_trace(tampered)


@pytest.mark.parametrize("phi_after", [[0.5, 0.5], [0.0, 1.0, 0.0]])
def test_validate_checks_post_rejection_pick(phi_after):
    scripted = {"agent": "opponent", "policy": {"kind": "scripted", "actions": [0]}}
    trace = run_trial(mp_config(roster=(LEARNER, scripted), epoch_budget=3), 0)
    rec = next(r for r in trace.events if r["eq_hyp_before"] and not r["eq_hyp_after"])
    assert validate_trace(trace).ok
    rec["phi_after"] = phi_after
    report = validate_trace(trace)
    assert not report.ok
    assert report.divergence["field"] == "phi_after"


# -- trace persistence ------------------------------------------------------------------


def test_trace_round_trip(tmp_path, sample_trace):
    path = tmp_path / "trace.jsonl"
    traceio.write_trace(sample_trace, path)
    loaded = traceio.read_trace(path)
    assert trace_bytes(loaded) == trace_bytes(sample_trace)
    assert validate_trace(loaded).ok


def test_read_trace_rejects_other_schema(tmp_path, sample_trace):
    path = tmp_path / "trace.jsonl"
    traceio.write_trace(sample_trace, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["schema"] -= 1
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="schema"):
        traceio.read_trace(path)


def test_trace_lines_are_canonical_json(sample_trace):
    for line in traceio.trace_lines(sample_trace):
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True, separators=(",", ":"))


def test_config_dict_round_trip():
    # The header's config is a run document: read back through JSON, it
    # rebuilds the config, override included, and re-runs the trial.
    override = [[2 / 3, 1 / 3], [1 / 3, 2 / 3]]
    cfg = mp_config(game=battle_of_sexes(), roster=(LEARNER, LEARNER), eq_override=override)
    trace = run_trial(cfg, 0)
    doc = json.loads(json.dumps(trace.header["config"]))
    assert doc["equilibrium_override"] == override
    rebuilt = build_run_config(doc)
    assert config_to_dict(rebuilt) == config_to_dict(cfg)
    assert trace_bytes(run_trial(rebuilt, 0)) == trace_bytes(trace)


# -- batch ---------------------------------------------------------------------------------


def test_batch_single_trial_matches_run_trial():
    cfg = mp_config(trial_count=1)
    result = run_batch(cfg, keep_traces=True)
    direct = detect_convergence(run_trial(cfg, 0))
    assert result.summaries == [direct]
    assert trace_bytes(result.traces[0]) == trace_bytes(run_trial(cfg, 0))


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_solves_the_equilibrium_once(monkeypatch, tmp_path, workers):
    # Pool workers are forked with the patch, so a solve in a worker would
    # be logged with the worker's pid.
    log = tmp_path / "solves"

    def logged(game, override=None):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return compute_equilibrium(game, override)

    cfg = mp_config(trial_count=3)
    monkeypatch.setattr(harness, "compute_equilibrium", logged)
    result = run_batch(cfg, workers=workers, keep_traces=True)
    assert log.read_text().split() == [str(os.getpid())]
    monkeypatch.undo()
    assert [trace_bytes(t) for t in result.traces] == [trace_bytes(run_trial(cfg, t)) for t in range(3)]


def test_batch_deterministic_aggregates():
    cfg = mp_config(trial_count=4)
    a = run_batch(cfg)
    b = run_batch(cfg)
    assert a.summaries == b.summaries
    assert a.convergence_fraction == b.convergence_fraction
    assert a.kind_counts == b.kind_counts


def test_batch_parallel_matches_serial():
    cfg = mp_config(trial_count=4)
    serial = run_batch(cfg, workers=1, keep_traces=True)
    parallel = run_batch(cfg, workers=2, keep_traces=True)
    assert serial.summaries == parallel.summaries
    for ta, tb in zip(serial.traces, parallel.traces):
        assert trace_bytes(ta) == trace_bytes(tb)


def test_batch_aggregates_match_persisted_traces(tmp_path):
    cfg = mp_config(trial_count=3)
    written = []

    def persist(trace, summary):
        path = tmp_path / f"trial-{trace.header['trial']}.jsonl"
        traceio.write_trace(trace, path)
        written.append(path)

    result = run_batch(cfg, on_trace=persist)
    recomputed = [detect_convergence(traceio.read_trace(p)) for p in written]
    assert recomputed == result.summaries


def test_summary_csv(tmp_path):
    cfg = mp_config(trial_count=3)
    result = run_batch(cfg)
    path = tmp_path / "summary.csv"
    traceio.write_summary_csv(result.summaries, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per trial
    assert lines[0].startswith("trial,converged,kind")
