import _pyio
import copy
import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repgame import config, harness, traceio
from repgame.cli import EXIT_CONFIG, main
from repgame.config import build_run_config, config_to_dict
from repgame.equilibrium import EquilibriumUnavailableError, compute_equilibrium
from repgame.games import StageGame
from repgame.harness import (
    RunConfig,
    RunTrace,
    detect_convergence,
    run_batch,
    run_trial,
    validate_trace,
)
from repgame.schedule import Schedule

from catalog import battle_of_sexes, matching_pennies, rock_paper_scissors
from conftest import run_batch_delivered

LEARNER = {"agent": "learner"}


# A 2x2x3 game with 3-decimal payoffs, under which the order of a payoff
# contraction can change the float values.
THREE_PLAYER_PAYOFFS = [
    [[[0.17, -0.53, 1.46], [1.66, 0.53, 1.92]], [[0.93, 1.32, 1.58], [-0.91, 1.95, -0.44]]],
    [[[-0.01, -1.28, 1.29], [-0.65, 0.76, -1.13]], [[-0.59, -0.46, -1.05], [-1.86, 1.08, 1.8]]],
    [[[-1.1, -1.35, -0.61], [-1.67, 0.6, -0.53]], [[0.25, 1.62, 1.45], [1.69, 1.74, 0.36]]],
]


def stationary(probs):
    return {"agent": "opponent", "policy": {"kind": "stationary", "probs": list(probs)}}


def fp(initial_counts=None):
    return {"agent": "opponent", "policy": {"kind": "fictitious_play", "initial_counts": initial_counts}}


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
    n = sum(rec["counts"][0])
    assert rec["counts"][1] == [1, n - 1]  # script [0,1] then repeat-last


def test_budget_truncation_marks_partial_epoch():
    cfg = mp_config(round_budget=40, epoch_budget=5)  # epoch 0 needs 32, epoch 1 128
    trace = run_trial(cfg, 0)
    assert trace.partial_rounds > 0
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
        # A trace header must hold it as JSON, which has no infinity.
        pytest.param({"kind": "fictitious_play", "initial_counts": [[math.inf, 1.0, 1.0]]}, id="initial-counts-inf"),
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


@pytest.mark.parametrize(
    "policy",
    [
        {"kind": "eventually_stationary", "pre": {"kind": "scripted", "actions": [0]},
         "switch_round": np.int64(5), "probs": [0.5, 0.3, 0.2]},
        {"kind": "stationary", "probs": np.array([0.5, 0.3, 0.2])},
    ],
    ids=["switch-round-int64", "probs-ndarray"],
)
def test_run_config_rejects_a_roster_entry_json_cannot_hold(policy):
    # Each fits the game, but no trace header could hold it: the config
    # fails when it is built, not when its first trace is written.
    g = rock_paper_scissors()
    with pytest.raises(ValueError, match=r"roster\[1\]: not a JSON value: .* is not JSON serializable"):
        RunConfig(
            game=g,
            roster=(LEARNER, {"agent": "opponent", "policy": policy}),
            schedule=Schedule(epsilon_base=0.5, actions_total=g.actions_total),
        )


def test_run_config_bounds_the_round_budget():
    # At the bound a histogram-path run takes its whole budget in one
    # segment, inside an epoch 0 of 10**19 rounds.
    schedule = Schedule(epsilon_base=0.5, actions_total=4, epoch0_rounds=10**19)
    trace = run_trial(mp_config(schedule=schedule, round_budget=2**63 - 1), 0)
    assert (trace.epochs, trace.rounds_used, trace.partial_rounds) == (0, 2**63 - 1, 2**63 - 1)
    with pytest.raises(ValueError, match=re.escape("round_budget must be at most 2**63 - 1, got 9223372036854775808")):
        mp_config(schedule=schedule, round_budget=2**63)


def test_history_dependent_opponent_plays_whole_segments(monkeypatch):
    # Fictitious play answers each epoch's actions of the learner in one
    # respond_counts call, or in one respond_segment call where that cannot
    # answer, and the learner draws it in one act_segment call: no round is
    # played on its own.  The budget cuts the last epoch short.
    from repgame import learner, opponents

    lengths = {"learner": [], "fictitious": []}

    def recording(cls, name, key, length_of):
        original = getattr(cls, name)

        def wrapper(self, *args):
            result = original(self, *args)
            if result is not None:  # respond_counts' None leaves the segment to respond_segment
                lengths[key].append(length_of(*args))
            return result

        monkeypatch.setattr(cls, name, wrapper)

    recording(learner.EquilibriumRetreatAgent, "act_segment", "learner", int)
    recording(opponents.FictitiousPlayPolicy, "respond_segment", "fictitious", lambda joint: len(joint[0]))
    recording(opponents.FictitiousPlayPolicy, "respond_counts", "fictitious", lambda joint: len(joint[0]))
    g = rock_paper_scissors()
    cfg = RunConfig(
        game=g,
        roster=(LEARNER, {"agent": "opponent", "policy": {"kind": "fictitious_play"}}),
        schedule=Schedule(epsilon_base=0.5, actions_total=g.actions_total),
        round_budget=2000,
        epoch_budget=1000,
        master_seed=1,
    )
    trace = run_trial(cfg, 0)
    segments = [sum(rec["counts"][0]) for rec in trace.events] + [trace.partial_rounds]
    assert trace.epochs == 3 and trace.partial_rounds > 0
    assert lengths["learner"] == lengths["fictitious"] == segments
    assert validate_trace(trace).ok


def test_action_path_holds_no_more_of_an_epoch_than_the_budget_plays():
    # The learner draws the rounds it is asked for, not its epoch's N^t: a
    # 10-round run of a 2,000,000-round epoch peaks as one of a 2,000-round
    # epoch does (it held N^t doubles and N^t int64s, 32.8 MB, when it drew
    # the epoch whole).
    def peak(epoch0_rounds):
        cfg = mp_config(
            roster=(LEARNER, fp()), round_budget=10, epoch_budget=1000, master_seed=9,
            schedule=Schedule(epsilon_base=0.5, actions_total=4, epoch0_rounds=epoch0_rounds),
        )
        cfg.equilibrium  # solved before the measure
        run_trial(cfg, 0)  # and the first trial's imports and caches
        tracemalloc.start()
        try:
            trace = run_trial(cfg, 0)
            return tracemalloc.get_traced_memory()[1], trace
        finally:
            tracemalloc.stop()

    (small, small_trace), (large, large_trace) = peak(2000), peak(2_000_000)
    assert large_trace.rounds_used == small_trace.rounds_used == large_trace.partial_rounds == 10
    assert large - small <= 500_000, (small, large)


def test_scripted_opponent_moves_through_its_script_beside_fictitious_play():
    # On the action path a history-free policy is shown nothing: each
    # act_segment call moves it past its segment.  The script plays once, in
    # the first epoch, and then repeats its last action.  The eventually
    # stationary opponent plays the same script until round 100, inside the
    # second epoch (rounds 37-260), and then 0 or 1 with odds 1:3.
    script = {"kind": "scripted", "actions": [0, 0, 1]}
    switching = {"kind": "eventually_stationary", "pre": script, "switch_round": 100, "probs": [0.25, 0.75]}
    for policy, want in ((script, [[2, 35], [0, 224], [0, 1584]]), (switching, [[2, 35], [50, 174], [373, 1211]])):
        cfg = RunConfig(
            game=StageGame(np.array(THREE_PLAYER_PAYOFFS)),
            roster=(LEARNER, {"agent": "opponent", "policy": policy}, fp()),
            schedule=Schedule(epsilon_base=0.5, actions_total=7, epoch0_rounds=37),
            round_budget=2000,
            epoch_budget=3,
            master_seed=3,
        )
        trace = run_trial(cfg, 0)
        assert [rec["counts"][1] for rec in trace.events] == want, policy["kind"]


def test_per_round_trace_bytes_are_frozen(monkeypatch):
    # SHA-256 over every line of a matching-pennies trial against fictitious
    # play (6 epochs, a restart and a switch).  Every segment is answered in
    # integers: the three where the learner plays a pure action in runs, one
    # of them in two, and the four where it mixes in int64 columns.  So
    # the digest pins the crossing arithmetic and the integer values too.  A
    # change that alters trace bytes must update it and say why in CHANGES.md.
    from repgame import opponents

    answered = {True: [], False: []}  # by whether the learner played one action throughout
    respond_counts = opponents.FictitiousPlayPolicy.respond_counts

    def recording(self, joint):
        hist = respond_counts(self, joint)
        answered[len(set(joint[0].tolist())) == 1].append(hist)
        return hist

    monkeypatch.setattr(opponents.FictitiousPlayPolicy, "respond_counts", recording)
    fp = {"agent": "opponent", "policy": {"kind": "fictitious_play"}}
    cfg = mp_config(
        roster=(LEARNER, fp), round_budget=5000, epoch_budget=1000, master_seed=9, trial_count=1
    )
    lines = "".join(line + "\n" for line in traceio.trace_lines(run_trial(cfg, 0)))
    assert sorted(sum(n > 0 for n in hist) for hist in answered[True]) == [1, 1, 2]
    assert len(answered[False]) == 4 and None not in answered[False]
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "45bd25b5e4277bad9f13a8acc29fcfdfe66bddbdfc48ea6edab8aa1d489aed1c"


def test_three_player_trace_bytes_are_frozen():
    # SHA-256 over every line of a 3-player trial with non-integer payoffs
    # and a pure equilibrium: two learners and a stationary opponent on the
    # histogram path, 8 epochs with switches and restarts.  With 3 players
    # the order of the payoff contraction can change the float values, so
    # this pins it.  A change that alters trace bytes must update it and
    # say why in CHANGES.md.
    cfg = RunConfig(
        game=StageGame(np.array(THREE_PLAYER_PAYOFFS)),
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
    assert digest == "1ee88bafd08f7abe1e60c3be09fafa1d95fcaeab0b94df842ee49a2432decded"


@pytest.mark.parametrize(
    "roster, want",
    [
        pytest.param(
            (
                LEARNER,
                stationary([0.3, 0.7]),
                {
                    "agent": "opponent",
                    "policy": {
                        "kind": "eventually_stationary",
                        "pre": fp([[0.1, 0.7], [0.3, 1.1]])["policy"],
                        "switch_round": 3000,
                        "probs": [0.2, 0.3, 0.5],
                    },
                },
            ),
            "956c435281b72eb3369e14763dc2502029d14c67cb797304e4a780f489b0bf7f",
            id="fictitious-then-stationary",
        ),
        pytest.param(
            (LEARNER, fp([[0.1, 0.7], [0.3, 1.1, 0.2]]), fp([[0.5, 0.25], [1.5, 0.75]])),
            "9deecbbb082844e7801b4a5c39c5bf74f7c6495fec7f64d3c1092eedffaa9c89",
            id="two-fictitious",
        ),
    ],
)
def test_three_player_history_dependent_trace_bytes_are_frozen(roster, want):
    # SHA-256 over every line of a 3-player trial with non-integer payoffs
    # and history-dependent opponents with non-integer initial counts: one
    # fictitious player that turns stationary at round 3000 mid-epoch, and
    # two fictitious players side by side.  A change that alters trace
    # bytes must update it and say why in CHANGES.md.
    cfg = RunConfig(
        game=StageGame(np.array(THREE_PLAYER_PAYOFFS)),
        roster=roster,
        schedule=Schedule(epsilon_base=0.5, actions_total=7, epoch0_rounds=37),
        round_budget=20_000,
        epoch_budget=1000,
        master_seed=11,
        trial_count=1,
    )
    lines = "".join(line + "\n" for line in traceio.trace_lines(run_trial(cfg, 0)))
    assert hashlib.sha256(lines.encode()).hexdigest() == want


def test_self_play_flag_tuples_synchronized():
    cfg = mp_config(roster=(LEARNER, LEARNER), epoch_budget=6)
    trace = run_trial(cfg, 0)
    by_seq = {}
    for rec in trace.events:
        by_seq.setdefault(rec["seq"], []).append(rec)
    for group in by_seq.values():
        tuples = {
            (r["t"], r["eq_hyp_after"], r["restart"], r["grace_after"], r["restarts_total"])
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
    if trace.partial_rounds > 0 and trace.rounds_used > trace.partial_rounds:
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
    cfg = mp_config(epoch_budget=2, window=3)
    summary = detect_convergence(run_trial(cfg, 0))
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
    # The opponent plays heads, then tails from round 1055, late in epoch 2
    # (rounds 160-1065).  The learner rejects the equilibrium in epoch 1,
    # takes its grace in epoch 2 and restarts in epoch 3, the last one.
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
                    "switch_round": 1055,
                    "probs": [0.0, 1.0],
                },
            },
        ),
        schedule=Schedule(epsilon_base=0.5, actions_total=4),
        round_budget=5000,
        epoch_budget=4,
        master_seed=5,
        window=2,
    )
    trace = run_trial(cfg, 0)
    assert trace.epochs == 4
    assert any(rec["restart"] for rec in trace.events if rec["seq"] >= trace.epochs - cfg.window)
    summary = detect_convergence(trace)
    assert summary.converged is False
    assert summary.kind == "none"


def _rec(player, phi, counts, *, phi_before=None, eq=False, restart=False, restarts_total=0):
    """An epoch record with only the keys ``detect_convergence`` reads."""
    return {
        "player": player,
        "phi_before": phi if phi_before is None else phi_before,
        "phi_after": phi,
        "counts": counts,
        "eq_hyp_after": eq,
        "restart": restart,
        "restarts_total": restarts_total,
    }


MIXED = [[3, 2], [2, 3]]  # two players' histograms, neither pure
PURE = [[5, 0], [0, 5]]  # player 0 plays action 0, player 1 action 1
LEFT, RIGHT, HALF = [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]


@pytest.mark.parametrize(
    "window, epochs, want",
    [
        (3, [[_rec(0, RIGHT, MIXED)]] * 2, (None, "insufficient-data", None, 0)),
        (2, [[_rec(0, HALF, MIXED, eq=True)]] * 3, (True, "equilibrium-hypothesis-held", 0, 0)),
        (2, [[_rec(0, LEFT, PURE), _rec(1, RIGHT, PURE)]] * 2, (True, "pure-profile-lock", 0, 0)),
        (2, [[_rec(0, RIGHT, MIXED)]] * 3, (True, "best-response-lock", 0, 0)),
        # The order of the tests: a held hypothesis first, then a pure profile.
        (2, [[_rec(0, LEFT, PURE, eq=True), _rec(1, RIGHT, PURE, eq=True)]] * 2,
         (True, "equilibrium-hypothesis-held", 0, 0)),
        (2, [[_rec(0, RIGHT, [[0, 5], [5, 0]])]] * 2, (True, "pure-profile-lock", 0, 0)),
        # The opponent's pure histogram changes action, so no pure profile.
        (2, [[_rec(0, RIGHT, [[0, 5], [5, 0]])], [_rec(0, RIGHT, [[0, 5], [0, 5]])]],
         (True, "best-response-lock", 0, 0)),
        # Two learners locked on pure actions next to a mixed third player.
        (2, [[_rec(p, [1.0 - p, float(p)], [[5, 0], [0, 5], [2, 3]]) for p in (0, 1)]] * 2,
         (False, "none", None, 0)),
        # A phi_after that sums to 2 is no pure strategy.
        (2, [[_rec(0, [2.0, 0.0], MIXED)]] * 2, (False, "none", None, 0)),
        (2, [[_rec(0, RIGHT, MIXED)], [_rec(0, RIGHT, MIXED, restart=True, restarts_total=1)],
             [_rec(0, RIGHT, MIXED, restarts_total=1)]], (False, "none", None, 1)),
        (2, [[_rec(0, RIGHT, MIXED, phi_before=HALF)]] + [[_rec(0, RIGHT, MIXED)]] * 3,
         (True, "best-response-lock", 1, 0)),
        # The pure equilibrium (Left, Left) holds, then the opponent plays
        # Right and the learner's pick is Left again: φ stays, the
        # hypothesis is rejected in the window's last epoch.
        (2, [[_rec(0, LEFT, [[5, 0], [5, 0]], eq=True)], [_rec(0, LEFT, [[5, 0], [0, 5]])]],
         (True, "best-response-lock", 0, 0)),
        (2, [[_rec(0, RIGHT, MIXED)]] * 2 + [[_rec(0, RIGHT, MIXED, restart=True, restarts_total=1)]],
         (False, "none", None, 1)),
        # A restart puts φ back to the equilibrium, which holds in the epoch after it.
        (1, [[_rec(0, RIGHT, MIXED)], [_rec(0, RIGHT, MIXED, restart=True, restarts_total=1)],
             [_rec(0, HALF, MIXED, eq=True, restarts_total=1)]],
         (True, "equilibrium-hypothesis-held", 2, 1)),
    ],
    ids=["insufficient-data", "equilibrium-hypothesis-held", "pure-profile-lock", "best-response-lock",
         "held-before-pure-profile", "pure-profile-before-best-response", "pure-histograms-that-change-action", "mixed-third-player", "phi-after-not-pure",
         "restart-in-window", "suffix-longer-than-window", "pure-equilibrium-rejected-in-the-last-epoch",
         "restart-in-the-last-epoch", "stable-last-epoch-after-a-restart"],
)
def test_detect_convergence_on_hand_made_traces(window, epochs, want):
    events = [dict(rec, seq=seq) for seq, group in enumerate(epochs) for rec in group]
    trace = RunTrace(
        header={"trial": 7, "config": {"window": window}},
        events=events,
        rounds_used=10 * len(epochs),
        epochs=len(epochs),
        partial_rounds=0,
    )
    summary = detect_convergence(trace)
    assert (summary.converged, summary.kind, summary.epochs_to_convergence, summary.restarts) == want
    assert (summary.trial, summary.rounds_used, summary.epochs) == (7, 10 * len(epochs), len(epochs))
    assert summary.final_phi == {rec["player"]: tuple(rec["phi_after"]) for rec in epochs[-1]}


def test_detect_convergence_on_a_trace_of_no_epochs():
    # Epoch 0 needs 32 rounds: no epoch ends, so no learner restarted.
    trace = run_trial(mp_config(round_budget=20), 0)
    assert trace.epochs == 0
    summary = detect_convergence(trace)
    assert (summary.converged, summary.kind, summary.epochs_to_convergence) == (None, "insufficient-data", None)
    assert (summary.restarts, summary.final_phi, summary.rounds_used, summary.epochs) == (0, {}, 20, 0)


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


def test_validate_counts_the_epochs_replayed_before_a_divergence(sample_trace):
    tampered = copy.deepcopy(sample_trace)  # two learners, 6 epochs
    rec = next(r for r in tampered.events if r["seq"] == 1)
    rec["switched"] = not rec["switched"]
    report = validate_trace(tampered)
    assert (report.ok, report.divergence["epoch"], report.divergence["field"]) == (False, 1, "switched")
    assert report.epochs_checked == 1


@pytest.mark.parametrize("seq", [None, [2], {"seq": 2}, True, -1], ids=["missing", "list", "dict", "true", "minus-one"])
@pytest.mark.parametrize("index", [4, 5], ids=["first-learner", "second-learner"])
def test_validate_reports_a_seq_that_is_not_an_index(sample_trace, seq, index):
    # Records 4 and 5 are the two learners' records of epoch 2.
    tampered = copy.deepcopy(sample_trace)
    rec = tampered.events[index]
    if seq is None:
        del rec["seq"]
    else:
        rec["seq"] = seq
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"], report.divergence["field"]) == (2, index - 4, "seq")
    assert report.epochs_checked == 2


def test_validate_names_a_renamed_key(sample_trace):
    # As many keys as the replay's record, one under another name: the
    # divergence names the replay's key the record lacks.
    tampered = copy.deepcopy(sample_trace)
    rec = tampered.events[2]  # epoch 1, player 0
    rec["margn"] = rec.pop("margin")
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"], report.divergence["field"]) == (1, 0, "margin")


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


def test_validate_takes_the_learners_from_the_header_roster():
    tampered = run_trial(mp_config(), 0)  # one learner, player 0
    tampered.header["config"]["roster"] = [stationary([0.5, 0.5]), LEARNER]
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"], report.divergence["field"]) == (0, 1, "player")
    assert report.divergence["message"] == "replay gives 1, trace has 0"


@pytest.mark.parametrize("roster", [None, "learner", [LEARNER], [LEARNER, 5], [LEARNER, LEARNER, LEARNER]])
def test_validate_needs_a_header_roster_of_one_agent_per_player(roster):
    tampered = run_trial(mp_config(), 0)
    tampered.header["config"]["roster"] = roster
    with pytest.raises(ValueError, match="trace header config: roster"):
        validate_trace(tampered)


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
        # Epoch 0 needs 32 rounds, so a budget of 40 leaves 8 partial.
        (40, "partial_rounds", 0, "partial_rounds"),
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


# Epoch s's records are events[2s] and events[2s + 1], learner 0's and
# learner 1's.  The last record is learner 1's of epoch 5.  Deleted, its
# place is empty; duplicated, the copy takes learner 0's place in epoch 6;
# swapped with learner 0's record, that place holds learner 1's record.
@pytest.mark.parametrize(
    "edit, where",
    [("delete", (5, 1, "counts")), ("duplicate", (6, 0, "counts")), ("swap", (5, 0, "player"))],
    ids=["delete", "duplicate", "swap"],
)
def test_validate_reports_one_learner_record_too_few_or_too_many(sample_trace, edit, where):
    tampered = copy.deepcopy(sample_trace)  # two learners, 6 epochs
    last = tampered.events[-1]
    assert (last["seq"], last["player"]) == (5, 1)
    if edit == "delete":
        tampered.events.remove(last)
    elif edit == "duplicate":
        tampered.events.append(copy.deepcopy(last))
    else:
        tampered.events[-2:] = tampered.events[:-3:-1]
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"], report.divergence["field"]) == where


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
    tampered.rounds_used -= sum(last["counts"][0])
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"]) == (4, None)
    assert report.divergence["field"] == "rounds_used"
    assert report.divergence["message"].startswith("need 200000 rounds_used, trace has ")


@pytest.mark.parametrize(
    "added, reported, message",
    [
        # Epoch 0 needs 32 rounds and epoch 1 needs 128, so a budget of 40
        # leaves 8 partial rounds of epoch 1, and rounds_used is 40.
        (10**9, "rounds_used", "need 40 rounds_used, trace has 1000000040"),
        (100, "rounds_used", "need 40 rounds_used, trace has 140"),
        (-4, "rounds_used", "need 40 rounds_used, trace has 36"),
    ],
    ids=["plus-1e9", "plus-100", "minus-4"],
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
    assert (report.divergence["epoch"], report.divergence["field"]) == (0, "rounds_used")
    assert report.divergence["message"] == "need 20 rounds_used, trace has 32"


def _end(rounds_used, partial_rounds):
    def edit(trace):
        trace.rounds_used, trace.partial_rounds = rounds_used, partial_rounds

    return edit


def _header_of(**budgets):
    def edit(trace):
        trace.header = harness.run_header(mp_config(**budgets), trace.header["trial"])

    return edit


def _last_epoch_cut(trace):
    del trace.events[-1]  # one learner: epoch 1's record
    trace.epochs, trace.partial_rounds = 1, 128


# Traces run_trial never writes, each with end fields that agree with its
# epochs.  Epoch 0 needs 32 rounds and epoch 1 needs 128, so a round budget of
# 160 stops the run after 2 epochs, as does an epoch budget of 2.
@pytest.mark.parametrize(
    "budgets, edit, field, message",
    [
        # Stopped by its round budget, but more epochs than its epoch budget.
        ({"round_budget": 160, "epoch_budget": 5}, _header_of(round_budget=160, epoch_budget=1), "epochs",
         "no run under epoch_budget 1 and round_budget 160 stops after 2 epochs of 160 rounds"),
        # Stopped by its epoch budget, so no epoch was cut short.
        ({"round_budget": 200, "epoch_budget": 2}, _end(200, 40), "rounds_used", "need 160 rounds_used, trace has 200"),
        # Stopped by its epoch budget, but with more rounds than its round budget.
        ({"round_budget": 200, "epoch_budget": 2}, _header_of(round_budget=100, epoch_budget=2), "epochs",
         "no run under epoch_budget 2 and round_budget 100 stops after 2 epochs of 160 rounds"),
        # Stopped by its round budget, but with all of the next epoch's 128 rounds partial.
        ({"round_budget": 160, "epoch_budget": 5}, _last_epoch_cut, "epochs",
         "no run under epoch_budget 5 and round_budget 160 stops after 1 epochs of 32 rounds and 128 of the next"),
    ],
    ids=["epochs-past-the-epoch-budget", "partial-rounds-after-the-epoch-budget", "rounds-past-the-round-budget",
         "a-whole-epoch-partial"],
)
def test_validate_accepts_only_the_end_record_run_trial_writes(budgets, edit, field, message):
    tampered = run_trial(mp_config(**budgets), 0)
    assert (tampered.epochs, tampered.rounds_used, tampered.partial_rounds) == (2, 160, 0)
    assert validate_trace(tampered).ok
    edit(tampered)
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"], report.divergence["field"]) == (
        tampered.epochs, None, field)
    assert report.divergence["message"].startswith(message)


# Only a trace built in memory can hold a header or record that is not a
# mapping: read_trace rejects one.  The last record is learner 1's of epoch 5.
@pytest.mark.parametrize(
    "index, value, name",
    [(None, [1], "trace header"), (None, None, "trace header"), (0, [1], "trace epoch 0 record of learner 0"),
     (-1, None, "trace epoch 5 record of learner 1")],
    ids=["header-a-list", "header-none", "first-record-a-list", "last-record-none"],
)
def test_validate_needs_a_mapping_for_the_header_and_each_record(sample_trace, index, value, name):
    tampered = copy.deepcopy(sample_trace)
    if index is None:
        tampered.header = value
    else:
        tampered.events[index] = value
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a mapping, got {value!r}")):
        validate_trace(tampered)


# The header's integer fields and their least values: config's, and the trial index.
# A deleted config field takes its default, which run_trial writes.
HEADER_COUNTS = {**config._INT_FIELDS, "trial": 0}


@pytest.mark.parametrize(
    "value, budget",
    [(value, key) for key, least in HEADER_COUNTS.items() for value in (None, least - 1, 2.5, "many", True)],
)
def test_validate_needs_the_header_budgets(sample_trace, value, budget):
    tampered = copy.deepcopy(sample_trace)
    where = tampered.header if budget == "trial" else tampered.header["config"]
    if value is None:
        del where[budget]
    else:
        where[budget] = value
    if budget == "trial":
        message = "trace header trial must be an integer >= 0"
    elif value is None:
        message = f"trace header config.{budget} is not what run_trial writes"
    else:
        message = f"trace header config: {budget} must be an integer >= {HEADER_COUNTS[budget]}"
    with pytest.raises(ValueError, match=message):
        validate_trace(tampered)


def test_validate_takes_a_trial_index_beyond_the_trial_count(sample_trace):
    # ``repgame run --trial k`` may run any trial k >= 0.
    tampered = copy.deepcopy(sample_trace)
    tampered.header["trial"] = tampered.header["config"]["trial_count"] + 5
    assert validate_trace(tampered).ok


def _edit(*keys, value):
    """Set the header field at ``keys`` to ``value``."""

    def edit(header):
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value

    return edit


# Each header edit, the message validate_trace raises and the name
# ``repgame validate`` reports.  The header is the one run_trial writes for
# matching pennies against a stationary opponent, with window 1.
@pytest.mark.parametrize(
    "edit, message, name",
    [
        (_edit("note", value="x"), "trace header note is not what run_trial writes", "note"),
        (_edit("config", "note", value="x"), "trace header config: unknown keys note", "note"),
        (_edit("config", "roster", 0, "note", value="x"), "trace header config: roster[0]: unknown keys note", "note"),
        (_edit("config", "roster", 1, "policy", "probs", value=[2.0, -1.0]),
         "trace header config: roster[1]: invalid opponent policy", "roster[1]"),
        (_edit("config", "equilibrium_override", value=[[1.0, 0.0], [1.0, 0.0]]),
         "trace header config: equilibrium_override is not an equilibrium", "equilibrium_override"),
        (_edit("equilibrium", "provenance", value="user-supplied"),
         "trace header equilibrium.provenance is not what run_trial writes", "equilibrium.provenance"),
        (_edit("equilibrium", "strategies", value=[[0.6, 0.4], [0.5, 0.5]]),
         "trace header equilibrium.strategies is not what run_trial writes", "equilibrium.strategies"),
        (_edit("config", "output", value={"trace_dir": "out"}),
         "trace header config.output is not what run_trial writes", "config.output"),
        (_edit("config", "game", value="mp.game"), "trace header config.game must be an inline game mapping",
         "config.game"),
        # Retyped fields that build the same config: the header must be the
        # one run_trial writes, whose schedule and payoffs are floats.
        (_edit("config", "schedule", "offset", value=0),
         "trace header config.schedule.offset is not what run_trial writes", "config.schedule.offset"),
        (_edit("config", "schedule", "offset", value=-0.0),
         "trace header config.schedule.offset is not what run_trial writes", "config.schedule.offset"),
        (_edit("config", "schedule", "rate", value=True),
         "trace header config: schedule: invalid schedule: rate must be a number, got True", "rate"),
        (_edit("config", "game", "payoffs", value=[[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]]),
         "trace header config.game.payoffs is not what run_trial writes", "config.game.payoffs"),
        (_edit("config", "game", "action_names", 1, 0, value=None),
         "trace header config: game: invalid inline game: action_names of player 1 must be strings", "action_names"),
        (_edit("config", "game", "note", value="x"), "trace header config: game: invalid inline game: unknown keys note",
         "note"),
        (_edit("config", "game", "payoffs", 0, 1, 0, value="-1.0"),
         "trace header config: game: invalid inline game: payoffs[0][1][0] must be a number, got '-1.0'",
         "payoffs[0][1][0]"),
    ],
    ids=["header-unknown-key", "config-unknown-key", "roster-entry-unknown-key", "opponent-probs-no-strategy",
         "override-no-equilibrium", "provenance-without-override", "strategies-not-the-equilibrium",
         "config-output", "game-a-path", "offset-an-int", "offset-minus-zero", "rate-a-bool", "payoffs-ints",
         "action-name-null", "game-unknown-key", "payoff-a-string"],
)
def test_validate_accepts_only_the_header_run_trial_writes(tmp_path, monkeypatch, capsys, edit, message, name):
    def no_file(path):
        raise AssertionError(f"the replay read {path}")

    monkeypatch.setattr(config, "load_game_file", no_file)
    trace = run_trial(mp_config(roster=(LEARNER, stationary([0.4, 0.6])), window=1), 0)
    assert validate_trace(trace).ok
    edit(trace.header)
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_trace(trace)
    path = tmp_path / "trial.jsonl"
    traceio.write_trace(trace, path)
    capsys.readouterr()
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert name in capsys.readouterr().err


def test_validate_checks_a_retyped_header_after_checking_the_original():
    # The cached check must not take True for the 1 it equals.
    trace = run_trial(mp_config(window=1), 0)
    assert validate_trace(trace).ok
    retyped = copy.deepcopy(trace)
    retyped.header["config"]["window"] = True
    with pytest.raises(ValueError, match=re.escape("trace header config: window must be an integer >= 1")):
        validate_trace(retyped)


def test_validate_checks_each_header_the_cache_has_not_seen_byte_for_byte(tmp_path):
    # The cache finds a header by its pickle: the run's header and the one
    # read back from a file hold their keys in another order, so each is
    # checked, and a header equal to a checked one by ``==`` only, a payoff
    # 1 for 1.0, is checked again and rejected.
    trace = run_batch_delivered(mp_config(trial_count=2, master_seed=31)).traces[1]
    assert validate_trace(trace).ok
    path = tmp_path / "trial-0001.jsonl"
    traceio.write_trace(trace, path)
    read = traceio.read_trace(path)
    assert list(read.header) != list(trace.header)
    assert validate_trace(read).ok
    retyped = copy.deepcopy(read)
    retyped.header["config"]["game"]["payoffs"][0][0][0] = 1
    assert retyped.header == read.header
    with pytest.raises(ValueError, match=re.escape("trace header config.game.payoffs is not what run_trial writes")):
        validate_trace(retyped)
    # Pickle takes a set and rejects a lambda; JSON takes neither.
    for value in ({1, 2}, lambda: 1):
        odd = copy.deepcopy(read)
        odd.header["config"]["note"] = value
        with pytest.raises(ValueError, match="trace header is not JSON"):
            validate_trace(odd)


def test_validating_a_batch_builds_its_schedule_table_once(monkeypatch):
    # The headers of a batch differ only in ``trial``, so the replay builds
    # one config, and so one schedule table, for all of them.
    traces = run_batch_delivered(mp_config(trial_count=4, master_seed=29)).traces
    calls = []
    prefix = Schedule.prefix
    monkeypatch.setattr(Schedule, "prefix", lambda self, size: calls.append(size) or prefix(self, size))
    harness._header_config.cache_clear()
    assert all(validate_trace(trace).ok for trace in traces)
    assert len(traces) == 4 and len(calls) == 1


def test_validate_checks_a_header_again_after_it_changes_in_place():
    trace = run_trial(mp_config(), 0)
    assert validate_trace(trace).ok
    trace.header["equilibrium"]["provenance"] = "user-supplied"
    with pytest.raises(ValueError, match="trace header equilibrium.provenance"):
        validate_trace(trace)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit("equilibrium", "strategies", value=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
         "trace header equilibrium.strategies is not what run_trial writes: not an equilibrium"),
        (_edit("equilibrium", "strategies", value=[[0.5, 0.5], [0.5, 0.5]]),
         "trace header equilibrium.strategies is not what run_trial writes: strategy has 2 entries"),
        (_edit("note", value="x"), "trace header note is not what run_trial writes"),
        (_edit("config", "schedule", "offset", value=0), "trace header config.schedule.offset is not what"),
    ],
    ids=["pure-strategies", "strategies-too-short", "header-unknown-key", "offset-an-int"],
)
def test_validate_rejects_a_header_without_solving_its_game_where_it_can(monkeypatch, edit, message):
    # Rock-paper-scissors has only the fully mixed equilibrium, the last
    # support pair the solver tries.  A header that differs from run_trial's
    # in any other field, or whose equilibrium is no equilibrium, is
    # rejected before the game is solved.
    g = rock_paper_scissors()
    cfg = RunConfig(game=g, roster=(LEARNER, stationary([0.5, 0.3, 0.2])),
                    schedule=Schedule(epsilon_base=0.5, actions_total=g.actions_total), epoch_budget=2)
    trace = run_trial(cfg, 0)
    edit(trace.header)

    def no_solve(*args):
        raise AssertionError("the header check solved the game")

    monkeypatch.setattr(config, "compute_equilibrium", no_solve)
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_trace(trace)


def test_cli_validates_a_batch_of_traces_building_their_config_once(tmp_path, monkeypatch, capsys):
    cfg = mp_config(trial_count=3)
    paths = [str(tmp_path / f"trial-{trial}.jsonl") for trial in range(3)]
    for trial, path in enumerate(paths):
        traceio.write_trace(run_trial(cfg, trial), path)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_run_config(*args, **kwargs)

    monkeypatch.setattr(harness, "build_run_config", counted)
    harness._header_config.cache_clear()
    capsys.readouterr()
    assert main(["validate", *paths]) == 0
    assert len(builds) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": OK: ")[0] for line in lines] == paths
    # The first trace that fails stops the command with its exit code.
    tampered = traceio.read_trace(paths[1])
    tampered.events[0]["restart"] = not tampered.events[0]["restart"]
    traceio.write_trace(tampered, paths[1])
    assert main(["validate", *paths]) == EXIT_CONFIG
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith(f"{paths[0]}: OK") and lines[1].startswith(f"{paths[1]}: DIVERGENCE")


def test_validate_rejects_a_header_whose_game_has_no_computable_equilibrium(tmp_path, capsys):
    # Players 0 and 1 play matching pennies and player 2 is indifferent, so
    # the 3-player game has no pure equilibrium and needs an override.
    u = np.array([[[1.0, 1.0], [-1.0, -1.0]], [[-1.0, -1.0], [1.0, 1.0]]])
    game = StageGame(np.stack([u, -u, np.zeros_like(u)]))
    override = ([0.5, 0.5], [0.5, 0.5], [1.0, 0.0])
    cfg = RunConfig(
        game=game,
        roster=(LEARNER, stationary([0.5, 0.5]), stationary([0.5, 0.5])),
        schedule=Schedule(epsilon_base=0.5, actions_total=game.actions_total),
        eq_override=override,
        round_budget=20_000,
        epoch_budget=3,
    )
    trace = run_trial(cfg, 0)
    assert validate_trace(trace).ok
    trace.header["config"]["equilibrium_override"] = None
    message = "trace header equilibrium cannot be computed"
    with pytest.raises(ValueError, match=message):
        validate_trace(trace)
    path = tmp_path / "trial.jsonl"
    traceio.write_trace(trace, path)
    capsys.readouterr()
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def _set_first_count(value):
    def edit(rec):
        rec["counts"][0][0] = value(rec["counts"][0][0])

    return edit


def _set_entry(field, index, value):
    def edit(rec):
        rec[field][index] = value

    return edit


# ``==`` equates 12 and 12.0, 1 and True, 0.0 and -0.0: the replay compares
# types and the signs of floats too.  Epoch 0 keeps the equilibrium
# hypothesis, epoch 1 has t 1 and rejects it for phi_after [0.0, 1.0], and
# epoch 2 switches to [1.0, 0.0].
@pytest.mark.parametrize(
    "seq, edit, field, equal",
    [
        (0, _set_first_count(float), "counts", True),
        (0, _set_first_count(str), "counts", False),
        (0, lambda rec: rec.update(eq_hyp_before=1), "eq_hyp_before", True),
        (1, lambda rec: rec.update(t=True), "t", True),
        (1, lambda rec: rec.update(margin=int(rec["margin"])), "margin", True),
        (2, _set_entry("phi_before", 0, -0.0), "phi_before", True),
        (1, _set_entry("phi_after", 0, -0.0), "phi_after", True),
        (1, _set_entry("phi_after", 1, True), "phi_after", True),
        (2, _set_entry("phi_after", 1, 0), "phi_after", True),
    ],
    ids=["counts-a-float", "counts-a-string", "eq_hyp_before-an-int", "t-a-bool", "margin-an-int",
         "phi_before-minus-zero", "phi_after-minus-zero", "phi_after-a-bool", "phi_after-an-int"],
)
def test_validate_tells_apart_values_of_another_type(seq, edit, field, equal):
    scripted = {"agent": "opponent", "policy": {"kind": "scripted", "actions": [0]}}
    trace = run_trial(mp_config(roster=(LEARNER, scripted), epoch_budget=3), 0)
    rec = trace.events[seq]
    before = copy.deepcopy(rec)
    edit(rec)
    assert (rec == before) == equal
    report = validate_trace(trace)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["field"]) == (seq, field)


# A record is judged as the JSON line run_trial writes for it, so a value of
# another Python type that writes the same line is the same, and one that JSON
# cannot encode is a divergence at its field.  Epoch 0 keeps phi [0.5, 0.5], and
# epoch 1 rejects the equilibrium hypothesis with a float margin.
@pytest.mark.parametrize(
    "seq, edit, field",
    [
        (0, lambda rec: rec.update(phi_after=rec["phi_before"]), None),
        (1, lambda rec: rec.update(phi_after=tuple(rec["phi_after"])), None),
        (1, lambda rec: rec.update(margin=np.float64(rec["margin"])), None),
        (0, lambda rec: rec.update(phi_after=set(rec["phi_after"])), "phi_after"),
        (0, lambda rec: rec.update(phi_after=np.array(rec["phi_after"])), "phi_after"),
    ],
    ids=["phi_after-is-phi_before", "phi_after-a-tuple", "margin-a-float64", "phi_after-a-set", "phi_after-an-ndarray"],
)
def test_validate_judges_a_record_by_the_line_it_writes(seq, edit, field):
    scripted = {"agent": "opponent", "policy": {"kind": "scripted", "actions": [0]}}
    trace = run_trial(mp_config(roster=(LEARNER, scripted), epoch_budget=3), 0)
    lines = list(traceio.trace_lines(trace))
    edit(trace.events[seq])
    report = validate_trace(trace)
    if field is None:
        assert report.ok
        assert list(traceio.trace_lines(trace)) == lines
    else:
        assert not report.ok
        assert (report.divergence["epoch"], report.divergence["field"]) == (seq, field)


def test_validate_checks_each_learners_own_counts(sample_trace):
    # The replay runs on the epoch's first record's histograms, so a later
    # learner's counts equal to them in value but not in type are caught
    # only by checking that learner's own record.
    tampered = copy.deepcopy(sample_trace)  # two learners
    rec = tampered.events[1]
    rec["counts"] = [[float(c) for c in h] for h in rec["counts"]]
    assert rec["counts"] == tampered.events[0]["counts"]
    report = validate_trace(tampered)
    assert not report.ok
    assert (report.divergence["epoch"], report.divergence["player"], report.divergence["field"]) == (0, 1, "counts")


@pytest.mark.parametrize("phi_after", [[0.5, 0.5], [0.0, 1.0, 0.0], [None, None]])
def test_validate_checks_post_rejection_pick(phi_after):
    scripted = {"agent": "opponent", "policy": {"kind": "scripted", "actions": [0]}}
    trace = run_trial(mp_config(roster=(LEARNER, scripted), epoch_budget=3), 0)
    rec = next(r for r in trace.events if r["eq_hyp_before"] and not r["eq_hyp_after"])
    assert validate_trace(trace).ok
    rec["phi_after"] = phi_after
    report = validate_trace(trace)
    assert not report.ok
    assert report.divergence["field"] == "phi_after"


# Small traces shaped like the benchmark's three workloads: rock-paper-scissors
# against a scripted-then-stationary opponent, cut short by its round budget;
# two battle-of-the-sexes learners playing the override, stopped by their epoch
# budget; and matching pennies against fictitious play, whose round budget ends
# its second epoch.
def _fuzz_configs():
    rps, bos, mp = rock_paper_scissors(), battle_of_sexes(), matching_pennies()
    scripted = {"kind": "scripted", "actions": [0, 1, 2, 0]}
    switching = {"agent": "opponent", "policy": {"kind": "eventually_stationary", "pre": scripted,
                                                 "switch_round": 60, "probs": [0.5, 0.3, 0.2]}}
    return [
        RunConfig(game=rps, roster=(LEARNER, switching), schedule=Schedule(epsilon_base=0.5, actions_total=6),
                  round_budget=300, master_seed=401),
        RunConfig(game=bos, roster=(LEARNER, LEARNER), eq_override=([2 / 3, 1 / 3], [1 / 3, 2 / 3]),
                  schedule=Schedule(epsilon_base=0.25, actions_total=4, epoch0_rounds=5), epoch_budget=3,
                  master_seed=601),
        RunConfig(game=mp, roster=(LEARNER, fp()), schedule=Schedule(epsilon_base=0.5, actions_total=4),
                  round_budget=160, master_seed=9),
    ]


def _leaves(node, place):
    if isinstance(node, (dict, list)) and node:
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, (*place, key))
    else:
        yield place


@pytest.fixture(scope="module")
def fuzz_traces():
    """Per config: its trace as a document, the trace's lines, and the
    places an edit can go, by kind: the header, a header leaf, an epoch
    record, an epoch record's leaf, an end field."""
    cases = []
    for cfg in _fuzz_configs():
        trace = run_trial(cfg, 0)
        assert validate_trace(trace).ok
        end = {"rounds_used": trace.rounds_used, "epochs": trace.epochs, "partial_rounds": trace.partial_rounds}
        doc = {"header": trace.header, "events": trace.events, "end": end}
        records = [("events", i) for i in range(len(trace.events))]
        places = [
            [("header",)],
            [*_leaves(trace.header, ("header",))],
            records,
            [leaf for place in records for leaf in _leaves(trace.events[place[1]], place)],
            [("end", k) for k in end],
        ]
        cases.append((doc, list(traceio.trace_lines(trace)), places))
    return cases


ODD_VALUES = [None, True, False, 0, -1, 0.0, -0.0, 1.5, 2**53, "x", [], {}, [0], math.nan, math.inf]
DELETE = object()
TUPLED = object()  # the value already there, with every list made a tuple: the same JSON


def _tupled(node):
    if isinstance(node, dict):
        return {key: _tupled(child) for key, child in node.items()}
    return tuple(map(_tupled, node)) if isinstance(node, list) else node


def _edit_at(node, place, value):
    """A copy of ``node`` with the value at ``place`` replaced by ``value``, or deleted; the rest is shared."""
    node = copy.copy(node)
    key = place[0]
    if len(place) > 1:
        node[key] = _edit_at(node[key], place[1:], value)
    elif value is DELETE:
        del node[key]
    elif value is TUPLED:
        node[key] = _tupled(node[key])
    else:
        node[key] = copy.deepcopy(value)
    return node


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_validate_reports_or_raises_value_error_for_any_one_edit(fuzz_traces, data):
    # The replay checks every field of every epoch record and every end
    # field as the JSON line run_trial writes, so such an edit gives ok only
    # where the trace's lines are unchanged.  A header edit may give ok:
    # the replay reads neither the draws nor some header fields.
    doc, lines, places = data.draw(st.sampled_from(fuzz_traces))
    place = data.draw(st.sampled_from(data.draw(st.sampled_from(places))))
    # A RunTrace always has a header and its end fields, so those are only replaced.
    deletable = place != ("header",) and place[0] != "end"
    value = data.draw(st.sampled_from(ODD_VALUES + [DELETE] * deletable + [TUPLED]))
    doc = _edit_at(doc, place, value)
    edited = RunTrace(header=doc["header"], events=doc["events"], **doc["end"])
    # Conversely, an edit of an epoch record or an end field that leaves
    # every line unchanged gives ok.
    unchanged = list(traceio.trace_lines(edited)) == lines
    if unchanged and place[0] in ("end", "events"):
        assert validate_trace(edited).ok, place
        return
    try:
        report = validate_trace(edited)
    except ValueError:
        return
    assert isinstance(report, harness.ValidationReport)
    checked = place[0] in ("end", "events") or place == ("header",)
    if report.ok and checked:
        assert unchanged, place


# -- trace persistence ------------------------------------------------------------------


def test_trace_round_trip(tmp_path, sample_trace):
    path = tmp_path / "trace.jsonl"
    traceio.write_trace(sample_trace, path)
    loaded = traceio.read_trace(path)
    assert trace_bytes(loaded) == trace_bytes(sample_trace)
    assert validate_trace(loaded).ok


def test_read_trace_rejects_a_second_header(tmp_path, sample_trace):
    path = tmp_path / "trace.jsonl"
    traceio.write_trace(sample_trace, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], *lines]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: duplicate header record")):
        traceio.read_trace(path)


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


# Characters str.strip() removes and JSON does not count as space, each put on its own
# epoch line: read_trace removes a line's "\n" and nothing else.
@pytest.mark.parametrize(
    "index, edit",
    [(1, lambda line: line + "\x1c "), (2, lambda line: "\x85" + line), (3, lambda line: line + "\u3000")],
    ids=["info-separator-after", "next-line-before", "ideographic-space-after"],
)
def test_read_trace_rejects_a_line_with_a_space_json_does_not_count(tmp_path, capsys, sample_trace, index, edit):
    path = tmp_path / "trace.jsonl"
    traceio.write_trace(sample_trace, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines), encoding="utf-8", newline="\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{index + 1}: not JSON: ")):
        traceio.read_trace(path)
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert f"{path}:{index + 1}: not JSON: " in capsys.readouterr().err


def test_read_trace_takes_json_space_around_a_record_and_skips_a_blank_line(tmp_path, sample_trace):
    path = tmp_path / "trace.jsonl"
    traceio.write_trace(sample_trace, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = " \t" + lines[1] + "\t "
    lines[2:2] = ["", " \t "]
    path.write_text("\n".join(lines), encoding="utf-8", newline="\n")
    assert trace_bytes(traceio.read_trace(path)) == trace_bytes(sample_trace)


@pytest.mark.parametrize("kept", [slice(0, -1), slice(0, 1)], ids=["without-the-end", "header-alone"])
def test_read_trace_needs_the_header_and_the_end_record(tmp_path, sample_trace, kept):
    path = tmp_path / "trace.jsonl"
    traceio.write_trace(sample_trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()[kept]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: trace must contain header and end records")):
        traceio.read_trace(path)


def test_trace_records_carry_exactly_their_fields(sample_trace):
    header, *epochs, end = map(json.loads, traceio.trace_lines(sample_trace))
    assert header.keys() == {"type", "schema", "trial", "config", "equilibrium"}
    assert header["schema"] == 5
    assert header["equilibrium"].keys() == {"strategies", "provenance"}
    assert epochs and all(
        rec.keys()
        == {
            "type", "seq", "player", "t", "counts", "eps_e", "eps_s", "margin",
            "eq_hyp_before", "eq_hyp_after", "grace_before", "grace_after",
            "phi_before", "phi_after", "switched", "restart", "restarts_total",
        }
        for rec in epochs
    )
    assert end.keys() == {"type", "rounds_used", "epochs", "partial_rounds"}


def test_trace_lines_are_canonical_json(sample_trace):
    for line in traceio.trace_lines(sample_trace):
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _set(key, value):
    def edit(header):
        header[key] = value

    return edit


def _reverse_keys(header):
    items = [*header.items()][::-1]
    header.clear()
    header.update(items)


def _retype_payoff(header):
    assert repr(header["config"]["game"]["payoffs"][0][0][0]) == "1.0"
    header["config"]["game"]["payoffs"][0][0][0] = 1


@pytest.mark.parametrize(
    "edit",
    [
        *(_set("trial", trial) for trial in (0, 9, 10, 10**20, -1, True, 1.0, "3")),
        _set("note", "sorts before trial"),
        _set("trial_note", "sorts between trial and type"),
        _set("zzz", "sorts after type"),
        _set("type", ',"trial":0,'),
        lambda header: header["equilibrium"].update(trial=0),
        _retype_payoff,
        _reverse_keys,
    ],
    ids=[*(f"trial-{trial!r}" for trial in (0, 9, 10, "1e20", -1, True, 1.0, "3")), "key-before-trial",
         "key-between", "key-after-type", "type-holds-trial-0", "nested-trial-0", "payoff-an-int",
         "keys-reversed"],
)
def test_trace_lines_writes_each_header_as_its_canonical_json(edit):
    # A header line is its config's cached text with the trial spliced in;
    # any other edit of a header misses the cache and is encoded in full.
    traces = run_batch_delivered(mp_config(trial_count=2, master_seed=37)).traces
    for trace in traces:
        assert next(traceio.trace_lines(trace)) == harness._canonical(trace.header)
    trace = traces[1]
    edit(trace.header)
    for _ in range(2):
        assert next(traceio.trace_lines(trace)) == harness._canonical(trace.header)


def test_write_trace_writes_a_header_changed_in_place_with_its_new_bytes(tmp_path):
    trace = run_trial(mp_config(), 3)
    path = tmp_path / "trace.jsonl"
    traceio.write_trace(trace, path)
    trace.header["equilibrium"]["provenance"] = "user-supplied"
    traceio.write_trace(trace, path)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert '"provenance":"user-supplied"' in first and first == harness._canonical(trace.header)


def _trial_written(text):
    return lambda line: line.replace(',"trial":7,"type":"header"}', f',"trial":{text},"type":"header"}}')


# Header lines that a trace of trial 7 could hold instead of its own: each
# must read as ``json.loads`` reads it, or fail as it fails.
_HEADER_LINES = {
    "trial-0": _trial_written("0"),
    "trial-7": _trial_written("7"),
    "trial-20-digits": _trial_written("12345678901234567890"),
    "trial-5000-digits": _trial_written("9" * 5000),
    "trial-leading-zeros": _trial_written("007"),
    "trial-minus-1": _trial_written("-1"),
    "trial-a-float": _trial_written("7.0"),
    "trial-an-exponent": _trial_written("1e0"),
    "space-after-colon": lambda line: line.replace('"trial":7', '"trial": 7'),
    "duplicated-trial": lambda line: '{"trial":5,' + line[1:],
    # Not JSON: the outer object is never closed, and the error names the
    # position of the line's end, after the trial's two digits.
    "inside-an-unclosed-object": lambda line: '{"x":' + line.replace('"trial":7', '"trial":12'),
    "string-holds-trial": lambda line: line.replace(
        '"provenance":"support-enumeration-2p"', '"provenance":"a,\\"trial\\":3,\\"type\\":\\"header\\"}"'
    ),
}


@pytest.mark.parametrize("name", sorted(_HEADER_LINES))
def test_read_trace_reads_each_header_line_as_json_loads_does(tmp_path, name):
    lines = list(traceio.trace_lines(run_trial(mp_config(), 7)))
    assert lines[0].endswith(',"trial":7,"type":"header"}')
    line = _HEADER_LINES[name](lines[0])
    assert line != lines[0] or name == "trial-7"
    cached = tmp_path / "cached.jsonl"  # the config's entry exists before the edited line is read
    cached.write_text("\n".join(lines) + "\n", encoding="utf-8")
    traceio.read_trace(cached)
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join([line, *lines[1:]]) + "\n", encoding="utf-8")
    try:
        want = json.loads(line)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: not JSON: {exc}")):
            traceio.read_trace(path)
        return
    first, second = traceio.read_trace(path), traceio.read_trace(path)
    assert first.header is not second.header
    for header in (first.header, second.header):
        assert pickle.dumps(header) == pickle.dumps(want)
    # A read's header is its own, nested values included.
    first.header["trial"] = 99
    first.header["config"]["game"]["payoffs"][0][0][0] = 99.0
    first.header["equilibrium"]["strategies"][0].append(0.5)
    assert pickle.dumps(traceio.read_trace(path).header) == pickle.dumps(want)


def test_written_files_end_each_line_with_a_newline_alone(tmp_path, monkeypatch, sample_trace):
    # As on a platform whose line separator is \r\n: text mode, which the
    # pure-Python io reads os.linesep for, would write one at each \n.
    def crlf_open(self, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
        return _pyio.open(self, mode, buffering, encoding, errors, newline)

    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(Path, "open", crlf_open)
    path, report = tmp_path / "trace.jsonl", tmp_path / "report.json"
    traceio.write_trace(sample_trace, path)
    assert path.read_bytes() == "".join(line + "\n" for line in traceio.trace_lines(sample_trace)).encode()
    traceio.write_batch_report(run_batch(mp_config()), report)
    assert b"\r" not in report.read_bytes() and report.read_bytes().endswith(b"}\n")


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


def long_epochs_doc():
    """Rock-paper-scissors against a 1,000-round script that then turns
    stationary, with a short budget."""
    script = ([0, 1, 2] * 334)[:1000]
    policy = {"kind": "eventually_stationary", "pre": {"kind": "scripted", "actions": script},
              "switch_round": 1000, "probs": [0.5, 0.3, 0.2]}
    return {
        "game": config.game_to_dict(rock_paper_scissors()),
        "roster": [{"agent": "learner"}, {"agent": "opponent", "policy": policy}],
        "schedule": {"epsilon_base": 0.5},
        "round_budget": 20_000,
        "master_seed": 401,
        "trial_count": 2,
    }


def test_editing_a_header_or_a_config_document_leaves_the_config_alone():
    cfg = build_run_config(long_epochs_doc())
    trace = run_trial(cfg, 0)
    trace.header["config"]["roster"][1]["policy"]["probs"] = [1.0, 0.0, 0.0]
    trace.header["config"]["roster"][1]["policy"]["pre"]["actions"][:] = [2] * 1000
    config_to_dict(cfg)["roster"][1]["policy"]["probs"][0] = 0.9
    fresh = build_run_config(long_epochs_doc())
    assert config_to_dict(cfg) == config_to_dict(fresh) == config_to_dict(build_run_config(config_to_dict(cfg)))
    assert trace_bytes(run_trial(cfg, 1)) == trace_bytes(run_trial(fresh, 1))


def test_editing_the_document_after_build_run_config_leaves_the_config_alone():
    doc = long_epochs_doc()
    cfg = build_run_config(doc)
    doc["roster"][1]["policy"]["probs"][0] = 0.9
    doc["roster"][1]["policy"]["pre"]["actions"][:] = [2] * 1000
    assert cfg.roster[1]["policy"]["probs"] == [0.5, 0.3, 0.2]
    fresh = build_run_config(long_epochs_doc())
    assert config_to_dict(cfg) == config_to_dict(fresh)
    assert trace_bytes(run_trial(cfg, 0)) == trace_bytes(run_trial(fresh, 0))


def test_building_a_config_and_validating_its_trace_imports_no_numpy_random(tmp_path):
    # In a fresh interpreter, where nothing has imported numpy.random yet.
    doc = long_epochs_doc()
    path = tmp_path / "trial-0000.jsonl"
    traceio.write_trace(run_trial(build_run_config(doc), 0), path)
    script = (
        "import json, sys\n"
        "from repgame import config, harness, traceio\n"
        "config.build_run_config(json.loads(sys.argv[1]))\n"
        "assert harness.validate_trace(traceio.read_trace(sys.argv[2])).ok\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    proc = run_python(script, json.dumps(doc), str(path), capture_output=True)
    assert proc.returncode == 0, proc.stderr


def run_python(script: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter that imports this checkout's repgame, with
    ``PYTHONUNBUFFERED`` unset: a std stream on a file buffers its text, as by default."""
    src = str(Path(config.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, text=True, **kwargs)


# -- batch ---------------------------------------------------------------------------------


def test_batch_single_trial_matches_run_trial():
    cfg = mp_config(trial_count=1)
    result = run_batch_delivered(cfg)
    direct = detect_convergence(run_trial(cfg, 0))
    assert result.summaries == [direct]
    assert trace_bytes(result.traces[0]) == trace_bytes(run_trial(cfg, 0))


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_solves_the_equilibrium_once(monkeypatch, tmp_path, workers):
    # Workers are forked with the patch, so a solve in a worker would be
    # logged with the worker's pid.
    log = tmp_path / "solves"

    def logged(game, override=None):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return compute_equilibrium(game, override)

    cfg = mp_config(trial_count=3)
    monkeypatch.setattr(config, "compute_equilibrium", logged)
    result = run_batch_delivered(cfg, workers=workers)
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
    serial = run_batch_delivered(cfg, workers=1)
    parallel = run_batch_delivered(cfg, workers=2)
    assert serial.summaries == parallel.summaries
    for ta, tb in zip(serial.traces, parallel.traces):
        assert trace_bytes(ta) == trace_bytes(tb)


# Worker i of w runs trials i, i + w, ...: 11 trials on 2 workers give
# worker 0 six trials and worker 1 five, and 19 on 3 give them 7, 6 and 6.
# A single trial on 2 or 3 workers forks one.
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 19),
    workers=st.integers(2, 3),
    roster=st.sampled_from([(LEARNER, LEARNER), (LEARNER, stationary([0.3, 0.7]))]),
)
@example(seed=0, trials=11, workers=2, roster=(LEARNER, LEARNER))
@example(seed=1, trials=19, workers=3, roster=(LEARNER, stationary([0.3, 0.7])))
def test_batch_pool_delivers_the_serial_traces_in_trial_order(seed, trials, workers, roster):
    cfg = mp_config(game=battle_of_sexes(), roster=roster, master_seed=seed, trial_count=trials, epoch_budget=4)
    serial = run_batch_delivered(cfg, workers=1)
    parallel = run_batch_delivered(cfg, workers=workers)
    assert [t.header["trial"] for t in parallel.traces] == list(range(trials))
    assert [trace_bytes(t) for t in parallel.traces] == [trace_bytes(t) for t in serial.traces]


# 16 trials on 2 workers: trial 5 fails in worker 1, after its trials 1
# and 3, while worker 0 may have run past trial 4.
@pytest.mark.parametrize(
    "workers, trials, failing",
    [pytest.param(1, 4, 2, id="1"), pytest.param(2, 4, 2, id="2"), pytest.param(2, 16, 5, id="2-in-a-block")],
)
def test_batch_delivers_the_trials_before_a_failing_one(monkeypatch, workers, trials, failing):
    def failing_trial(run_config, trial):
        if trial == failing:
            raise RuntimeError(f"trial {trial} failed")
        return run_trial(run_config, trial)

    cfg = mp_config(trial_count=trials)
    seen = []
    monkeypatch.setattr(harness, "run_trial", failing_trial)
    with pytest.raises(RuntimeError, match=f"^trial {failing} failed$") as raised:
        run_batch(cfg, workers=workers, on_trace=lambda trace, summary: seen.append(trace))
    monkeypatch.undo()
    assert [trace_bytes(t) for t in seen] == [trace_bytes(run_trial(cfg, t)) for t in range(failing)]
    # A pool worker's traceback comes back as the error's chained cause.
    assert "in failing_trial" in "".join(traceback.format_exception(raised.value))


def test_batch_pool_cancels_the_queued_trials_after_a_failing_one(monkeypatch):
    # 8 trials of 1 s on 2 workers take 4 s; trial 1 fails at once, so the
    # error should come once trial 0 ends.  run_batch does not wait for the
    # other trials: it kills the worker running trial 2.
    def slow_or_failing(run_config, trial):
        if trial == 1:
            raise RuntimeError("trial 1 failed")
        time.sleep(1.0)
        return run_trial(run_config, trial)

    cfg = mp_config(trial_count=8, epoch_budget=1)
    monkeypatch.setattr(harness, "run_trial", slow_or_failing)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_batch(cfg, workers=2)
    assert time.perf_counter() - start < 2.0


def test_batch_pool_cancels_the_queued_blocks_after_a_failing_one(monkeypatch):
    # 16 trials of 0.2 s on 2 workers take 1.6 s.  Trial 1, worker 1's
    # first, fails at once, so the error should come once trial 0 ends,
    # with trial 0 delivered.
    def slow_or_failing(run_config, trial):
        if trial == 1:
            raise RuntimeError("trial 1 failed")
        time.sleep(0.2)
        return run_trial(run_config, trial)

    cfg = mp_config(trial_count=16, epoch_budget=1)
    seen = []
    monkeypatch.setattr(harness, "run_trial", slow_or_failing)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="^trial 1 failed$"):
        run_batch(cfg, workers=2, on_trace=lambda trace, summary: seen.append(trace.header["trial"]))
    assert time.perf_counter() - start < 0.75
    assert seen == [0]


def test_batch_pool_starts_no_block_past_those_already_handed_out(monkeypatch, tmp_path):
    # 16 trials of 0.2 s on 2 workers, and trial 1, worker 1's first, fails
    # at once.  Worker 0 starts trial 2 as it sends trial 0; run_batch
    # raises as soon as it has delivered trial 0 and read trial 1's error,
    # well inside trial 2's 0.2 s, and kills worker 0.  So only trials 0, 1
    # and 2 may start (trial 2 may not have started by the kill), and every
    # forked worker is reaped by the time run_batch raises.  Each trial
    # leaves a marker file as it starts.
    def slow_or_failing(run_config, trial):
        (tmp_path / f"started-{trial}").touch()
        if trial == 1:
            raise RuntimeError("trial 1 failed")
        time.sleep(0.2)
        return run_trial(run_config, trial)

    cfg = mp_config(trial_count=16, epoch_budget=1)
    pids = record_forks(monkeypatch)
    monkeypatch.setattr(harness, "run_trial", slow_or_failing)
    with pytest.raises(RuntimeError, match="^trial 1 failed$"):
        run_batch(cfg, workers=2)
    assert_reaped(pids, 2)
    started = {int(path.name.split("-")[1]) for path in tmp_path.glob("started-*")}
    assert {0, 1} <= started <= {0, 1, 2}


def record_forks(monkeypatch) -> list[int]:
    """The pids of the processes ``os.fork`` makes from now on, in the order made."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids: list[int], count: int) -> None:
    assert len(pids) == count
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("case", ["normal", "failing-trial", "failing-on-trace"])
def test_batch_leaves_no_worker_running(monkeypatch, case):
    def failing_trial(run_config, trial):
        if trial == 3:
            raise RuntimeError("trial 3 failed")
        return run_trial(run_config, trial)

    def on_trace(trace, summary):
        if case == "failing-on-trace" and trace.header["trial"] == 1:
            raise RuntimeError("on_trace failed")

    cfg = mp_config(trial_count=8)
    fds = open_fds()
    pids = record_forks(monkeypatch)
    if case == "failing-trial":
        monkeypatch.setattr(harness, "run_trial", failing_trial)
    # The cyclic collector stays off, so that a collection which happens to
    # run inside the batch cannot close what run_batch left open.
    gc.disable()
    try:
        if case == "normal":
            assert len(run_batch(cfg, workers=2, on_trace=on_trace).summaries) == 8
        else:
            with pytest.raises(RuntimeError, match="failed"):
                run_batch(cfg, workers=2, on_trace=on_trace)
        assert_reaped(pids, 2)
        # Every pipe end closed.  After a raise, run_batch's frames live on
        # in a cycle through the error's traceback, so a pipe end left for
        # the garbage collector to close would still be open here.
        assert open_fds() == fds
    finally:
        gc.enable()


def open_fds() -> int | None:
    """How many file descriptors this process has open; None where ``/proc/self/fd`` is missing."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_batch_workers_repeat_no_buffered_text_and_run_no_atexit_handler(tmp_path):
    # On a file, stdout holds the text printed before the batch in its
    # buffer.  A worker that wrote that buffer again, or ran the caller's
    # atexit handler, would repeat it.
    script = (
        "import atexit, json, sys\n"
        "from repgame import config, harness\n"
        "print('before the batch', end='')\n"
        "atexit.register(print, 'at exit')\n"
        "harness.run_batch(config.build_run_config(json.loads(sys.argv[1])), workers=2)\n"
        "print(', after it')\n"
    )
    out = tmp_path / "stdout"
    with out.open("w") as stdout:
        proc = run_python(script, json.dumps(config_to_dict(mp_config(trial_count=4))), stdout=stdout, stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == "before the batch, after it\nat exit\n"


def test_batch_names_the_trial_whose_worker_exits_without_its_result(monkeypatch):
    # Only in a worker: on the serial path os._exit would end pytest.
    parent = os.getpid()

    def exiting_trial(run_config, trial):
        if trial == 5 and os.getpid() != parent:
            os._exit(3)
        return run_trial(run_config, trial)

    cfg = mp_config(trial_count=10)
    seen = []
    pids = record_forks(monkeypatch)
    monkeypatch.setattr(harness, "run_trial", exiting_trial)
    with pytest.raises(RuntimeError, match="trial 5 ended with exit status 3 without sending its result"):
        run_batch(cfg, workers=2, on_trace=lambda trace, summary: seen.append(trace))
    assert_reaped(pids, 2)
    monkeypatch.undo()
    assert [trace_bytes(t) for t in seen] == [trace_bytes(run_trial(cfg, t)) for t in range(5)]


def test_batch_workers_leave_a_ctrl_c_to_the_parent(monkeypatch, tmp_path, capfd):
    # A Ctrl-C at a terminal reaches every process of the batch.  The parent
    # kills and reaps the workers on its KeyboardInterrupt, so a worker
    # ignores it: here only the workers get it, and the batch runs on.
    sleeping = tmp_path / "sleeping"

    def slow_trial(run_config, trial):
        if trial == 1:
            sleeping.touch()
            time.sleep(1.5)
        return run_trial(run_config, trial)

    def on_trace(trace, summary):
        if trace.header["trial"] == 0:
            deadline = time.monotonic() + 30
            while not sleeping.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGINT)

    monkeypatch.setattr(harness, "run_trial", slow_trial)
    assert len(run_batch(mp_config(trial_count=2), workers=2, on_trace=on_trace).summaries) == 2
    assert sleeping.exists()
    assert "Traceback" not in capfd.readouterr().err


class TwoArgumentError(Exception):
    """Pickles, but cannot be unpickled: pickle rebuilds it from ``args``, one argument."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@pytest.mark.parametrize("kind", ["lambda", "rebuild"])
def test_batch_names_the_trial_whose_error_pickle_rejects(monkeypatch, kind):
    def failing_trial(run_config, trial):
        if trial == 2:
            if kind == "rebuild":
                raise TwoArgumentError("trial 2 failed", 7)
            error = RuntimeError("trial 2 failed")
            error.hook = lambda: None  # pickle rejects a lambda
            raise error
        return run_trial(run_config, trial)

    cfg = mp_config(trial_count=4)
    seen = []
    name = "TwoArgumentError" if kind == "rebuild" else "RuntimeError"
    monkeypatch.setattr(harness, "run_trial", failing_trial)
    with pytest.raises(RuntimeError, match=f"^trial 2 raised {name}: trial 2 failed, which pickle rejects$") as raised:
        run_batch(cfg, workers=2, on_trace=lambda trace, summary: seen.append(trace.header["trial"]))
    assert seen == [0, 1]
    assert "in failing_trial" in "".join(traceback.format_exception(raised.value))


def test_batch_forks_no_more_workers_than_trials(monkeypatch):
    cfg = mp_config(trial_count=2)
    serial = run_batch_delivered(cfg, workers=1)
    pids = record_forks(monkeypatch)
    parallel = run_batch_delivered(cfg, workers=3)
    assert_reaped(pids, 2)
    assert [trace_bytes(t) for t in parallel.traces] == [trace_bytes(t) for t in serial.traces]


def test_batch_needs_fork_for_more_than_one_worker(monkeypatch):
    calls = []

    def counted_trial(run_config, trial):
        calls.append(trial)
        return run_trial(run_config, trial)

    cfg = mp_config(trial_count=2)
    monkeypatch.setattr(harness, "run_trial", counted_trial)
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="workers > 1 needs os.fork"):
        run_batch(cfg, workers=2)
    assert calls == []
    assert len(run_batch(cfg, workers=1).summaries) == 2
    assert calls == [0, 1]


@pytest.mark.parametrize("workers", [0, -3, 1.0, True])
def test_batch_needs_at_least_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        run_batch(mp_config(), workers=workers)


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
