"""Desk-scale convergence demonstrations.

The default schedule's hysteresis margin shrinks only harmonically, so
within a 5e5-round budget a learner facing a non-equilibrium stationary
opponent locks on its initial random pure action rather than the best
response.  With a schedule whose thresholds start small enough that the
margin is below the best-response gap from the first check, the intended
behavior -- locking on the true best response -- shows up reliably at
desk scale.  The acceptance suite's criterion 3 runs the same scenario
under the same schedule.
"""
import numpy as np

from repgame.harness import RunConfig, run_batch
from repgame.schedule import Schedule, never_restart_lower_bound

from catalog import matching_pennies, rock_paper_scissors

PAPER = (0.0, 1.0, 0.0)


def test_best_response_convergence_with_scaled_schedule():
    # RPS vs stationary (0.5, 0.3, 0.2): the unique best response is the
    # second action (value 0.3 vs -0.1 and -0.2, gap 0.4).  The margin is
    # 12 * eps_s^{t+1}; with eps_e^t = (1/30)*30/(t+30) it is below 0.4
    # from the start, so switches are possible as soon as the histogram
    # noise settles.  Each switch moves the learner's own histogram, so the
    # stationarity test restarts the learner one epoch later and it draws a
    # new random pick; a pick of the best response needs no switch and stays.
    g = rock_paper_scissors()
    cfg = RunConfig(
        game=g,
        roster=(
            {"agent": "learner"},
            {"agent": "opponent", "policy": {"kind": "stationary", "probs": [0.5, 0.3, 0.2]}},
        ),
        schedule=Schedule(epsilon_base=1 / 30, actions_total=6, offset=29.0),
        round_budget=500_000,
        epoch_budget=200,
        master_seed=71,
        trial_count=25,
    )
    result = run_batch(cfg)
    on_target = sum(
        1
        for s in result.summaries
        if s.kind == "best-response-lock" and s.final_phi[0] == PAPER
    )
    assert on_target >= 0.8 * len(result.summaries)


def test_zero_restart_fraction_vs_equilibrium_opponent():
    # Against an opponent playing the precomputed equilibrium exactly, the
    # fraction of 10-epoch runs without any restart is at least the
    # schedule's never-restart lower bound minus 3-sigma binomial slack.
    g = matching_pennies()
    sched = Schedule(epsilon_base=0.5, actions_total=4)
    cfg = RunConfig(
        game=g,
        roster=(
            {"agent": "learner"},
            {"agent": "opponent", "policy": {"kind": "stationary", "probs": [0.5, 0.5]}},
        ),
        schedule=sched,
        round_budget=10**7,
        epoch_budget=10,
        master_seed=81,
        trial_count=100,
    )
    result = run_batch(cfg)
    zero_restart = sum(1 for s in result.summaries if s.restarts == 0)
    bound = never_restart_lower_bound(sched, 10)
    sigma = (bound * (1 - bound) / 100) ** 0.5
    assert zero_restart / 100 >= bound - 3 * sigma
