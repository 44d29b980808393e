import dataclasses

import numpy as np
import pytest

from repgame.catalog import matching_pennies, prisoners_dilemma, rock_paper_scissors
from repgame.equilibrium import compute_equilibrium
from repgame.games import pure_strategy
from repgame.learner import EquilibriumRetreatAgent
from repgame.schedule import Schedule


class FixedSchedule:
    """White-box schedule with hand-picked thresholds and epoch lengths."""

    def __init__(self, eps_e, rounds, actions_total=4):
        self._eps_e = list(eps_e)
        self._rounds = list(rounds)
        self.actions_total = actions_total

    def eps_e(self, t):
        return self._eps_e[min(t, len(self._eps_e) - 1)]

    def eps_s(self, t):
        return self.eps_e(max(t - 1, 0))

    def rounds(self, t):
        return self._rounds[min(t, len(self._rounds) - 1)]


def seeded_streams(seed):
    """The (play, reset-pick) generators of two streams spawned from ``seed``."""
    return tuple(np.random.Generator(np.random.PCG64(ss)) for ss in np.random.SeedSequence(seed).spawn(2))


def make_agent(game, me=0, schedule=None, seed=1, eq=None):
    schedule = schedule or Schedule(epsilon_base=0.5, actions_total=game.actions_total)
    eq = eq or compute_equilibrium(game)
    return EquilibriumRetreatAgent(game, me, schedule, eq, streams=seeded_streams(seed))


def drive_epoch(agent, own_actions, opp_actions):
    """Feed one epoch of crafted joint profiles as one segment; return the outcome."""
    own = np.asarray(own_actions, dtype=np.int64)
    opp = np.asarray(opp_actions, dtype=np.int64)
    return agent.observe_segment([own, opp] if agent.me == 0 else [opp, own])


# -- initialisation -----------------------------------------------------------------


def test_init_state_matching_pennies():
    agent = make_agent(matching_pennies())
    np.testing.assert_array_equal(agent.state.phi, [0.5, 0.5])
    st = agent.state
    assert (st.t, st.eq_hyp, st.grace, st.restarts) == (0, True, False, 0)


def test_init_state_prisoners_dilemma_pure():
    agent = make_agent(prisoners_dilemma(), me=1)
    np.testing.assert_array_equal(agent.state.phi, [0.0, 1.0])


def test_init_deterministic():
    a = make_agent(matching_pennies(), seed=5)
    b = make_agent(matching_pennies(), seed=5)
    assert a.act_segment(10).tolist() == b.act_segment(10).tolist()


# -- play ----------------------------------------------------------------------------


def test_act_pure_strategy_is_constant():
    g = rock_paper_scissors()
    sched = FixedSchedule([0.5], [50], actions_total=6)
    agent = make_agent(g, schedule=sched)
    agent.state = dataclasses.replace(agent.state, phi=pure_strategy(2, 3))
    agent._buffer = None
    assert set(agent.act_segment(50).tolist()) == {2}


def test_act_empirical_frequency_band():
    g = matching_pennies()
    sched = FixedSchedule([0.5], [100_000])
    agent = make_agent(g, schedule=sched, seed=11)
    draws = agent.act_segment(100_000)
    freq0 = np.mean(draws == 0)
    assert 0.494 <= freq0 <= 0.506  # binomial 4-sigma band around 0.5


def test_fixed_seed_identical_action_sequences():
    g = rock_paper_scissors()
    sched = FixedSchedule([0.5], [1000], actions_total=6)
    a = make_agent(g, schedule=sched, seed=3)
    b = make_agent(g, schedule=sched, seed=3)
    assert a.act_segment(1000).tolist() == b.act_segment(1000).tolist()


def test_segment_and_per_round_paths_agree():
    # One 40-round segment, forty 1-round segments, and the per-round
    # act()/observe() wrappers play and decide the same epoch.
    g = matching_pennies()
    sched = FixedSchedule([0.5, 0.25], [40, 40])
    eq = compute_equilibrium(g)
    a, b, c = (EquilibriumRetreatAgent(g, 0, sched, eq, streams=seeded_streams(21)) for _ in range(3))
    opp = np.random.default_rng(5).integers(0, 2, size=40)

    acts_a = a.act_segment(40)
    out_a = a.observe_segment([acts_a, opp])

    out_b = out_c = None
    acts_b, acts_c = [], []
    for r in range(40):
        seg = b.act_segment(1)
        acts_b.append(int(seg[0]))
        out_b = b.observe_segment([seg, opp[r : r + 1]])
        acts_c.append(c.act())
        out_c = c.observe((acts_c[-1], int(opp[r])))
    assert acts_a.tolist() == acts_b == acts_c
    assert out_a == out_b == out_c


# -- bookkeeping -----------------------------------------------------------------------


def test_epoch_rollover_moves_histograms():
    g = matching_pennies()
    sched = FixedSchedule([0.5], [10])
    agent = make_agent(g, schedule=sched, seed=2)
    own = agent.act_segment(10).tolist()
    outcome = drive_epoch(agent, own, [0] * 10)
    assert outcome is not None and outcome.t == 0
    assert agent.state.t == 1
    assert [list(h) for h in agent.state.h_prev] == [list(c) for c in outcome.counts]
    assert all(h.sum() == 0 for h in agent.h_curr)


def test_self_observation_counts_own_actions():
    g = matching_pennies()
    sched = FixedSchedule([0.9], [20])
    agent = make_agent(g, schedule=sched, seed=8)
    own = agent.act_segment(20).tolist()
    outcome = drive_epoch(agent, own, [0] * 20)
    assert list(outcome.counts[0]) == [own.count(0), own.count(1)]


def test_observe_rejects_wrong_arity():
    agent = make_agent(matching_pennies())
    with pytest.raises(ValueError):
        agent.observe_segment([np.zeros(2, dtype=np.int64)] * 3)
    assert agent.round_in_epoch == 0


def test_observe_rejects_unequal_segment_lengths():
    agent = make_agent(matching_pennies())
    with pytest.raises(ValueError):
        agent.observe_segment([np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64)])
    assert agent.round_in_epoch == 0


def test_counts_and_segment_paths_decide_alike():
    # The same epoch fed as action arrays and as their histograms gives
    # the same outcome.
    g = rock_paper_scissors()
    sched = FixedSchedule([0.2, 0.1], [60, 60], actions_total=6)
    eq = compute_equilibrium(g)
    a, b = (EquilibriumRetreatAgent(g, 0, sched, eq, streams=seeded_streams(3)) for _ in range(2))
    opp = np.random.default_rng(6).integers(0, 3, size=60)
    own = a.act_segment(60)
    out_a = a.observe_segment([own, opp])
    out_b = b.observe_counts([np.bincount(own, minlength=3), np.bincount(opp, minlength=3)])
    assert out_a == out_b


def test_locked_learner_counts_every_round_on_its_action():
    g = rock_paper_scissors()
    sched = FixedSchedule([0.5], [1000], actions_total=6)
    agent = make_agent(g, schedule=sched, seed=3)
    force_pure_phi(agent, 2)
    own = agent.act_counts(1000)
    assert own.tolist() == [0, 0, 1000]
    out = agent.observe_counts([own, np.array([500, 300, 200])])
    assert out.counts[0] == [0, 0, 1000]


@pytest.mark.parametrize(
    "hists",
    [
        [np.array([4]), np.array([1, 1, 2])],  # too short: must not broadcast
        [np.array([1, 1, 1, 1]), np.array([1, 1, 2])],
        [np.array([1, 1, 2]), np.array([1, 1, 1])],  # unequal totals
        [np.array([-1, 3, 2]), np.array([1, 1, 2])],
        [np.array([1, 1, 2])] * 3,
    ],
)
def test_observe_counts_rejects_malformed_histograms(hists):
    agent = make_agent(rock_paper_scissors())
    with pytest.raises(ValueError):
        agent.observe_counts(hists)
    assert agent.round_in_epoch == 0
    assert all(h.sum() == 0 for h in agent.h_curr)


def test_observe_rejects_action_outside_the_player():
    agent = make_agent(matching_pennies())
    with pytest.raises(ValueError):
        agent.observe_segment([np.zeros(2, dtype=np.int64), np.array([0, 2])])
    assert agent.round_in_epoch == 0
    assert all(h.sum() == 0 for h in agent.h_curr)


def test_act_counts_stays_inside_the_epoch():
    agent = make_agent(matching_pennies(), schedule=FixedSchedule([0.5], [10]))
    assert agent.act_counts(10).sum() == 10
    with pytest.raises(ValueError):
        agent.act_counts(11)


# -- equilibrium hypothesis test ----------------------------------------------------------


def test_equilibrium_test_within_threshold_keeps_hypothesis():
    g = matching_pennies()
    sched = FixedSchedule([0.15], [100])
    agent = make_agent(g, schedule=sched, seed=4)
    # Own column crafted too: distance 0.1 <= 0.15 for both players.
    outcome = drive_epoch(agent, [0] * 60 + [1] * 40, [0] * 60 + [1] * 40)
    assert outcome.eq_hyp_after
    assert outcome.phi_after == [0.5, 0.5]


def test_equilibrium_test_beyond_threshold_rejects():
    g = matching_pennies()
    sched = FixedSchedule([0.15], [100])
    agent = make_agent(g, schedule=sched, seed=4)
    outcome = drive_epoch(agent, [0] * 50 + [1] * 50, [0] * 70 + [1] * 30)
    assert not outcome.eq_hyp_after
    assert outcome.grace_after
    assert sorted(outcome.phi_after) == [0.0, 1.0]  # uniformly picked pure action


def test_equilibrium_test_self_awareness():
    g = matching_pennies()
    sched = FixedSchedule([0.15], [100])
    agent = make_agent(g, schedule=sched, seed=4)
    # Opponent conforms exactly; own histogram deviates.
    outcome = drive_epoch(agent, [0] * 70 + [1] * 30, [0] * 50 + [1] * 50)
    assert not outcome.eq_hyp_after


def test_boundary_distance_does_not_reject():
    g = matching_pennies()
    sched = FixedSchedule([0.2], [100])
    agent = make_agent(g, schedule=sched, seed=4)
    # Distance exactly 0.2 == eps_e: strict comparison keeps the hypothesis.
    outcome = drive_epoch(agent, [0] * 70 + [1] * 30, [0] * 70 + [1] * 30)
    assert outcome.eq_hyp_after


# -- stationarity test, grace, restart ------------------------------------------------------


def reject_equilibrium(agent, rounds):
    """Epoch of pure (0,0) play: rejects the equilibrium hypothesis for MP."""
    return drive_epoch(agent, [0] * rounds, [0] * rounds)


def test_grace_skips_exactly_one_stationarity_test():
    g = matching_pennies()
    sched = FixedSchedule([0.15, 0.15, 0.15, 0.15], [100, 100, 100, 100])
    agent = make_agent(g, schedule=sched, seed=4)
    out0 = reject_equilibrium(agent, 100)
    assert out0.grace_after and not out0.eq_hyp_after
    # Epoch 1: opponent switches to pure 1 -- a stationarity violation, but
    # the grace flag suppresses the test once.
    own = [int(np.argmax(agent.state.phi))] * 100
    out1 = drive_epoch(agent, own, [1] * 100)
    assert not out1.restart
    assert not out1.grace_after
    # Epoch 2: opponent switches back -- now the test fires and restarts.
    own = [int(np.argmax(agent.state.phi))] * 100
    out2 = drive_epoch(agent, own, [0] * 100)
    assert out2.restart
    st = agent.state
    assert (st.t, st.eq_hyp, st.grace, st.restarts) == (0, True, False, 1)


def test_stationarity_identical_histograms_pass():
    g = matching_pennies()
    sched = FixedSchedule([0.15, 0.15, 0.15], [100, 100, 100])
    agent = make_agent(g, schedule=sched, seed=4)
    reject_equilibrium(agent, 100)
    own = [int(np.argmax(agent.state.phi))] * 100
    drive_epoch(agent, own, [1] * 100)  # grace epoch
    out = drive_epoch(agent, own, [1] * 100)  # identical to previous epoch
    assert not out.restart


def test_stationarity_boundary_drift_not_rejected():
    g = matching_pennies()
    # eps_s for epoch 2 is eps_e(1) = 0.1; drift of exactly 0.1 must pass.
    sched = FixedSchedule([0.15, 0.1, 0.1], [100, 100, 100])
    agent = make_agent(g, schedule=sched, seed=4)
    reject_equilibrium(agent, 100)
    own = [int(np.argmax(agent.state.phi))] * 100
    drive_epoch(agent, own, [0] * 50 + [1] * 50)  # grace epoch
    out = drive_epoch(agent, own, [0] * 60 + [1] * 40)  # drift exactly 0.1
    assert not out.restart


def test_restart_equals_fresh_init_except_rng_and_counter():
    g = matching_pennies()
    sched = FixedSchedule([0.15, 0.15, 0.15], [100, 100, 100])
    agent = make_agent(g, schedule=sched, seed=4)
    reject_equilibrium(agent, 100)
    own = [int(np.argmax(agent.state.phi))] * 100
    drive_epoch(agent, own, [1] * 100)
    own = [int(np.argmax(agent.state.phi))] * 100
    out = drive_epoch(agent, own, [0] * 100)
    assert out.restart
    assert agent.state.t == 0
    assert agent.state.eq_hyp and not agent.state.grace
    np.testing.assert_array_equal(agent.state.phi, [0.5, 0.5])
    assert agent.state.h_prev is None
    assert all(h.sum() == 0 for h in agent.h_curr)
    assert agent.state.restarts == 1


# -- best-response hysteresis -------------------------------------------------------------


def force_pure_phi(agent, action):
    # grace=True skips the stationarity test in the driven epoch.
    agent.state = dataclasses.replace(
        agent.state, eq_hyp=False, grace=True, phi=pure_strategy(action, agent.n_actions)
    )
    agent._buffer = None


def test_hysteresis_switch_when_gap_beats_margin():
    g = rock_paper_scissors()
    # margin = n*|A|*eps_s(t+1)*mu = 2*3*eps*2 = 12*eps; eps=0.02 -> 0.24 < 0.4
    sched = FixedSchedule([0.02, 0.02], [1000], actions_total=6)
    agent = make_agent(g, schedule=sched, seed=4)
    force_pure_phi(agent, 0)  # Rock
    opp = [0] * 500 + [1] * 300 + [2] * 200  # empirical (0.5, 0.3, 0.2)
    out = drive_epoch(agent, [0] * 1000, opp)
    assert out.switched
    assert out.phi_after == [0.0, 1.0, 0.0]  # Paper


def test_hysteresis_holds_when_margin_exceeds_gap():
    g = rock_paper_scissors()
    # eps = 0.05 -> margin 0.6 > gap 0.4: no switch.
    sched = FixedSchedule([0.05, 0.05], [1000], actions_total=6)
    agent = make_agent(g, schedule=sched, seed=4)
    force_pure_phi(agent, 0)
    opp = [0] * 500 + [1] * 300 + [2] * 200
    out = drive_epoch(agent, [0] * 1000, opp)
    assert not out.switched
    assert out.phi_after == [1.0, 0.0, 0.0]


def test_no_switch_when_already_best_response():
    g = rock_paper_scissors()
    sched = FixedSchedule([0.001, 0.001], [1000], actions_total=6)
    agent = make_agent(g, schedule=sched, seed=4)
    force_pure_phi(agent, 1)  # already Paper
    opp = [0] * 500 + [1] * 300 + [2] * 200
    out = drive_epoch(agent, [1] * 1000, opp)
    assert not out.switched
    assert out.phi_after == [0.0, 1.0, 0.0]


def test_phi_constant_within_epoch():
    g = matching_pennies()
    sched = FixedSchedule([0.15], [50])
    agent = make_agent(g, schedule=sched, seed=4)
    before = agent.state.phi.copy()
    for _ in range(49):
        agent.observe_segment([agent.act_segment(1), np.zeros(1, dtype=np.int64)])
        np.testing.assert_array_equal(agent.state.phi, before)


# -- self-play synchronization ----------------------------------------------------------


def test_self_play_flag_tuples_identical():
    g = matching_pennies()
    sched = Schedule(epsilon_base=0.5, actions_total=4)
    eq = compute_equilibrium(g)
    agents = [
        EquilibriumRetreatAgent(g, p, sched, eq, streams=seeded_streams(100 + p)) for p in range(2)
    ]
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = agents[0].rounds_left_in_epoch()
        joint = [a.act_segment(n) for a in agents]
        outs = [a.observe_segment(joint) for a in agents]
        assert outs[0] is not None and outs[1] is not None
        flags = [(a.state.t, a.state.eq_hyp, a.state.grace, a.state.restarts) for a in agents]
        assert flags[0] == flags[1]
