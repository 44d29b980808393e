import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repgame.equilibrium import EquilibriumProfile, compute_equilibrium
from repgame.games import StageGame, pure_action_values, pure_strategy
from repgame.learner import EpochOutcome, EpochState, EquilibriumRetreatAgent, epoch_step, fresh_state, histogram_total
from repgame.schedule import Schedule

from catalog import matching_pennies, prisoners_dilemma, rock_paper_scissors


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


@st.composite
def epoch_splits(draw):
    """A strategy of rock-paper-scissors, pure or mixed, an epoch length,
    and a split of the epoch into steps: each step's act_segment requests,
    repeated, longer and shorter ones among them, and then how many of the
    rounds it plays and observes."""
    phi = draw(st.sampled_from([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.5, 0.3, 0.2], [0.25, 0.0, 0.75]]))
    rounds = draw(st.integers(1, 300))
    steps, left = [], rounds
    while left:
        requests = draw(st.lists(st.integers(0, left), min_size=0, max_size=3))
        played = draw(st.integers(1, left))
        steps.append((requests, played))
        left -= played
    return phi, rounds, steps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(epoch_splits(), st.integers(0, 2**32))
def test_any_split_of_an_epoch_plays_the_actions_of_one_draw(case, seed):
    # The learner draws only the rounds it is asked for, and draws are
    # split-stable: every split plays the actions, and leaves the play
    # stream where, one draw of the whole epoch does.
    phi, rounds, steps = case
    g = rock_paper_scissors()
    sched = FixedSchedule([0.5, 0.5], [rounds, 10], actions_total=6)
    whole, split = (make_agent(g, schedule=sched, seed=seed) for _ in range(2))
    for agent in (whole, split):
        agent.state = dataclasses.replace(agent.state, phi=phi)
    want = whole.act_segment(rounds)
    opp = np.random.default_rng(seed).integers(0, 3, size=rounds)
    out_whole = whole.observe_counts([np.bincount(want, minlength=3), np.bincount(opp, minlength=3)])
    start, out_split = 0, None
    for requests, played in steps:
        for n in [*requests, played]:
            assert split.act_segment(n).tolist() == want[start : start + n].tolist()
        hists = [np.bincount(a[start : start + played], minlength=3) for a in (want, opp)]
        out_split = split.observe_counts(hists)
        start += played
    assert out_split == out_whole
    assert split._play_rng.bit_generator.state == whole._play_rng.bit_generator.state


@pytest.mark.parametrize("call", ["act_segment", "observe_counts"])
def test_a_segment_may_not_cross_an_epoch_boundary(call):
    # Epoch 0 has 32 rounds, so 3 more after 30 cross into epoch 1; the
    # call changes nothing.
    agent = make_agent(matching_pennies())
    agent.observe_counts([[15, 15], [15, 15]])
    with pytest.raises(ValueError, match="segment crosses an epoch boundary"):
        getattr(agent, call)(3 if call == "act_segment" else [[3, 0], [0, 3]])
    assert (agent.epoch_rounds, agent.round_in_epoch, agent.h_curr) == (32, 30, [[15, 15], [15, 15]])


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
    assert all(sum(h) == 0 for h in agent.h_curr)


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
        [np.array([[1, 1, 2]]), np.array([1, 1, 2])],  # 2-D
        [np.array([1.0, 1.0, 2.0]), np.array([1, 1, 2])],  # float entries
    ],
)
def test_observe_counts_rejects_malformed_histograms(hists):
    agent = make_agent(rock_paper_scissors())
    with pytest.raises(ValueError):
        agent.observe_counts(hists)
    assert agent.round_in_epoch == 0
    assert all(sum(h) == 0 for h in agent.h_curr)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_observe_counts_takes_int_arrays_and_int_lists_alike(data):
    # Two agents with the same streams fed the same segments, one as int64
    # arrays and one as lists of ints, reach the same outcomes and state.
    g = rock_paper_scissors()
    sched = FixedSchedule([0.2, 0.1, 0.05], [30, 40, 50], actions_total=6)
    a, b = make_agent(g, schedule=sched, seed=5), make_agent(g, schedule=sched, seed=5)
    for _ in range(data.draw(st.integers(1, 6))):
        length = data.draw(st.integers(0, a.rounds_left_in_epoch()))
        hists = [histogram(data.draw, 3, length) for _ in range(2)]
        out_a = a.observe_counts([np.array(h, dtype=np.int64) for h in hists])
        out_b = b.observe_counts(hists)
        assert bits(out_a) == bits(out_b)
        assert (a.round_in_epoch, a.h_curr, bits(a.state)) == (b.round_in_epoch, b.h_curr, bits(b.state))


def test_observe_rejects_action_outside_the_player():
    agent = make_agent(matching_pennies())
    with pytest.raises(ValueError):
        agent.observe_segment([np.zeros(2, dtype=np.int64), np.array([0, 2])])
    assert agent.round_in_epoch == 0
    assert all(sum(h) == 0 for h in agent.h_curr)


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
    assert all(sum(h) == 0 for h in agent.h_curr)
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


# -- histograms and the hypothesis tests ---------------------------------------------------


@pytest.mark.parametrize(
    "hists, total",
    [
        ([[1, 2], [3, 0]], 3),
        (([1, 2], (0, 3)), 3),
        ([[0, 0], [0, 0]], 0),
        ([[True, 2], [3, 0]], None),  # True == 1, but a bool is not a count
        ([[1, 2], [3, False]], None),
        ([[1.0, 2], [3, 0]], None),
        ([[np.int64(1), 2], [3, 0]], None),
        ([[-1, 4], [3, 0]], None),
        ([[1, 2, 0], [3, 0]], None),
        ([[1, 2], [3]], None),
        ([[1, 2], [2, 0]], None),
        ([[1, 2]], None),
        ([[1, 2], [3, 0], [3, 0]], None),
        ([np.array([1, 2]), [3, 0]], None),
        (np.array([[1, 2], [3, 0]]), None),
        ([[1, "2"], [3, 0]], None),
        (None, None),
    ],
    ids=["lists", "tuples", "zeros", "bool-true", "bool-false", "float", "numpy-int", "negative", "long-row",
         "short-row", "unequal-totals", "one-histogram", "three-histograms", "numpy-row", "numpy-rows", "string",
         "none"],
)
def test_histogram_total_takes_one_row_of_nonnegative_ints_per_player(hists, total):
    got = histogram_total(hists, (2, 2))
    assert (got, type(got)) == (total, type(total))


@pytest.mark.parametrize("eq_hyp", [True, False], ids=["equilibrium", "stationarity"])
def test_each_hypothesis_test_covers_every_player(eq_hyp):
    # Player 0 stays at the equilibrium and at its previous frequencies; only
    # player 1 moves, by 0.4, past the bound of 0.1.
    game = matching_pennies()
    sched = FixedSchedule([0.1], [100])
    state = EpochState([0.5, 0.5], 1, eq_hyp, False, [[50, 50], [50, 50]], 0)
    still, _ = epoch_step(game, 0, sched, compute_equilibrium(game), state, [[50, 50], [50, 50]], lambda: 0)
    moved, _ = epoch_step(game, 0, sched, compute_equilibrium(game), state, [[50, 50], [90, 10]], lambda: 0)
    if eq_hyp:
        assert (still.eq_hyp_after, moved.eq_hyp_after) == (True, False)
    else:
        assert (still.restart, moved.restart) == (False, True)


@pytest.mark.parametrize("eq_hyp", [True, False], ids=["equilibrium", "stationarity"])
def test_each_hypothesis_test_rejects_a_reference_of_another_length(eq_hyp):
    # As linf_distance does: player 1's reference has 3 entries, its histogram 2.
    game = matching_pennies()
    eq = EquilibriumProfile((np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5])), "user-supplied")
    state = EpochState([0.5, 0.5], 1, eq_hyp, False, [[50, 50], [50, 50, 0]], 0)
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        epoch_step(game, 0, FixedSchedule([0.9], [100]), eq, state, [[50, 50], [50, 50]], lambda: 0)


@pytest.mark.parametrize(
    "strategies, message",
    [
        (([0.5, 0.5], [0.2, 0.3, 0.5]), "a strategy of 2 actions for player 1"),
        (([0.5, 0.5],), "a strategy of 2 actions for player 1"),
        (([0.2, 0.3, 0.5], [0.5, 0.5]), "a strategy of 2 actions for player 0"),
        (([0.5, 0.5], [0.5, 0.5], [0.5, 0.5]), "3 strategies for 2 players"),
    ],
    ids=["long-strategy", "missing-player", "own-strategy", "extra-player"],
)
def test_the_agent_rejects_a_profile_that_does_not_fit_the_game(strategies, message):
    # Caught where the agent takes the profile, not after an epoch of play:
    # a long strategy failed only at the epoch's end, and a missing one made
    # the equilibrium test skip that player.
    eq = EquilibriumProfile(tuple(np.array(s) for s in strategies), "user-supplied")
    for me in (0, 1):
        with pytest.raises(ValueError, match=message):
            make_agent(matching_pennies(), me=me, eq=eq)


@pytest.mark.parametrize("me", [-1, 2])
def test_the_agent_rejects_a_player_outside_the_game(me):
    # As a Python index -1 played as the last player, while the epoch rule's
    # "other players" (p != me) kept every player and its records said -1.
    with pytest.raises(ValueError, match=re.escape(f"player {me} out of range [0, 2)")):
        make_agent(matching_pennies(), me=me)


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


# -- the epoch rule against its numpy form ---------------------------------------------------


def numpy_linf_distance(p, q) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(np.abs(p - q).max())


def numpy_epoch_step(game, me, schedule, eq_profile, state, hists, pick):
    """Reference: the epoch rule on float64 vectors, one numpy operation
    per step, as it was written before the rule moved to plain floats, but
    for φ's value: a loop over the actions in index order, not a BLAS dot."""
    t, eq_hyp, grace, phi, h_prev = state.t, state.eq_hyp, state.grace, state.phi, state.h_prev
    shape = game.action_counts
    n_rounds = schedule.rounds(t)
    eps_e_t = schedule.eps_e(t)
    eps_s_t = schedule.eps_s(t)
    margin = len(shape) * max(shape) * schedule.eps_s(t + 1) * game.payoff_ranges[me]
    freq = [np.asarray(h, dtype=np.float64) / n_rounds for h in hists]
    eq_after, grace_after, stat_after = eq_hyp, grace, True
    phi_after = phi
    switched = False
    if not eq_hyp:
        if not grace:
            if h_prev is None:
                raise ValueError("stationarity test needs the previous epoch's histograms")
            prev_total = sum(h_prev[0])
            stat_after = all(
                numpy_linf_distance(f, np.asarray(h, dtype=np.float64) / prev_total) <= eps_s_t
                for f, h in zip(freq, h_prev)
            )
        grace_after = False
        values = pure_action_values(game, me, [f for p, f in enumerate(freq) if p != me])
        best_action = int(np.argmax(values))
        value = phi[0] * values[0]
        for j in range(1, len(phi)):
            value += phi[j] * values[j]
        if float(values[best_action]) > float(value) + margin:
            phi_after = pure_strategy(best_action, shape[me])
            switched = True
    elif any(numpy_linf_distance(f, s) > eps_e_t for f, s in zip(freq, eq_profile.strategies)):
        eq_after, grace_after = False, True
        phi_after = pure_strategy(pick(), shape[me])
    restart = not stat_after
    restarts = state.restarts + restart
    outcome = EpochOutcome(
        player=me, t=t, counts=[list(map(int, h)) for h in hists], eps_e=eps_e_t, eps_s=eps_s_t,
        margin=margin, eq_hyp_before=eq_hyp, eq_hyp_after=eq_after, grace_before=grace,
        grace_after=grace_after, phi_before=list(map(float, phi)),
        phi_after=list(map(float, phi_after)), switched=switched, restart=restart,
        restarts_total=restarts,
    )
    if restart:
        return outcome, fresh_state(eq_profile, me, restarts)
    return outcome, EpochState(outcome.phi_after, t + 1, eq_after, grace_after, outcome.counts, restarts)


def bits(value):
    """``value`` with every float replaced by its hex form and every int
    and bool tagged with its type, so equal results are equal bit for bit."""
    if dataclasses.is_dataclass(value):
        return {f.name: bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return bits(value.tolist())
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return (type(value).__name__, value)


def histogram(draw, k, total):
    """``k`` nonnegative counts totalling ``total``."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@st.composite
def epoch_cases(draw):
    """A 2- or 3-player game with 3-decimal payoffs, a player, a drawn
    equilibrium profile, thresholds and epoch lengths, a state with any
    flags, and the epoch's histograms."""
    shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    size = len(shape) * int(np.prod(shape))
    payoffs = draw(st.lists(st.integers(-2000, 2000), min_size=size, max_size=size))
    game = StageGame(np.reshape(np.array(payoffs) / 1000, [len(shape)] + shape))
    me = draw(st.integers(0, len(shape) - 1))
    weights = [draw(st.lists(st.integers(0, 20), min_size=k, max_size=k).filter(any)) for k in shape]
    eq = EquilibriumProfile(tuple(np.array(w) / sum(w) for w in weights), "user-supplied")
    t = draw(st.integers(0, 3))
    eps = [draw(st.integers(0, 1000)) / 1000 for _ in range(t + 2)]
    rounds = [draw(st.integers(1, 2**62)) for _ in range(t + 1)]
    schedule = FixedSchedule(eps, rounds)
    eq_hyp, grace = draw(st.booleans()), draw(st.booleans())
    if draw(st.booleans()):
        phi = eq.strategies[me]
    else:
        phi = pure_strategy(draw(st.integers(0, shape[me] - 1)), shape[me])
        phi = phi.tolist() if draw(st.booleans()) else phi
    h_prev = None
    # The previous histograms are there whenever the stationarity test runs.
    if not (eq_hyp or grace) or draw(st.booleans()):
        prev_total = draw(st.sampled_from([rounds[max(t - 1, 0)], draw(st.integers(1, 2**62))]))
        h_prev = [histogram(draw, k, prev_total) for k in shape]
    state = EpochState(phi, t, eq_hyp, grace, h_prev, draw(st.integers(0, 3)))
    hists = [histogram(draw, k, schedule.rounds(t)) for k in shape]
    if draw(st.booleans()):
        hists = [np.array(h, dtype=np.int64) for h in hists]
    return game, me, schedule, eq, state, hists, draw(st.integers(0, shape[me] - 1))


def run_rule(rule, case):
    """``rule`` on ``case``: its outcome, next state and pick calls."""
    game, me, schedule, eq, state, hists, action = case
    picks = []

    def pick():
        picks.append(action)
        return action

    outcome, after = rule(game, me, schedule, eq, state, hists, pick)
    return bits(outcome), bits(after), picks


# A mixed φ after the equilibrium hypothesis fell: against (0.193, 0.302, 0.505)
# Rock's value beats φ's by the margin at ε 0.017575 to within the last bits, so
# the order in which φ's value is added decides the switch: added in index order it
# switches, as a BLAS dot does under OpenBLAS's Haswell kernel but not its SkylakeX.
MIXED_PHI_CASE = (
    rock_paper_scissors(),
    0,
    FixedSchedule([0.017575], [1000], actions_total=6),
    EquilibriumProfile((np.full(3, 1 / 3), np.full(3, 1 / 3)), "user-supplied"),
    EpochState([0.1, 0.3, 0.6], 0, False, True, None, 0),
    [[100, 300, 600], [193, 302, 505]],
    0,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(epoch_cases())
@example(MIXED_PHI_CASE)
def test_epoch_step_equals_its_numpy_form_bit_for_bit(case):
    assert run_rule(epoch_step, case) == run_rule(numpy_epoch_step, case)
