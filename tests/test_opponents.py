import numpy as np
import pytest

from repgame.catalog import matching_pennies, rock_paper_scissors
from repgame.games import best_response
from repgame.opponents import (
    EventuallyStationaryPolicy,
    FictitiousPlayPolicy,
    ScriptedPolicy,
    StationaryPolicy,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def play_rounds(pol, rounds, other=lambda r: 0):
    """Play ``rounds`` one-round segments as player 0 of a two-player game,
    the other player taking action ``other(r)`` in round r."""
    seen = []
    for r in range(rounds):
        a = pol.act_segment(1)
        seen.append(int(a[0]))
        pol.observe_segment([a, np.array([other(r)], dtype=np.int64)])
    return seen


# -- stationary ---------------------------------------------------------------


def test_stationary_empirical_frequencies():
    pol = StationaryPolicy([0.5, 0.3, 0.2], rng(1))
    draws = pol.act_segment(100_000)
    freqs = np.bincount(draws, minlength=3) / 100_000
    assert np.all(np.abs(freqs - [0.5, 0.3, 0.2]) < 0.01)


def test_stationary_ignores_history():
    # Same stream, different observed histories: identical action sequences.
    others = [lambda r: 0, lambda r: r % 3]
    seqs = [play_rounds(StationaryPolicy([0.5, 0.3, 0.2], rng(7)), 50, other) for other in others]
    assert seqs[0] == seqs[1]


def test_stationary_rejects_bad_probs():
    with pytest.raises(ValueError):
        StationaryPolicy([0.7, 0.7], rng())


# -- scripted ------------------------------------------------------------------


def test_scripted_repeats_last_action():
    assert play_rounds(ScriptedPolicy([0, 1]), 4) == [0, 1, 1, 1]


def test_scripted_segment_matches_per_round():
    a = ScriptedPolicy([2, 0, 1])
    seg = a.act_segment(6)
    assert seg.dtype == np.int64
    assert seg.tolist() == play_rounds(ScriptedPolicy([2, 0, 1]), 6)


def test_scripted_rejects_empty():
    with pytest.raises(ValueError):
        ScriptedPolicy([])


# -- eventually stationary --------------------------------------------------------


def test_eventually_stationary_switch_contract():
    pre = ScriptedPolicy([0])
    pol = EventuallyStationaryPolicy(pre, 500, [0.5, 0.3, 0.2], rng(9))
    draws = play_rounds(pol, 2000)
    assert set(draws[:500]) == {0}
    post = np.bincount(draws[500:], minlength=3) / 1500
    # 4-sigma multinomial band at n=1500 is about 0.052.
    assert np.all(np.abs(post - [0.5, 0.3, 0.2]) < 0.06)


def test_eventually_stationary_segment_splits_at_switch():
    pre = ScriptedPolicy([1])
    a = EventuallyStationaryPolicy(pre, 10, [1.0, 0.0], rng(2))
    seg = a.act_segment(25)
    assert seg[:10].tolist() == [1] * 10
    assert seg[10:].tolist() == [0] * 15


def test_eventually_stationary_rejects_negative_switch():
    with pytest.raises(ValueError):
        EventuallyStationaryPolicy(ScriptedPolicy([0]), -1, [1.0, 0.0], rng())


# -- fictitious play ------------------------------------------------------------------


def test_fictitious_play_best_responds_to_counts():
    g = rock_paper_scissors()
    pol = FictitiousPlayPolicy(g, 1)
    opponent_script = [0, 0, 0, 1, 2, 0, 0, 1, 1, 0]
    for opp_action in opponent_script:
        my_action = pol.act_segment(1)
        # Replay check: the action is a best response to current counts.
        freqs = [pol.counts[0] / pol.counts[0].sum()]
        expected, _ = best_response(g, 1, freqs)
        assert my_action.tolist() == [expected]
        pol.observe_segment([np.array([opp_action]), my_action])


def test_fictitious_play_initial_counts_validation():
    g = matching_pennies()
    with pytest.raises(ValueError):
        FictitiousPlayPolicy(g, 0, initial_counts=[[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        FictitiousPlayPolicy(g, 0, initial_counts=[[0.0, 0.0]])


def test_fictitious_play_is_history_dependent():
    g = matching_pennies()
    assert FictitiousPlayPolicy(g, 0).history_dependent
    assert not StationaryPolicy([0.5, 0.5], rng()).history_dependent


def test_fictitious_play_acts_one_round_at_a_time():
    pol = FictitiousPlayPolicy(matching_pennies(), 0)
    for length in (0, 2, 10):
        with pytest.raises(ValueError):
            pol.act_segment(length)


def test_eventually_stationary_fictitious_pre_switches_at_switch_round():
    # Fictitious play as player 1 of RPS against a scripted Rock: it plays
    # Paper from its first round, so every pre-switch round is Paper and the
    # stationary post policy (pure Scissors) takes over exactly at round 7.
    g = rock_paper_scissors()
    pre = FictitiousPlayPolicy(g, 1, initial_counts=[[2.0, 1.0, 1.0]])
    pol = EventuallyStationaryPolicy(pre, 7, [0.0, 0.0, 1.0], rng(4))
    assert pol.history_dependent
    seen = []
    for _ in range(12):
        a = pol.act_segment(1)
        seen.append(int(a[0]))
        pol.observe_segment([np.array([0], dtype=np.int64), a])
    assert seen == [1] * 7 + [2] * 5
    assert pre.counts[0].tolist() == [9.0, 1.0, 1.0]  # observed the 7 pre-switch rounds only
