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


# -- stationary ---------------------------------------------------------------


def test_stationary_empirical_frequencies():
    pol = StationaryPolicy([0.5, 0.3, 0.2], rng(1))
    draws = pol.act_segment(100_000)
    freqs = np.bincount(draws, minlength=3) / 100_000
    assert np.all(np.abs(freqs - [0.5, 0.3, 0.2]) < 0.01)


def test_stationary_ignores_history():
    # Same stream, different observed histories: identical action sequences.
    histories = [[(0, 0)] * 50, [(2, 1), (1, 2)] * 25]
    seqs = []
    for hist in histories:
        pol = StationaryPolicy([0.5, 0.3, 0.2], rng(7))
        seq = []
        for joint in hist:
            seq.append(pol.act())
            pol.observe(joint)
        seqs.append(seq)
    assert seqs[0] == seqs[1]


def test_stationary_act_idempotent_within_round():
    pol = StationaryPolicy([0.5, 0.5], rng(3))
    a = pol.act()
    assert pol.act() == a  # unchanged until the round is committed
    pol.observe((a, 0))


def test_stationary_segment_after_uncommitted_act_raises():
    pol = StationaryPolicy([0.5, 0.5], rng())
    pol.act()
    with pytest.raises(RuntimeError):
        pol.act_segment(5)


def test_stationary_rejects_bad_probs():
    with pytest.raises(ValueError):
        StationaryPolicy([0.7, 0.7], rng())


# -- scripted ------------------------------------------------------------------


def test_scripted_repeats_last_action():
    pol = ScriptedPolicy([0, 1])
    seen = []
    for _ in range(4):
        seen.append(pol.act())
        pol.observe((seen[-1], 0))
    assert seen == [0, 1, 1, 1]


def test_scripted_segment_matches_per_round():
    a = ScriptedPolicy([2, 0, 1])
    b = ScriptedPolicy([2, 0, 1])
    seg = a.act_segment(6)
    per_round = []
    for _ in range(6):
        per_round.append(b.act())
        b.observe((per_round[-1],))
    assert seg.tolist() == per_round


def test_scripted_rejects_empty():
    with pytest.raises(ValueError):
        ScriptedPolicy([])


# -- eventually stationary --------------------------------------------------------


def test_eventually_stationary_switch_contract():
    pre = ScriptedPolicy([0])
    pol = EventuallyStationaryPolicy(pre, 500, [0.5, 0.3, 0.2], rng(9))
    draws = []
    for _ in range(2000):
        a = pol.act()
        draws.append(a)
        pol.observe((a, 0))
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
        my_action = pol.act()
        # Replay check: the action is a best response to current counts.
        freqs = [pol.counts[0] / pol.counts[0].sum()]
        expected, _ = best_response(g, 1, freqs)
        assert my_action == expected
        pol.observe((opp_action, my_action))


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
