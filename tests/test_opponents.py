import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgame.games import StageGame, pure_action_values
from repgame.harness import agent_stream
from repgame.learner import STREAM_PLAY, STREAM_RESET_PICK
from repgame.opponents import (
    EventuallyStationaryPolicy,
    FictitiousPlayPolicy,
    ScriptedPolicy,
    StationaryPolicy,
)

from catalog import matching_pennies, rock_paper_scissors


def rng(seed=0):
    return np.random.default_rng(seed)


def play_rounds(pol, rounds):
    """Play ``rounds`` one-round segments of a history-free policy, as a
    trial does: each ``act_segment`` call moves it past its round, and it
    is shown nothing."""
    return [int(pol.act_segment(1)[0]) for _ in range(rounds)]


# -- stationary ---------------------------------------------------------------


def test_stationary_empirical_frequencies():
    pol = StationaryPolicy([0.5, 0.3, 0.2], rng(1))
    draws = pol.act_segment(100_000)
    freqs = np.bincount(draws, minlength=3) / 100_000
    assert np.all(np.abs(freqs - [0.5, 0.3, 0.2]) < 0.01)


def test_stationary_ignores_history():
    # History-free: it has no observe_segment, so a trial shows it no
    # rounds, and the same stream plays the same actions one round at a
    # time as in one segment.
    pol = StationaryPolicy([0.5, 0.3, 0.2], rng(7))
    assert not pol.history_dependent and not hasattr(pol, "observe_segment")
    assert play_rounds(pol, 50) == StationaryPolicy([0.5, 0.3, 0.2], rng(7)).act_segment(50).tolist()


def test_stationary_counts_follow_probs():
    counts = StationaryPolicy([0.5, 0.3, 0.2], rng(1)).act_counts(100_000)
    assert counts.dtype == np.int64 and counts.sum() == 100_000
    assert np.all(np.abs(counts / 100_000 - [0.5, 0.3, 0.2]) < 0.01)


def test_stationary_rejects_bad_probs():
    with pytest.raises(ValueError):
        StationaryPolicy([0.7, 0.7], rng())


# -- scripted ------------------------------------------------------------------


def test_scripted_repeats_last_action():
    # Each act_segment call moves the script past the round it returns; the
    # policy has no observe_segment.
    pol = ScriptedPolicy([0, 1], 2)
    assert play_rounds(pol, 4) == [0, 1, 1, 1]
    assert pol.pos == 4 and not hasattr(pol, "observe_segment")


def test_scripted_segment_matches_per_round():
    # One six-round segment plays what six one-round segments play.
    a = ScriptedPolicy([2, 0, 1], 3)
    seg = a.act_segment(6)
    assert seg.dtype == np.int64
    assert seg.tolist() == play_rounds(ScriptedPolicy([2, 0, 1], 3), 6)


def test_scripted_rejects_empty():
    with pytest.raises(ValueError):
        ScriptedPolicy([], 2)


@pytest.mark.parametrize("actions", [[0, 2], [-1], [0.5]])
def test_scripted_rejects_actions_outside_the_player(actions):
    with pytest.raises(ValueError):
        ScriptedPolicy(actions, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    script=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    pos=st.integers(0, 10),
    length=st.integers(0, 12),
    cuts=st.lists(st.integers(0, 12), max_size=3),
)
def test_scripted_counts_equal_bincount_of_its_segment(script, pos, length, cuts):
    # act_counts and act_segment each move the script past the rounds they
    # play, so the segment comes from a twin at the same place; and any split
    # of those rounds into act_segment calls plays the segment's actions.
    pol, twin, split = (ScriptedPolicy(script, 3) for _ in range(3))
    for p in (pol, twin, split):
        p.act_counts(pos)
    segment = twin.act_segment(length)
    assert pol.act_counts(length).tolist() == np.bincount(segment, minlength=3).tolist()
    bounds = [0, *sorted(min(c, length) for c in cuts), length]
    parts = [split.act_segment(hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tolist() == segment.tolist()
    assert pol.pos == twin.pos == split.pos == pos + length


# -- zero-length draws -------------------------------------------------------------


@pytest.mark.parametrize(
    "method, sampler", [("act_segment", "Generator.choice"), ("act_counts", "Generator.multinomial")]
)
def test_a_zero_length_draw_leaves_the_stream_and_the_script_where_they_were(method, sampler):
    # EventuallyStationaryPolicy hands its pre and post policies the empty
    # part of a segment that lies on one side of its switch.
    stationary = StationaryPolicy([0.5, 0.3, 0.2], rng(3))
    scripted = ScriptedPolicy([2, 0, 1], 3)
    scripted.act_counts(2)
    state = stationary.rng.bit_generator.state
    for pol, name in ((stationary, sampler), (scripted, f"ScriptedPolicy.{method}")):
        where = f"{name} of 0 rounds on numpy {np.__version__}"
        assert getattr(pol, method)(0).tolist() == ([0, 0, 0] if method == "act_counts" else []), where
    assert stationary.rng.bit_generator.state == state, f"{sampler} of 0 rounds on numpy {np.__version__} moved the stream"
    assert scripted.pos == 2, f"ScriptedPolicy.{method} of 0 rounds on numpy {np.__version__} moved the script"


# numpy's random compatibility policy (NEP 19) fixes the bit generators'
# streams, but not Generator's sampling algorithms, across releases; trace bytes
# depend on both.  These are the draws the learners and stationary policies make,
# in their call forms, on agent_stream seeds: ``draw_actions`` maps the doubles
# of ``random`` as ``choice`` does, which test_games checks against ``choice``.
@pytest.mark.parametrize(
    "sampler, player, purpose, draw, want",
    [
        ("Generator.choice", 0, STREAM_PLAY,
         lambda g: [g.choice(3, size=n, p=[0.5, 0.3, 0.2]).tolist() for n in (4, 8)],
         [[2, 2, 0, 1], [0, 2, 2, 0, 2, 2, 0, 0]]),
        ("Generator.random", 0, STREAM_PLAY,
         lambda g: [g.random(n).tolist() for n in (2, 3)],
         [[0.9750335537195014, 0.8845672371187709], [0.23197043322658195, 0.7312624263827884, 0.4053425451283187]]),
        ("Generator.multinomial", 0, STREAM_PLAY,
         lambda g: [g.multinomial(n, [0.5, 0.3, 0.2]).tolist() for n in (5, 60, 1000)],
         [[5, 0, 0], [35, 17, 8], [490, 306, 204]]),
        ("Generator.integers", 1, STREAM_RESET_PICK,
         lambda g: [int(g.integers(k)) for k in (2, 3, 3, 5, 5, 5)],
         [0, 1, 2, 0, 2, 0]),
    ],
    ids=["choice", "random", "multinomial", "integers"],
)
def test_numpy_samplers_draw_as_when_the_trace_digests_were_pinned(sampler, player, purpose, draw, want):
    got = draw(agent_stream(7, 3, player, purpose))
    assert got == want, f"{sampler} on numpy {np.__version__} draws {got}, not {want} as when the digests were pinned"


# -- eventually stationary --------------------------------------------------------


def test_eventually_stationary_switch_contract():
    # Each act_segment call moves the policy, and its scripted pre while
    # the pre plays, past its round; from round 500 on the stationary part plays.
    pre = ScriptedPolicy([0], 3)
    pol = EventuallyStationaryPolicy(pre, 500, [0.5, 0.3, 0.2], rng(9))
    draws = play_rounds(pol, 2000)
    assert set(draws[:500]) == {0}
    assert (pol.round, pre.pos) == (2000, 500)
    post = np.bincount(draws[500:], minlength=3) / 1500
    # 4-sigma multinomial band at n=1500 is about 0.052.
    assert np.all(np.abs(post - [0.5, 0.3, 0.2]) < 0.06)


def test_eventually_stationary_segment_splits_at_switch():
    pre = ScriptedPolicy([1], 2)
    a = EventuallyStationaryPolicy(pre, 10, [1.0, 0.0], rng(2))
    seg = a.act_segment(25)
    assert seg[:10].tolist() == [1] * 10
    assert seg[10:].tolist() == [0] * 15


def test_eventually_stationary_rejects_negative_switch():
    with pytest.raises(ValueError):
        EventuallyStationaryPolicy(ScriptedPolicy([0], 2), -1, [1.0, 0.0], rng())


@pytest.mark.parametrize("switch_round", [2.5, True, "3"])
def test_eventually_stationary_rejects_non_integer_switch(switch_round):
    with pytest.raises(ValueError):
        EventuallyStationaryPolicy(ScriptedPolicy([0], 2), switch_round, [1.0, 0.0], rng())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    script=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    switch=st.integers(0, 15),
    pos=st.integers(0, 20),
    length=st.integers(0, 20),
)
def test_eventually_stationary_counts_are_exact_before_the_switch(script, switch, pos, length):
    # The script plays actions 0 and 1 only and the stationary part plays
    # only action 2, so the histogram shows the two parts apart.
    pol = EventuallyStationaryPolicy(ScriptedPolicy(script, 3), switch, [0.0, 0.0, 1.0], rng())
    pol.act_counts(pos)
    pre_len = min(max(switch - pos, 0), length)
    pre = [script[min(r, len(script) - 1)] for r in range(pos, pos + pre_len)]
    counts = pol.act_counts(length)
    assert counts[:2].tolist() == [pre.count(0), pre.count(1)]
    assert counts[2] == length - pre_len
    assert counts.sum() == length and pol.round == pos + length


# -- fictitious play ------------------------------------------------------------------


def test_fictitious_play_best_responds_to_counts():
    g = rock_paper_scissors()
    pol = FictitiousPlayPolicy(g, 1)
    opponent_script = [0, 0, 0, 1, 2, 0, 0, 1, 1, 0]
    for opp_action in opponent_script:
        my_action = pol.respond_segment([np.array([opp_action]), np.zeros(1, dtype=np.int64)])
        # Replay check: the action is a best response to current counts.
        freqs = [pol.counts[0] / pol.counts[0].sum()]
        assert my_action.tolist() == [pure_action_values(g, 1, freqs).argmax()]
        pol.observe_segment([np.array([opp_action]), my_action])


def test_fictitious_play_best_responds_in_three_player_games():
    # Unequal action counts, so contracting the counts against the wrong
    # axes cannot go unnoticed.
    gen = np.random.default_rng(11)
    for _ in range(20):
        g = StageGame(gen.normal(size=(3, 2, 3, 4)))
        counts = [gen.integers(1, 9, size=2).astype(float), gen.integers(1, 9, size=4).astype(float)]
        pol = FictitiousPlayPolicy(g, 1, initial_counts=counts)
        expected = pure_action_values(g, 1, [c / c.sum() for c in counts]).argmax()
        assert pol.respond_segment([np.zeros(1, dtype=np.int64)] * 3).tolist() == [expected]


def test_fictitious_play_initial_counts_validation():
    g = matching_pennies()
    with pytest.raises(ValueError):
        FictitiousPlayPolicy(g, 0, initial_counts=[[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        FictitiousPlayPolicy(g, 0, initial_counts=[[0.0, 0.0]])
    with pytest.raises(ValueError):
        FictitiousPlayPolicy(g, 0, initial_counts=[[1.0, 1.0], [1.0, 1.0]])


def test_fictitious_play_is_history_dependent():
    g = matching_pennies()
    assert FictitiousPlayPolicy(g, 0).history_dependent
    assert not StationaryPolicy([0.5, 0.5], rng()).history_dependent


def test_fictitious_play_answers_a_whole_segment():
    # Player 0 of matching pennies (it wins on a match) against T, H, H, T,
    # H, H from one count of each: one call answers all six rounds, each
    # from the counts of the rounds before it, and observing the segment
    # adds it to the counts.
    pol = FictitiousPlayPolicy(matching_pennies(), 0)
    other = np.array([1, 0, 0, 1, 0, 0], dtype=np.int64)
    assert pol.respond_segment([np.zeros(6, dtype=np.int64), other]).tolist() == [0, 1, 0, 0, 0, 0]
    assert pol.respond_segment([np.zeros(0, dtype=np.int64)] * 2).tolist() == []
    pol.observe_segment([np.zeros(6, dtype=np.int64), other])
    assert pol.counts[0].tolist() == [5.0, 3.0]


def test_eventually_stationary_fictitious_pre_switches_at_switch_round():
    # Fictitious play as player 1 of RPS against a scripted Rock: it plays
    # Paper from its first round, so every pre-switch round is Paper and the
    # stationary post policy (pure Scissors) takes over exactly at round 7,
    # inside the second of two segments.
    g = rock_paper_scissors()
    pre = FictitiousPlayPolicy(g, 1, initial_counts=[[2.0, 1.0, 1.0]])
    pol = EventuallyStationaryPolicy(pre, 7, [0.0, 0.0, 1.0], rng(4))
    assert pol.history_dependent
    seen = []
    for length in (4, 8):
        joint = [np.zeros(length, dtype=np.int64), np.zeros(length, dtype=np.int64)]
        joint[1] = pol.respond_segment(joint)
        seen += joint[1].tolist()
        pol.observe_segment(joint)
    assert seen == [1] * 7 + [2] * 5
    assert pre.counts[0].tolist() == [9.0, 1.0, 1.0]  # observed the 7 pre-switch rounds only


def fictitious_by_rounds(game, player, counts, others):
    """Reference: fictitious play one round at a time, adding each round's
    action to a copy of ``counts`` and contracting one weight vector per
    opponent.  ``others`` holds each opponent's actions; returns the
    actions and the final counts."""
    counts = [c.copy() for c in counts]
    actions = []
    for r in range(len(others[0])):
        actions.append(int(np.argmax(game.action_values(player, counts))))
        for c, acts in zip(counts, others):
            c[acts[r]] += 1.0
    return actions, counts


@st.composite
def fictitious_cases(draw):
    """A 2- or 3-player game with 3-decimal payoffs, or payoffs on a coarse
    integer grid so that actions often tie exactly, a player, non-integer
    initial counts, the other players' actions and where to cut them into
    segments."""
    shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    size = len(shape) * int(np.prod(shape))
    scale = draw(st.sampled_from([1000, 1]))
    payoffs = draw(st.lists(st.integers(-2 * scale, 2 * scale), min_size=size, max_size=size))
    game = StageGame(np.reshape(np.array(payoffs) / scale, [len(shape)] + shape))
    player = draw(st.integers(0, len(shape) - 1))
    counts = [
        np.array(draw(st.lists(st.integers(1, 3000), min_size=k, max_size=k))) / 1000
        for q, k in enumerate(shape)
        if q != player
    ]
    rounds = draw(st.integers(0, 40))
    joint = [
        np.array(draw(st.lists(st.integers(0, k - 1), min_size=rounds, max_size=rounds)), dtype=np.int64)
        for k in shape
    ]
    cuts = sorted(draw(st.lists(st.integers(0, rounds), max_size=3)))
    return game, player, counts, joint, [0, *cuts, rounds]


def play_segments(pol, player, joint, bounds):
    """Play ``joint`` through ``pol`` in the segments between ``bounds``,
    one respond_segment and one observe_segment each; returns its actions."""
    played = []
    for lo, hi in zip(bounds, bounds[1:]):
        seg = [a[lo:hi] for a in joint]
        seg[player] = pol.respond_segment(seg)
        played += seg[player].tolist()
        pol.observe_segment(seg)
    return played


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fictitious_cases())
def test_fictitious_play_segments_play_and_count_as_rounds_do(case):
    game, player, counts, joint, bounds = case
    others = [a for q, a in enumerate(joint) if q != player]
    want, want_counts = fictitious_by_rounds(game, player, counts, others)
    pol = FictitiousPlayPolicy(game, player, initial_counts=counts)
    assert play_segments(pol, player, joint, bounds) == want
    assert [c.tobytes() for c in pol.counts] == [c.tobytes() for c in want_counts]


@pytest.mark.parametrize("length", [1, 4])
def test_fictitious_play_counts_the_actions_it_observes(length):
    # With two or more responders, one answers while another's actions are
    # still placeholders, and the trial writes every answer into the same
    # arrays before the segment is observed: the counts must come from the
    # actions observed.
    pol = FictitiousPlayPolicy(rock_paper_scissors(), 1, initial_counts=[[0.5, 0.25, 0.125]])
    joint = [np.zeros(length, dtype=np.int64), np.zeros(length, dtype=np.int64)]
    joint[1][:] = pol.respond_segment(joint)
    joint[0][:] = [2, 1, 2, 2][:length]
    pol.observe_segment(joint)
    _, want = fictitious_by_rounds(rock_paper_scissors(), 1, [np.array([0.5, 0.25, 0.125])], [joint[0]])
    assert [c.tobytes() for c in pol.counts] == [c.tobytes() for c in want]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fictitious_cases(), st.integers(0, 40), st.integers(0, 2**32))
def test_eventually_stationary_fictitious_segments_play_as_rounds_do(case, switch, seed):
    # The same policy played in segments and one round at a time, with the
    # switch anywhere, inside a segment included.
    game, player, counts, joint, bounds = case
    probs = np.full(game.action_counts[player], 1 / game.action_counts[player])

    def policy():
        pre = FictitiousPlayPolicy(game, player, initial_counts=counts)
        return pre, EventuallyStationaryPolicy(pre, switch, probs, rng(seed))

    pre_a, a = policy()
    pre_b, b = policy()
    rounds = len(joint[0])
    assert play_segments(a, player, joint, bounds) == play_segments(b, player, joint, list(range(rounds + 1)))
    assert [c.tobytes() for c in pre_a.counts] == [c.tobytes() for c in pre_b.counts]
    others = [x[: min(switch, rounds)] for q, x in enumerate(joint) if q != player]
    _, want_counts = fictitious_by_rounds(game, player, counts, others)
    assert [c.tobytes() for c in pre_a.counts] == [c.tobytes() for c in want_counts]


# -- fictitious play in integers ------------------------------------------------------


def respond_and_observe(pol, player, actions, chunk=None):
    """Reference for ``respond_counts``: the histogram of ``pol``'s
    respond_segment answers while its one opponent plays ``actions``,
    observed with observe_segment, in chunks of at most ``chunk`` rounds
    (segments play as rounds do)."""
    hist = np.zeros(pol.game.action_counts[player], dtype=np.int64)
    chunk = chunk or max(len(actions), 1)
    for lo in range(0, len(actions), chunk):
        joint = [actions[lo : lo + chunk], actions[lo : lo + chunk]]
        joint[player] = pol.respond_segment(joint)
        hist += np.bincount(joint[player], minlength=len(hist))
        pol.observe_segment(joint)
    return hist.tolist()


@st.composite
def integer_segments(draw, constant=False):
    """A two-player game of 1-4 actions each with payoffs in -3..3, so that
    actions often tie, a player, integer initial counts with zeros among
    them, and 1-4 consecutive segments of the opponent's actions, each of
    0-4,096 rounds: one action throughout, uniform draws, or a few long
    stretches; only the first when ``constant``."""
    shape = [draw(st.integers(1, 4)), draw(st.integers(1, 4))]
    size = 2 * shape[0] * shape[1]
    payoffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    game = StageGame(np.reshape(np.array(payoffs, dtype=np.float64), [2, *shape]))
    player = draw(st.integers(0, 1))
    k = shape[1 - player]
    counts = draw(st.lists(st.integers(0, 60), min_size=k, max_size=k).filter(any))
    kinds = st.just("constant") if constant else st.sampled_from(["constant", "uniform", "stretches"])
    segments = []
    for kind, length, seed in draw(st.lists(st.tuples(kinds, st.integers(0, 4096), st.integers(0, 2**32)), min_size=1, max_size=4)):
        g = rng(seed)
        if kind == "constant":
            segments.append(np.full(length, g.integers(k), dtype=np.int64))
        elif kind == "uniform":
            segments.append(g.integers(0, k, size=length))
        else:
            segments.append(np.repeat(g.integers(0, k, size=4), np.diff([0, *sorted(g.integers(0, length + 1, size=3)), length])))
    return game, player, [np.array(counts, dtype=np.float64)], segments


def answers_as_columns(case):
    game, player, counts, segments = case
    ints = FictitiousPlayPolicy(game, player, initial_counts=counts)
    columns = FictitiousPlayPolicy(game, player, initial_counts=counts)
    for actions in segments:
        joint = [actions, actions]
        joint[player] = None
        assert ints.respond_counts(joint) == respond_and_observe(columns, player, actions)
        assert ints.counts[0].tobytes() == columns.counts[0].tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_segments(constant=True))
def test_fictitious_play_answers_a_constant_stretch_in_runs_as_in_columns(case):
    answers_as_columns(case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_segments())
def test_fictitious_play_answers_any_segment_in_integers_as_in_columns(case):
    answers_as_columns(case)


def test_fictitious_play_answers_a_million_rounds_in_runs():
    # Player 1 against action 0, from counts (0, 600000): its three actions
    # tie at round 600000, and the first wins it; from round 600001 on the
    # last one does.
    u1 = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, -1.0]])  # player 1's payoffs, its own action first
    game = StageGame(np.stack([np.zeros((2, 3)), u1.T]))
    counts = [np.array([0.0, 600_000.0])]
    runs = FictitiousPlayPolicy(game, 1, initial_counts=counts)
    columns = FictitiousPlayPolicy(game, 1, initial_counts=counts)
    actions = np.zeros(10**6, dtype=np.int64)
    hist = runs.respond_counts([actions, None])
    assert hist == [600_001, 0, 399_999]
    assert hist == respond_and_observe(columns, 1, actions, chunk=2**16)
    assert runs.counts[0].tolist() == [1e6, 6e5]
    assert runs.counts[0].tobytes() == columns.counts[0].tobytes()


@pytest.mark.parametrize(
    "payoffs, counts, length",
    [
        pytest.param(matching_pennies().payoffs / 2, [1.0, 1.0], 10, id="non-integer-payoffs"),
        pytest.param(matching_pennies().payoffs, [0.5, 1.5], 10, id="non-integer-counts"),
        pytest.param(matching_pennies().payoffs, [2.0**53 - 2, 0.0], 10, id="past-2**53"),
    ],
)
def test_fictitious_play_leaves_a_stretch_it_cannot_answer_exactly(payoffs, counts, length):
    pol = FictitiousPlayPolicy(StageGame(payoffs), 1, initial_counts=[counts])
    before = pol.counts
    for actions in (np.zeros(length, dtype=np.int64), np.arange(length) % 2):  # one action, and both
        assert pol.respond_counts([actions, None]) is None
        assert pol.counts is before and pol.counts[0].tolist() == counts


def test_fictitious_play_leaves_a_stretch_with_two_opponents_to_the_columns():
    game = StageGame(np.ones((3, 2, 2, 2)))
    actions = np.zeros(10, dtype=np.int64)
    assert FictitiousPlayPolicy(game, 0).respond_counts([None, actions, actions]) is None


def test_fictitious_play_in_runs_leaves_its_seeded_copies_original_as_it_was():
    # A trial plays a seeded copy of the parsed policy, which shares its counts.
    parsed = FictitiousPlayPolicy(matching_pennies(), 1)
    copy = parsed.seeded(np.random.SeedSequence(0))
    assert copy.respond_counts([np.zeros(5, dtype=np.int64), None]) == [1, 4]  # a tie in its first round, then T
    assert copy.counts[0].tolist() == [6.0, 1.0] and parsed.counts[0].tolist() == [1.0, 1.0]
    assert copy.respond_counts([np.array([1, 1, 1, 1, 1, 0]), None]) == [1, 5]  # in integers: T, then a tie in round 5
    assert copy.counts[0].tolist() == [7.0, 6.0] and parsed.counts[0].tolist() == [1.0, 1.0]


def test_fictitious_play_rejects_counts_whose_values_overflow():
    # Each count is finite, but 2 * 1e308 * 1e308 as a value is not.
    with pytest.raises(ValueError, match="initial_counts overflow"):
        FictitiousPlayPolicy(StageGame(2 * matching_pennies().payoffs), 1, initial_counts=[[1e308, 1e308]])
    FictitiousPlayPolicy(StageGame(2 * matching_pennies().payoffs), 1, initial_counts=[[1e150, 1e150]])


def test_fictitious_play_checks_its_default_counts_for_overflow():
    # Without initial_counts it counts one of each action, and 1e308 + 1e308
    # as a value is not finite either.
    game = StageGame(np.full((2, 2, 2), 1e308))
    with pytest.raises(ValueError, match="initial_counts overflow"):
        FictitiousPlayPolicy(game, 1)
    FictitiousPlayPolicy(StageGame(np.full((2, 2, 2), 1e307)), 1)
