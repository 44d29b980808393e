import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgame.games import (
    StageGame,
    as_strategy,
    draw_actions,
    expected_utility,
    linf_distance,
    pure_action_values,
    pure_strategy,
    regret,
)

from catalog import (
    coordination_3p,
    matching_pennies,
    prisoners_dilemma,
    rock_paper_scissors,
)
from repgame.harness import agent_stream
from repgame.learner import STREAM_PLAY


# -- hypothesis strategies ----------------------------------------------------


def random_game(rng: np.random.Generator, n_players: int, n_actions: int) -> StageGame:
    shape = (n_players,) + (n_actions,) * n_players
    return StageGame(rng.uniform(-5, 5, size=shape))


def simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    x = rng.exponential(size=k)
    return x / x.sum()


prob_vectors = st.integers(2, 4).flatmap(
    lambda k: st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)
).map(lambda xs: np.asarray(xs) / np.sum(xs))


# -- expected_utility ----------------------------------------------------------


def test_expected_utility_matching_pennies_pure_vs_mixed():
    g = matching_pennies()
    assert expected_utility(g, 0, pure_strategy(0, 2), [[0.7, 0.3]]) == pytest.approx(0.4)


def test_expected_utility_uniform_own_is_zero():
    g = matching_pennies()
    for opp in ([0.3, 0.7], [1.0, 0.0], [0.55, 0.45]):
        assert expected_utility(g, 0, [0.5, 0.5], [opp]) == pytest.approx(0.0)


def test_expected_utility_three_player_coordination():
    g = coordination_3p()
    val = expected_utility(g, 0, pure_strategy(0, 2), [[0.5, 0.5], [0.5, 0.5]])
    assert val == pytest.approx(0.25)


def test_expected_utility_rejects_dimension_mismatch():
    g = matching_pennies()
    with pytest.raises(ValueError):
        expected_utility(g, 0, [0.5, 0.3, 0.2], [[0.5, 0.5]])
    with pytest.raises(ValueError):
        expected_utility(g, 0, [0.5, 0.5], [[0.5, 0.3, 0.2]])


def test_expected_utility_linearity_in_own_strategy():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        g = random_game(rng, n, k)
        own = simplex(rng, k)
        others = [simplex(rng, k) for _ in range(n - 1)]
        mixed = expected_utility(g, 0, own, others)
        decomposed = sum(
            own[a] * expected_utility(g, 0, pure_strategy(a, k), others)
            for a in range(k)
        )
        assert mixed == pytest.approx(decomposed, abs=1e-10)


def test_monte_carlo_payoff_oracle():
    # Sampled mean payoff agrees with exact enumeration within 4 standard errors.
    rng = np.random.default_rng(2024)
    g = rock_paper_scissors()
    own = np.array([0.2, 0.5, 0.3])
    opp = np.array([0.5, 0.3, 0.2])
    n = 10**6
    a0 = rng.choice(3, size=n, p=own)
    a1 = rng.choice(3, size=n, p=opp)
    samples = g.payoffs[0][a0, a1]
    exact = expected_utility(g, 0, own, [opp])
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - exact) <= 4 * se


# -- the payoff contraction -----------------------------------------------------


def mixed(k: int):
    weights = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(lambda w: sum(w) > 0)
    return weights.map(lambda w: np.asarray(w) / np.sum(w))


@st.composite
def games_and_profiles(draw):
    n = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    size = n * int(np.prod(counts))
    payoffs = draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))
    game = StageGame(np.reshape(payoffs, [n] + counts))
    return game, [draw(mixed(k)) for k in counts]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(games_and_profiles())
def test_values_equal_the_sum_over_every_joint_profile(case):
    game, profile = case
    for p in range(game.num_players):
        values = np.zeros(game.action_counts[p])
        for joint in np.ndindex(*game.action_counts):
            weight = np.prod([s[a] for q, (s, a) in enumerate(zip(profile, joint)) if q != p])
            values[joint[p]] += game.payoffs[p][joint] * weight
        own = float(profile[p] @ values)
        others = profile[:p] + profile[p + 1 :]
        np.testing.assert_allclose(pure_action_values(game, p, others), values, rtol=0, atol=1e-12)
        assert expected_utility(game, p, profile[p], others) == pytest.approx(own, rel=0, abs=1e-12)
        assert regret(game, profile, p) == pytest.approx(values.max() - own, rel=0, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(games_and_profiles(), st.data())
def test_values_against_counts_scale_by_the_count_totals(case, data):
    # Fictitious play ranks actions by their values against raw counts.
    game, _ = case
    for p in range(game.num_players):
        counts = [
            np.asarray(data.draw(st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any)), dtype=float)
            for q, k in enumerate(game.action_counts)
            if q != p
        ]
        scale = np.prod([c.sum() for c in counts])
        freqs = [c / c.sum() for c in counts]
        np.testing.assert_allclose(
            game.action_values(p, counts), scale * game.action_values(p, freqs), rtol=0, atol=1e-12 * scale
        )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_column_form_values_equal_the_one_vector_values_bit_for_bit(data):
    # Fictitious play values a whole segment at once, one column of running
    # counts per round; each column must rank actions as the 1-D form does.
    shape = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    size = len(shape) * int(np.prod(shape))
    payoffs = data.draw(st.lists(st.integers(-2000, 2000), min_size=size, max_size=size))
    game = StageGame(np.reshape(np.array(payoffs) / 1000, [len(shape)] + shape))
    rows = data.draw(st.integers(0, 30))
    for p in range(game.num_players):
        weights = [
            np.reshape(data.draw(st.lists(st.floats(0.0, 100.0), min_size=rows * k, max_size=rows * k)), (k, rows))
            for q, k in enumerate(shape)
            if q != p
        ]
        values = game.action_values(p, weights)
        assert values.shape == (shape[p], rows)
        for r in range(rows):
            assert values[:, r].tobytes() == game.action_values(p, [w[:, r] for w in weights]).tobytes()
            assert values[:, r].tobytes() == game.action_values(p, [w[:, r].tolist() for w in weights]).tobytes()


def values_in_index_order(game, p, weights):
    """Reference: the contraction written out on Python floats, every
    opponent's actions summed in index order, later opponents innermost."""

    def contract(t, depth):
        if depth == len(weights):
            return t
        w = weights[depth]
        total = contract(t[0], depth + 1) * w[0]
        for j in range(1, len(w)):
            total = total + contract(t[j], depth + 1) * w[j]
        return total

    return [contract(t, 0) for t in np.moveaxis(game.payoffs[p], p, 0).tolist()]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(games_and_profiles())
def test_values_sum_each_opponents_actions_in_index_order(case):
    # One fixed order, so the 1-D and column forms agree by construction; a
    # BLAS product or numpy's pairwise sum may add in another order.
    game, profile = case
    for p in range(game.num_players):
        others = [s.tolist() for q, s in enumerate(profile) if q != p]
        want = np.array(values_in_index_order(game, p, others))
        assert game.action_values(p, others).tobytes() == want.tobytes()
        # The learner's epoch rule computes on in the 1-D form's plain floats.
        values = game.action_value_list(p, others)
        assert {type(v) for v in values} == {float} and np.array(values).tobytes() == want.tobytes()
        columns = game.action_values(p, [np.array(s)[:, None] for s in others])
        assert columns[:, 0].tobytes() == want.tobytes()


def test_value_list_of_a_one_player_game_is_its_payoffs():
    game = StageGame([[1.0, -3.0, 2.5]])
    values = game.action_value_list(0, [])
    assert values == [1.0, -3.0, 2.5] and type(values[0]) is float
    values[0] = 9.0  # a list of the caller's own
    assert game.action_value_list(0, []) == [1.0, -3.0, 2.5]


# -- drawing actions from a strategy ------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 906, 3454])
def test_a_pure_strategy_draws_what_choice_draws(k, n):
    # A pure strategy advances the stream past n doubles instead of drawing
    # them.  ``advance`` also drops PCG64's buffered half of a 64-bit draw,
    # which only a 32-bit draw leaves: a play stream draws doubles alone, and
    # so do these streams before the draw.
    for seed in (0, 9, 97):
        for action in range(k):
            for probs in (pure_strategy(action, k), pure_strategy(action, k).tolist()):
                fast, slow = agent_stream(seed, 1, 0, STREAM_PLAY), agent_stream(seed, 1, 0, STREAM_PLAY)
                for g in (fast, slow):
                    g.choice(k, size=5, p=np.full(k, 1 / k))  # an earlier epoch's draws
                got, want = draw_actions(fast, probs, n), slow.choice(k, size=n, p=probs)
                assert (got.dtype, want.dtype) == (np.int64, np.int64)
                assert got.tolist() == want.tolist() == [action] * n
                assert fast.bit_generator.state == slow.bit_generator.state, (seed, action, probs)


@pytest.mark.parametrize(
    "probs, bit_generator",
    [
        ([0.5, 0.5], np.random.PCG64),
        ([0.25, 0.0, 0.75], np.random.PCG64),
        # Philox's advance counts blocks of four draws, and MT19937 has none.
        ([0.0, 1.0], np.random.Philox),
        ([0.0, 1.0], np.random.MT19937),
    ],
    ids=["mixed", "mixed-with-a-zero", "pure-on-philox", "pure-on-mt19937"],
)
def test_other_strategies_and_streams_draw_through_choice(probs, bit_generator):
    fast, slow = (np.random.Generator(bit_generator(np.random.SeedSequence(9))) for _ in range(2))
    for n in (0, 1, 33, 906):
        got, want = draw_actions(fast, probs, n), slow.choice(len(probs), size=n, p=probs)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert fast.random(8).tolist() == slow.random(8).tolist()  # Philox's and MT19937's states hold arrays


# -- best responses: the first maximiser of pure_action_values ----------------------


def test_best_response_rps_vs_skewed_opponent():
    values = pure_action_values(rock_paper_scissors(), 0, [[0.5, 0.3, 0.2]])
    assert values.argmax() == 1  # Paper
    assert values == pytest.approx([-0.1, 0.3, -0.2])


def test_best_response_tie_breaks_to_lowest_index():
    values = pure_action_values(matching_pennies(), 0, [[0.5, 0.5]])
    assert (values.argmax(), values.max()) == (0, pytest.approx(0.0))


def test_best_response_dominant_defect():
    g = prisoners_dilemma()
    for w in np.linspace(0.0, 1.0, 11):
        assert pure_action_values(g, 0, [[w, 1 - w]]).argmax() == 1  # Defect


def test_best_response_dominates_every_pure_action():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        g = random_game(rng, n, k)
        others = [simplex(rng, k) for _ in range(n - 1)]
        value = pure_action_values(g, 0, others).max()
        for a in range(k):
            assert value >= expected_utility(g, 0, pure_strategy(a, k), others) - 1e-12


# -- linf_distance -----------------------------------------------------------------


def test_linf_distance_examples():
    assert linf_distance([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.1)
    assert linf_distance([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert linf_distance([1, 0, 0], [0, 0, 1]) == 1.0


def test_linf_distance_rejects_length_mismatch():
    with pytest.raises(ValueError):
        linf_distance([0.5, 0.5], [1.0, 0.0, 0.0])


@settings(max_examples=100)
@given(prob_vectors, prob_vectors, prob_vectors)
def test_linf_distance_symmetry_and_triangle(p, q, r):
    k = min(len(p), len(q), len(r))
    p, q, r = p[:k] / p[:k].sum(), q[:k] / q[:k].sum(), r[:k] / r[:k].sum()
    assert linf_distance(p, q) == linf_distance(q, p)
    assert linf_distance(p, r) <= linf_distance(p, q) + linf_distance(q, r) + 1e-12
    assert 0.0 <= linf_distance(p, q) <= 1.0


# -- payoff_ranges / regret -----------------------------------------------------------


def test_payoff_range_examples():
    assert matching_pennies().payoff_ranges == (2.0, 2.0)
    assert prisoners_dilemma().payoff_ranges[0] == 5.0
    assert StageGame(np.full((2, 2, 2), 7.0)).payoff_ranges == (0.0, 0.0)
    assert all(type(r) is float for r in rock_paper_scissors().payoff_ranges)


def test_regret_examples():
    mp = matching_pennies()
    uniform = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    assert regret(mp, uniform, 0) == pytest.approx(0.0, abs=1e-12)
    assert regret(mp, uniform, 1) == pytest.approx(0.0, abs=1e-12)
    pd = prisoners_dilemma()
    cc = [pure_strategy(0, 2), pure_strategy(0, 2)]
    assert regret(pd, cc, 0) == pytest.approx(2.0)
    assert regret(pd, cc, 1) == pytest.approx(2.0)
    skew = [pure_strategy(0, 2), np.array([0.5, 0.5])]
    assert regret(mp, skew, 1) == pytest.approx(1.0)
    assert regret(mp, skew, 0) == pytest.approx(0.0, abs=1e-12)


def test_regret_nonnegative_on_random_profiles():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        g = random_game(rng, n, k)
        profile = [simplex(rng, k) for _ in range(n)]
        for p in range(n):
            assert regret(g, profile, p) >= -1e-12


# -- type invariants -----------------------------------------------------------------


def test_strategy_validation():
    assert as_strategy([0.5, 0.5]).sum() == 1.0
    with pytest.raises(ValueError):
        as_strategy([0.5, 0.6])
    with pytest.raises(ValueError):
        as_strategy([-0.1, 1.1])
    with pytest.raises(ValueError):
        as_strategy([np.nan, 1.0])


def test_stage_game_copies_the_callers_payoffs():
    a = matching_pennies().payoffs.copy()
    g = StageGame(a)
    assert a.flags.writeable and g.payoffs is not a
    a[0, 0, 0] = 5.0
    assert g.payoffs[0, 0, 0] == 1.0


def test_stage_game_rejects_a_payoff_range_that_overflows():
    # Finite payoffs whose max - min is not: matching pennies at ±1e308 would give
    # μ = inf, and every epoch record a margin of Infinity, which JSON cannot hold.
    with pytest.raises(ValueError, match="payoff range of player 0 is not finite"):
        StageGame(matching_pennies().payoffs * 1e308)
    one_sided = np.where(matching_pennies().payoffs > 0, 1e308, 0.0)
    assert StageGame(one_sided).payoff_ranges == (1e308, 1e308)


def test_stage_game_validation():
    with pytest.raises(ValueError):
        StageGame(np.array([[1.0, np.nan], [0.0, 0.0]])[None].repeat(2, axis=0))
    with pytest.raises(ValueError, match=r"action_names of player 1 must be strings, got \['H', 2\]"):
        StageGame(matching_pennies().payoffs, action_names=(("H", "T"), ("H", 2)))
    with pytest.raises(ValueError, match=r"action_names of player 1 must be a list of names, got 'HT'"):
        StageGame(matching_pennies().payoffs, action_names=(("H", "T"), "HT"))
    with pytest.raises(ValueError, match=r"action_names must be a list per player, got 'HT'"):
        StageGame(matching_pennies().payoffs, action_names="HT")
    g = matching_pennies()
    assert g.num_players == 2
    assert g.action_counts == (2, 2)
    assert g.actions_total == 4
    assert g.payoffs[(0, 0, 0)] == 1.0
