import itertools

import numpy as np
import pytest

from repgame.equilibrium import (
    EquilibriumUnavailableError,
    compute_equilibrium,
    enumerate_pure_nash,
    support_enumeration_2p,
)
from repgame.games import StageGame, regret

from catalog import (
    battle_of_sexes,
    coordination_3p,
    matching_pennies,
    prisoners_dilemma,
    rock_paper_scissors,
)


def three_player_no_pure_ne() -> StageGame:
    # Players 0 and 1 play a zero-sum coin-matching game between themselves;
    # player 2 is a payoff-indifferent bystander. No pure profile is stable.
    u0 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    payoffs = np.zeros((3, 2, 2, 2))
    payoffs[0] = u0[:, :, None]
    payoffs[1] = -u0[:, :, None]
    return StageGame(payoffs)


# -- pure enumeration ----------------------------------------------------------


def test_pure_nash_prisoners_dilemma():
    assert enumerate_pure_nash(prisoners_dilemma()) == [(1, 1)]


def test_pure_nash_matching_pennies_empty():
    assert enumerate_pure_nash(matching_pennies()) == []


def test_pure_nash_battle_of_sexes_lexicographic():
    assert enumerate_pure_nash(battle_of_sexes()) == [(0, 0), (1, 1)]


def test_pure_nash_is_non_strict():
    # A constant game: every profile is a (weak) equilibrium.
    g = StageGame(np.zeros((2, 2, 2)))
    assert enumerate_pure_nash(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]


# -- support enumeration ----------------------------------------------------------


def test_support_enumeration_matching_pennies():
    profiles = support_enumeration_2p(matching_pennies())
    first = profiles[0]
    np.testing.assert_allclose(first.strategies[0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(first.strategies[1], [0.5, 0.5], atol=1e-12)


def test_support_enumeration_bos_first_is_pure_oo():
    profiles = support_enumeration_2p(battle_of_sexes())
    first = profiles[0]
    np.testing.assert_allclose(first.strategies[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(first.strategies[1], [1.0, 0.0], atol=1e-12)


def test_support_enumeration_bos_contains_mixed():
    profiles = support_enumeration_2p(battle_of_sexes())
    found = any(
        np.allclose(p.strategies[0], [2 / 3, 1 / 3], atol=1e-9)
        and np.allclose(p.strategies[1], [1 / 3, 2 / 3], atol=1e-9)
        for p in profiles
    )
    assert found


def test_support_enumeration_rps_uniform():
    profiles = support_enumeration_2p(rock_paper_scissors())
    found = any(
        np.allclose(p.strategies[0], np.full(3, 1 / 3), atol=1e-9)
        and np.allclose(p.strategies[1], np.full(3, 1 / 3), atol=1e-9)
        for p in profiles
    )
    assert found


def test_support_enumeration_profiles_all_verified():
    for game in (matching_pennies(), battle_of_sexes(), rock_paper_scissors()):
        for prof in support_enumeration_2p(game):
            for p in range(2):
                assert regret(game, prof.strategies, p) <= 1e-9


def _grid_equilibrium_mask_2x2(game: StageGame, step: float = 1e-3, tol: float = 2e-3):
    """Brute-force oracle: grid of (p, q) that are approximate equilibria.

    p = P(player 0 plays action 0), q likewise for player 1; returns the
    grid vector and a boolean matrix indexed [p, q].
    """
    grid = np.arange(0.0, 1.0 + step / 2, step)
    u0, u1 = game.payoffs[0], game.payoffs[1]
    q_strat = np.stack([grid, 1 - grid])  # (2, Q)
    p_strat = np.stack([grid, 1 - grid])  # (2, P)
    v0 = u0 @ q_strat  # (2, Q): value of each pure action vs q
    gap0 = v0.max(axis=0)[None, :] - p_strat.T @ v0  # (P, Q)
    v1 = p_strat.T @ u1  # (P, 2)
    gap1 = v1.max(axis=1)[:, None] - v1 @ q_strat  # (P, Q)
    return grid, (gap0 <= tol) & (gap1 <= tol)


def test_random_2x2_games_against_grid_oracle():
    rng = np.random.default_rng(123)
    for _ in range(25):
        payoffs = rng.integers(-2, 3, size=(2, 2, 2)).astype(np.float64)
        game = StageGame(payoffs)
        profiles = support_enumeration_2p(game)
        assert profiles, "existence: every 2x2 game has an equilibrium"
        first = profiles[0]
        for p in range(2):
            assert regret(game, first.strategies, p) <= 1e-9
        # The solver's equilibrium appears (to grid resolution) in the oracle set.
        grid, mask = _grid_equilibrium_mask_2x2(game)
        p0, q0 = first.strategies[0][0], first.strategies[1][0]
        near_p = np.abs(grid - p0) <= 2e-3
        near_q = np.abs(grid - q0) <= 2e-3
        assert mask[np.ix_(near_p, near_q)].any()


# -- compute_equilibrium -------------------------------------------------------------


def test_compute_matching_pennies():
    eq = compute_equilibrium(matching_pennies())
    np.testing.assert_allclose(eq.strategies[0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(eq.strategies[1], [0.5, 0.5], atol=1e-12)
    assert eq.provenance == "support-enumeration-2p"


def test_compute_three_player_coordination_pure():
    eq = compute_equilibrium(coordination_3p())
    for s in eq.strategies:
        np.testing.assert_array_equal(s, [1.0, 0.0])
    assert eq.kind == "pure"


def test_compute_override_passthrough():
    g = battle_of_sexes()
    override = (np.array([2 / 3, 1 / 3]), np.array([1 / 3, 2 / 3]))
    eq = compute_equilibrium(g, override)
    assert eq.kind == "mixed" and eq.provenance == "user-supplied"
    for got, given in zip(eq.strategies, override):
        assert np.asarray(got).tobytes() == given.tobytes()
    # The floats the epoch step reads, as tuples (a list never equals one): no caller edits them in place.
    assert eq.strategy_floats == tuple(tuple(s.tolist()) for s in override)


def test_compute_override_kind_follows_its_strategies():
    eq = compute_equilibrium(battle_of_sexes(), ([1.0, 0.0], [1.0, 0.0]))
    assert eq.kind == "pure" and eq.provenance == "user-supplied"


def test_compute_rejects_bad_override():
    g = battle_of_sexes()
    bad = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        compute_equilibrium(g, bad)


def test_compute_rejects_override_with_extra_strategies():
    with pytest.raises(ValueError, match="one strategy per player"):
        compute_equilibrium(battle_of_sexes(), ([1.0, 0.0], [1.0, 0.0], [1.0, 0.0]))


def test_compute_three_player_without_pure_ne_raises():
    with pytest.raises(EquilibriumUnavailableError):
        compute_equilibrium(three_player_no_pure_ne())


def test_compute_is_deterministic_bitwise():
    g = rock_paper_scissors()
    a = compute_equilibrium(g)
    b = compute_equilibrium(g)
    for sa, sb in zip(a.strategies, b.strategies):
        assert sa.tobytes() == sb.tobytes()


def test_support_order_by_total_size_then_lex():
    # In a game where several supports work, the first returned profile
    # must come from the smallest total support size.
    g = StageGame(np.zeros((2, 2, 2)))  # constant: everything is an equilibrium
    first = support_enumeration_2p(g)[0]
    np.testing.assert_array_equal(first.strategies[0], [1.0, 0.0])
    np.testing.assert_array_equal(first.strategies[1], [1.0, 0.0])
