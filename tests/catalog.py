"""Small catalog of textbook games used in tests."""
from __future__ import annotations

import numpy as np

from repgame.games import StageGame


def matching_pennies() -> StageGame:
    u0 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return StageGame(np.stack([u0, -u0]), action_names=(("H", "T"), ("H", "T")))


def rock_paper_scissors() -> StageGame:
    # +1 win, -1 loss, 0 tie; row player 0, actions R, P, S.
    u0 = np.array(
        [
            [0.0, -1.0, 1.0],
            [1.0, 0.0, -1.0],
            [-1.0, 1.0, 0.0],
        ]
    )
    names = (("R", "P", "S"), ("R", "P", "S"))
    return StageGame(np.stack([u0, -u0]), action_names=names)


def prisoners_dilemma(t: float = 5.0, r: float = 3.0, p: float = 1.0, s: float = 0.0) -> StageGame:
    u0 = np.array([[r, s], [t, p]])
    u1 = u0.T
    names = (("C", "D"), ("C", "D"))
    return StageGame(np.stack([u0, u1]), action_names=names)


def battle_of_sexes() -> StageGame:
    u0 = np.array([[2.0, 0.0], [0.0, 1.0]])
    u1 = np.array([[1.0, 0.0], [0.0, 2.0]])
    names = (("O", "F"), ("O", "F"))
    return StageGame(np.stack([u0, u1]), action_names=names)


def coordination_3p() -> StageGame:
    """Three players, two actions; payoff 1 to everyone iff all actions match."""
    u = np.zeros((3, 2, 2, 2))
    u[:, 0, 0, 0] = 1.0
    u[:, 1, 1, 1] = 1.0
    return StageGame(u)
