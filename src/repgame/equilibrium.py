"""Deterministic Nash equilibrium precomputation.

All learning agents in a run must agree on one equilibrium, so every
solver here is fully deterministic: identical games yield bit-identical
output.  Two players get support enumeration; three or more get pure
profile enumeration with an explicit error (plus a user override path)
when no pure equilibrium exists.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .games import StageGame, as_strategy, check_numbers, is_pure, pure_strategy, regret

# A candidate profile is accepted only if every player's regret is below this.
REGRET_TOL = 1e-9
# Probabilities from the linear solve may dip this far below zero before
# being clipped and renormalised.
CLIP_TOL = -1e-12


class EquilibriumUnavailableError(RuntimeError):
    """No equilibrium can be computed deterministically; supply an override."""


@dataclass(frozen=True)
class EquilibriumProfile:
    """A verified Nash equilibrium: one strategy per player."""

    strategies: tuple[np.ndarray, ...]
    provenance: str  # "pure-enumeration" | "support-enumeration-2p" | "user-supplied"
    strategy_floats: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)  # as Python floats

    def __post_init__(self):
        frozen = []
        for vec in self.strategies:
            arr = np.asarray(vec, dtype=np.float64).copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "strategies", tuple(frozen))
        object.__setattr__(self, "strategy_floats", tuple(tuple(s.tolist()) for s in frozen))

    @property
    def kind(self) -> str:
        """``pure`` when every strategy is, otherwise ``mixed``."""
        return "pure" if all(is_pure(s) for s in self.strategies) else "mixed"


def is_equilibrium(game: StageGame, strategies) -> bool:
    """Whether every player's regret under ``strategies`` is within REGRET_TOL."""
    return all(
        regret(game, strategies, p) <= REGRET_TOL for p in range(game.num_players)
    )


def enumerate_pure_nash(game: StageGame) -> list[tuple[int, ...]]:
    """All pure Nash profiles in lexicographic order (player 0 slowest).

    Non-strict: a profile survives if no unilateral deviation does
    strictly better.  Returns an empty list when no pure NE exists.
    """
    u = game.payoffs
    best_reply = np.logical_and.reduce(
        [u[p] == u[p].max(axis=p, keepdims=True) for p in range(game.num_players)]
    )
    return [tuple(int(a) for a in profile) for profile in np.argwhere(best_reply)]


def _supports_lex(n_actions: int):
    """All nonempty supports of a player in lexicographic tuple order."""
    supports = []
    for size in range(1, n_actions + 1):
        supports.extend(itertools.combinations(range(n_actions), size))
    supports.sort()
    return supports


def _solve_support(game: StageGame, whose: int, support_own, support_opp):
    """Strategy for ``1 - whose`` making ``whose`` indifferent on its support.

    Builds the indifference-plus-normalisation linear system and solves it
    (least squares when non-square).  Returns None when the system is
    singular or the solution is not a probability vector.
    """
    opp = 1 - whose
    k_own, k_opp = len(support_own), len(support_opp)
    # Unknowns: probability on each opp support action, plus the common value.
    mat = np.zeros((k_own + 1, k_opp + 1))
    rhs = np.zeros(k_own + 1)
    mat[:k_own, :k_opp] = game.own_axis_payoffs[whose][np.ix_(support_own, support_opp)]
    mat[:k_own, k_opp] = -1.0
    mat[k_own, :k_opp] = 1.0
    rhs[k_own] = 1.0
    try:
        if k_own == k_opp:
            sol = np.linalg.solve(mat, rhs)
        else:
            sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return None
    probs = sol[:k_opp]
    if np.any(probs < CLIP_TOL):
        return None
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        return None
    probs = probs / total
    full = np.zeros(game.action_counts[opp])
    full[list(support_opp)] = probs
    return full


def _iter_support_equilibria(game: StageGame):
    if game.num_players != 2:
        raise ValueError("support enumeration requires exactly 2 players")
    c0, c1 = game.action_counts
    sup0_all = _supports_lex(c0)
    sup1_by_size: dict[int, list] = {}
    for s in _supports_lex(c1):
        sup1_by_size.setdefault(len(s), []).append(s)
    for total in range(2, c0 + c1 + 1):
        for s0 in sup0_all:
            k1 = total - len(s0)
            if k1 < 1 or k1 > c1:
                continue
            for s1 in sup1_by_size[k1]:
                pi1 = _solve_support(game, 0, s0, s1)
                if pi1 is None:
                    continue
                pi0 = _solve_support(game, 1, s1, s0)
                if pi0 is None:
                    continue
                strategies = (pi0, pi1)
                if is_equilibrium(game, strategies):
                    yield EquilibriumProfile(strategies, "support-enumeration-2p")


def support_enumeration_2p(game: StageGame) -> list[EquilibriumProfile]:
    """All support-enumeration equilibria of a 2-player game.

    Support pairs are visited by (total support size, lexicographic
    support sets); degenerate indifference systems are skipped.  Every
    returned profile passes the regret check.
    """
    return list(_iter_support_equilibria(game))


def compute_equilibrium(game: StageGame, override=None) -> EquilibriumProfile:
    """The shared equilibrium every learner in a run precomputes.

    Deterministic selection rule: first support-enumeration result for
    2-player games, first lexicographic pure NE otherwise.  An override,
    one strategy per player, takes precedence once it passes the regret
    tolerance; it is ``pure`` when every strategy is.
    """
    if override is not None:
        if not isinstance(override, (list, tuple)) or len(override) != game.num_players:
            raise ValueError(f"equilibrium_override needs one strategy per player ({game.num_players})")
        check_numbers(override, "equilibrium_override")
        strategies = []
        for player, (row, count) in enumerate(zip(override, game.action_counts)):
            try:
                strategies.append(as_strategy(row, count))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"equilibrium_override for player {player}: {exc}") from exc
        if not is_equilibrium(game, strategies):
            raise ValueError(f"equilibrium_override is not an equilibrium: a regret exceeds {REGRET_TOL}")
        return EquilibriumProfile(strategies, "user-supplied")
    if game.num_players == 2:
        for profile in _iter_support_equilibria(game):
            return profile
        raise EquilibriumUnavailableError(
            "support enumeration found no equilibrium; supply an override"
        )
    pure = enumerate_pure_nash(game)
    if not pure:
        raise EquilibriumUnavailableError(
            f"no pure equilibrium in a {game.num_players}-player game; "
            "supply an override (general n-player mixed solving is out of scope)"
        )
    strategies = tuple(pure_strategy(a, c) for a, c in zip(pure[0], game.action_counts))
    return EquilibriumProfile(strategies, "pure-enumeration")
