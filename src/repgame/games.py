"""Finite normal-form stage games and the arithmetic built on them.

A game is a dense payoff tensor ``u[i, a_0, ..., a_{n-1}]`` giving player
``i``'s utility for every joint action profile.  Strategies are plain 1-D
numpy probability vectors.  All operations here are pure functions.  Every
action value comes from one contraction, ``action_values``, which adds its
products in one fixed order whatever the shape of its weights, so its values
do not depend on a BLAS kernel; nor does the learner's value of its strategy,
which ``_dot_rows`` adds in the same order.  ``expected_utility`` and
``regret`` weigh the values with a numpy dot, whose last bits may depend on
the kernel; ``is_equilibrium`` reads regrets only against a tolerance.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Probability vectors must sum to 1 within this tolerance.
PROB_SUM_TOL = 1e-12


def check_numbers(value, name: str) -> None:
    """ValueError naming the first entry of ``value``, a number or nested
    lists of them, that is not an int or a float, so that numpy does not
    read a string or a bool as one; a numpy array of numbers passes whole."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            check_numbers(item, f"{name}[{i}]")
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")


def as_strategy(probs, n_actions: int | None = None) -> np.ndarray:
    """Validate and return a mixed strategy as a float64 vector.

    Raises ValueError for negative entries, a sum away from 1 by more
    than ``PROB_SUM_TOL``, or (when given) a wrong length.
    """
    vec = np.asarray(probs, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"strategy must be a 1-D vector, got shape {vec.shape}")
    if n_actions is not None and vec.shape[0] != n_actions:
        raise ValueError(
            f"strategy has {vec.shape[0]} entries, player has {n_actions} actions"
        )
    if not (vec >= 0).all():  # also false for NaN
        raise ValueError("strategy entries must be nonnegative numbers")
    total = float(vec.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"strategy entries sum to {total!r}, expected 1")
    return vec


def draw_actions(rng: np.random.Generator, probs, n: int) -> np.ndarray:
    """``n`` actions drawn from strategy ``probs``: the int64 array that
    ``rng.choice(len(probs), size=n, p=probs)`` returns, with ``rng`` left
    where that call leaves it.  Split-stable: draws of a and then b rounds
    give the actions of one draw of a + b.

    ``choice`` draws one double a round with ``rng.random`` and maps it
    through the strategy's cdf, normalised by its last entry; this does the
    same without ``choice``'s checks of the strategy on every call, which
    ``as_strategy`` has made once.  A pure strategy's cdf (one entry
    exactly 1.0, the rest 0.0) maps every double to its action, so on a
    PCG64 stream a pure strategy advances the stream n doubles, in
    O(log n), instead of drawing them.  ``advance`` also drops PCG64's
    buffered half of a 64-bit draw, which only a 32-bit draw leaves and a
    stream of doubles never holds.
    """
    values = probs.tolist() if isinstance(probs, np.ndarray) else list(probs)
    if values.count(0.0) == len(values) - 1 and 1.0 in values and isinstance(rng.bit_generator, np.random.PCG64):
        actions = np.full(n, values.index(1.0), dtype=np.int64)
        rng.bit_generator.advance(n)
        return actions
    cdf = np.cumsum(values)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right").astype(np.int64, copy=False)


def pure_strategy(action: int, n_actions: int) -> np.ndarray:
    """Degenerate strategy putting all mass on ``action``."""
    if not 0 <= action < n_actions:
        raise ValueError(f"action {action} out of range [0, {n_actions})")
    vec = np.zeros(n_actions, dtype=np.float64)
    vec[action] = 1.0
    return vec


def is_pure(strategy: np.ndarray) -> bool:
    return int(np.count_nonzero(strategy)) == 1


def linf_distance(p, q) -> float:
    """Max-over-actions absolute difference between two frequency vectors,
    given as plain sequences: one float subtraction per action, as the
    float64 vector form would do."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return float(max(map(abs, map(operator.sub, p, q))))


def _dot_rows(rows, w) -> list[float]:
    """Each row's products with ``w`` summed in index order, one float
    operation at a time."""
    first, rest = w[0], range(1, len(w))
    out = []
    for row in rows:
        total = row[0] * first
        for j in rest:
            total += row[j] * w[j]
        out.append(total)
    return out


@dataclass(frozen=True)
class StageGame:
    """One-shot n-player game with finite action sets.

    ``payoffs`` has shape ``(n, |A_0|, ..., |A_{n-1}|)``; entry
    ``payoffs[i][a]`` is player i's utility at joint profile ``a``.
    Profiles are indexed lexicographically with player 0 slowest.
    Instances are immutable and safe to share across workers.
    """

    payoffs: np.ndarray
    action_names: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        arr = np.array(self.payoffs, dtype=np.float64)  # a copy: the caller's array stays theirs
        if arr.ndim < 2:
            raise ValueError("payoff tensor needs at least (player, action) axes")
        n = arr.shape[0]
        if arr.ndim != n + 1:
            raise ValueError(
                f"payoff tensor for {n} players must have {n + 1} axes, got {arr.ndim}"
            )
        if any(c < 1 for c in arr.shape[1:]):
            raise ValueError("every player needs at least one action")
        if not np.all(np.isfinite(arr)):
            raise ValueError("payoffs must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "payoffs", arr)
        for player, mu in enumerate(self.payoff_ranges):  # μ scales the learner's switch margin
            if not math.isfinite(mu):
                raise ValueError(f"payoff range of player {player} is not finite: max - min overflows a float")
        if self.action_names is not None:
            # A list of lists of names: a string is not read as its characters.
            if not isinstance(self.action_names, (list, tuple)):
                raise ValueError(f"action_names must be a list per player, got {self.action_names!r}")
            for player, per in enumerate(self.action_names):
                if not isinstance(per, (list, tuple)):
                    raise ValueError(f"action_names of player {player} must be a list of names, got {per!r}")
                if not all(isinstance(name, str) for name in per):
                    raise ValueError(f"action_names of player {player} must be strings, got {list(per)!r}")
            names = tuple(map(tuple, self.action_names))
            if tuple(map(len, names)) != self.action_counts:
                raise ValueError("action_names do not match action counts")
            object.__setattr__(self, "action_names", names)

    @property
    def num_players(self) -> int:
        return self.payoffs.shape[0]

    @cached_property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.payoffs.shape[1:])

    @cached_property
    def own_axis_payoffs(self) -> tuple[np.ndarray, ...]:
        """Each player's payoff tensor with that player's own action axis first."""
        return tuple(np.moveaxis(self.payoffs[p], p, 0) for p in range(self.num_players))

    @cached_property
    def _payoff_rows(self) -> tuple[list[list[float]], ...]:
        """``own_axis_payoffs`` as Python floats, one list per row along the
        last axis: ``action_value_list`` reads these."""
        return tuple(u.reshape(-1, u.shape[-1]).tolist() for u in self.own_axis_payoffs)

    @cached_property
    def payoff_ranges(self) -> tuple[float, ...]:
        """Each player's best minus worst outcome over all joint profiles."""
        return tuple(float(u.max()) - float(u.min()) for u in self.payoffs)

    @property
    def actions_total(self) -> int:
        """Total number of actions summed over all players."""
        return sum(self.action_counts)

    def action_values(self, player: int, weights) -> np.ndarray:
        """Each of ``player``'s pure-action values against one weight
        sequence per opponent (in player order).  Unchecked: raw counts give
        the values against their frequencies times the product of the count
        totals.

        One contraction in one fixed order: the last opponent first, and
        within an opponent a sum over its actions in index order, each
        product and each partial sum one IEEE operation.  The 1-D form does
        them on Python floats: it is ``action_value_list`` as an array.  The
        column form, one (k, L) array per opponent, does them on numpy rows
        and returns (|A_player|, L); its column r is the 1-D form's values
        against column r of each array, bit for bit, since the same
        operations run in the same order.
        """
        if not weights:
            return self.own_axis_payoffs[player]
        if getattr(weights[0], "ndim", 1) == 2:
            values = self.own_axis_payoffs[player][..., None]
            for w in reversed(weights):
                total = values[..., 0, :] * w[0]
                for j in range(1, len(w)):
                    total += values[..., j, :] * w[j]
                values = total
            return values
        return np.array(self.action_value_list(player, weights))

    def action_value_list(self, player: int, weights) -> list[float]:
        """``action_values``' 1-D form as a new list of Python floats, for a
        caller that computes on in plain floats."""
        if not weights:
            return self.own_axis_payoffs[player].tolist()
        values = self._payoff_rows[player]
        for i in range(len(weights) - 1, 0, -1):
            flat = _dot_rows(values, weights[i])
            k = len(weights[i - 1])
            values = [flat[s : s + k] for s in range(0, len(flat), k)]
        return _dot_rows(values, weights[0])

    def _check_player(self, player: int) -> None:
        if not 0 <= player < self.num_players:
            raise ValueError(f"player {player} out of range")


def pure_action_values(game: StageGame, player: int, others) -> np.ndarray:
    """Expected utility of each of ``player``'s pure actions vs. ``others``,
    one checked strategy per opponent in player order."""
    game._check_player(player)
    others = list(others)
    if len(others) != game.num_players - 1:
        raise ValueError(
            f"expected {game.num_players - 1} opponent strategies, got {len(others)}"
        )
    opp_counts = [c for p, c in enumerate(game.action_counts) if p != player]
    return game.action_values(player, [as_strategy(s, c) for s, c in zip(others, opp_counts)])


def expected_utility(game: StageGame, player: int, own, others) -> float:
    """Exact expected utility of ``own`` against independent opponent mixes:
    ``own`` weighted over ``pure_action_values``."""
    values = pure_action_values(game, player, others)
    return float(as_strategy(own, game.action_counts[player]) @ values)


def regret(game: StageGame, profile, player: int) -> float:
    """Gain available to ``player`` from a unilateral best-response deviation.

    Zero (up to round-off) at a Nash equilibrium; mathematically never
    negative.
    """
    profile = list(profile)
    if len(profile) != game.num_players:
        raise ValueError("profile needs one strategy per player")
    values = pure_action_values(game, player, profile[:player] + profile[player + 1 :])
    own = as_strategy(profile[player], game.action_counts[player])
    return float(values.max() - own @ values)
