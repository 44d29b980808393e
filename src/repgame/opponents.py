"""Opponent policies: stationary, eventually-stationary, scripted, and
fictitious play (a nonstationary stressor)."""
from __future__ import annotations

import numpy as np

from .games import StageGame, as_strategy, pure_action_values


class OpponentPolicy:
    """Base class. Policies expose per-round act/observe; history-free
    policies also support vectorised whole-segment play."""

    history_dependent = False

    def act(self) -> int:
        raise NotImplementedError

    def act_segment(self, length: int) -> np.ndarray:
        raise NotImplementedError

    def observe(self, joint) -> None:
        pass

    def observe_segment(self, joint_matrix: np.ndarray) -> None:
        pass


class StationaryPolicy(OpponentPolicy):
    """Samples i.i.d. from a fixed mixed strategy; ignores history."""

    def __init__(self, probs, rng: np.random.Generator):
        self.probs = as_strategy(probs)
        self.rng = rng
        self._pending: int | None = None

    def act(self) -> int:
        if self._pending is None:
            self._pending = int(self.rng.choice(len(self.probs), p=self.probs))
        return self._pending

    def act_segment(self, length: int) -> np.ndarray:
        if self._pending is not None:
            raise RuntimeError("act() drew an action that observe() has not committed")
        return self.rng.choice(len(self.probs), size=length, p=self.probs)

    def observe(self, joint) -> None:
        self._pending = None


class ScriptedPolicy(OpponentPolicy):
    """Plays a fixed action list, then repeats the last action forever."""

    def __init__(self, actions):
        actions = [int(a) for a in actions]
        if not actions:
            raise ValueError("script must be nonempty")
        self.actions = actions
        self.pos = 0

    def act(self) -> int:
        return self.actions[min(self.pos, len(self.actions) - 1)]

    def act_segment(self, length: int) -> np.ndarray:
        idx = np.minimum(
            np.arange(self.pos, self.pos + length), len(self.actions) - 1
        )
        return np.asarray(self.actions, dtype=np.int64)[idx]

    def observe(self, joint) -> None:
        self.pos += 1

    def observe_segment(self, joint_matrix: np.ndarray) -> None:
        self.pos += joint_matrix.shape[0]


class EventuallyStationaryPolicy(OpponentPolicy):
    """Delegates to a pre-switch policy, then becomes stationary forever.

    From round ``switch_round`` on, actions are i.i.d. draws from
    ``probs`` regardless of what the pre-policy was doing.
    """

    def __init__(self, pre: OpponentPolicy, switch_round: int, probs, rng: np.random.Generator):
        if switch_round < 0:
            raise ValueError("switch_round must be >= 0")
        self.pre = pre
        self.switch_round = int(switch_round)
        self.post = StationaryPolicy(probs, rng)
        self.round = 0
        self.history_dependent = pre.history_dependent

    def _current(self) -> OpponentPolicy:
        return self.post if self.round >= self.switch_round else self.pre

    def act(self) -> int:
        return self._current().act()

    def act_segment(self, length: int) -> np.ndarray:
        pre_len = min(max(self.switch_round - self.round, 0), length)
        parts = []
        if pre_len:
            parts.append(np.asarray(self.pre.act_segment(pre_len)))
        if length - pre_len:
            parts.append(self.post.act_segment(length - pre_len))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def observe(self, joint) -> None:
        self._current().observe(joint)
        self.round += 1

    def observe_segment(self, joint_matrix: np.ndarray) -> None:
        n = joint_matrix.shape[0]
        pre_len = min(max(self.switch_round - self.round, 0), n)
        if pre_len:
            self.pre.observe_segment(joint_matrix[:pre_len])
        self.round += n


class FictitiousPlayPolicy(OpponentPolicy):
    """Pure best response to opponents' empirical action counts.

    History-dependent; included only as a nonstationarity stressor.
    Ties break toward the lowest action index.
    """

    history_dependent = True

    def __init__(self, game: StageGame, player: int, initial_counts=None):
        self.game = game
        self.player = int(player)
        if initial_counts is None:
            initial_counts = [
                np.ones(c) for p, c in enumerate(game.action_counts) if p != self.player
            ]
        self.counts = [np.asarray(c, dtype=np.float64).copy() for c in initial_counts]
        opp_counts = [c for p, c in enumerate(game.action_counts) if p != self.player]
        if [len(c) for c in self.counts] != opp_counts:
            raise ValueError("initial_counts do not match opponents' action counts")
        if any(c.sum() <= 0 for c in self.counts):
            raise ValueError("initial_counts need positive totals")

    def act(self) -> int:
        freqs = [c / c.sum() for c in self.counts]
        values = pure_action_values(self.game, self.player, freqs)
        return int(np.argmax(values))

    def observe(self, joint) -> None:
        j = 0
        for p, a in enumerate(joint):
            if p == self.player:
                continue
            self.counts[j][int(a)] += 1
            j += 1
