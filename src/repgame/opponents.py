"""Opponent policies: stationary, eventually-stationary, scripted, and
fictitious play (a nonstationary stressor)."""
from __future__ import annotations

import numpy as np

from .games import StageGame, as_strategy, pure_action_values


class OpponentPolicy:
    """Base class.  A policy plays ``length`` rounds at once with
    ``act_segment``, which returns one int64 action per round, and then
    sees the same rounds through ``observe_segment(joint)``, where
    ``joint`` holds one int64 action array per player.  History-dependent
    policies play one round at a time."""

    history_dependent = False

    def act_segment(self, length: int) -> np.ndarray:
        raise NotImplementedError

    def observe_segment(self, joint: list[np.ndarray]) -> None:
        pass


class StationaryPolicy(OpponentPolicy):
    """Samples i.i.d. from a fixed mixed strategy; ignores history."""

    def __init__(self, probs, rng: np.random.Generator):
        self.probs = as_strategy(probs)
        self.rng = rng

    def act_segment(self, length: int) -> np.ndarray:
        return self.rng.choice(len(self.probs), size=length, p=self.probs)


class ScriptedPolicy(OpponentPolicy):
    """Plays a fixed action list, then repeats the last action forever."""

    def __init__(self, actions):
        actions = [int(a) for a in actions]
        if not actions:
            raise ValueError("script must be nonempty")
        self.actions = np.asarray(actions, dtype=np.int64)
        self.pos = 0

    def act_segment(self, length: int) -> np.ndarray:
        idx = np.minimum(np.arange(self.pos, self.pos + length), len(self.actions) - 1)
        return self.actions[idx]

    def observe_segment(self, joint: list[np.ndarray]) -> None:
        self.pos += len(joint[0])


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

    def _pre_len(self, length: int) -> int:
        return min(max(self.switch_round - self.round, 0), length)

    def act_segment(self, length: int) -> np.ndarray:
        pre_len = self._pre_len(length)
        if pre_len == length:
            return self.pre.act_segment(length)
        if pre_len == 0:
            return self.post.act_segment(length)
        return np.concatenate(
            [self.pre.act_segment(pre_len), self.post.act_segment(length - pre_len)]
        )

    def observe_segment(self, joint: list[np.ndarray]) -> None:
        length = len(joint[0])
        pre_len = self._pre_len(length)
        if pre_len:
            self.pre.observe_segment([a[:pre_len] for a in joint])
        self.round += length


class FictitiousPlayPolicy(OpponentPolicy):
    """Pure best response to opponents' empirical action counts.

    History-dependent, so it plays one round per segment; included only
    as a nonstationarity stressor.  Ties break toward the lowest action
    index.
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
        self._others = [p for p in range(game.num_players) if p != self.player]

    def act_segment(self, length: int) -> np.ndarray:
        if length != 1:
            raise ValueError(f"fictitious play acts one round at a time, not {length}")
        freqs = [c / c.sum() for c in self.counts]
        values = pure_action_values(self.game, self.player, freqs)
        return np.array([np.argmax(values)], dtype=np.int64)

    def observe_segment(self, joint: list[np.ndarray]) -> None:
        for counts, p in zip(self.counts, self._others):
            counts += np.bincount(joint[p], minlength=len(counts))
