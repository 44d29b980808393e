"""Opponent policies: stationary, eventually-stationary, scripted, and
fictitious play (a nonstationary stressor), and build_policy, which makes
one from its run-document descriptor."""
from __future__ import annotations

import math

import numpy as np

from .games import StageGame, as_strategy, check_numbers, draw_actions
from .schedule import check_count


def as_script(actions, n_actions: int) -> np.ndarray:
    """A nonempty script of integer actions in ``[0, n_actions)``, as int64."""
    arr = np.asarray(actions)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("script must be a nonempty list of actions")
    if arr.dtype.kind not in "iu" or not ((arr >= 0) & (arr < n_actions)).all():
        raise ValueError(f"scripted actions {list(actions)} must be integers in [0, {n_actions})")
    return arr.astype(np.int64)


def as_initial_counts(game: StageGame, player: int, counts=None) -> list[np.ndarray]:
    """Fictitious play's starting counts: one vector per opponent of
    ``player``, in player order, each of that opponent's length and with
    nonnegative entries and a positive total, and small enough that the
    largest payoff times the product of the totals is a finite float; one
    of each action when ``counts`` is None, checked alike."""
    lengths = [c for p, c in enumerate(game.action_counts) if p != player]
    if counts is None:
        counts = [np.ones(k) for k in lengths]
    counts = [np.array(c, dtype=np.float64) for c in counts]
    if [c.shape for c in counts] != [(k,) for k in lengths]:
        raise ValueError(f"initial_counts need one vector per opponent, of lengths {lengths}")
    if any(not (c >= 0).all() or sum(c.tolist()) <= 0 for c in counts):  # NaN fails too
        raise ValueError("initial_counts need nonnegative entries and positive totals")
    largest = float(np.abs(game.payoffs[player]).max())
    if not math.isfinite(largest * math.prod(sum(c.tolist()) for c in counts)):
        raise ValueError("initial_counts overflow: the largest payoff times the product of their totals is not finite")
    return counts


class OpponentPolicy:
    """Base class.  A policy plays ``length`` rounds at once, the trial
    choosing one of two ways for its whole roster:

    - actions: a history-free policy draws its actions for the next
      ``length`` rounds with ``act_segment(length)``, and moves past them.
      A history-dependent one answers the other players' actions with
      ``respond_segment(joint)``, one int64 action array per player, its
      action in round r depending only on the rounds before r; then
      ``observe_segment(joint)`` shows it the rounds it answered.  When it
      has one opponent, ``respond_counts(actions)`` may answer that
      opponent's action array and observe it in one call, returning the
      histogram of its answers; None means it cannot, and nothing changed.
    - histogram: ``act_counts(length)`` returns how often the policy plays
      each action over the next ``length`` rounds, and moves past them.
      Only history-free policies play this way; on neither path are they
      shown the rounds.

    A policy that draws random numbers takes them from the generator it was
    built with; ``seeded(ss)`` gives a copy that draws from streams of
    ``ss`` instead, so one parsed policy serves every trial.
    """

    history_dependent = False

    def seeded(self, ss: np.random.SeedSequence) -> OpponentPolicy:
        """A copy of this policy as it stands, drawing from streams of
        ``ss``; playing the copy leaves this policy as it is."""
        # A shallow copy by hand: copy.copy would also set ``__slotnames__``
        # on the class the first time, and a run leaves classes as they are.
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return new

    def act_segment(self, length: int) -> np.ndarray:
        raise NotImplementedError

    def respond_segment(self, joint: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def act_counts(self, length: int) -> np.ndarray:
        raise NotImplementedError

    def respond_counts(self, actions: np.ndarray) -> list[int] | None:
        return None


class StationaryPolicy(OpponentPolicy):
    """Samples i.i.d. from a fixed mixed strategy; ignores history."""

    def __init__(self, probs, rng: np.random.Generator | None = None):
        self.probs = as_strategy(probs)
        self.rng = rng

    def seeded(self, ss: np.random.SeedSequence) -> StationaryPolicy:
        new = super().seeded(ss)
        new.rng = np.random.Generator(np.random.PCG64(ss))
        return new

    def act_segment(self, length: int) -> np.ndarray:
        return draw_actions(self.rng, self.probs, length)

    def act_counts(self, length: int) -> np.ndarray:
        return self.rng.multinomial(length, self.probs)


class ScriptedPolicy(OpponentPolicy):
    """Plays a fixed action list, then repeats the last action forever."""

    def __init__(self, actions, n_actions: int):
        self.actions = as_script(actions, n_actions)
        self.n_actions = int(n_actions)
        self.pos = 0

    def act_segment(self, length: int) -> np.ndarray:
        idx = np.minimum(np.arange(self.pos, self.pos + length), len(self.actions) - 1)
        self.pos += length
        return self.actions[idx]

    def act_counts(self, length: int) -> np.ndarray:
        # Exact: the part of the script these rounds reach, and the rest on
        # the last action.
        played = self.actions[self.pos : self.pos + length]
        counts = np.bincount(played, minlength=self.n_actions)
        counts[self.actions[-1]] += length - len(played)
        self.pos += length
        return counts


class EventuallyStationaryPolicy(OpponentPolicy):
    """Delegates to a pre-switch policy, then becomes stationary forever.

    From round ``switch_round`` on, actions are i.i.d. draws from
    ``probs`` regardless of what the pre-policy was doing.
    """

    def __init__(self, pre: OpponentPolicy, switch_round: int, probs, rng: np.random.Generator | None = None):
        self.pre = pre
        self.switch_round = check_count("switch_round", switch_round, 0)
        self.post = StationaryPolicy(probs, rng)
        self.round = 0
        self.history_dependent = pre.history_dependent

    def seeded(self, ss: np.random.SeedSequence) -> EventuallyStationaryPolicy:
        post_ss, pre_ss = ss.spawn(2)
        new = super().seeded(ss)
        new.pre, new.post = self.pre.seeded(pre_ss), self.post.seeded(post_ss)
        return new

    def _pre_len(self, length: int) -> int:
        return min(max(self.switch_round - self.round, 0), length)

    def act_segment(self, length: int) -> np.ndarray:
        # A zero-length draw takes nothing from a stream or a script.
        pre_len = self._pre_len(length)
        self.round += length
        return np.concatenate([self.pre.act_segment(pre_len), self.post.act_segment(length - pre_len)])

    def respond_segment(self, joint: list[np.ndarray]) -> np.ndarray:
        length = len(joint[0])
        pre_len = self._pre_len(length)
        return np.concatenate(
            [self.pre.respond_segment([a[:pre_len] for a in joint]), self.post.act_segment(length - pre_len)]
        )

    def observe_segment(self, joint: list[np.ndarray]) -> None:
        length = len(joint[0])
        self.pre.observe_segment([a[: self._pre_len(length)] for a in joint])
        self.round += length

    def act_counts(self, length: int) -> np.ndarray:
        pre_len = self._pre_len(length)
        counts = self.post.act_counts(length - pre_len)
        if pre_len:  # skips a call per epoch after the switch on the histogram path
            counts += self.pre.act_counts(pre_len)
        self.round += length
        return counts


class FictitiousPlayPolicy(OpponentPolicy):
    """Pure best response to opponents' empirical action counts.

    History-dependent: in each round it best-responds to the counts of
    every round before it.  Included only as a nonstationarity stressor.
    Ties break toward the lowest action index.

    A segment is answered in columns, one per round: each opponent's
    running counts form a (k, L) array, the column form of
    ``action_values`` values them, and passes of ``>`` over the value rows
    keep each round's first maximiser.  A one-round segment takes the 1-D
    form, which costs less than building the columns and gives the same
    bits.  Observing a segment adds 1.0 per round to the observed action's
    count, as round-by-round play does.

    Against one opponent, ``respond_counts`` answers a segment in
    integers.  It answers only where the column form's floats are exact
    integers: this player's payoffs and its counts are integers, and
    max(1, max|u|) times the counts' total after the segment is at most
    2**53.  Then every product, partial sum and count of the column form is
    an integer of at most 2**53, so float order is integer order, and a
    count plus the segment's bincount equals that many adds of 1.0.  Where
    the opponent plays one action throughout, each action's value is linear
    in the round, so it answers in runs: it solves where the lines cross in
    Python ints, a lower index winning a tie, and its answers change at
    most once per action.  Any other segment it values in int64: round r's
    values are the values against the counts plus the running sum of the
    payoff columns of the opponent's actions before r, and its answer is
    their first argmax.
    """

    history_dependent = True

    def __init__(self, game: StageGame, player: int, initial_counts=None):
        self.game = game
        self.player = int(player)
        self.counts = as_initial_counts(game, self.player, initial_counts)
        self._others = [p for p in range(game.num_players) if p != self.player]
        u = game.own_axis_payoffs[self.player]
        top = np.abs(u).max()
        self._int_u = None  # respond_counts' payoffs, as int64
        if game.num_players == 2 and (u == np.trunc(u)).all() and top <= 2**53:
            self._int_u = u.astype(np.int64)
            self._scale = max(1, int(top))

    def _running_counts(self, joint: list[np.ndarray]) -> list[np.ndarray]:
        """Per opponent, its counts before each round of the segment: L
        columns, added up one round at a time as round-by-round play adds
        them, so non-integer counts keep their bits (adding a round's total
        at once rounds differently)."""
        running = []
        for counts, p in zip(self.counts, self._others):
            steps = np.zeros((len(counts), len(joint[p])))
            steps[:, :1] = counts[:, None]  # a slice, so a zero-length segment fits
            steps[joint[p][:-1], np.arange(1, steps.shape[1])] = 1.0
            running.append(steps.cumsum(axis=1))
        return running

    def respond_segment(self, joint: list[np.ndarray]) -> np.ndarray:
        # Values against the unnormalised counts are the values against
        # the empirical frequencies times a positive constant, so the
        # first maximiser is the same.
        if len(joint[0]) == 1:
            return np.array([self.game.action_values(self.player, [c.tolist() for c in self.counts]).argmax()])
        values = self.game.action_values(self.player, self._running_counts(joint))
        best = np.zeros(values.shape[1], dtype=np.int64)
        top = values[0]
        for action in range(1, len(values)):
            best[values[action] > top] = action
            top = np.maximum(top, values[action])
        return best

    def respond_counts(self, actions: np.ndarray) -> list[int] | None:
        """How often it plays each action in the rounds where its one
        opponent plays ``actions``, with those rounds observed; None,
        changing nothing, unless the answers are exact in integers (see the
        class docstring)."""
        counts = self.counts[0].tolist()
        if self._int_u is None or not all(map(float.is_integer, counts)):
            return None
        counts = list(map(int, counts))
        length = len(actions)
        if self._scale * (sum(counts) + length) > 2**53:
            return None
        values = self._int_u.dot(counts).tolist()  # in the first round; no BLAS for int64
        after = self.counts[0].copy()  # a new array: seeded copies share the old one
        if length and (actions == actions[0]).all():
            hist = self._runs(values, int(actions[0]), length)
            after[actions[0]] += length
        else:
            steps = np.empty((len(values), length + 1), dtype=np.int64)
            steps[:, 0] = values
            steps[:, 1:] = self._int_u[:, actions]
            best = steps.cumsum(axis=1)[:, :-1].argmax(axis=0)  # round r's values leave out round r
            hist = np.bincount(best, minlength=len(values)).tolist()
            after += np.bincount(actions, minlength=len(after))
        self.counts = [after]
        return hist

    def _runs(self, values: list[int], action: int, length: int) -> list[int]:
        """The histogram of its answers from ``values`` on, in runs, while
        its opponent plays ``action`` for ``length`` rounds."""
        slopes = self._int_u[:, action].tolist()
        hist = [0] * len(values)
        r = 0
        while r < length:  # values[a] is action a's value in round r
            best = values.index(max(values))
            end = length
            for a, (value, slope) in enumerate(zip(values, slopes)):
                gain = slope - slopes[best]
                if gain > 0:  # a overtakes best n rounds on: strictly if a > best, at a tie if a < best
                    lead = values[best] - value
                    end = min(end, r + (lead // gain + 1 if a > best else -(-lead // gain)))
            hist[best] += end - r
            values = [value + (end - r) * slope for value, slope in zip(values, slopes)]
            r = end
        return hist

    def observe_segment(self, joint: list[np.ndarray]) -> None:
        # Counted from ``joint`` rather than kept from respond_segment: with
        # two or more responders, one answers while the others' actions are
        # still placeholders.  Every addend is 1.0 and each add rounds once,
        # so a count does not depend on the order of the adds: it is the
        # last running count, for non-integer counts too.
        counts = [c.copy() for c in self.counts]
        for c, p in zip(counts, self._others):
            np.add.at(c, joint[p], 1.0)
        self.counts = counts


# The keys of each policy kind's descriptor, ``kind`` included.
_POLICY_KEYS = {
    "stationary": {"kind", "probs"},
    "scripted": {"kind", "actions"},
    "eventually_stationary": {"kind", "pre", "switch_round", "probs"},
    "fictitious_play": {"kind", "initial_counts"},
}


def build_policy(desc: dict, game: StageGame, player: int) -> OpponentPolicy:
    """The policy that descriptor ``desc`` gives ``player`` in ``game``, at
    its first round and with no random stream: a trial plays
    ``seeded(ss)`` of it.  Raises KeyError, TypeError or ValueError when
    ``desc`` has an unknown kind or key, lacks a key, or does not fit the
    player's actions; building is the check, and draws nothing."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if kind not in _POLICY_KEYS:
        raise ValueError(f"unknown opponent policy kind {kind!r}")
    unknown = sorted(map(str, desc.keys() - _POLICY_KEYS[kind]))
    if unknown:
        raise ValueError(f"unknown keys {', '.join(unknown)} in a {kind} policy")
    for key in ("probs", "initial_counts"):  # numpy would read a string or a bool as a number
        if desc.get(key) is not None:
            check_numbers(desc[key], key)
    n_actions = game.action_counts[player]
    if kind == "stationary":
        return StationaryPolicy(as_strategy(desc["probs"], n_actions))
    if kind == "scripted":
        return ScriptedPolicy(desc["actions"], n_actions)
    if kind == "eventually_stationary":
        pre = build_policy(desc["pre"], game, player)
        return EventuallyStationaryPolicy(pre, desc["switch_round"], as_strategy(desc["probs"], n_actions))
    return FictitiousPlayPolicy(game, player, desc.get("initial_counts"))
