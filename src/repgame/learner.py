"""Epoch-batched hypothesis-testing learner with equilibrium retreat.

The agent plays a shared precomputed equilibrium while the "everyone is
playing the equilibrium" null hypothesis survives, then locks onto a pure
action and adapts it by best response  under a hysteresis margin while the
"everyone is stationary" hypothesis survives.  Rejecting both triggers a
complete restart.  All hypothesis inputs are public observations plus the
shared equilibrium, so several learners in the same game keep identical
flags at every epoch boundary.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumProfile
from .games import StageGame, _dot_rows, draw_actions

# Stream-purpose codes for the documented seed-splitting scheme.
STREAM_PLAY = 0
STREAM_RESET_PICK = 1


@dataclass  # not frozen: a frozen init sets each field through object.__setattr__
class EpochOutcome:
    """Everything observable about one completed epoch of one learner.

    Its fields, plus ``type`` and ``seq``, are the trace's epoch record:
    flag transitions, histograms and thresholds recorded here are
    sufficient to re-derive every decision the learner made (except the
    uniformly random action pick, whose legality but not value can be
    rechecked).  No field restates another: N^t is the total of any
    ``counts`` row, ε_s^{t+1} equals ``eps_e``, and the stationarity
    hypothesis survived exactly when there was no ``restart``.
    """

    player: int
    t: int
    counts: list[list[int]]
    eps_e: float
    eps_s: float
    margin: float
    eq_hyp_before: bool
    eq_hyp_after: bool
    grace_before: bool
    grace_after: bool
    phi_before: list[float]
    phi_after: list[float]
    switched: bool
    restart: bool
    restarts_total: int


@dataclass  # not frozen, as EpochOutcome
class EpochState:
    """The learner's state at the start of an epoch.

    ``eq_hyp``: the equilibrium null hypothesis is alive; ``grace``: the
    one-epoch stationarity grace after its rejection; ``h_prev``: the
    previous epoch's histograms, or None.
    """

    phi: Sequence[float]
    t: int
    eq_hyp: bool
    grace: bool
    h_prev: list[list[int]] | None
    restarts: int


def fresh_state(eq_profile: EquilibriumProfile, me: int, restarts: int = 0) -> EpochState:
    """The start-of-run and after-restart state: forget histories and
    flags, keep the precomputed equilibrium and the restart count."""
    return EpochState(eq_profile.strategies[me], 0, True, False, None, restarts)


def histogram_total(hists, shape: Sequence[int]) -> int | None:
    """The total of every histogram in ``hists``, when it is a list or tuple
    of one list or tuple of nonnegative ints per player, of that player's
    action count, and all totals are equal; otherwise None."""
    if not isinstance(hists, (list, tuple)) or len(hists) != len(shape):
        return None
    totals = set()
    for h, k in zip(hists, shape):
        if not isinstance(h, (list, tuple)) or len(h) != k or not h:
            return None
        for c in h:  # one pass: an int, not a bool, and >= 0
            if type(c) is not int or c < 0:
                return None
        totals.add(sum(h))
    return totals.pop() if len(totals) == 1 else None


class EquilibriumRetreatAgent:
    """One player's learning state machine: ``state`` plus the
    accumulator of the epoch in progress.

    Mutable and single-threaded; distinct agents own independent random
    streams and may run in parallel trials.  ``streams`` is the (play,
    reset-pick) pair of generators.
    """

    def __init__(
        self,
        game: StageGame,
        me: int,
        schedule,
        eq_profile: EquilibriumProfile,
        streams: tuple[np.random.Generator, np.random.Generator],
    ):
        self.game = game
        self.me = int(me)
        self.schedule = schedule
        self.eq_profile = eq_profile
        self._play_rng, self._pick_rng = streams
        self.n_players = game.num_players
        if not 0 <= self.me < self.n_players:
            raise ValueError(f"player {me} out of range [0, {self.n_players})")
        self.n_actions = game.action_counts[self.me]
        strategies = eq_profile.strategies
        for p, k in enumerate(game.action_counts):
            if p >= len(strategies) or len(strategies[p]) != k:
                raise ValueError(f"the equilibrium profile needs a strategy of {k} actions for player {p}")
        if len(strategies) != self.n_players:
            raise ValueError(f"the equilibrium profile has {len(strategies)} strategies for {self.n_players} players")
        self.state = fresh_state(eq_profile, self.me)
        self._start_epoch()

    def _start_epoch(self) -> None:
        self.epoch_rounds = self.schedule.rounds(self.state.t)
        self.round_in_epoch = 0
        self.h_curr = [[0] * k for k in self.game.action_counts]
        self._buffer: np.ndarray | None = None

    def rounds_left_in_epoch(self) -> int:
        return self.epoch_rounds - self.round_in_epoch

    # -- play --------------------------------------------------------------

    def act(self) -> int:
        """Action for the current round; the segment of length 1."""
        return int(self.act_segment(1)[0])

    def act_segment(self, length: int) -> np.ndarray:
        """Actions for the next ``length`` rounds, drawn from phi.

        The whole epoch's N^t actions are drawn from the play stream on
        the epoch's first play, by ``draw_actions``, and held until the
        epoch ends, so every split of an epoch into segments plays the same
        actions.  A pure phi advances the stream by N^t doubles instead of
        drawing them, which leaves it where drawing would.  Repeated calls
        return the same actions until observe_segment commits them.
        """
        if length > self.rounds_left_in_epoch():
            raise ValueError("segment crosses an epoch boundary")
        if self._buffer is None:
            self._buffer = draw_actions(self._play_rng, self.state.phi, self.epoch_rounds)
        start = self.round_in_epoch
        return self._buffer[start : start + length]

    def act_counts(self, length: int) -> np.ndarray:
        """How often each action is played in the next ``length`` rounds:
        one multinomial draw from phi on the play stream.

        The histogram path, for rosters with no history-dependent policy;
        its draws differ from act_segment's.
        """
        if length > self.rounds_left_in_epoch():
            raise ValueError("segment crosses an epoch boundary")
        return self._play_rng.multinomial(length, self.state.phi)

    def observe(self, joint) -> EpochOutcome | None:
        """Commit one round's joint action profile; the segment of length 1."""
        return self.observe_segment([np.array([a], dtype=np.int64) for a in joint])

    def observe_segment(self, joint: list[np.ndarray]) -> EpochOutcome | None:
        """Commit a block of rounds: one action array per player (own
        actions included), all of the same length.

        Returns the epoch outcome when the block closes the epoch,
        performing the restart internally if the stationarity hypothesis
        was rejected.
        """
        if len(joint) != self.n_players:
            raise ValueError(
                f"joint profile has {len(joint)} action arrays for {self.n_players} players"
            )
        return self.observe_counts([np.bincount(a, minlength=k) for a, k in zip(joint, self.game.action_counts)])

    def observe_counts(self, hists: list) -> EpochOutcome | None:
        """Commit a block of rounds given as one action histogram per
        player (own included), each totalling the block's length; the
        histogram path's observe_segment.  A histogram is an int array or
        a list of ints; it is kept as a list of Python ints."""
        rows = [h.tolist() if isinstance(h, np.ndarray) else h for h in hists]
        n_rounds = histogram_total(rows, self.game.action_counts)
        if n_rounds is None:
            raise ValueError(
                f"need one histogram of nonnegative ints per player, of its action count "
                f"{list(self.game.action_counts)}, with one total"
            )
        if n_rounds > self.rounds_left_in_epoch():
            raise ValueError("segment crosses an epoch boundary")
        self.h_curr = [[a + b for a, b in zip(cur, h)] for cur, h in zip(self.h_curr, rows)]
        self.round_in_epoch += n_rounds
        if self.round_in_epoch == self.epoch_rounds:
            return self._epoch_end()
        return None

    # -- epoch-end processing ----------------------------------------------

    def _epoch_end(self) -> EpochOutcome:
        outcome, self.state = epoch_step(
            self.game, self.me, self.schedule, self.eq_profile, self.state, self.h_curr,
            pick=lambda: int(self._pick_rng.integers(self.n_actions)),
        )
        self._start_epoch()
        return outcome


def epoch_step(
    game: StageGame,
    me: int,
    schedule,
    eq_profile: EquilibriumProfile,
    state: EpochState,
    hists,
    pick: Callable[[], int],
) -> tuple[EpochOutcome, EpochState]:
    """The AWESOME epoch-end rule for player ``me``: one pure transition.

    ``state`` is the state the epoch started in; ``hists`` holds its
    per-player action histograms, which total N^t each: N^t is read as
    their common total, as the previous epoch's is read from ``h_prev``.
    φ's value is its products with the action values added in index
    order, one float operation at a time, so no BLAS kernel decides it.
    ``pick()`` returns the uniformly random pure action taken when the
    equilibrium hypothesis is rejected and is called only then.  Returns
    the epoch's outcome and the state the next epoch starts in: the fresh
    state after a restart, otherwise epoch t+1 with the ``*_after`` flags,
    ``phi_after`` and this epoch's counts as ``h_prev``.
    """
    t, eq_hyp, grace, h_prev = state.t, state.eq_hyp, state.grace, state.h_prev
    phi = list(map(float, state.phi))
    shape = game.action_counts
    eps_e_t = schedule.eps_e(t)
    eps_s_t = schedule.eps_s(t)
    margin = len(shape) * max(shape) * eps_e_t * game.payoff_ranges[me]  # eps_e^t is eps_s^{t+1}
    # Plain ints and floats: each frequency is one float division, as a
    # float64 vector division would give, so records keep every bit.
    counts = [list(map(int, h)) for h in hists]
    n_rounds = float(sum(counts[0]))
    # The live hypothesis, tested over every player, self included: the
    # equilibrium, else stationarity but in the one grace epoch right after
    # the equilibrium's rejection.
    if eq_hyp:
        held = _within(counts, n_rounds, eq_profile.strategy_floats, eps_e_t)
    elif grace:
        held = True
    elif h_prev is None:
        raise ValueError("stationarity test needs the previous epoch's histograms")
    else:
        prev_total = float(sum(h_prev[0]))
        held = _within(counts, n_rounds, ([c / prev_total for c in h] for h in h_prev), eps_s_t)
    eq_after, grace_after, switched, action = eq_hyp, grace and eq_hyp, False, None
    if not eq_hyp:
        # Best-response adjustment with hysteresis: switch only for a
        # strictly more-than-margin improvement over the current action.
        others = [[c / n_rounds for c in h] for p, h in enumerate(counts) if p != me]
        values = game.action_value_list(me, others)
        best = values.index(max(values))  # the first best, as argmax
        if values[best] > _dot_rows([values], phi)[0] + margin:
            action, switched = best, True
    elif not held:
        eq_after, grace_after, action = False, True, pick()
    if action is None:
        phi_after = phi[:]  # a list of its own: no two fields of a record share one
    elif 0 <= action < shape[me]:
        phi_after = [0.0] * shape[me]  # pure_strategy's vector, as floats
        phi_after[action] = 1.0
    else:
        raise ValueError(f"action {action} out of range [0, {shape[me]})")
    restart = not (eq_hyp or held)
    restarts = state.restarts + restart
    outcome = EpochOutcome(
        me, t, counts, eps_e_t, eps_s_t, margin, eq_hyp, eq_after, grace, grace_after, phi, phi_after, switched,
        restart, restarts,
    )  # positional, in field order: keywords cost a record about 1 µs
    if restart:
        return outcome, fresh_state(eq_profile, me, restarts)
    return outcome, EpochState(phi_after, t + 1, eq_after, grace_after, counts, restarts)


def _within(counts, total: float, refs, bound: float) -> bool:
    """Whether each ``count / total`` is within ``bound`` of its reference entry: ``linf_distance``'s
    subtractions and ``abs``, where one past the bound is their max past it; stops at the first."""
    for h, ref in zip(counts, refs):
        if len(h) != len(ref):
            raise ValueError(f"length mismatch: {len(h)} vs {len(ref)}")
        for c, r in zip(h, ref):
            if abs(c / total - r) > bound:
                return False
    return True
