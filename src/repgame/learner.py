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
from .games import StageGame, linf_distance, payoff_range, pure_action_values, pure_strategy

# Stream-purpose codes for the documented seed-splitting scheme.
STREAM_PLAY = 0
STREAM_RESET_PICK = 1


@dataclass(frozen=True)
class EpochOutcome:
    """Everything observable about one completed epoch of one learner.

    Its fields, plus ``type`` and ``seq``, are the trace's epoch record:
    flag transitions, histograms and thresholds recorded here are
    sufficient to re-derive every decision the learner made (except the
    uniformly random action pick, whose legality but not value can be
    rechecked).
    """

    player: int
    t: int
    rounds: int
    counts: list[list[int]]
    eps_e: float
    eps_s: float
    eps_s_next: float
    margin: float
    eq_hyp_before: bool
    eq_hyp_after: bool
    grace_before: bool
    grace_after: bool
    stat_hyp_after: bool
    phi_before: list[float]
    phi_after: list[float]
    switched: bool
    restart: bool
    restarts_total: int


@dataclass(frozen=True)
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
        self.n_actions = game.action_counts[self.me]
        self.state = fresh_state(eq_profile, self.me)
        self._start_epoch()

    def _start_epoch(self) -> None:
        self.epoch_rounds = self.schedule.rounds(self.state.t)
        self.round_in_epoch = 0
        self.h_curr = [np.zeros(c, dtype=np.int64) for c in self.game.action_counts]
        self._buffer: np.ndarray | None = None

    def rounds_left_in_epoch(self) -> int:
        return self.epoch_rounds - self.round_in_epoch

    # -- play --------------------------------------------------------------

    def act(self) -> int:
        """Action for the current round; the segment of length 1."""
        return int(self.act_segment(1)[0])

    def act_segment(self, length: int) -> np.ndarray:
        """Actions for the next ``length`` rounds, drawn from phi.

        The whole epoch's draws are taken from the play stream in one
        vectorised call on the epoch's first play, so every split of an
        epoch into segments plays the same actions.  Repeated calls
        return the same actions until observe_segment commits them.
        """
        if length > self.rounds_left_in_epoch():
            raise ValueError("segment crosses an epoch boundary")
        if self._buffer is None:
            self._buffer = self._play_rng.choice(
                self.n_actions, size=self.epoch_rounds, p=self.state.phi
            )
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
        n_rounds = len(joint[0])
        if any(len(a) != n_rounds for a in joint):
            raise ValueError("joint profile needs equally long action arrays")
        hists = [np.bincount(a, minlength=len(h)) for a, h in zip(joint, self.h_curr)]
        return self._commit(hists, n_rounds)

    def observe_counts(self, hists: list[np.ndarray]) -> EpochOutcome | None:
        """Commit a block of rounds given as one action histogram per
        player (own included), each totalling the block's length; the
        histogram path's observe_segment."""
        if len(hists) != self.n_players:
            raise ValueError(f"{len(hists)} histograms for {self.n_players} players")
        n_rounds = int(hists[0].sum())
        if any(h.sum() != n_rounds or h.min(initial=0) < 0 for h in hists):
            raise ValueError("histograms need nonnegative counts with one total")
        return self._commit(hists, n_rounds)

    def _commit(self, hists: list[np.ndarray], n_rounds: int) -> EpochOutcome | None:
        if n_rounds > self.rounds_left_in_epoch():
            raise ValueError("segment crosses an epoch boundary")
        for h, cur in zip(hists, self.h_curr):
            if h.shape != cur.shape:
                raise ValueError(
                    f"a histogram of {len(h)} entries for a player with {len(cur)} actions"
                )
        for h, cur in zip(hists, self.h_curr):
            cur += h
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
    per-player action histograms, which total N^t each.  ``pick()``
    returns the uniformly random pure action taken when the equilibrium
    hypothesis is rejected and is called only then.  Returns the epoch's
    outcome and the state the next epoch starts in: the fresh state after
    a restart, otherwise epoch t+1 with the ``*_after`` flags,
    ``phi_after`` and this epoch's counts as ``h_prev``.
    """
    t, eq_hyp, grace, phi, h_prev = state.t, state.eq_hyp, state.grace, state.phi, state.h_prev
    shape = game.action_counts
    n_rounds = schedule.rounds(t)
    eps_e_t = schedule.eps_e(t)
    eps_s_t = schedule.eps_s(t)
    eps_s_next = schedule.eps_s(t + 1)
    margin = len(shape) * max(shape) * eps_s_next * payoff_range(game, me)
    freq = [np.asarray(h, dtype=np.float64) / n_rounds for h in hists]
    eq_after, grace_after, stat_after = eq_hyp, grace, True
    phi_after = phi
    switched = False

    if not eq_hyp:
        # Stationarity test over every player, self included, unless
        # this is the single grace epoch right after rejection.
        if not grace:
            if h_prev is None:
                raise ValueError("stationarity test needs the previous epoch's histograms")
            prev_total = sum(h_prev[0])
            stat_after = all(
                linf_distance(f, np.asarray(h, dtype=np.float64) / prev_total) <= eps_s_t
                for f, h in zip(freq, h_prev)
            )
        grace_after = False
        # Best-response adjustment with hysteresis: switch only for a
        # strictly more-than-margin improvement over the current action.
        others = [f for p, f in enumerate(freq) if p != me]
        values = pure_action_values(game, me, others)
        best_action = int(np.argmax(values))
        if float(values[best_action]) > float(phi @ values) + margin:
            phi_after = pure_strategy(best_action, shape[me])
            switched = True
    elif any(linf_distance(f, s) > eps_e_t for f, s in zip(freq, eq_profile.strategies)):
        # The equilibrium test over every player, self included, failed.
        eq_after, grace_after = False, True
        phi_after = pure_strategy(pick(), shape[me])

    restart = not stat_after
    restarts = state.restarts + restart
    outcome = EpochOutcome(
        player=me,
        t=t,
        rounds=n_rounds,
        counts=[list(map(int, h)) for h in hists],
        eps_e=eps_e_t,
        eps_s=eps_s_t,
        eps_s_next=eps_s_next,
        margin=margin,
        eq_hyp_before=eq_hyp,
        eq_hyp_after=eq_after,
        grace_before=grace,
        grace_after=grace_after,
        stat_hyp_after=stat_after,
        phi_before=list(map(float, phi)),
        phi_after=list(map(float, phi_after)),
        switched=switched,
        restart=restart,
        restarts_total=restarts,
    )
    if restart:
        return outcome, fresh_state(eq_profile, me, restarts)
    return outcome, EpochState(outcome.phi_after, t + 1, eq_after, grace_after, outcome.counts, restarts)
