"""Epoch parameter schedules: thresholds (eps_e, eps_s) and epoch lengths N.

The built-in family pairs a decreasing threshold sequence with epoch
lengths chosen so that the factor ``1 - A / (N_t * eps_t^2)`` at epoch
``t >= 1`` is at least ``2 ** -(1/t)^2``.  The infinite product of those
lower bounds is ``2 ** -(pi^2 / 6)``, which keeps the probability of a
false hypothesis rejection over all epochs strictly below 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PRODUCT_LIMIT = 2.0 ** -(math.pi**2 / 6.0)


def check_count(name: str, value, least: int) -> None:
    """ValueError unless ``value`` is an integer (not a bool) of at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class Schedule:
    """Built-in threshold/epoch-length family.

    eps_e decays harmonically ``eps_base * (offset+1) / (t+offset+1)``
    (or geometrically with ``rate**t``); eps_s is eps_e delayed by one
    epoch.  ``epoch0_rounds`` optionally overrides the length of epoch 0,
    which the validity conditions do not constrain.
    """

    epsilon_base: float = 0.5
    actions_total: int = 4
    decay: str = "harmonic"  # "harmonic" | "geometric"
    offset: float = 0.0  # harmonic shift; 0 gives eps_base / (t+1)
    rate: float = 0.5  # geometric ratio
    epoch0_rounds: int | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon_base <= 1.0:
            raise ValueError("epsilon_base must be in (0, 1]")
        check_count("actions_total", self.actions_total, 2)
        if self.decay not in ("harmonic", "geometric"):
            raise ValueError(f"unknown decay family {self.decay!r}")
        if self.decay == "geometric" and not 0.0 < self.rate < 1.0:
            raise ValueError("geometric rate must be in (0, 1)")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if self.epoch0_rounds is not None:
            check_count("epoch0_rounds", self.epoch0_rounds, 1)

    def eps_e(self, t: int) -> float:
        if t < 0:
            raise ValueError("epoch index must be nonnegative")
        if self.decay == "harmonic":
            return self.epsilon_base * (self.offset + 1.0) / (t + self.offset + 1.0)
        return self.epsilon_base * self.rate**t

    def eps_s(self, t: int) -> float:
        # Coupling eps_s^{t+1} = eps_e^t; eps_s^0 is never consulted by the
        # learner and is pinned to eps_e^0 to preserve monotonicity.
        return self.eps_e(max(t - 1, 0))

    def rounds(self, t: int) -> int:
        if t == 0 and self.epoch0_rounds is not None:
            return self.epoch0_rounds
        factor_bound = 1.0 - 2.0 ** -((1.0 / max(t, 1)) ** 2)
        return math.ceil(self.actions_total / (factor_bound * self.eps_e(t) ** 2))

    # Vectorised views used by the prefix checks below (fast for T ~ 1e6).

    def eps_e_array(self, ts: np.ndarray) -> np.ndarray:
        if self.decay == "harmonic":
            return self.epsilon_base * (self.offset + 1.0) / (ts + self.offset + 1.0)
        return self.epsilon_base * self.rate**ts

    def rounds_array(self, ts: np.ndarray) -> np.ndarray:
        bound = 1.0 - np.power(2.0, -((1.0 / np.maximum(ts, 1)) ** 2))
        n = np.ceil(self.actions_total / (bound * self.eps_e_array(ts) ** 2))
        if self.epoch0_rounds is not None:
            n = np.where(ts == 0, float(self.epoch0_rounds), n)
        return n


@dataclass(frozen=True)
class ValidityReport:
    """Prefix check of the four schedule validity conditions up to T."""

    horizon: int
    eps_e_decreasing: bool
    eps_s_decreasing: bool
    rounds_nondecreasing: bool
    factors_positive: bool
    first_bad_t: int | None

    @property
    def valid(self) -> bool:
        return (
            self.eps_e_decreasing
            and self.eps_s_decreasing
            and self.rounds_nondecreasing
            and self.factors_positive
        )


def _factors(schedule: Schedule, T: int):
    ts = np.arange(0, T + 2, dtype=np.float64)
    eps_e = schedule.eps_e_array(ts)
    # coupling eps_s^{t+1} = eps_e^t, eps_s^0 := eps_e^0
    eps_s = np.concatenate([[eps_e[0]], eps_e[:-1]])
    rounds = schedule.rounds_array(ts)
    # Factors are indexed t = 1..T.
    t_idx = np.arange(1, T + 1)
    a = float(schedule.actions_total)
    fac_s = 1.0 - a / (rounds[t_idx] * eps_s[t_idx + 1] ** 2)
    fac_e = 1.0 - a / (rounds[t_idx] * eps_e[t_idx] ** 2)
    return eps_e[: T + 1], eps_s[: T + 1], rounds[: T + 1], fac_s, fac_e


def check_valid_prefix(schedule: Schedule, T: int) -> ValidityReport:
    """Verify the schedule validity conditions on the prefix t <= T.

    The built-in family is valid analytically (factors are bounded below
    by ``2**-(1/t)^2`` exactly, by the ceiling in N_t); for custom
    schedules this is an empirical prefix check only.
    """
    if T < 2:
        raise ValueError("horizon must be at least 2")
    eps_e, eps_s, rounds, fac_s, fac_e = _factors(schedule, T)
    eps_e_dec = bool(np.all(np.diff(eps_e) < 0))
    eps_s_dec = bool(np.all(np.diff(eps_s[1:]) < 0))
    # epoch 0 length is unconstrained by validity; check from t >= 1
    rounds_nondec = bool(np.all(np.diff(rounds[1:]) >= 0))
    positive = bool(np.all(fac_s > 0) and np.all(fac_e > 0))
    first_bad = None
    if not positive:
        bad = np.nonzero((fac_s <= 0) | (fac_e <= 0))[0]
        first_bad = int(bad[0]) + 1
    return ValidityReport(
        horizon=T,
        eps_e_decreasing=eps_e_dec,
        eps_s_decreasing=eps_s_dec,
        rounds_nondecreasing=rounds_nondec,
        factors_positive=positive,
        first_bad_t=first_bad,
    )


def _positive_factors(schedule: Schedule, T: int):
    if T < 1:
        raise ValueError("horizon must be at least 1")
    _, _, _, fac_s, fac_e = _factors(schedule, T)
    if np.any(fac_s <= 0) or np.any(fac_e <= 0):
        bad = int(np.nonzero((fac_s <= 0) | (fac_e <= 0))[0][0]) + 1
        raise ValueError(f"nonpositive validity factor at t={bad}")
    return fac_s, fac_e


def never_restart_lower_bound(schedule: Schedule, T: int) -> tuple[float, float]:
    """Partial products of the two validity factors over t = 1..T.

    These lower-bound the probability that the stationarity (resp.
    equilibrium) hypothesis is never falsely rejected through epoch T.
    Both are nonincreasing in T; for the built-in family each is at
    least ``2 ** -(sum_{t<=T} (1/t)^2)``.
    """
    fac_s, fac_e = _positive_factors(schedule, T)
    return float(np.exp(np.sum(np.log(fac_s)))), float(np.exp(np.sum(np.log(fac_e))))


def never_restart_products(schedule: Schedule, T: int) -> tuple[np.ndarray, np.ndarray]:
    """``never_restart_lower_bound`` at every horizon 1..T, as two arrays.

    One pass over the factors; the running sum may differ from the
    bound's pairwise sum in the last bits.
    """
    fac_s, fac_e = _positive_factors(schedule, T)
    return np.exp(np.cumsum(np.log(fac_s))), np.exp(np.cumsum(np.log(fac_e)))
