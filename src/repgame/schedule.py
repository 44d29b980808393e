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


def check_count(name: str, value, least: int) -> int:
    """``value``, if it is an integer (not a bool) of at least ``least``; else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


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

    def columns(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """eps_e^t and N^t (a float: it passes 2**63 on long prefixes) at the epoch
        indices ``ts``; the one formula for each, which a custom schedule overrides."""
        if self.decay == "harmonic":
            eps_e = self.epsilon_base * (self.offset + 1.0) / (ts + self.offset + 1.0)
        else:
            eps_e = self.epsilon_base * self.rate**ts
        bound = 1.0 - np.power(2.0, -((1.0 / np.maximum(ts, 1)) ** 2))
        n = np.ceil(self.actions_total / (bound * eps_e**2))
        if self.epoch0_rounds is not None:
            n = np.where(ts == 0, float(self.epoch0_rounds), n)
        return eps_e, n

    def prefix(self, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eps_e^t, eps_s^t and N^t for t < ``size``; an overflow gives N^t = inf."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            eps_e, n = self.columns(np.arange(size, dtype=np.float64))
        # Coupling eps_s^{t+1} = eps_e^t; eps_s^0 is never consulted by the
        # learner and is pinned to eps_e^0 to preserve monotonicity.
        eps_s = np.concatenate([eps_e[:1], eps_e[:-1]])
        return eps_e, eps_s, n

    def _table(self, t: int) -> tuple[list, list, list]:
        """``prefix`` as lists, grown to cover epoch ``t``; kept out of the
        dataclass fields, so asdict, == and hash ignore it."""
        if t < 0:
            raise ValueError("epoch index must be nonnegative")
        table = self.__dict__.get("_rows")
        if table is None or t >= len(table[0]):
            table = tuple(column.tolist() for column in self.prefix(max(2 * t, 64)))
            object.__setattr__(self, "_rows", table)
        return table

    def eps_e(self, t: int) -> float:
        return self._table(t)[0][t]

    def eps_s(self, t: int) -> float:
        return self._table(t)[1][t]

    def rounds(self, t: int) -> int:
        return int(self._table(t)[2][t])


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
    """The prefix through T, the factors at t = 1..T, and the first t whose
    factor or N^t is not finite, or whose factor is not positive."""
    eps_e, eps_s, rounds = schedule.prefix(T + 2)
    n = rounds[1 : T + 1]
    a = float(schedule.actions_total)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fac_s = 1.0 - a / (n * eps_s[2:] ** 2)
        fac_e = 1.0 - a / (n * eps_e[1:-1] ** 2)
    good = np.isfinite(n) & np.isfinite(fac_s) & np.isfinite(fac_e) & (fac_s > 0) & (fac_e > 0)
    bad = np.flatnonzero(~good)
    first_bad = int(bad[0]) + 1 if bad.size else None
    return eps_e[: T + 1], eps_s[: T + 1], rounds[: T + 1], fac_s, fac_e, first_bad


def check_valid_prefix(schedule: Schedule, T: int) -> ValidityReport:
    """Verify the schedule validity conditions on the prefix t <= T.

    The built-in family is valid analytically (factors are bounded below
    by ``2**-(1/t)^2`` exactly, by the ceiling in N_t) until N^t overflows;
    for custom schedules this is an empirical prefix check only.
    """
    if T < 2:
        raise ValueError("horizon must be at least 2")
    eps_e, eps_s, rounds, _, _, first_bad = _factors(schedule, T)
    return ValidityReport(
        horizon=T,
        eps_e_decreasing=bool(np.all(eps_e[1:] < eps_e[:-1])),
        eps_s_decreasing=bool(np.all(eps_s[2:] < eps_s[1:-1])),
        # epoch 0 length is unconstrained by validity; check from t >= 1
        rounds_nondecreasing=bool(np.all(rounds[2:] >= rounds[1:-1])),
        factors_positive=first_bad is None,
        first_bad_t=first_bad,
    )


def _positive_factors(schedule: Schedule, T: int):
    if T < 1:
        raise ValueError("horizon must be at least 1")
    _, _, _, fac_s, fac_e, first_bad = _factors(schedule, T)
    if first_bad is not None:
        raise ValueError(f"nonpositive or non-finite validity factor at t={first_bad}")
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
