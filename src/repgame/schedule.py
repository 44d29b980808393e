"""Epoch parameter schedules: thresholds (eps_e, eps_s) and epoch lengths N.

The built-in family pairs a decreasing threshold sequence with epoch
lengths chosen so that the factor ``1 - A / (N_t * eps_t^2)`` at epoch
``t >= 1`` is at least ``2 ** -(1/t)^2``.  The infinite product of those
lower bounds is ``2 ** -(pi^2 / 6)``, which keeps the probability of a
false hypothesis rejection over all epochs strictly below 1.
"""
from __future__ import annotations

import math
import numbers
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
        # Finite floats, with -0.0 as 0.0, so a run document's 0, 0.0 and -0.0 give one
        # schedule and one trace header.  A harmonic one hashes and writes its unused rate.
        for name in ("epsilon_base", "offset", "rate"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value) + 0.0)
        if not 0.0 < self.epsilon_base <= 1.0:
            raise ValueError("epsilon_base must be in (0, 1]")
        check_count("actions_total", self.actions_total, 2)
        if self.decay not in ("harmonic", "geometric"):
            raise ValueError(f"unknown decay family {self.decay!r}")
        if self.decay == "geometric" and not 0.0 < self.rate < 1.0:
            raise ValueError("rate must be in (0, 1) for a geometric schedule")
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
        dataclass fields, so asdict, == and hash ignore it; a pickled
        schedule carries the table it has built so far."""
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
    """Prefix check of the schedule validity conditions up to T.

    The stationarity side needs nothing of its own: eps_s^{2..T} is
    eps_e^{1..T-1}, and its factor at t is the equilibrium side's.
    """

    horizon: int
    eps_e_decreasing: bool
    rounds_nondecreasing: bool
    first_bad_t: int | None  # the first t whose N^t or factor fails, as _factors says

    @property
    def valid(self) -> bool:
        return self.eps_e_decreasing and self.rounds_nondecreasing and self.first_bad_t is None


def _factors(schedule: Schedule, T: int):
    """eps_e^t and N^t for t <= T, the factors ``1 - A / (N^t * (eps_e^t)^2)`` at
    t = 1..T, and the first t whose factor or N^t is not finite, or whose factor
    is not positive.  As eps_s^{t+1} = eps_e^t, each factor is both tests' own."""
    eps_e, _, rounds = schedule.prefix(T + 1)
    n = rounds[1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        factors = 1.0 - float(schedule.actions_total) / (n * eps_e[1:] ** 2)
    bad = np.flatnonzero(~(np.isfinite(n) & np.isfinite(factors) & (factors > 0)))
    return eps_e, rounds, factors, int(bad[0]) + 1 if bad.size else None


def check_valid_prefix(schedule: Schedule, T: int) -> ValidityReport:
    """Verify the schedule validity conditions on the prefix t <= T.

    The built-in family is valid analytically (factors are bounded below
    by ``2**-(1/t)^2`` exactly, by the ceiling in N_t) until N^t overflows;
    for custom schedules this is an empirical prefix check only.
    """
    if T < 2:
        raise ValueError("horizon must be at least 2")
    eps_e, rounds, _, first_bad = _factors(schedule, T)
    return ValidityReport(
        horizon=T,
        eps_e_decreasing=bool(np.all(eps_e[1:] < eps_e[:-1])),
        # epoch 0 length is unconstrained by validity; check from t >= 1
        rounds_nondecreasing=bool(np.all(rounds[2:] >= rounds[1:-1])),
        first_bad_t=first_bad,
    )


def _log_factors(schedule: Schedule, T: int) -> np.ndarray:
    if T < 1:
        raise ValueError("horizon must be at least 1")
    _, _, factors, first_bad = _factors(schedule, T)
    if first_bad is not None:
        raise ValueError(f"nonpositive or non-finite validity factor at t={first_bad}")
    return np.log(factors)


def never_restart_lower_bound(schedule: Schedule, T: int) -> float:
    """The product of the validity factors over t = 1..T.

    It lower-bounds the probability that the equilibrium hypothesis, and
    equally the stationarity hypothesis (its factors are the same), is
    never falsely rejected through epoch T.  It is nonincreasing in T; for
    the built-in family it is at least ``2 ** -(sum_{t<=T} (1/t)^2)``.
    """
    return float(np.exp(np.sum(_log_factors(schedule, T))))


def never_restart_products(schedule: Schedule, T: int) -> np.ndarray:
    """``never_restart_lower_bound`` at every horizon 1..T, in one pass.

    The running sum may differ from the bound's pairwise sum in the last
    bits: by 1.76e-11 at T = 10**6 on the default family (numpy 2.4,
    AVX-512 x86-64), more than the 1e-12 the acceptance suite holds the
    bound to.
    """
    return np.exp(np.cumsum(_log_factors(schedule, T)))
