import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repgame.schedule import (
    PRODUCT_LIMIT,
    Schedule,
    _factors,
    check_valid_prefix,
    never_restart_lower_bound,
    never_restart_products,
)

DEFAULT = Schedule(epsilon_base=0.5, actions_total=4)


# -- epoch parameters -----------------------------------------------------------


def test_epoch_params_default_family_frozen_values():
    assert (DEFAULT.eps_e(0), DEFAULT.eps_s(0), DEFAULT.rounds(0)) == (0.5, 0.5, 32)
    assert (DEFAULT.eps_e(1), DEFAULT.eps_s(1), DEFAULT.rounds(1)) == (0.25, 0.5, 128)
    assert DEFAULT.eps_e(2) == pytest.approx(1 / 6)
    assert DEFAULT.eps_s(2) == 0.25
    assert DEFAULT.rounds(2) == 906


def test_epoch_params_six_action_values():
    s = Schedule(epsilon_base=0.5, actions_total=6)
    assert [s.rounds(t) for t in range(3)] == [48, 192, 1358]


def test_eps_coupling():
    # The coupling the validity factor and the margin read eps_s^{t+1} from,
    # bit for bit, on built-in schedules and on schedules overriding columns.
    bits = struct.Struct("<d").pack
    for s in (
        DEFAULT,
        Schedule(epsilon_base=0.3, actions_total=6, decay="geometric"),
        Schedule(epsilon_base=0.5, actions_total=6),
        Schedule(epsilon_base=1 / 30, actions_total=6, offset=29.0),
        GEOMETRIC_09,
        Schedule(epoch0_rounds=7),
        _ForcedRoundsSchedule(),
        _ShrinkingRoundsSchedule(),
        _ConstantEpsSchedule(),
        _NanEpsSchedule(),
    ):
        assert bits(s.eps_s(0)) == bits(s.eps_e(0))
        for t in range(5000):
            assert bits(s.eps_s(t + 1)) == bits(s.eps_e(t)), (s, t)


def test_epoch_params_pure_function():
    a = (DEFAULT.eps_e(5), DEFAULT.eps_s(5), DEFAULT.rounds(5))
    b = (DEFAULT.eps_e(5), DEFAULT.eps_s(5), DEFAULT.rounds(5))
    assert a == b


def test_geometric_decay():
    s = Schedule(epsilon_base=0.5, actions_total=4, decay="geometric", rate=0.5)
    assert s.eps_e(0) == 0.5
    assert s.eps_e(3) == 0.5 * 0.5**3


def test_harmonic_offset():
    s = Schedule(epsilon_base=1 / 30, actions_total=6, offset=29.0)
    assert s.eps_e(0) == pytest.approx((1 / 30) * 30 / 30)
    assert s.eps_e(30) == pytest.approx((1 / 30) * 30 / 60)


def test_epoch0_rounds_override():
    s = Schedule(epsilon_base=0.5, actions_total=4, epoch0_rounds=5)
    assert s.rounds(0) == 5
    assert s.rounds(1) == 128  # override touches only epoch 0


@st.composite
def schedules(draw):
    geometric = draw(st.booleans())
    return Schedule(
        epsilon_base=draw(st.floats(0.01, 1.0)),
        actions_total=draw(st.integers(2, 12)),
        decay="geometric" if geometric else "harmonic",
        offset=0.0 if geometric else draw(st.floats(0.0, 50.0)),
        rate=draw(st.floats(0.5, 0.99)) if geometric else 0.5,
        epoch0_rounds=draw(st.one_of(st.none(), st.integers(1, 100))),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(schedules(), st.lists(st.integers(0, 399), max_size=6), st.permutations(range(400)))
@example(Schedule(decay="geometric", rate=0.9), [], list(range(400)))
def test_lookups_equal_the_arrays_the_prefix_check_reads(schedule, first, order):
    # ``first`` are looked up before the rest, in ``order``, so the table
    # grows from different sizes; every value must still be the array's,
    # and eps_s^t the array's eps_e^{t-1} (eps_e^0 at t = 0).
    eps_e, rounds = _factors(schedule, 399)[:2]
    for t in first + order:
        assert (schedule.eps_e(t), schedule.eps_s(t), schedule.rounds(t)) == (
            eps_e[t], eps_e[max(t - 1, 0)], int(rounds[t])
        ), t


def test_the_table_is_not_a_field():
    s = Schedule()
    s.rounds(100)
    assert s == Schedule() and hash(s) == hash(Schedule())
    assert dataclasses.asdict(s) == dataclasses.asdict(Schedule())


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Schedule(epsilon_base=0.0, actions_total=4)
    with pytest.raises(ValueError):
        Schedule(epsilon_base=1.5, actions_total=4)
    with pytest.raises(ValueError):
        Schedule(epsilon_base=0.5, actions_total=0)
    with pytest.raises(ValueError):
        Schedule(epsilon_base=0.5, actions_total=4, decay="cubic")
    # A non-finite offset gives NaN thresholds, and a harmonic schedule writes
    # its unused rate into the trace header, where NaN is not JSON.
    for bad in ({"offset": math.nan}, {"offset": math.inf}, {"rate": math.nan}, {"rate": math.inf}):
        with pytest.raises(ValueError, match="must be finite"):
            Schedule(**{"epsilon_base": 0.5, "actions_total": 4, **bad})
    # Counts are integers, not floats or bools.
    for bad in ({"epoch0_rounds": 2.5}, {"epoch0_rounds": True}, {"epoch0_rounds": 0},
                {"actions_total": 4.5}, {"actions_total": True}, {"actions_total": 4.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            Schedule(**{"epsilon_base": 0.5, "actions_total": 4, **bad})


@pytest.mark.parametrize("rate", [[], [0.5], {}, "0.5", None])
def test_a_harmonic_schedule_needs_a_numeric_rate(rate):
    # A harmonic schedule does not use its rate, but a schedule is hashable,
    # and a list or a dict is not.
    with pytest.raises(ValueError, match="rate must be a number"):
        Schedule(epsilon_base=0.5, actions_total=4, rate=rate)
    with pytest.raises(ValueError, match="in .0, 1. for a geometric schedule"):
        Schedule(epsilon_base=0.5, actions_total=4, decay="geometric", rate=1.0)


# -- validity checking -------------------------------------------------------------


def test_default_family_valid_long_prefix():
    report = check_valid_prefix(DEFAULT, 1000)
    assert report.valid
    assert report.eps_e_decreasing and report.rounds_nondecreasing
    assert report.first_bad_t is None


class _ForcedRoundsSchedule(Schedule):
    """Default epsilons but every epoch forced to one round."""

    def columns(self, ts):
        return DEFAULT.columns(ts)[0], np.ones_like(ts)


class _ShrinkingRoundsSchedule(Schedule):
    """Default epsilons, but N^t = 10 N^12 - t shrinks while every factor
    stays positive."""

    def columns(self, ts):
        return DEFAULT.columns(ts)[0], 10.0 * DEFAULT.rounds(12) - ts


class _ConstantEpsSchedule(Schedule):
    """eps_e (and so eps_s) stays 0.5; default epoch lengths."""

    def columns(self, ts):
        return np.full_like(ts, 0.5), DEFAULT.columns(ts)[1]


def test_forced_single_round_schedule_fails():
    report = check_valid_prefix(_ForcedRoundsSchedule(), 10)
    assert not report.valid
    assert report.first_bad_t == 1


def test_shrinking_rounds_schedule_fails():
    report = check_valid_prefix(_ShrinkingRoundsSchedule(), 10)
    assert report.eps_e_decreasing and report.first_bad_t is None
    assert not report.rounds_nondecreasing
    assert not report.valid


def test_constant_eps_schedule_fails_monotonicity():
    report = check_valid_prefix(_ConstantEpsSchedule(), 10)
    assert not report.valid
    assert not report.eps_e_decreasing


class _NanEpsSchedule(Schedule):
    """Default epoch lengths, but eps_e is NaN from t = 5."""

    def columns(self, ts):
        eps_e, n = DEFAULT.columns(ts)
        return np.where(ts >= 5, np.nan, eps_e), n


def test_nan_factor_fails():
    report = check_valid_prefix(_NanEpsSchedule(), 10)
    assert not report.valid
    assert report.first_bad_t == 5


GEOMETRIC_09 = Schedule(decay="geometric", rate=0.9)


def test_infinite_epoch_length_fails():
    # N^t overflows to inf from t = 3277; eps_e^2 underflows to 0 from
    # t = 3530, where the factors become NaN.
    assert GEOMETRIC_09.rounds(3276) > 2**1000
    assert check_valid_prefix(GEOMETRIC_09, 3276).valid
    report = check_valid_prefix(GEOMETRIC_09, 3600)
    assert not report.valid
    assert report.first_bad_t == 3277
    assert report.eps_e_decreasing


def test_short_horizon_rejected():
    with pytest.raises(ValueError):
        check_valid_prefix(DEFAULT, 1)


# -- never-restart bound -------------------------------------------------------------


def test_single_factor_value():
    prod = never_restart_lower_bound(DEFAULT, 1)
    # t=1: eps_e^1 = eps_s^2 = 0.25, N^1 = 128.
    assert prod == pytest.approx(1 - 4 / (128 * 0.0625))
    assert prod == pytest.approx(0.5)


def test_products_monotone_nonincreasing():
    prods = [never_restart_lower_bound(DEFAULT, T) for T in range(1, 30)]
    for p1, p2 in zip(prods, prods[1:]):
        assert p2 <= p1 + 1e-15


def test_factor_bound_holds_exactly():
    # The ceiling in N^t makes each factor at least 2**-(1/t)^2, exactly.
    T = 10_000
    t = np.arange(1, T + 1, dtype=np.float64)
    eps_e = 0.5 / (t + 1)
    rounds = DEFAULT.columns(t)[1]
    factors = 1.0 - 4.0 / (rounds * eps_e**2)
    assert np.all(factors >= 2.0 ** -(1.0 / t) ** 2)


def test_partial_products_bounded_below_by_limit():
    for T in (10, 100, 1000):
        assert never_restart_lower_bound(DEFAULT, T) >= PRODUCT_LIMIT


def test_products_at_every_horizon_match_the_bound():
    prods = never_restart_products(DEFAULT, 1000)
    assert prods.shape == (1000,)
    for T in (1, 10, 100, 1000):
        assert prods[T - 1] == pytest.approx(never_restart_lower_bound(DEFAULT, T), rel=1e-12)


def test_product_limit_constant():
    assert PRODUCT_LIMIT == pytest.approx(2.0 ** -(math.pi**2 / 6), abs=1e-12)


def test_nonpositive_factor_raises_in_bound():
    with pytest.raises(ValueError):
        never_restart_lower_bound(_ForcedRoundsSchedule(), 5)


def test_infinite_epoch_length_raises_in_bound():
    assert 0 < never_restart_lower_bound(GEOMETRIC_09, 3276) < 1
    with pytest.raises(ValueError, match="t=3277"):
        never_restart_lower_bound(GEOMETRIC_09, 3600)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Schedule(offset=-1.0), "offset must be nonnegative"),
        (lambda: Schedule().eps_e(-1), "epoch index must be nonnegative"),
        (lambda: never_restart_lower_bound(Schedule(), 0), "horizon must be at least 1"),
    ],
    ids=["negative-offset", "negative-epoch", "empty-horizon"],
)
def test_arguments_out_of_range_raise(call, message):
    # A negative epoch would otherwise read the table from its end.
    with pytest.raises(ValueError, match=message):
        call()
