import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flexshop import actual_time


# [PAPER-style goldens] adjusted times of the worked two-machine example
@pytest.mark.parametrize(
    "p, r, expected",
    [
        (1, 1, 100),
        (10, 1, 1000),
        (10, 2, 500),
        (1, 2, 50),
        (1, 3, 33),
        (10, 3, 333),
        (1, 4, 25),
        (1, 5, 20),
        (5, 1, 500),
    ],
)
def test_goldens_alpha_one(p, r, expected):
    assert actual_time(p, r, 1.0) == expected


def test_frozen_golden_fractional_alpha():
    # [DERIVED] frozen from a 60-digit mpmath evaluation of 100*7/5**0.1
    assert actual_time(7, 5, 0.1) == 596


def test_high_precision_grid():
    """Cross-check the float implementation against exact mpmath arithmetic."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    for alpha in (0.1, 0.2, 0.3, 1.0):
        for p in range(0, 101, 7):
            for r in range(1, 51):
                exact = int(mp.floor(100 * p / mp.mpf(r) ** alpha + mp.mpf(1) / 2))
                assert actual_time(p, r, alpha) == exact, (p, r, alpha)


def _overflow_edge(r: int) -> tuple:
    """The largest alpha for which the float ``r**alpha`` is finite, and
    the next float, for which it overflows."""
    finite, overflowing = 1.0, 2048.0
    while math.nextafter(finite, overflowing) < overflowing:
        mid = (finite + overflowing) / 2
        try:
            r**mid
        except OverflowError:
            overflowing = mid
        else:
            finite = mid
    return finite, overflowing


def test_time_is_zero_once_the_divisor_overflows():
    """A position ``r`` whose ``r**alpha`` overflows a float takes 0 time
    units, which exact mpmath arithmetic confirms on both sides of the edge
    for standard times up to the largest that an instance may hold
    (100 * p <= 2**1000)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    assert actual_time(4, 3, 700.0) == 0
    largest = 2**1000 // 100
    cases = [(largest, 2, 990.0)]  # 2**10 units or so, below the edge
    for r in (2, 3, 10, 999):
        finite, overflowing = _overflow_edge(r)
        cases += [(p, r, alpha) for p in (1, 4, largest)
                  for alpha in (finite, overflowing, 2 * overflowing)]
    for p, r, alpha in cases:
        exact = int(mp.floor(100 * p / mp.mpf(r) ** mp.mpf(alpha)
                             + mp.mpf(1) / 2))
        assert actual_time(p, r, alpha) == exact, (p, r, alpha)
    assert actual_time(largest, 2, 990.0) > 0


def test_large_times_are_exact():
    """Where ``100 * p`` reaches 2**53, a float quotient would round it
    (to 100000000000000096 here); the time is still exact."""
    assert actual_time(10**15 + 1, 1, 0.2) == 100000000000000100
    for r in (1, 2, 7, 1000):
        assert actual_time(2**950 + 1, r, 0.0) == 100 * (2**950 + 1)


@given(st.integers(min_value=0, max_value=2**1000 // 100),
       st.integers(min_value=1, max_value=10**6),
       st.floats(min_value=0.0, max_value=3.0))
def test_time_is_the_exact_quotient_rounded_half_up(p, r, alpha):
    """Up to the largest standard time an instance may hold, the time is
    ``100 * p`` over the float ``r**alpha``'s exact value, rounded half
    up."""
    exact = Fraction(100 * p) / Fraction(r**alpha)
    assert actual_time(p, r, alpha) == math.floor(exact + Fraction(1, 2))


@given(st.integers(min_value=0, max_value=10**6))
def test_position_one_is_identity(p):
    assert actual_time(p, 1, 0.3) == 100 * p


@given(st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=1, max_value=10**6),
       st.sampled_from([0.0, -0.0]))
def test_no_learning_keeps_every_time(p, r, alpha):
    """At α = 0 (or -0.0), the case without a learning effect, every
    position takes the standard time, scaled by 100."""
    assert actual_time(p, r, alpha) == 100 * p


@given(st.integers(min_value=1, max_value=100),
       st.floats(min_value=0.05, max_value=2.0))
def test_zero_time_stays_zero(r, alpha):
    assert actual_time(0, r, alpha) == 0


@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=99),
       st.floats(min_value=0.05, max_value=2.0))
def test_monotone_non_increasing_in_position(p, r, alpha):
    assert actual_time(p, r + 1, alpha) <= actual_time(p, r, alpha)


@pytest.mark.parametrize("p, r, alpha", [(1, 0, 1.0), (-1, 1, 1.0),
                                         (1, 1, math.nan), (1, 1, -0.5),
                                         (1, -2, 1.0), (2, 3, math.inf)])
def test_invalid_arguments(p, r, alpha):
    with pytest.raises(ValueError):
        actual_time(p, r, alpha)
