import math

import pytest
from hypothesis import given, strategies as st

from ahft import fatigue_at, rate_from_fatigue
from ahft.errors import (
    FatigueOutOfRange,
    NegativeTime,
    NonPositiveRate,
    NonPositiveTime,
)


def test_fatigue_at_known_rate():
    # rate = -ln(1 - 0.130), so one hour reproduces the measurement
    assert fatigue_at(0.139262, 1.0) == pytest.approx(0.130, abs=1e-5)


def test_fatigue_at_boundaries():
    assert fatigue_at(0.5, 0.0) == 0.0
    assert fatigue_at(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)


def test_fatigue_at_monotone():
    levels = [fatigue_at(0.3, t) for t in (0.0, 0.5, 1.0, 2.0, 8.0)]
    assert all(a < b for a, b in zip(levels, levels[1:]))
    rates = [fatigue_at(r, 2.0) for r in (0.01, 0.1, 0.5, 2.0)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_fatigue_at_rejects_bad_arguments():
    with pytest.raises(NonPositiveRate):
        fatigue_at(0.0, 1.0)
    with pytest.raises(NegativeTime):
        fatigue_at(0.5, -1.0)


def test_rate_from_fatigue_known_values():
    assert rate_from_fatigue(0.165, 1.0) == pytest.approx(0.180324, abs=1e-5)
    assert rate_from_fatigue(1.0 - math.exp(-1.0), 1.0) == pytest.approx(1.0, rel=1e-12)


def test_rate_from_fatigue_rejects_bad_arguments():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(FatigueOutOfRange):
            rate_from_fatigue(bad, 1.0)
    with pytest.raises(NonPositiveTime):
        rate_from_fatigue(0.5, 0.0)


# Rescaling an observation to another exposure: the rate of (f, t1),
# then the curve at t2.
def test_rescale_doubling_exposure():
    # doubling the exposure of a 0.130 measurement: 1 - 0.87**2
    assert fatigue_at(rate_from_fatigue(0.130, 1.0), 2.0) == pytest.approx(0.2431, abs=1e-12)


def test_rescale_identity_and_zero():
    assert fatigue_at(rate_from_fatigue(0.130, 1.0), 1.0) == pytest.approx(0.130, rel=1e-12)
    assert fatigue_at(rate_from_fatigue(0.130, 1.0), 0.0) == 0.0


@given(
    f=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    t=st.floats(min_value=1e-3, max_value=1e3),
)
def test_rate_fatigue_round_trip(f, t):
    assert abs(fatigue_at(rate_from_fatigue(f, t), t) - f) < 1e-12


# Exposure ratios are capped at 4x: past that the intermediate fatigue
# saturates within one ulp of 1.0 and the comparison measures float
# rounding, not the composition law.
@given(
    f=st.floats(min_value=1e-6, max_value=0.8),
    t1=st.floats(min_value=0.5, max_value=2.0),
    t2=st.floats(min_value=0.5, max_value=2.0),
    t3=st.floats(min_value=0.5, max_value=2.0),
)
def test_rescale_composition(f, t1, t2, t3):
    direct = fatigue_at(rate_from_fatigue(f, t1), t3)
    chained = fatigue_at(rate_from_fatigue(fatigue_at(rate_from_fatigue(f, t1), t2), t2), t3)
    assert abs(direct - chained) < 1e-12
