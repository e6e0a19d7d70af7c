"""Exponential fatigue accumulation: f(t) = 1 - exp(-rate * t).

Fatigue grows from 0 toward 1 as exposure time increases; ``rate`` (per
hour) controls how fast.  The two operations here convert between the
fatigue observed after some exposure and the underlying rate; composed,
they rescale it to another exposure.  All durations are in hours.
"""

from __future__ import annotations

import math

from .errors import (
    FatigueOutOfRange,
    NegativeTime,
    NonPositiveRate,
    NonPositiveTime,
)


def fatigue_at(rate: float, t: float) -> float:
    """Fatigue accumulated after ``t`` hours at the given hourly rate.

    Strictly increasing in both arguments; 0 at t=0; approaches 1 as
    t grows.  Uses expm1 so tiny exposures keep full precision.
    """
    if not (rate > 0 and math.isfinite(rate)):
        raise NonPositiveRate(f"rate must be positive and finite, got {rate!r}")
    if t < 0 or not math.isfinite(t):
        raise NegativeTime(f"t must be a nonnegative finite number of hours, got {t!r}")
    return -math.expm1(-rate * t)


def rate_from_fatigue(f: float, t: float) -> float:
    """Hourly rate that produces fatigue ``f`` after ``t`` hours.

    Exact inverse of :func:`fatigue_at`: rate = -ln(1 - f) / t.  Fatigue
    values of exactly 0 or 1 are rejected (logarithm singularity).
    """
    if not (0.0 < f < 1.0):
        raise FatigueOutOfRange(f"fatigue must lie strictly in (0, 1), got {f!r}")
    if not (t > 0 and math.isfinite(t)):
        raise NonPositiveTime(f"t must be a positive finite number of hours, got {t!r}")
    return -math.log1p(-f) / t

