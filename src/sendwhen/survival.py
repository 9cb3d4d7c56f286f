"""The Weibull law and the send-now-vs-wait kernel that scoring runs.

Everything here is a pure function of its arguments and safe to call
concurrently.  Probabilities are assembled in log space (``expm1``-style
survival forms) so that large exponents do not collapse to 1.0 with
catastrophic cancellation.

Time is measured in hours throughout the package; the Weibull ``rate``
parameter therefore carries units of hours^(-shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["WeibullParams", "cum_hazard", "aft_rate", "send_vs_wait"]


@dataclass(frozen=True)
class WeibullParams:
    """Weibull distribution F(t) = 1 - exp(-rate * t**shape), t >= 0.

    ``shape == 1`` is the exponential (memoryless) special case.
    """

    rate: float
    shape: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise DomainError(f"rate must be finite and > 0, got {self.rate}")
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise DomainError(f"shape must be finite and > 0, got {self.shape}")


def cum_hazard(t, rate, shape):
    """rate * t**shape, the Weibull cumulative hazard at t >= 0; floats or arrays."""
    return rate * t**shape


def aft_rate(mu: float, sigma: float) -> float:
    """exp(-mu / sigma), the Weibull rate of log T = mu + sigma*eps; inf past the float range."""
    try:
        return math.exp(-mu / sigma)
    except OverflowError:
        return math.inf


def send_vs_wait(
    horizon_t: float, w0: float, rate0: float, shape0: float, rate1: float, shape1: float
) -> tuple[float, float, float]:
    """(delta, p_send, p_wait) of a send now; plain floats, unchecked.

    (rate0, shape0) is the pre-send law and (rate1, shape1) the post-send
    one; the caller ensures T = horizon_t > 0, w0 >= 0 and finite positive
    rates and shapes.  p_send is the post-send CDF at T.  p_wait is the
    pre-send probability of a visit within T after w0 hours without one,
    [F(T + w0) - F(w0)] / [1 - F(w0)] = 1 - exp(-gap) with the hazard gap
    gap = rate0 * ((T + w0)**shape0 - w0**shape0), a form that never
    divides by a tiny survival value.  delta = exp(-gap) - exp(-rate1 *
    T**shape1) is signed and, for shape0 in (0, 1), increasing in w0.

    Huge w0: the gap cancels when w0 >> T, so delta's absolute error grows
    like 2**-51 * (1 + rate0 * w0**shape0); the stable form rate0 *
    w0**shape0 * expm1(shape0 * log1p(T / w0)) would change the bits of
    ordinary scores.  For rate 0.05 and shape 0.5 in both laws and T = 24,
    the relative error stays below 1e-12 up to w0 = 1e8 h (about 11,000
    years) and is near 1e-9 at 1e14 h.  p_wait stays in [0, 1] until a
    power overflows (OverflowError), and delta falls as w0 grows only
    between w0 values so close that its true rise is below that error.
    """
    gap = cum_hazard(horizon_t + w0, rate0, shape0) - cum_hazard(w0, rate0, shape0)
    post = cum_hazard(horizon_t, rate1, shape1)
    return math.exp(-gap) - math.exp(-post), -math.expm1(-post), -math.expm1(-gap)
