"""Weibull distribution functions and the send-now-vs-wait math.

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

__all__ = [
    "WeibullParams",
    "StatePair",
    "weibull_cdf",
    "weibull_sf",
    "weibull_pdf",
    "prob_visit_if_send",
    "prob_visit_if_not_send",
    "delta_effect",
]


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


@dataclass(frozen=True)
class StatePair:
    """Time-to-visit laws before (pre) and after (post) a hypothetical send.

    ``elapsed_w0`` is how long, in hours, the user has already spent in the
    pre-send state (time since the last badge update).
    """

    pre: WeibullParams
    post: WeibullParams
    elapsed_w0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.elapsed_w0) and self.elapsed_w0 >= 0.0):
            raise DomainError(
                f"elapsed_w0 must be finite and >= 0, got {self.elapsed_w0}"
            )


def _check_time(t: float, name: str = "t", positive: bool = False) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"{name} must be finite, got {t}")
    if positive:
        if t <= 0.0:
            raise DomainError(f"{name} must be > 0, got {t}")
    elif t < 0.0:
        raise DomainError(f"{name} must be >= 0, got {t}")
    return t


def _cum_hazard(t: float, p: WeibullParams) -> float:
    """rate * t**shape; the Weibull cumulative hazard at t."""
    if t == 0.0:
        return 0.0
    return p.rate * t**p.shape


def weibull_cdf(t: float, p: WeibullParams) -> float:
    """P(visit time <= t) for t >= 0.

    Computed as -expm1(-rate * t**shape) so values near 1 keep full
    precision in the survival tail.
    """
    t = _check_time(t)
    return -math.expm1(-_cum_hazard(t, p))


def weibull_sf(t: float, p: WeibullParams) -> float:
    """Survival function P(visit time > t) = exp(-rate * t**shape)."""
    t = _check_time(t)
    return math.exp(-_cum_hazard(t, p))


def weibull_pdf(t: float, p: WeibullParams) -> float:
    """Density shape*rate*t**(shape-1)*exp(-rate*t**shape) for t >= 0.

    At t == 0 the density is rate for shape == 1, zero for shape > 1, and
    +inf for shape < 1; the infinity is a genuine boundary value of the
    distribution, returned as such rather than raised.
    """
    t = _check_time(t)
    if t == 0.0:
        if p.shape < 1.0:
            return math.inf
        if p.shape == 1.0:
            return p.rate
        return 0.0
    log_pdf = (
        math.log(p.shape)
        + math.log(p.rate)
        + (p.shape - 1.0) * math.log(t)
        - _cum_hazard(t, p)
    )
    return math.exp(log_pdf)


def prob_visit_if_send(horizon_t: float, post: WeibullParams) -> float:
    """Probability of a visit within horizon_t hours if we send now.

    Sending starts the post-send state, so this is simply the post-state
    CDF at the horizon.
    """
    horizon_t = _check_time(horizon_t, "horizon_t", positive=True)
    return weibull_cdf(horizon_t, post)


def prob_visit_if_not_send(
    horizon_t: float, pre: WeibullParams, w0: float
) -> float:
    """Probability of a visit within horizon_t hours if we hold.

    The user has already spent w0 hours in the current state without
    visiting, so this is the conditional probability
    [F(horizon_t + w0) - F(w0)] / [1 - F(w0)], which for the Weibull
    collapses to 1 - exp(-rate * ((horizon_t + w0)**shape - w0**shape)).
    The collapsed form is used: it never divides by a tiny survival value.
    """
    horizon_t = _check_time(horizon_t, "horizon_t", positive=True)
    w0 = _check_time(w0, "w0")
    hazard_gap = _cum_hazard(horizon_t + w0, pre) - _cum_hazard(w0, pre)
    return -math.expm1(-hazard_gap)


def delta_effect(sp: StatePair, horizon_t: float) -> float:
    """Extra visit probability within horizon_t gained by sending now.

    Equals prob_visit_if_send - prob_visit_if_not_send, evaluated in the
    closed form

        exp(-rate0 * ((T + w0)**shape0 - w0**shape0)) - exp(-rate1 * T**shape1)

    which is strictly increasing in w0 whenever shape0 is in (0, 1).  The
    value is signed; a post-send state worse than waiting yields a
    negative delta, and thresholding is left to the decision policies.
    """
    horizon_t = _check_time(horizon_t, "horizon_t", positive=True)
    hazard_gap = _cum_hazard(horizon_t + sp.elapsed_w0, sp.pre) - _cum_hazard(
        sp.elapsed_w0, sp.pre
    )
    return math.exp(-hazard_gap) - math.exp(-_cum_hazard(horizon_t, sp.post))
