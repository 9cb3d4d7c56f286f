"""Closed forms of the Weibull law, written out as references for tests.

Each function spells out its textbook formula and calls none of the
package's kernels; a law is a WeibullParams(rate, shape).  The operations
and their order are those of survival.send_vs_wait: the CDF is
-expm1(-rate * t**shape) and the hazard gap of holding w0 hours is
rate0 * (T + w0)**shape0 - rate0 * w0**shape0, so a kernel that computes
the same law gives these floats bit for bit.
"""

import math


def _hazard(t, law):
    """rate * t**shape, the cumulative hazard at t."""
    return law.rate * float(t) ** law.shape


def weibull_cdf(t, law):
    """P(visit time <= t) = 1 - exp(-rate * t**shape)."""
    return -math.expm1(-_hazard(t, law))


def weibull_sf(t, law):
    """P(visit time > t) = exp(-rate * t**shape)."""
    return math.exp(-_hazard(t, law))


def _gap(horizon_t, pre, w0):
    """The hazard pre accrues over (w0, w0 + horizon_t]."""
    return _hazard(horizon_t + w0, pre) - _hazard(w0, pre)


def prob_visit_if_send(horizon_t, post):
    """A visit within horizon_t after a send now: post's CDF at horizon_t."""
    return weibull_cdf(horizon_t, post)


def prob_visit_if_not_send(horizon_t, pre, w0):
    """A visit within horizon_t when holding, w0 hours into pre: 1 - S(T + w0) / S(w0)."""
    return -math.expm1(-_gap(horizon_t, pre, w0))


def delta_effect(horizon_t, pre, post, w0):
    """The visit probability a send now adds within horizon_t, w0 hours into pre.

    S_pre(T + w0) / S_pre(w0) - S_post(T), with the quotient as exp(-gap).
    """
    return math.exp(-_gap(horizon_t, pre, w0)) - weibull_sf(horizon_t, post)
