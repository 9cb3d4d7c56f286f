"""Unit and property tests for the survival math core."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from sendwhen import (
    DomainError,
    WeibullParams,
    delta_effect,
    prob_visit_if_not_send,
    prob_visit_if_send,
    weibull_cdf,
    weibull_pdf,
    weibull_sf,
)
from sendwhen.survival import send_vs_wait

# Frozen reference values, computed independently with mpmath at 30 digits.
CDF_1_1_1 = 0.632120558828557678
P_WAIT_HALF_SHAPE = 0.339140198593172071  # rate=1, shape=0.5, T=1, w0=1
DELTA_W0_1 = 0.292980360235385608  # pre (1, 0.5) w0=1, post (1, 1), T=1
DELTA_W0_4 = 0.421847547270487655  # same but w0=4
PDF_2_HALF_13 = 0.233637811864321938  # t=2, rate=0.5, shape=1.3
SF_3_02_2 = 0.165298888221586538  # t=3, rate=0.2, shape=2


class TestHandValues:
    def test_cdf_unit_exponential(self):
        assert_allclose(weibull_cdf(1.0, WeibullParams(1.0, 1.0)), CDF_1_1_1, rtol=1e-14)

    def test_sf(self):
        assert_allclose(weibull_sf(3.0, WeibullParams(0.2, 2.0)), SF_3_02_2, rtol=1e-14)

    def test_pdf(self):
        assert_allclose(weibull_pdf(2.0, WeibullParams(0.5, 1.3)), PDF_2_HALF_13, rtol=1e-14)

    def test_prob_wait(self):
        p = prob_visit_if_not_send(1.0, WeibullParams(1.0, 0.5), w0=1.0)
        assert_allclose(p, P_WAIT_HALF_SHAPE, rtol=1e-14)

    def test_delta(self):
        pre, post = WeibullParams(1.0, 0.5), WeibullParams(1.0, 1.0)
        assert_allclose(delta_effect(1.0, pre, post, 1.0), DELTA_W0_1, rtol=1e-14)
        assert_allclose(delta_effect(1.0, pre, post, 4.0), DELTA_W0_4, rtol=1e-14)


class TestDistributionConsistency:
    """CDF, SF, and PDF must describe one and the same distribution."""

    PARAM_GRID = [
        WeibullParams(1.0, 1.0),
        WeibullParams(0.3, 0.6),
        WeibullParams(2.5, 1.8),
        WeibullParams(0.05, 0.9),
        WeibullParams(1.2, 3.0),
    ]

    def test_cdf_plus_sf_is_one(self):
        rng = np.random.default_rng(1001)
        for p in self.PARAM_GRID:
            for t in rng.uniform(0.0, 20.0, size=50):
                assert_allclose(weibull_cdf(t, p) + weibull_sf(t, p), 1.0, rtol=1e-12)

    def test_pdf_is_cdf_derivative(self):
        # Central differences on the survival function (which keeps full
        # relative precision in the tail, unlike the CDF near 1).
        rng = np.random.default_rng(1002)
        h = 1e-5
        for p in self.PARAM_GRID:
            for t in rng.uniform(0.5, 10.0, size=20):
                if p.rate * t**p.shape > 500.0:
                    continue  # sf would be subnormal; FD loses meaning there
                fd = (weibull_sf(t - h, p) - weibull_sf(t + h, p)) / (2 * h)
                assert_allclose(weibull_pdf(t, p), fd, rtol=1e-5)

    def test_pdf_integrates_to_cdf(self):
        # Keep the upper limits where the CDF is still resolvable below 1;
        # shape < 1 makes the integrand singular (integrable) at zero.
        for p in self.PARAM_GRID:
            t_cap = (20.0 / p.rate) ** (1.0 / p.shape)
            for t in (0.3, 0.25 * t_cap, t_cap):
                integral, _ = quad(lambda u: weibull_pdf(u, p), 0.0, t, limit=400)
                assert_allclose(integral, weibull_cdf(t, p), rtol=1e-8)

    def test_pdf_at_zero_boundary(self):
        assert weibull_pdf(0.0, WeibullParams(2.0, 0.5)) == math.inf
        assert weibull_pdf(0.0, WeibullParams(2.0, 1.0)) == 2.0
        assert weibull_pdf(0.0, WeibullParams(2.0, 1.5)) == 0.0

    def test_cdf_monotone_and_bounded(self):
        p = WeibullParams(0.7, 1.4)
        ts = np.linspace(0.0, 12.0, 200)
        vals = np.array([weibull_cdf(t, p) for t in ts])
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals < 1.0)
        assert vals[-1] > 0.99

    def test_tail_precision(self):
        # The expm1 form must resolve CDF values extremely close to 1:
        # sf stays meaningful where 1 - cdf would round to zero in a
        # naive 1 - exp(-u) formulation's complement.
        p = WeibullParams(1.0, 1.0)
        assert weibull_sf(40.0, p) == pytest.approx(math.exp(-40.0), rel=1e-12)
        # and CDF values extremely close to 0 keep full relative precision
        tiny = weibull_cdf(1e-12, p)
        assert_allclose(tiny, 1e-12, rtol=1e-9)


class TestExtremeValue:
    def test_log_time_mapping(self):
        # If log T = mu + sigma * eps with eps standard extreme value, then
        # T is Weibull with rate exp(-mu/sigma) and shape 1/sigma.
        rng = np.random.default_rng(1003)
        for _ in range(50):
            mu = rng.uniform(-1.0, 3.0)
            sigma = rng.uniform(0.4, 2.5)
            t = rng.uniform(0.1, 20.0)
            z = (math.log(t) - mu) / sigma
            ev_cdf = -math.expm1(-math.exp(z))
            p = WeibullParams(math.exp(-mu / sigma), 1.0 / sigma)
            assert_allclose(weibull_cdf(t, p), ev_cdf, rtol=1e-12)


class TestSendVsWait:
    def test_send_is_post_cdf(self):
        post = WeibullParams(0.8, 1.1)
        for t in (0.5, 4.0, 24.0):
            assert prob_visit_if_send(t, post) == weibull_cdf(t, post)

    def test_wait_equals_conditional_quotient(self):
        # Collapsed hazard-difference form must match the textbook
        # conditional probability [F(T+w0)-F(w0)] / [1-F(w0)].  The
        # quotient is evaluated through survival values, which keep full
        # relative precision where CDF subtraction would cancel to zero.
        rng = np.random.default_rng(1004)
        for _ in range(500):
            pre = WeibullParams(math.exp(rng.uniform(-4.0, 0.0)), rng.uniform(0.1, 1.2))
            t = rng.uniform(0.1, 48.0)
            w0 = rng.uniform(0.0, 72.0)
            s_w0 = weibull_sf(w0, pre)
            quotient = (s_w0 - weibull_sf(t + w0, pre)) / s_w0
            assert_allclose(prob_visit_if_not_send(t, pre, w0), quotient, atol=1e-12)

    def test_memoryless_when_shape_is_one(self):
        # Exponential pre-state: waiting probability cannot depend on w0.
        rng = np.random.default_rng(1005)
        for _ in range(200):
            pre = WeibullParams(math.exp(rng.uniform(-3.0, 0.5)), 1.0)
            t = rng.uniform(0.1, 48.0)
            base = prob_visit_if_not_send(t, pre, 0.0)
            for w0 in (0.5, 3.0, 24.0, 70.0):
                assert abs(prob_visit_if_not_send(t, pre, w0) - base) < 1e-12

    def test_delta_strictly_increasing_in_w0(self):
        # With pre-state shape in (0, 1) the gain from sending now grows
        # the longer the user has already been idle.
        rng = np.random.default_rng(1006)
        w0_grid = np.linspace(0.0, 72.0, 10)
        for _ in range(300):
            pre = WeibullParams(math.exp(rng.uniform(-4.0, 0.0)), rng.uniform(0.05, 0.95))
            post = WeibullParams(math.exp(rng.uniform(-4.0, 0.0)), rng.uniform(0.1, 3.0))
            t = rng.uniform(0.1, 48.0)
            deltas = [delta_effect(t, pre, post, w0) for w0 in w0_grid]
            diffs = np.diff(deltas)
            assert np.all(diffs > 0), (pre, post, t, deltas)

    def test_delta_is_send_minus_wait(self):
        rng = np.random.default_rng(1007)
        for _ in range(300):
            pre = WeibullParams(math.exp(rng.uniform(-3.0, 0.0)), rng.uniform(0.2, 1.5))
            post = WeibullParams(math.exp(rng.uniform(-3.0, 0.0)), rng.uniform(0.2, 1.5))
            w0 = rng.uniform(0.0, 48.0)
            t = rng.uniform(0.1, 48.0)
            explicit = prob_visit_if_send(t, post) - prob_visit_if_not_send(t, pre, w0)
            assert_allclose(delta_effect(t, pre, post, w0), explicit, atol=1e-15)

    def test_delta_can_be_negative(self):
        # A much slower post-send state makes sending now a bad idea.
        assert delta_effect(1.0, WeibullParams(1.0, 1.0), WeibullParams(0.01, 1.0), 0.0) < 0.0

    def test_identical_states_w0_zero_gives_zero_delta(self):
        p = WeibullParams(0.6, 0.8)
        assert delta_effect(5.0, p, p, 0.0) == pytest.approx(0.0, abs=1e-15)


class TestDomainValidation:
    def test_bad_params(self):
        with pytest.raises(DomainError):
            WeibullParams(0.0, 1.0)
        with pytest.raises(DomainError):
            WeibullParams(-1.0, 1.0)
        with pytest.raises(DomainError):
            WeibullParams(1.0, 0.0)
        with pytest.raises(DomainError):
            WeibullParams(math.nan, 1.0)
        with pytest.raises(DomainError):
            WeibullParams(1.0, math.inf)

    def test_bad_times(self):
        p = WeibullParams(1.0, 1.0)
        with pytest.raises(DomainError):
            weibull_cdf(-0.1, p)
        with pytest.raises(DomainError):
            weibull_cdf(math.nan, p)
        with pytest.raises(DomainError):
            prob_visit_if_send(0.0, p)
        with pytest.raises(DomainError):
            prob_visit_if_not_send(1.0, p, -1.0)
        with pytest.raises(DomainError):
            delta_effect(1.0, p, p, -0.5)
        with pytest.raises(DomainError):
            delta_effect(0.0, p, p, 1.0)


def stable_delta(t, w0, rate0, shape0, rate1, shape1):
    """delta with the hazard gap as rate0 * w0**shape0 * expm1(shape0 * log1p(t / w0))."""
    if w0 == 0.0:
        gap = rate0 * t**shape0
    else:
        gap = rate0 * w0**shape0 * math.expm1(shape0 * math.log1p(t / w0))
    return math.exp(-gap) - math.exp(-rate1 * t**shape1)


# the scorer's case: one shape for both laws, below 1 (a decreasing hazard)
laws = st.tuples(
    st.floats(0.5, 168.0),  # horizon
    st.floats(1e-4, 5.0),  # pre rate
    st.floats(0.05, 0.99),  # shared shape
    st.floats(1e-4, 5.0),  # post rate
)
idle = st.just(0.0) | st.floats(0.0, 1e12)


class TestHugeW0:
    """send_vs_wait at idle times far beyond the horizon, as its docstring states."""

    def test_delta_grows_with_w0_on_a_grid(self):
        rng = np.random.default_rng(1101)
        w0_grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e8, 2000)])
        for _ in range(200):
            t, a = rng.uniform(0.5, 168.0), rng.uniform(0.05, 0.99)
            r0, r1 = np.exp(rng.uniform(-7.0, 1.0, size=2))
            deltas = [send_vs_wait(t, w0, r0, a, r1, a)[0] for w0 in w0_grid]
            assert np.all(np.diff(deltas) >= 0.0), (t, a, r0, r1)

    @settings(max_examples=500, deadline=None)
    @given(laws, idle, idle)
    def test_delta_does_not_decrease_beyond_rounding(self, law, w0, w1):
        t, r0, a, r1 = law
        w0, w1 = sorted((w0, w1))
        d0, d1 = (send_vs_wait(t, w, r0, a, r1, a)[0] for w in (w0, w1))
        assert d1 >= d0 - 2.0**-51 * (1.0 + r0 * w1**a)

    @settings(max_examples=500, deadline=None)
    @given(laws, st.floats(0.0, 1e300))
    def test_p_wait_stays_in_the_unit_interval(self, law, w0):
        t, r0, a, r1 = law
        delta, p_send, p_wait = send_vs_wait(t, w0, r0, a, r1, a)
        assert 0.0 <= p_wait <= 1.0
        assert 0.0 <= p_send <= 1.0

    @settings(max_examples=500, deadline=None)
    @given(laws, st.floats(1.0, 1e11))
    def test_absolute_error_grows_with_the_hazard_at_w0(self, law, w0_over_t):
        # the stable form is itself the inaccurate one for w0 well below t
        t, r0, a, r1 = law
        w0 = w0_over_t * t
        delta = send_vs_wait(t, w0, r0, a, r1, a)[0]
        assert abs(delta - stable_delta(t, w0, r0, a, r1, a)) <= 2.0**-50 * (1.0 + r0 * w0**a)

    def test_relative_error_below_1e_12_up_to_1e8_hours(self):
        def rel_err(w0):
            exact = stable_delta(24.0, w0, 0.05, 0.5, 0.05, 0.5)
            return abs(send_vs_wait(24.0, w0, 0.05, 0.5, 0.05, 0.5)[0] - exact) / exact

        assert max(map(rel_err, np.geomspace(1e-3, 1e8, 2001))) < 1e-12
        # the bound is where the docstring puts it, not far above
        assert 1e-10 < max(map(rel_err, np.geomspace(1e14, 1e15, 101))) < 1e-8
