"""Optimizer drivers: agreement with plain L-BFGS-B and numeric blowups at probe points.

scipy.optimize.minimize is the reference that the L-BFGS-B driver, which
calls scipy's compiled routine without it, must agree with step for step.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from scipy.optimize import minimize

from sendwhen.errors import ConvergenceError, NumericalError
from sendwhen.optimize import OptConfig, _guarded, minimize_smooth
from sendwhen.pipeline import PipelineConfig, send_table
from sendwhen.simulate import SendProcess, SimConfig, default_sim_schema, generate_event_log
from sendwhen.training import (
    DesignMatrix,
    aft_negloglik_and_gradient,
    logistic_negloglik_and_gradient,
)


def logistic_objective(seed: int):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(400), rng.normal(size=(400, 3))])
    y = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-X @ [0.3, 1.0, -0.5, 0.2]))).astype(float)
    return lambda w: logistic_negloglik_and_gradient(w, X, y)


def simulated_aft_objective():
    """The per-observation mean censored-Weibull negloglik of a simulated log, raw features."""
    sim = SimConfig(
        n_users=300, n_profile_features=2, true_coefficients=(3.2, 0.4, -0.3, -0.2, 0.05),
        true_sigma=1.5, send_process=SendProcess("poisson", rate_per_hour=1 / 12),
        window_hours=168.0, seed=7,
    )
    pipe = PipelineConfig()
    obs = send_table(generate_event_log(sim).events, pipe).observations(
        default_sim_schema(sim), pipe.duration_floor_hours)
    dm = DesignMatrix.from_observations(obs)

    def objective(theta):
        nll, grad = aft_negloglik_and_gradient(theta[:-1], float(theta[-1]), dm)
        return nll / dm.X.shape[0], grad / dm.X.shape[0]

    return objective, dm.k + 1


def against_plain_minimize(objective, x0, cfg):
    """(minimize's result, its objective calls, minimize_smooth's result, its calls, its error)."""
    calls = [0]

    def counted(theta):
        calls[0] += 1
        return objective(theta)

    want = minimize(
        _guarded(counted), x0, jac=True, method="L-BFGS-B",
        options={"maxiter": cfg.max_iters, "gtol": cfg.tol, "ftol": 1e-15},
    )
    plain_calls, calls[0] = calls[0], 0
    try:
        got, error = minimize_smooth(counted, x0, cfg), None
    except ConvergenceError as exc:
        got, error = exc.result, exc
    return want, plain_calls, got, calls[0], error


def test_fit_matches_plain_minimize():
    # minimize_smooth adds nothing to L-BFGS-B on the guarded objective
    # but one unguarded evaluation at the result
    for seed in (0, 1, 2):
        want, plain_calls, res, calls, error = against_plain_minimize(
            logistic_objective(seed), np.zeros(4), OptConfig())
        assert error is None
        assert np.array_equal(res.x, want.x)
        assert res.n_iters == want.nit > 0
        assert calls == plain_calls + 1


def test_aft_fit_on_a_simulated_log_matches_plain_minimize():
    objective, k = simulated_aft_objective()
    want, plain_calls, res, calls, error = against_plain_minimize(objective, np.zeros(k), OptConfig())
    assert error is None and want.success
    assert np.array_equal(res.x, want.x)
    assert res.n_iters == want.nit > 10
    assert calls == plain_calls + 1


def test_fit_capped_by_max_iters_matches_plain_minimize():
    objective, k = simulated_aft_objective()
    cfg = OptConfig(max_iters=4)
    want, plain_calls, res, calls, error = against_plain_minimize(objective, np.zeros(k), cfg)
    assert want.status == 1 and "ITERATIONS REACHED LIMIT" in want.message
    assert isinstance(error, ConvergenceError)
    assert np.array_equal(res.x, want.x)
    assert res.n_iters == want.nit == cfg.max_iters
    assert calls == plain_calls + 1


def blows_up_past_08(w):
    """(w - 0.5)^2, undefined beyond |w| = 0.8; the first full step overshoots."""
    if abs(w[0]) > 0.8:
        raise NumericalError(f"probe at w={w[0]}")
    return float((w[0] - 0.5) ** 2), np.array([2.0 * (w[0] - 0.5)])


def test_gd_backtracks_from_a_failed_probe():
    res = minimize_smooth(blows_up_past_08, np.zeros(1), OptConfig(method="gd"))
    assert res.converged
    assert res.x[0] == pytest.approx(0.5, abs=1e-7)


def test_lbfgs_stops_at_a_failed_probe_and_says_so():
    with pytest.raises(ConvergenceError) as exc:
        minimize_smooth(blows_up_past_08, np.zeros(1), OptConfig(method="lbfgs"))
    result = exc.value.result
    assert not result.converged
    assert result.grad_max_norm > OptConfig().tol


def test_lbfgs_at_a_failed_probe_matches_plain_minimize():
    want, plain_calls, res, calls, error = against_plain_minimize(
        blows_up_past_08, np.zeros(1), OptConfig())
    # scipy calls this a success (f stopped falling); the gradient test does not
    assert isinstance(error, ConvergenceError) and want.success
    assert np.array_equal(res.x, want.x)
    assert res.n_iters == want.nit
    assert calls == plain_calls + 1


def test_setulb_of_another_calling_convention_is_refused(monkeypatch):
    from importlib.metadata import version
    from types import ModuleType, SimpleNamespace

    fake = ModuleType("sendwhen._lbfgsb")
    fake.setulb = SimpleNamespace(__doc__="setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,csave)")
    monkeypatch.setitem(sys.modules, "sendwhen._lbfgsb", fake)
    with pytest.raises(ImportError) as exc:
        minimize_smooth(blows_up_past_08, np.zeros(1), OptConfig())
    assert str(exc.value) == (
        f"scipy {version('scipy')} has a scipy.optimize._lbfgsb.setulb other than the "
        "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task) "
        "of scipy 1.17.1 that sendwhen drives")


def test_a_point_probed_twice_is_evaluated_once_as_in_plain_minimize():
    # the minimum is at -(s/1.1)**10, about -9e16, where line-search steps
    # fall under float resolution and setulb asks for the same x again
    s = 54.70208494624688

    def objective(w):
        return float(abs(w[0]) ** 1.1 + s * w[0]), np.array([1.1 * np.sign(w[0]) * abs(w[0]) ** 0.1 + s])

    want, plain_calls, res, calls, _ = against_plain_minimize(
        objective, np.array([3.7]), OptConfig(tol=1e-300))
    assert np.array_equal(res.x, want.x) and res.x[0] < -1e16
    assert res.n_iters == want.nit
    assert calls == plain_calls + 1
