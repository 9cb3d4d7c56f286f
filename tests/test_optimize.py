"""Optimizer drivers: agreement with plain L-BFGS-B and numeric blowups at probe points."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

from sendwhen.errors import ConvergenceError, NumericalError
from sendwhen.optimize import OptConfig, _guarded, minimize_smooth
from sendwhen.training import logistic_negloglik_and_gradient


def counted_logistic(seed: int):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(400), rng.normal(size=(400, 3))])
    y = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-X @ [0.3, 1.0, -0.5, 0.2]))).astype(float)
    calls = [0]

    def objective(w):
        calls[0] += 1
        return logistic_negloglik_and_gradient(w, X, y)

    return objective, calls


def test_fit_matches_plain_minimize():
    # minimize_smooth adds nothing to L-BFGS-B on the guarded objective
    # but one unguarded evaluation at the result
    for seed in (0, 1, 2):
        cfg = OptConfig()
        x0 = np.zeros(4)
        objective, calls = counted_logistic(seed)
        want = minimize(
            _guarded(objective), x0, jac=True, method="L-BFGS-B",
            options={"maxiter": cfg.max_iters, "gtol": cfg.tol, "ftol": 1e-15},
        )
        plain_calls = calls[0]
        calls[0] = 0
        res = minimize_smooth(objective, x0, cfg)
        assert np.array_equal(res.x, want.x)
        assert res.n_iters == want.nit > 0
        assert calls[0] == plain_calls + 1


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
