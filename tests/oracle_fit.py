"""Reference trainers: each fit with its own copy of the penalized fit.

The AFT and logistic fits as they were written before both ran one shared
penalized fit: each standardizes its design, builds its own ridge mask and
objective, minimizes the per-observation mean through minimize_smooth and
folds the coefficients back.  The objectives and minimize_smooth are the
package's own.  The package's fits must give the same coefficients,
log_sigma, weights and diagnostics, bit for bit.
"""

import math

import numpy as np

from sendwhen.optimize import minimize_smooth
from sendwhen.training import (
    DesignMatrix,
    aft_negloglik_and_gradient,
    logistic_negloglik_and_gradient,
)


def _standardize(X, intercept_index):
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    fixed = scales < 1e-12
    if intercept_index is not None:
        fixed = fixed.copy()
        fixed[intercept_index] = True
    means = np.where(fixed, 0.0, means)
    scales = np.where(fixed, 1.0, scales)
    return (X - means) / scales, means, scales


def _fold_back(b_std, means, scales, intercept_index):
    b_raw = b_std / scales
    if intercept_index is not None:
        shift = float(np.sum(b_std * means / scales))
        b_raw = b_raw.copy()
        b_raw[intercept_index] = b_std[intercept_index] - shift
    return b_raw


def _find_intercept(X, schema):
    if schema is not None:
        idx = schema.indices_of_kind("intercept")
        return idx[0] if idx else None
    for j in range(X.shape[1]):
        if np.all(X[:, j] == 1.0):
            return j
    return None


def _ridge_mask(k, intercept_index):
    mask = np.ones(k, dtype=float)
    if intercept_index is not None:
        mask[intercept_index] = 0.0
    return mask


def _diagnostics(result, data_nll, cfg, n, n_positive):
    return {
        "negloglik": data_nll,
        "grad_max_norm": result.grad_max_norm,
        "n_iters": result.n_iters,
        "converged": result.converged,
        "method": cfg.method,
        "ridge": cfg.ridge,
        "n_obs": n,
        "n_events": n_positive,
    }


def fit_aft(dm, opt_cfg, schema=None):
    """(coefficients, log_sigma, diagnostics) of the AFT fit on a DesignMatrix."""
    n_unc = int(dm.delta.sum())
    icpt = _find_intercept(dm.X, schema)
    X_std, means, scales = _standardize(dm.X, icpt)
    dm_std = DesignMatrix(X=X_std, log_t=dm.log_t, delta=dm.delta)
    mask = _ridge_mask(dm.k, icpt)

    theta0 = np.zeros(dm.k + 1)
    if icpt is not None:
        theta0[icpt] = float(np.mean(dm.log_t[dm.delta == 1.0]))

    def objective(theta):
        b_std, log_sigma = theta[:-1], float(theta[-1])
        nll, grad = aft_negloglik_and_gradient(b_std, log_sigma, dm_std)
        nll += 0.5 * opt_cfg.ridge * float(np.sum(mask * b_std**2))
        grad = grad.copy()
        grad[:-1] += opt_cfg.ridge * mask * b_std
        return nll / dm.n, grad / dm.n

    result = minimize_smooth(objective, theta0, opt_cfg)
    b_std, log_sigma = result.x[:-1], float(result.x[-1])
    b_raw = _fold_back(b_std, means, scales, icpt)
    data_nll, _ = aft_negloglik_and_gradient(b_std, log_sigma, dm_std)
    return b_raw, log_sigma, _diagnostics(result, data_nll, opt_cfg, dm.n, n_unc)


def fit_logistic(X, y, opt_cfg, schema=None):
    """(weights, diagnostics) of the logistic fit on 0/1 labels y."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    icpt = _find_intercept(X, schema)
    X_std, means, scales = _standardize(X, icpt)
    mask = _ridge_mask(X.shape[1], icpt)

    w0 = np.zeros(X.shape[1])
    if icpt is not None:
        base = float(np.mean(y))
        w0[icpt] = math.log(base / (1.0 - base))

    n = X.shape[0]

    def objective(w):
        nll, grad = logistic_negloglik_and_gradient(w, X_std, y)
        nll += 0.5 * opt_cfg.ridge * float(np.sum(mask * w**2))
        return nll / n, (grad + opt_cfg.ridge * mask * w) / n

    result = minimize_smooth(objective, w0, opt_cfg)
    w_raw = _fold_back(result.x, means, scales, icpt)
    data_nll, _ = logistic_negloglik_and_gradient(result.x, X_std, y)
    return w_raw, _diagnostics(result, data_nll, opt_cfg, X.shape[0], int(y.sum()))
