"""Maximum-likelihood trainers: censored Weibull AFT and logistic baseline.

The AFT objective is the exact censored log-likelihood of the log-linear
model  log T = b.x + sigma*eps  with standard extreme-value errors; the
scale is optimized as log(sigma) so the problem stays unconstrained.
Features are standardized internally (train statistics only) and the
coefficients folded back, so persisted models are in raw feature space.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError, SchemaError
from .features import FeatureSchema
from .optimize import OptConfig, minimize_smooth
from .pipeline import ObservationColumns

__all__ = [
    "DesignMatrix",
    "WeibullAftModel",
    "LogisticModel",
    "aft_negloglik_and_gradient",
    "logistic_negloglik_and_gradient",
    "fit_aft",
    "fit_logistic",
]


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Columnar view of observations, validated once."""

    X: np.ndarray  # (n, k)
    log_t: np.ndarray  # (n,)
    delta: np.ndarray  # (n,) float 0/1, 1 = uncensored

    @classmethod
    def from_columns(
        cls, X: np.ndarray, t_hours: np.ndarray, uncensored: np.ndarray
    ) -> "DesignMatrix":
        """Validate observation columns: (n, k) features, durations, uncensored flags."""
        t = np.asarray(t_hours, dtype=float)
        if t.size == 0:
            raise DataError("no observations to train on")
        X = np.asarray(X, dtype=float)
        if not np.all(np.isfinite(X)):
            i = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
            raise DataError(f"non-finite feature value at observation index {i}")
        if not np.all((t > 0) & np.isfinite(t)):
            i = int(np.flatnonzero(~((t > 0) & np.isfinite(t)))[0])
            raise DataError(
                f"non-positive or non-finite duration at observation index {i}"
            )
        return cls(X=X, log_t=np.log(t), delta=np.asarray(uncensored, dtype=float))

    @classmethod
    def from_observations(cls, observations: ObservationColumns) -> "DesignMatrix":
        return cls.from_columns(observations.x, observations.t_hours, observations.uncensored)

    @property
    def k(self) -> int:
        return self.X.shape[1]


def _as_design(data: DesignMatrix | ObservationColumns) -> DesignMatrix:
    if isinstance(data, DesignMatrix):
        return data
    return DesignMatrix.from_observations(data)


# -- objectives ----------------------------------------------------------------

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp raises OverflowError above it
# libm's cexp(x + 0i) is exp(x)*cos(0), exactly exp(x), for x up to this
# bound, (int)((DBL_MAX_EXP - 1) * ln 2); above it cexp scales x first
_CEXP_EXACT = 709.0


def expit(m: np.ndarray) -> np.ndarray:
    """The logistic function 1/(1+e^-m), elementwise, bit for bit as scipy.special.expit.

    e^-m is libm's exp, as scipy calls it; numpy's own exp of a float can
    differ from it in the last bit.  It runs in C as the real part of
    numpy's complex exp, which calls libm's cexp, for -m up to 709, and
    through math.exp on the rest and on NaN (cexp drops a NaN's sign).
    Where e^-m overflows it is inf, so expit is 0.  About 13 ns per
    element, and no scipy import.
    """
    m = np.asarray(m, dtype=float)
    neg = -m.ravel()
    slow = ~(neg <= _CEXP_EXACT)
    z = neg.astype(complex)
    z[slow] = 0.0
    e = np.exp(z, out=z).real  # in place, as are the steps below: one complex array in all
    e[slow] = [math.inf if v > _LOG_FLOAT_MAX else math.exp(v) for v in neg[slow].tolist()]
    e += 1.0
    return 1.0 / e.reshape(m.shape)


def aft_negloglik_and_gradient(
    b: np.ndarray, log_sigma: float, data: DesignMatrix | ObservationColumns
) -> tuple[float, np.ndarray]:
    """Exact censored-Weibull negative log-likelihood and its gradient.

    With z_i = (log T_i - b.x_i)/sigma, an uncensored observation
    contributes e^{z_i} - z_i + log(sigma) + log(T_i) and a censored one
    contributes e^{z_i}.  The returned gradient vector is
    [d/db_1 .. d/db_k, d/d log_sigma].
    """
    dm = _as_design(data)
    b = np.asarray(b, dtype=float)
    if b.shape != (dm.k,):
        raise DataError(f"coefficient vector has shape {b.shape}, expected ({dm.k},)")
    sigma = math.exp(float(log_sigma))
    z = (dm.log_t - dm.X @ b) / sigma
    with np.errstate(over="ignore"):
        ez = np.exp(z)
    per_obs = ez - dm.delta * (z - math.log(sigma) - dm.log_t)
    bad = ~np.isfinite(per_obs)
    if bad.any():
        raise NumericalError(
            f"non-finite likelihood term at observation index {int(np.flatnonzero(bad)[0])}"
        )
    nll = float(np.sum(per_obs))
    grad_b = dm.X.T @ (dm.delta - ez) / sigma
    grad_ls = float(np.sum(dm.delta * (1.0 + z) - z * ez))
    return nll, np.concatenate([grad_b, [grad_ls]])


def logistic_negloglik_and_gradient(
    w: np.ndarray, X: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Bernoulli negative log-likelihood log(1+e^m) - y*m and its gradient."""
    w = np.asarray(w, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = X @ w
    per_obs = np.logaddexp(0.0, m)
    per_obs -= y * m
    if not np.all(np.isfinite(per_obs)):
        raise NumericalError(
            f"non-finite likelihood term at instance index "
            f"{int(np.flatnonzero(~np.isfinite(per_obs))[0])}"
        )
    nll = float(np.sum(per_obs))
    residual = expit(m)
    residual -= y
    return nll, X.T @ residual


# -- standardization -------------------------------------------------------------


def _standardize(X: np.ndarray, intercept_index: int | None):
    """Column means/scales computed on the given (training) matrix.

    The intercept column and any zero-variance column are left untouched
    (mean 0, scale 1) so the fold-back is well defined.
    """
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    fixed = scales < 1e-12
    if intercept_index is not None:
        fixed = fixed.copy()
        fixed[intercept_index] = True
    means = np.where(fixed, 0.0, means)
    scales = np.where(fixed, 1.0, scales)
    X_std = X - means
    X_std /= scales  # in place: one matrix beside X, not two
    return X_std, means, scales


def _fold_back(b_std: np.ndarray, means, scales, intercept_index: int | None):
    """Convert standardized-space coefficients to raw feature space."""
    b_raw = b_std / scales
    if intercept_index is not None:
        shift = float(np.sum(b_std * means / scales))
        b_raw = b_raw.copy()
        b_raw[intercept_index] = b_std[intercept_index] - shift
    return b_raw


def _find_intercept(X: np.ndarray, schema: FeatureSchema | None) -> int | None:
    if schema is not None:
        idx = schema.indices_of_kind("intercept")
        return idx[0] if idx else None
    for j in range(X.shape[1]):
        if np.all(X[:, j] == 1.0):
            return j
    return None


# -- models ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeibullAftModel:
    feature_names: tuple[str, ...]
    coefficients: np.ndarray  # raw feature space
    log_sigma: float
    diagnostics: Mapping[str, object] = field(default_factory=dict)
    schema: FeatureSchema | None = None

    @property
    def sigma(self) -> float:
        return math.exp(self.log_sigma)

    @property
    def alpha(self) -> float:
        """Weibull shape implied by the AFT scale: alpha = 1/sigma."""
        return 1.0 / self.sigma

    def linear_predictor(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coefficients


@dataclass(frozen=True, eq=False)
class LogisticModel:
    feature_names: tuple[str, ...]
    weights: np.ndarray
    horizon_t_hours: float
    diagnostics: Mapping[str, object] = field(default_factory=dict)
    schema: FeatureSchema | None = None

    def __post_init__(self) -> None:
        if not self.horizon_t_hours > 0:
            raise DataError(f"horizon must be > 0, got {self.horizon_t_hours}")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return expit(np.asarray(X, dtype=float) @ self.weights)


# -- fitting -------------------------------------------------------------------


def _penalized_fit(negloglik_and_gradient, X: np.ndarray, icpt: int | None,
                   theta0: np.ndarray, opt_cfg: OptConfig, n_positive: int):
    """Penalized maximum likelihood, the one fit that fit_aft and fit_logistic run.

    negloglik_and_gradient(theta, X_std) is the data term on the
    standardized design, theta[:k] its k coefficients (any further entry is
    a scale, unpenalized).  The ridge applies to the standardized
    non-intercept coefficients.  Returns the optimum theta, its
    coefficients folded back to raw feature space, and the diagnostics,
    whose negloglik is the data term at the optimum, without the ridge.
    """
    n, k = X.shape
    X_std, means, scales = _standardize(X, icpt)
    mask = np.ones(k)
    if icpt is not None:
        mask[icpt] = 0.0

    # The optimizer sees the per-observation mean so the gradient tolerance
    # is scale-invariant in n; the reported objective stays a sum.  The
    # ridge joins the gradient before the division by n: the other order
    # changes the last bits of every fitted model.
    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nll, grad = negloglik_and_gradient(theta, X_std)
        b = theta[:k]
        nll += 0.5 * opt_cfg.ridge * float(np.sum(mask * b**2))
        grad = grad.copy()
        grad[:k] += opt_cfg.ridge * mask * b
        return nll / n, grad / n

    result = minimize_smooth(objective, theta0, opt_cfg)
    diagnostics = {
        "negloglik": negloglik_and_gradient(result.x, X_std)[0],
        "grad_max_norm": result.grad_max_norm,
        "n_iters": result.n_iters,
        "converged": result.converged,
        "method": opt_cfg.method,
        "ridge": opt_cfg.ridge,
        "n_obs": n,
        "n_events": n_positive,
    }
    return result.x, _fold_back(result.x[:k], means, scales, icpt), diagnostics


def fit_aft(
    data: DesignMatrix | ObservationColumns,
    opt_cfg: OptConfig = OptConfig(),
    *,
    schema: FeatureSchema | None = None,
    feature_names: Sequence[str] | None = None,
) -> WeibullAftModel:
    """Fit the censored Weibull AFT model by penalized maximum likelihood.

    Requires at least one uncensored observation (the scale is otherwise
    unidentifiable).  The ridge penalty applies to standardized
    non-intercept coefficients; the reported negloglik excludes it.
    """
    dm = _as_design(data)
    n_unc = int(dm.delta.sum())
    if n_unc == 0:
        raise DataError(
            "all observations are censored; sigma is unidentifiable"
        )
    if schema is not None and len(schema) != dm.k:
        raise SchemaError(
            f"schema has {len(schema)} slots but observations have {dm.k} features"
        )
    icpt = _find_intercept(dm.X, schema)
    theta0 = np.zeros(dm.k + 1)  # the coefficients, then log(sigma)
    if icpt is not None:
        theta0[icpt] = float(np.mean(dm.log_t[dm.delta == 1.0]))

    def negloglik(theta: np.ndarray, X_std: np.ndarray) -> tuple[float, np.ndarray]:
        return aft_negloglik_and_gradient(
            theta[:-1], float(theta[-1]), DesignMatrix(X=X_std, log_t=dm.log_t, delta=dm.delta)
        )

    theta, b_raw, diagnostics = _penalized_fit(negloglik, dm.X, icpt, theta0, opt_cfg, n_unc)
    return WeibullAftModel(
        feature_names=_names(feature_names, schema, dm.k),
        coefficients=b_raw,
        log_sigma=float(theta[-1]),
        diagnostics=diagnostics,
        schema=schema,
    )


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    horizon_t_hours: float,
    opt_cfg: OptConfig = OptConfig(),
    *,
    schema: FeatureSchema | None = None,
    feature_names: Sequence[str] | None = None,
) -> LogisticModel:
    """Fit the per-horizon logistic baseline on pre-computed binary labels.

    Training labels come from the evaluation layer's per-send labeler (a
    visit within the horizon of the send); this function only sees the
    materialized 0/1 vector.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DataError(f"shape mismatch: X {X.shape} vs y {y.shape}")
    if X.shape[0] == 0:
        raise DataError("no instances to train on")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite feature values in the design matrix")
    # masks, not np.unique and np.isin: both import numpy.ma, start-up that
    # every logistic fit would pay
    ones = y == 1.0
    if not (ones | (y == 0.0)).all():
        raise DataError(f"labels must be 0/1, got values {np.unique(y)}")
    if ones.all() or not ones.any():
        raise DataError(f"single-class labels (all {int(y[0])}); cannot fit logistic model")
    if schema is not None and len(schema) != X.shape[1]:
        raise SchemaError(
            f"schema has {len(schema)} slots but instances have {X.shape[1]} features"
        )
    icpt = _find_intercept(X, schema)
    w0 = np.zeros(X.shape[1])
    if icpt is not None:
        base = float(np.mean(y))
        w0[icpt] = math.log(base / (1.0 - base))

    def negloglik(w: np.ndarray, X_std: np.ndarray) -> tuple[float, np.ndarray]:
        return logistic_negloglik_and_gradient(w, X_std, y)

    _, w_raw, diagnostics = _penalized_fit(negloglik, X, icpt, w0, opt_cfg, int(y.sum()))
    return LogisticModel(
        feature_names=_names(feature_names, schema, X.shape[1]),
        weights=w_raw,
        horizon_t_hours=float(horizon_t_hours),
        diagnostics=diagnostics,
        schema=schema,
    )


def _names(
    feature_names: Sequence[str] | None, schema: FeatureSchema | None, k: int
) -> tuple[str, ...]:
    if feature_names is not None:
        names = tuple(feature_names)
        if len(names) != k:
            raise SchemaError(f"{len(names)} names for {k} features")
        return names
    if schema is not None:
        return schema.names
    return tuple(f"x{j}" for j in range(k))

