"""Generic smooth unconstrained minimization used by both trainers.

The default driver is scipy's L-BFGS-B (quasi-Newton with line search);
a plain gradient-descent fallback with Armijo backtracking is available
through the config.  Objectives supply their own analytic gradients; this
module never differentiates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalError

__all__ = ["OptConfig", "OptResult", "minimize_smooth"]

ObjectiveFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class OptConfig:
    tol: float = 1e-7  # convergence: max-norm of the gradient
    max_iters: int = 500
    ridge: float = 1e-6
    method: str = "lbfgs"  # or "gd"
    seed: int = 0  # recorded for provenance; the fit itself is deterministic

    def __post_init__(self) -> None:
        if self.method not in ("lbfgs", "gd"):
            raise ConfigError(f"unknown optimizer method {self.method!r}")
        if self.tol <= 0 or self.max_iters < 1 or self.ridge < 0:
            raise ConfigError(
                f"invalid optimizer config: tol={self.tol}, "
                f"max_iters={self.max_iters}, ridge={self.ridge}"
            )


@dataclass(frozen=True, eq=False)
class OptResult:
    x: np.ndarray
    grad_max_norm: float
    n_iters: int
    converged: bool


def _guarded(objective: ObjectiveFn) -> ObjectiveFn:
    """Turn numeric blowups at probe points into +inf instead of raising.

    A NumericalError raised by the objective (overflow at an extreme
    parameter point) becomes (+inf, zero gradient).  The gd driver's
    backtracking treats that as a rejected step and shortens it.  L-BFGS-B
    does not backtrack from it: the solver stops at its last accepted
    point, whose gradient then fails the tolerance, so minimize_smooth
    raises ConvergenceError rather than returning a wrong optimum.
    Errors at the final accepted point still surface to the caller
    because each driver re-evaluates there unguarded.
    """

    def wrapped(theta: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            f, g = objective(theta)
        except NumericalError:
            return np.inf, np.zeros_like(theta)
        if not np.isfinite(f):
            return np.inf, np.zeros_like(theta)
        return float(f), np.asarray(g, dtype=float)

    return wrapped


def _run_lbfgs(objective: ObjectiveFn, x0: np.ndarray, cfg: OptConfig) -> OptResult:
    from scipy.optimize import minimize

    res = minimize(
        _guarded(objective),
        x0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": cfg.max_iters,
            "gtol": cfg.tol,
            "ftol": 1e-15,  # push to the gradient criterion, not f-stalls
        },
    )
    _, g = objective(np.asarray(res.x, dtype=float))  # unguarded: surface errors
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    return OptResult(
        x=np.asarray(res.x, dtype=float),
        grad_max_norm=gnorm,
        n_iters=int(res.nit),
        converged=gnorm <= cfg.tol,
    )


def _run_gd(objective: ObjectiveFn, x0: np.ndarray, cfg: OptConfig) -> OptResult:
    guarded = _guarded(objective)
    x = np.asarray(x0, dtype=float).copy()
    f, g = guarded(x)
    step = 1.0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= cfg.tol:
            break
        # Armijo backtracking on the steepest-descent direction
        descent = -g
        slope = float(g @ descent)
        accepted = False
        for _ in range(60):
            cand = x + step * descent
            f_cand, g_cand = guarded(cand)
            if f_cand <= f + 1e-4 * step * slope:
                x, f, g = cand, f_cand, g_cand
                step *= 2.0  # re-grow after success
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # step underflow: nothing more to gain at float precision
    _, g_final = objective(x)  # unguarded
    gnorm = float(np.max(np.abs(g_final))) if g_final.size else 0.0
    return OptResult(
        x=x,
        grad_max_norm=gnorm,
        n_iters=it,
        converged=gnorm <= cfg.tol,
    )


def minimize_smooth(
    objective: ObjectiveFn, x0: np.ndarray, cfg: OptConfig
) -> OptResult:
    """Minimize a smooth objective with analytic gradient.

    Raises ConvergenceError when the gradient criterion is not met within
    the iteration budget; the partially-converged result rides along on the
    exception for diagnostics.
    """
    x0 = np.asarray(x0, dtype=float)
    runner = _run_lbfgs if cfg.method == "lbfgs" else _run_gd
    result = runner(objective, x0, cfg)
    if not result.converged:
        err = ConvergenceError(
            f"optimizer stopped after {result.n_iters} iterations with "
            f"gradient max-norm {result.grad_max_norm:.3e} > tol {cfg.tol:.3e}"
        )
        err.result = result
        raise err
    return result
