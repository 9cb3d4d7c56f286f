"""Generic smooth unconstrained minimization used by both trainers.

The default driver is L-BFGS-B (quasi-Newton with line search).  It runs
scipy's compiled routine through the loop that
scipy.optimize.minimize(method="L-BFGS-B") runs, so it takes the same
steps, but it loads that routine on its own, as the package's module
sendwhen._lbfgsb: importing scipy.optimize would add half a second or more
to start-up, for a fit that takes a few hundredths.  A plain
gradient-descent fallback with Armijo backtracking is available through
the config.  Objectives supply their own analytic gradients; this module
never differentiates numerically.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Callable

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalError

__all__ = ["OptConfig", "OptResult", "minimize_smooth"]

ObjectiveFn = Callable[[np.ndarray], tuple[float, np.ndarray]]

# the name this package loads scipy's private L-BFGS-B extension under (the
# last part finds its PyInit__lbfgsb), and the calling convention this module
# drives it by, as of the scipy version it was checked against
_LBFGSB = f"{__package__}._lbfgsb"
_SETULB = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
_SCIPY_CHECKED = "1.17.1"
# scipy.optimize.minimize's L-BFGS-B settings: corrections kept, line-search
# steps, function evaluations, and ftol (as factr, in units of eps)
_M, _MAXLS, _MAXFUN = 10, 20, 15000
_FACTR = 1e-15 / np.finfo(float).eps


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
        # written so that a NaN fails each check
        for key, ok, rule in (
            ("tol", math.isfinite(self.tol) and self.tol > 0, "finite and > 0"),
            ("max_iters", self.max_iters >= 1, ">= 1"),
            ("ridge", math.isfinite(self.ridge) and self.ridge >= 0, "finite and >= 0"),
        ):
            if not ok:
                raise ConfigError(
                    f"invalid optimizer config: {key} must be {rule}, got {getattr(self, key)}"
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


def _setulb() -> Callable:
    """scipy's compiled L-BFGS-B step, loaded without running scipy.optimize's __init__.

    The extension file of the installed scipy is loaded once per process as
    this package's own module, sendwhen._lbfgsb, so no scipy module is
    loaded or replaced, and an import of scipy.optimize, before or after,
    loads its own copy.  Raises ImportError when its calling convention is
    not the one this module drives.
    """
    module = sys.modules.get(_LBFGSB)
    if module is None:
        spec = importlib.util.find_spec("scipy")  # finds the package, runs none of it
        if spec is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        folder = os.path.join(spec.submodule_search_locations[0], "optimize")
        paths = [os.path.join(folder, "_lbfgsb" + s) for s in EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"no L-BFGS-B extension _lbfgsb in {folder}")
        loader = ExtensionFileLoader(_LBFGSB, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_LBFGSB, loader))
        loader.exec_module(module)
        sys.modules[_LBFGSB] = module
    setulb = module.setulb
    if (setulb.__doc__ or "").split("\n", 1)[0] != _SETULB:
        from importlib.metadata import version

        raise ImportError(
            f"scipy {version('scipy')} has a scipy.optimize._lbfgsb.setulb other than the "
            f"{_SETULB} of scipy {_SCIPY_CHECKED} that sendwhen drives"
        )
    return setulb


def _run_lbfgs(objective: ObjectiveFn, x0: np.ndarray, cfg: OptConfig) -> OptResult:
    """L-BFGS-B as scipy.optimize.minimize runs it with jac=True and no bounds.

    setulb works by reverse communication: it returns with task[0] == 3
    when it wants the objective at x (evaluated once per distinct x, as
    minimize's cache does) and task[0] == 1 after each iteration, where
    the loop stops it (task 5) at max_iters (504) or past _MAXFUN
    evaluations (502).  Any other task is a finish.
    """
    setulb = _setulb()
    guarded = _guarded(objective)
    n = x0.size
    x = x0.copy()  # setulb moves x in place
    f, g = 0.0, np.zeros(n)
    x_evaluated = None
    no_bounds = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    n_evals = n_iters = 0
    while True:
        setulb(_M, x, no_bounds, no_bounds, nbd, f, g, _FACTR, cfg.tol, wa, iwa,
               task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:
            if x_evaluated is None or not np.array_equal(x, x_evaluated):
                x_evaluated = x.copy()
                f, g = guarded(x.copy())
                n_evals += 1
        elif task[0] == 1:
            n_iters += 1
            if n_iters >= cfg.max_iters:
                task[:] = 5, 504
            elif n_evals > _MAXFUN:
                task[:] = 5, 502
        else:
            break
    _, g = objective(x)  # unguarded: surface errors
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    return OptResult(x=x, grad_max_norm=gnorm, n_iters=n_iters, converged=gnorm <= cfg.tol)


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
