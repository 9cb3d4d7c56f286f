"""Per-user delta-effect scoring, on columns.

Scoring answers: if this user gets a notification right now, how much
more likely is a visit within the next T hours than if we stay quiet?
The answer needs the user's current feature vector, the hypothetical
post-send vector (badge up one, state clock reset), and the fitted
model, all combined through the survival layer's send_vs_wait, in one
pass over the rows; a hazard refusal comes only once every rate is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, NumericalError, SchemaError, at_row
from .survival import aft_rate, send_vs_wait
from .training import WeibullAftModel

__all__ = [
    "ScoringContext",
    "score_columns",
    "score_batch",
]

# rows converted to Python floats at a time, so the lists stay this long
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class ScoringContext:
    """A user's state at the moment a send/hold question is asked."""

    features_now: tuple[float, ...]
    w0_hours: float
    horizon_T: float


def score_columns(model: WeibullAftModel, X0: np.ndarray, w0_hours, horizon_T, *,
                  model_name: str = "the model") -> dict:
    """Visit-probability gain of sending now versus waiting, one row per user.

    X0 holds the users' feature vectors, w0_hours their hours in the
    current state and horizon_T one horizon or a column of them.  Returns
    the columns delta, p_send, p_wait, lambda0 and lambda1 (the pre- and
    post-send rates), and alpha.  Inputs are checked as columns, then each
    row's rates; a rate or hazard that overflows is a NumericalError, a rate
    exp(-mu/sigma) that underflows to 0 (a tiny sigma) a DomainError, the
    hazard's and the underflow's refusals naming alpha or mu/sigma and
    model_name, and an error's row is the first bad row.  The arithmetic
    runs per row on Python floats, so a row's bits do not depend on the
    others.  Rows are converted to floats a chunk at a time and scored in
    one pass, a hazard refusal only once every rate is checked.
    """
    schema = model.schema
    if schema is None:
        raise SchemaError("model carries no feature schema; scoring needs one")
    if len(schema) != len(model.feature_names):
        raise SchemaError("model schema and coefficient vector disagree")
    X0 = np.asarray(X0, dtype=float)
    schema.check_rows(X0)
    w0 = np.asarray(w0_hours, dtype=float).reshape(len(X0))
    T = np.broadcast_to(np.asarray(horizon_T, dtype=float), w0.shape)
    for col, ok, name, bound in ((w0, w0 >= 0, "w0_hours", ">="), (T, T > 0, "horizon_T", ">")):
        bad = ~(ok & np.isfinite(col))
        if bad.any():
            i = int(np.argmax(bad))
            raise at_row(DomainError(f"{name} must be finite and {bound} 0, got {col[i]}"), i)

    b, sigma, alpha = model.coefficients, model.sigma, model.alpha
    cols = np.empty((len(X0), 5))  # lambda0, lambda1, delta, p_send, p_wait
    hazard = None  # the first row whose hazard overflows, refused once every rate is checked
    with np.errstate(over="ignore", invalid="ignore"):  # a predictor's inf or nan is refused
        for lo in range(0, len(X0), _CHUNK_ROWS):
            part = slice(lo, lo + _CHUNK_ROWS)
            rows = zip(X0[part], schema.transition(X0[part]), T[part].tolist(), w0[part].tolist())
            for i, (a, c, t, w) in enumerate(rows, lo):
                mu = float(a @ b), float(c @ b)
                lam0, lam1 = aft_rate(mu[0], sigma), aft_rate(mu[1], sigma)
                if not (math.isfinite(lam0) and math.isfinite(lam1)):  # inf, or nan
                    raise at_row(NumericalError(f"non-finite rate from linear predictors {mu}"), i)
                if lam0 == 0.0 or lam1 == 0.0:
                    m = mu[int(lam0 > 0.0)]  # exp(-m/sigma) is 0.0
                    raise at_row(DomainError(f"mu/sigma = {m / sigma!r} is outside the float "
                                             f"range of the rate exp(-mu/sigma) for {model_name}"), i)
                try:
                    terms = send_vs_wait(t, w, lam0, alpha, lam1, alpha)
                except OverflowError:  # (t + w)**alpha, the largest power, beyond the largest float
                    terms = (math.nan,) * 3
                if hazard is None and math.isnan(terms[0]):
                    hazard = i
                cols[i] = (lam0, lam1, *terms)
    if hazard is not None:
        t, w, lam0 = float(T[hazard]), float(w0[hazard]), float(cols[hazard, 0])
        try:
            (t + w) ** alpha  # a float, but the rate times it is not: the gap is inf - inf
            what, at = "lambda0 * (horizon_T + w0_hours)**alpha", f", lambda0 = {lam0!r}"
        except OverflowError:
            what, at = "(horizon_T + w0_hours)**alpha", ""
        raise at_row(NumericalError(
            f"hazard overflows at w0_hours {w}: {what} is outside the float range at "
            f"horizon_T {t}{at} and shape alpha = 1/sigma = {alpha!r} for {model_name}"), hazard)
    return {
        "delta": cols[:, 2], "p_send": cols[:, 3], "p_wait": cols[:, 4],
        "lambda0": cols[:, 0], "lambda1": cols[:, 1], "alpha": alpha,
    }


def score_batch(contexts: Iterable[ScoringContext], model: WeibullAftModel) -> dict:
    """score_columns over context records, each with its own horizon."""
    contexts = list(contexts)
    X0 = np.array([c.features_now for c in contexts], dtype=float)
    return score_columns(
        model, X0.reshape(len(contexts), len(model.feature_names)),
        [c.w0_hours for c in contexts], [c.horizon_T for c in contexts],
    )
