"""Per-user delta-effect scoring.

Scoring answers: if this user gets a notification right now, how much
more likely is a visit within the next T hours than if we stay quiet?
The answer needs the user's current feature vector, the hypothetical
post-send vector (badge up one, state clock reset), and the fitted
model, all combined through the survival layer.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, NumericalError, SchemaError
from .survival import (
    StatePair,
    WeibullParams,
    delta_effect,
    prob_visit_if_not_send,
    prob_visit_if_send,
)
from .training import WeibullAftModel

__all__ = [
    "ScoringContext",
    "DeltaEffectResult",
    "score_delta_effect",
    "score_batch",
    "model_digest",
]


@dataclass(frozen=True)
class ScoringContext:
    """A user's state at the moment a send/hold question is asked."""

    features_now: tuple[float, ...]
    w0_hours: float
    horizon_T: float

    def __post_init__(self) -> None:
        x = np.asarray(self.features_now, dtype=float)
        if x.ndim != 1 or len(x) == 0:
            raise DomainError("features_now must be a non-empty vector")
        if not np.all(np.isfinite(x)):
            raise DomainError("features_now must be finite")
        if not (math.isfinite(self.w0_hours) and self.w0_hours >= 0):
            raise DomainError(f"w0_hours must be >= 0, got {self.w0_hours}")
        if not (math.isfinite(self.horizon_T) and self.horizon_T > 0):
            raise DomainError(f"horizon_T must be > 0, got {self.horizon_T}")
        object.__setattr__(self, "features_now", tuple(float(v) for v in x))


@dataclass(frozen=True)
class DeltaEffectResult:
    """Delta effect plus every intermediate needed to audit it."""

    delta: float
    p_send: float
    p_wait: float
    lambda0: float
    lambda1: float
    alpha: float

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "p_send": self.p_send,
            "p_wait": self.p_wait,
            "lambda0": self.lambda0,
            "lambda1": self.lambda1,
            "alpha": self.alpha,
        }


def model_digest(model: WeibullAftModel) -> str:
    """Short stable digest of what the model predicts with."""
    payload = {
        "feature_names": list(model.feature_names),
        "coefficients": [repr(float(v)) for v in model.coefficients],
        "log_sigma": repr(float(model.log_sigma)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def score_delta_effect(
    ctx: ScoringContext, model: WeibullAftModel
) -> DeltaEffectResult:
    """Visit-probability gain of sending now versus waiting.

    The current state maps to one Weibull law, the post-send state to
    another with the same shape; the result carries both rates, the
    shape, and both conditional probabilities.
    """
    schema = model.schema
    if schema is None:
        raise SchemaError("model carries no feature schema; scoring needs one")
    x0 = np.asarray(ctx.features_now, dtype=float)
    if len(x0) != len(model.feature_names):
        raise SchemaError(
            f"context has {len(x0)} features, model expects "
            f"{len(model.feature_names)}"
        )
    if len(schema) != len(model.feature_names):
        raise SchemaError("model schema and coefficient vector disagree")
    x1 = schema.transition(x0)

    mu0 = float(x0 @ model.coefficients)
    mu1 = float(x1 @ model.coefficients)
    sigma = model.sigma
    try:
        lam0 = math.exp(-mu0 / sigma)
        lam1 = math.exp(-mu1 / sigma)
    except OverflowError:
        lam0 = lam1 = math.inf
    if not (math.isfinite(lam0) and math.isfinite(lam1)):
        raise NumericalError(
            f"non-finite rate from linear predictors ({mu0}, {mu1})"
        )
    alpha = model.alpha
    pre = WeibullParams(rate=lam0, shape=alpha)
    post = WeibullParams(rate=lam1, shape=alpha)
    pair = StatePair(pre=pre, post=post, elapsed_w0=ctx.w0_hours)

    return DeltaEffectResult(
        delta=delta_effect(pair, ctx.horizon_T),
        p_send=prob_visit_if_send(ctx.horizon_T, post),
        p_wait=prob_visit_if_not_send(ctx.horizon_T, pre, ctx.w0_hours),
        lambda0=lam0,
        lambda1=lam1,
        alpha=alpha,
    )


def score_batch(
    contexts: Iterable[ScoringContext], model: WeibullAftModel
) -> list[DeltaEffectResult]:
    return [score_delta_effect(ctx, model) for ctx in contexts]

