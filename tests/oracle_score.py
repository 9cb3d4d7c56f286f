"""Per-row reference scorer: one context at a time, through the checked API.

Scores one row the way the package did before scoring ran on columns:
the send transition applied to the one vector, the linear predictors as
1-d dot products, the rates through math.exp, a WeibullParams for each
state, then prob_visit_if_send, prob_visit_if_not_send and the
closed-form delta written out here.  A column scorer must give the same
floats, bit for bit.
"""

import math

import numpy as np

from sendwhen.survival import WeibullParams, prob_visit_if_not_send, prob_visit_if_send


def _transition(schema, x0):
    x1 = np.array(x0, dtype=float)
    for i, s in enumerate(schema.slots):
        if s.kind == "badge":
            x1[i] += 1.0
        elif s.kind == "w0":
            x1[i] = 0.0
    for i, s in enumerate(schema.slots):
        if s.kind == "interaction":
            a, b = (schema.index(p) for p in s.parents)
            x1[i] = x1[a] * x1[b]
    return x1


def _hazard(t, law):
    return 0.0 if t == 0.0 else law.rate * t**law.shape


def score_row(model, x0, w0, horizon):
    """{"delta", "p_send", "p_wait", "lambda0", "lambda1", "alpha"} of one row."""
    x0 = np.asarray(x0, dtype=float)
    x1 = _transition(model.schema, x0)
    sigma = model.sigma
    lam0 = math.exp(-float(x0 @ model.coefficients) / sigma)
    lam1 = math.exp(-float(x1 @ model.coefficients) / sigma)
    alpha = model.alpha
    pre, post = WeibullParams(lam0, alpha), WeibullParams(lam1, alpha)
    gap = _hazard(horizon + w0, pre) - _hazard(w0, pre)
    return {
        "delta": math.exp(-gap) - math.exp(-_hazard(horizon, post)),
        "p_send": prob_visit_if_send(horizon, post),
        "p_wait": prob_visit_if_not_send(horizon, pre, w0),
        "lambda0": lam0,
        "lambda1": lam1,
        "alpha": alpha,
    }
