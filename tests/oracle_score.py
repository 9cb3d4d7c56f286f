"""Per-row reference scorer: one context at a time, through the closed forms.

Scores one row the way the package did before scoring ran on columns:
the send transition applied to the one vector, the linear predictors as
1-d dot products, the rates through math.exp, a WeibullParams for each
state, then oracle_survival's delta_effect, prob_visit_if_send and
prob_visit_if_not_send.  A column scorer must give the same floats, bit
for bit.
"""

import math

import numpy as np

from sendwhen.survival import WeibullParams

from oracle_survival import delta_effect, prob_visit_if_not_send, prob_visit_if_send


def _transition(schema, x0):
    x1 = np.array(x0, dtype=float)
    for i, s in enumerate(schema.slots):
        if s.kind == "badge":
            x1[i] += 1.0
        elif s.kind == "w0":
            x1[i] = 0.0
    for i, s in enumerate(schema.slots):
        if s.kind == "interaction":
            a, b = (schema.names.index(p) for p in s.parents)
            x1[i] = x1[a] * x1[b]
    return x1


def score_row(model, x0, w0, horizon):
    """{"delta", "p_send", "p_wait", "lambda0", "lambda1", "alpha"} of one row."""
    x0 = np.asarray(x0, dtype=float)
    x1 = _transition(model.schema, x0)
    sigma = model.sigma
    lam0 = math.exp(-float(x0 @ model.coefficients) / sigma)
    lam1 = math.exp(-float(x1 @ model.coefficients) / sigma)
    alpha = model.alpha
    pre, post = WeibullParams(lam0, alpha), WeibullParams(lam1, alpha)
    return {
        "delta": delta_effect(horizon, pre, post, w0),
        "p_send": prob_visit_if_send(horizon, post),
        "p_wait": prob_visit_if_not_send(horizon, pre, w0),
        "lambda0": lam0,
        "lambda1": lam1,
        "alpha": alpha,
    }
