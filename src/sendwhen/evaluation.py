"""Per-horizon labeling, rank AUC, and the AUC-vs-horizon comparison.

The same fitted time-to-visit model is scored at every horizon by its
implied visit probability F(T); the baseline is one logistic model per
horizon.  Two labelers are provided: the naive one attributes a visit to
every send within the horizon (including sends that were superseded by a
later one), the censoring-clean one uses the resolved survival triplets
and marks unresolvable instances ambiguous instead of guessing.  Both
read pipeline.send_table, so the events are walked once however many
horizons are labelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError
from .features import FeatureSchema
from .optimize import OptConfig
from .pipeline import (
    DEFAULT_HORIZONS,
    LABELERS,
    EventColumns,
    ObservationColumns,
    PipelineConfig,
    send_table,
)
from .survival import cum_hazard
from .training import LogisticModel, WeibullAftModel, fit_logistic

# External reference operating points carried as report metadata for
# context.  They come from a proprietary corpus and are not reproducible
# here, so they are never used as acceptance targets.
REFERENCE_AUC_POINTS: Mapping[float, Mapping[str, float | None]] = {
    4.0: {"auc_aft": 0.74, "auc_logistic": 0.58},
    24.0: {"auc_aft": 0.85, "auc_logistic": 0.73},
    48.0: {"auc_aft": 0.89, "auc_logistic": None},
}


def _check_horizon(horizon_t_hours: float) -> float:
    if not (
        isinstance(horizon_t_hours, (int, float))
        and math.isfinite(horizon_t_hours)
        and horizon_t_hours > 0
    ):
        raise ConfigError(f"horizon must be a positive number, got {horizon_t_hours!r}")
    return float(horizon_t_hours)


def label_naive(
    events: EventColumns,
    horizon_t_hours: float,
    cfg: PipelineConfig = PipelineConfig(),
) -> np.ndarray:
    """Per-send labels: did any visit land in (send, send + T]?

    Intervening sends do not stop the attribution, so one visit can label
    several earlier sends positive.  Output order matches
    build_send_instances (users sorted, sends in time order).
    """
    horizon = _check_horizon(horizon_t_hours)
    return send_table(events, cfg).visited_within(horizon)


def label_censoring_clean(
    observations: ObservationColumns, horizon_t_hours: float
) -> tuple[np.ndarray, np.ndarray]:
    """Labels from survival triplets: (labels, ambiguous) aligned masks.

    Resolved visit within the horizon -> positive; anything known to
    survive past the horizon -> negative; censored before the horizon ->
    ambiguous (the outcome inside the window is unknown, the instance
    must be excluded rather than guessed).
    """
    horizon = _check_horizon(horizon_t_hours)
    t, uncensored = observations.t_hours, observations.uncensored
    return uncensored & (t <= horizon), ~uncensored & (t < horizon)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, ties sharing their mean rank.

    The same arithmetic as scipy.stats.rankdata's default method, so the
    ranks (exact half-integers) agree with it element for element.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.r_[True, xs[1:] != xs[:-1]]
    dense = np.cumsum(starts)
    bounds = np.r_[np.flatnonzero(starts), x.size]
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (bounds[dense] + bounds[dense - 1] + 1)
    return ranks


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC (Mann-Whitney U), ties counted one half."""
    s = np.asarray(scores, dtype=float)
    lab = np.asarray(labels)
    if lab.dtype != np.bool_:
        vals = np.unique(lab)
        if not np.all(np.isin(vals, (0, 1))):
            raise DataError(f"labels must be boolean or 0/1, got values {vals}")
        lab = lab.astype(bool)
    if s.ndim != 1 or s.shape != lab.shape:
        raise DataError(f"shape mismatch: scores {s.shape} vs labels {lab.shape}")
    if not np.all(np.isfinite(s)):
        raise DataError("non-finite scores")
    n_pos = int(np.count_nonzero(lab))
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"AUC needs both classes; got {n_pos} positives, {n_neg} negatives"
        )
    ranks = _average_ranks(s)
    u = float(np.sum(ranks[lab])) - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def score_for_auc(
    model: WeibullAftModel | LogisticModel,
    X: np.ndarray,
    horizon_t_hours: float,
) -> np.ndarray:
    """Ranking scores at one horizon: visit probability by T.

    The survival model turns into a probability via its own cdf at T; a
    logistic model is only valid at the horizon it was trained for.
    """
    horizon = _check_horizon(horizon_t_hours)
    X = np.asarray(X, dtype=float)
    if isinstance(model, LogisticModel):
        if model.horizon_t_hours != horizon:
            raise SchemaError(
                f"logistic model was trained for T={model.horizon_t_hours}h, "
                f"cannot score at T={horizon}h"
            )
        return model.predict_proba(X)
    mu = model.linear_predictor(X)
    lam = np.exp(-mu / model.sigma)
    return -np.expm1(-cum_hazard(horizon, lam, model.alpha))


@dataclass(frozen=True)
class AucRow:
    """One horizon's comparison; flag marks rows without a valid AUC."""

    t_hours: float
    auc_aft: float
    auc_logistic: float
    n: int
    n_ambiguous: int
    labeler: str
    flag: str = ""

    def __post_init__(self) -> None:
        if self.labeler not in LABELERS:
            raise ConfigError(f"unknown labeler {self.labeler!r}")
        if not self.flag:
            for name, v in (("auc_aft", self.auc_aft), ("auc_logistic", self.auc_logistic)):
                if not (0.0 <= v <= 1.0):
                    raise DataError(f"{name} out of [0, 1]: {v}")


@dataclass(frozen=True)
class AucReport:
    """Per-horizon AUC table plus context metadata."""

    rows: tuple[AucRow, ...]
    reference_points: Mapping[float, Mapping[str, float | None]] = field(
        default_factory=lambda: REFERENCE_AUC_POINTS
    )

    def to_csv(self) -> str:
        lines = ["t_hours,auc_aft,auc_logistic,n,n_ambiguous,labeler"]
        for r in self.rows:
            a_aft = "" if r.flag else repr(float(r.auc_aft))
            a_log = "" if r.flag else repr(float(r.auc_logistic))
            lines.append(
                f"{float(r.t_hours)!r},{a_aft},{a_log},{r.n},{r.n_ambiguous},{r.labeler}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = f"{'T (h)':>7}  {'AUC aft':>9}  {'AUC logistic':>13}  {'n':>8}  {'ambiguous':>9}"
        lines = [head]
        for r in self.rows:
            a_aft = "--" if r.flag else f"{r.auc_aft:.4f}"
            a_log = "--" if r.flag else f"{r.auc_logistic:.4f}"
            tail = f"  [{r.flag}]" if r.flag else ""
            lines.append(
                f"{r.t_hours:>7g}  {a_aft:>9}  {a_log:>13}  {r.n:>8}  {r.n_ambiguous:>9}{tail}"
            )
        return "\n".join(lines)


def fit_logistic_baselines(
    events: EventColumns,
    schema: FeatureSchema,
    horizons: Sequence[float] = DEFAULT_HORIZONS,
    cfg: PipelineConfig = PipelineConfig(),
    opt_cfg: OptConfig = OptConfig(),
) -> dict[float, LogisticModel]:
    """One logistic model per horizon, trained on naive per-send labels.

    The events are walked once; every horizon labels the same sends.  Every
    horizon is checked and labelled before the first fit, and the fits hold
    only the matrix and the labels: the events and the send table are
    dropped first.
    """
    table = send_table(events, cfg)
    del events
    if len(table) == 0:
        raise DataError("no send instances to train on")
    X = table.matrix(schema)
    labels = {h: table.visited_within(h) for h in map(_check_horizon, horizons)}
    del table
    return {
        h: fit_logistic(X, y.astype(float), h, opt_cfg, schema=schema)
        for h, y in labels.items()
    }


def auc_vs_horizon(
    aft_model: WeibullAftModel,
    logistic_models: Mapping[float, LogisticModel],
    events: EventColumns,
    schema: FeatureSchema,
    horizons: Sequence[float] = DEFAULT_HORIZONS,
    labeler: str = "naive",
    cfg: PipelineConfig = PipelineConfig(),
) -> AucReport:
    """Compare the one survival model against per-horizon logistics.

    A single-class horizon (degenerate test set) produces a flagged row
    instead of failing the whole report.  Every horizon and its models are
    checked, and its sends labelled, before the first AUC; the AUCs hold
    only the matrix and the labels.
    """
    if labeler not in LABELERS:
        raise ConfigError(f"unknown labeler {labeler!r}; expected one of {LABELERS}")
    if not isinstance(aft_model, WeibullAftModel):
        raise SchemaError("aft_model must be the survival model, not a baseline")

    table = send_table(events, cfg)
    del events
    if labeler == "naive":
        observations = None
        X_all = table.matrix(schema)
    else:
        observations = table.observations(schema, cfg.duration_floor_hours)
        X_all = observations.x

    labelled = []  # (horizon, logistic model, labels, ambiguous or None)
    for t in horizons:
        horizon = _check_horizon(t)
        if horizon not in logistic_models:
            raise DataError(f"no logistic model provided for horizon T={horizon}h")
        logistic = logistic_models[horizon]
        if logistic.horizon_t_hours != horizon:
            raise SchemaError(
                f"logistic model keyed at T={horizon}h was trained for "
                f"T={logistic.horizon_t_hours}h"
            )
        if observations is None:
            labelled.append((horizon, logistic, table.visited_within(horizon), None))
        else:
            labelled.append((horizon, logistic, *label_censoring_clean(observations, horizon)))
    del table, observations

    rows = []
    for horizon, logistic, labels, ambiguous in labelled:
        if ambiguous is None or not ambiguous.any():  # every row kept: no copy
            X, y, n_ambiguous = X_all, labels, 0
        else:
            keep = ~ambiguous
            X, y, n_ambiguous = X_all[keep], labels[keep], int(np.count_nonzero(ambiguous))
        try:
            auc_aft = auc(score_for_auc(aft_model, X, horizon), y)
            auc_log = auc(score_for_auc(logistic, X, horizon), y)
            flag = ""
        except DataError:
            auc_aft = math.nan
            auc_log = math.nan
            flag = "insufficient-data"
        rows.append(
            AucRow(
                t_hours=horizon,
                auc_aft=auc_aft,
                auc_logistic=auc_log,
                n=int(y.size),
                n_ambiguous=n_ambiguous,
                labeler=labeler,
                flag=flag,
            )
        )
    return AucReport(rows=tuple(rows))
