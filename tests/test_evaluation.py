"""Tests for labeling, rank AUC, and the AUC-vs-horizon report."""

import math

import numpy as np
import pytest
from scipy.stats import rankdata

from sendwhen.errors import ConfigError, DataError, SchemaError
from sendwhen.evaluation import (
    DEFAULT_HORIZONS,
    AucRow,
    _average_ranks,
    _score_for_auc,
    auc,
    auc_vs_horizon,
    label_censoring_clean,
    label_naive,
)
from sendwhen.pipeline import (
    Event,
    ObservationColumns,
    PipelineConfig,
    build_observations,
    build_send_instances,
)
from sendwhen.simulate import (
    SendProcess,
    SimConfig,
    default_sim_schema,
    generate_event_log,
)
from sendwhen.training import WeibullAftModel, fit_aft, fit_logistic_baseline
from sendwhen.survival import WeibullParams

from event_rows import as_columns
from oracle_survival import weibull_cdf

B_TRUE = (2.6, 0.4, -0.3, -0.15, 0.05)


def send(uid, ts, badge=1, **features):
    return Event(uid, ts, "send", badge_count=badge, features=features)


def visit(uid, ts):
    return Event(uid, ts, "visit")


def obs(*rows):
    """Observations of one user from (t_hours, uncensored) pairs."""
    t, uncensored = zip(*rows)
    return ObservationColumns(
        user_ids=["u"],
        user=np.zeros(len(rows), dtype=np.int64),
        x=np.ones((len(rows), 1)),
        t_hours=np.array(t, dtype=float),
        uncensored=np.array(uncensored, dtype=bool),
        origin_ts_hours=np.zeros(len(rows)),
    )


@pytest.fixture(scope="module")
def corpus():
    cfg = SimConfig(
        n_users=200,
        n_profile_features=2,
        true_coefficients=B_TRUE,
        true_sigma=1.5,
        send_process=SendProcess("poisson", rate_per_hour=1.0 / 12.0),
        window_hours=240.0,
        seed=6,
    )
    sim = generate_event_log(cfg)
    schema = default_sim_schema(cfg)
    observations = build_observations(sim.events, schema, PipelineConfig())
    aft = fit_aft(observations, schema=schema)
    logistics = {
        t: fit_logistic_baseline(sim.events, schema, t, PipelineConfig()) for t in (4.0, 24.0)
    }
    return sim, schema, aft, logistics


class TestLabelNaive:
    def test_visit_within_horizon(self):
        labels = label_naive(as_columns([send("u", 0.0), visit("u", 3.0)]), 4.0)
        assert labels.tolist() == [True]

    def test_attribution_spans_intervening_send(self):
        # the visit labels both sends positive, including the superseded one
        events = [send("u", 0.0), send("u", 2.0), visit("u", 3.0)]
        labels = label_naive(as_columns(events), 4.0)
        assert labels.tolist() == [True, True]

    def test_visit_past_horizon(self):
        labels = label_naive(as_columns([send("u", 0.0), visit("u", 5.0)]), 4.0)
        assert labels.tolist() == [False]

    def test_interval_open_left_closed_right(self):
        # visit exactly at the send does not count; exactly at send+T does
        assert label_naive(as_columns([send("u", 0.0), visit("u", 0.0)]), 4.0).tolist() == [False]
        assert label_naive(as_columns([send("u", 0.0), visit("u", 4.0)]), 4.0).tolist() == [True]

    def test_order_matches_send_instances(self, corpus):
        sim, schema, _, _ = corpus
        cfg = PipelineConfig()
        labels = label_naive(sim.events, 24.0, cfg)
        instances = build_send_instances(sim.events, schema, cfg)
        assert labels.shape == (len(instances),)
        n_sends = sum(1 for e in sim.events if e.kind == "send")
        assert len(instances) == n_sends

    def test_input_order_irrelevant(self):
        events = [send("u", 0.0), send("u", 2.0), visit("u", 3.0), send("v", 1.0)]
        scrambled = [events[2], events[3], events[0], events[1]]
        assert np.array_equal(label_naive(as_columns(events), 4.0),
                              label_naive(as_columns(scrambled), 4.0))

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            label_naive(as_columns([send("u", 0.0)]), 0.0)
        with pytest.raises(ConfigError):
            label_naive(as_columns([send("u", 0.0)]), math.nan)


class TestLabelCensoringClean:
    def test_resolved_within_horizon_positive(self):
        labels, amb = label_censoring_clean(obs((3.0, True)), 4.0)
        assert labels.tolist() == [True] and amb.tolist() == [False]

    def test_censored_past_horizon_negative(self):
        labels, amb = label_censoring_clean(obs((5.0, False)), 4.0)
        assert labels.tolist() == [False] and amb.tolist() == [False]

    def test_censored_before_horizon_ambiguous(self):
        labels, amb = label_censoring_clean(obs((2.0, False)), 4.0)
        assert labels.tolist() == [False] and amb.tolist() == [True]

    def test_resolved_past_horizon_negative(self):
        labels, amb = label_censoring_clean(obs((5.0, True)), 4.0)
        assert labels.tolist() == [False] and amb.tolist() == [False]

    def test_boundary_at_horizon(self):
        # resolved at exactly T is a visit within the window; censored at
        # exactly T survived the whole window
        labels, amb = label_censoring_clean(obs((4.0, True), (4.0, False)), 4.0)
        assert labels.tolist() == [True, False]
        assert amb.tolist() == [False, False]


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_ties_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_partial_tie_counted_half(self):
        # pos vs neg pairs: (1,1) tie -> 0.5, (1,0) win -> 1; mean 0.75
        assert auc([1.0, 1.0, 0.0], [1, 0, 0]) == 0.75

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            s = np.round(rng.uniform(0, 1, 60), 2)  # rounding forces ties
            y = rng.random(60) < 0.4
            if y.all() or not y.any():
                continue
            pos, neg = s[y], s[~y]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            want = (wins + 0.5 * ties) / (pos.size * neg.size)
            assert auc(s, y) == pytest.approx(want, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=80)
        y = rng.random(80) < 0.5
        assert auc(s, y) == auc(np.exp(s), y)
        assert auc(s, y) == auc(3.0 * s + 7.0, y)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(DataError):
            auc([0.1, 0.2], [0, 0])

    def test_bad_labels_rejected(self):
        with pytest.raises(DataError):
            auc([0.1, 0.2], [0, 2])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(DataError):
            auc([math.nan, 0.2], [0, 1])


class TestAverageRanks:
    """The numpy rank helper against scipy's rankdata as a test-only oracle."""

    @pytest.mark.parametrize(
        "x",
        [
            np.random.default_rng(30).uniform(size=500),
            np.random.default_rng(31).integers(0, 6, size=500).astype(float),
            np.full(40, 0.25),
            np.array([3.5]),
            np.array([2.0, -1.0, 2.0, 0.0, -1.0, 2.0]),
        ],
        ids=["random", "heavy_ties", "all_equal", "single", "mixed"],
    )
    def test_equals_rankdata(self, x):
        got = _average_ranks(x)
        assert got.dtype == np.float64
        assert np.array_equal(got, rankdata(x))


class TestScoreForAuc:
    def aft_model(self, coefficients, names=("intercept",)):
        return WeibullAftModel(
            feature_names=tuple(names),
            coefficients=np.asarray(coefficients, dtype=float),
            log_sigma=math.log(1.5),
        )

    def test_identical_features_identical_scores(self):
        m = self.aft_model([2.0])
        s = _score_for_auc(m, np.ones((4, 1)), 24.0)
        assert np.all(s == s[0])

    def test_monotone_in_rate(self):
        # lower linear predictor -> higher rate -> higher visit probability
        m = self.aft_model([1.0, 1.0], names=("intercept", "f"))
        X = np.array([[1.0, 0.0], [1.0, -1.0]])
        s = _score_for_auc(m, X, 12.0)
        assert s[1] > s[0]

    def test_matches_scalar_cdf(self):
        m = self.aft_model([2.0, 0.3, -0.4], names=("intercept", "a", "b"))
        rng = np.random.default_rng(10)
        X = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
        s = _score_for_auc(m, X, 24.0)
        for i in range(20):
            law = WeibullParams(math.exp(-float(X[i] @ m.coefficients) / m.sigma), m.alpha)
            assert s[i] == pytest.approx(weibull_cdf(24.0, law), rel=1e-12)

    def test_logistic_scores_are_probabilities(self, corpus):
        sim, schema, _, logistics = corpus
        m = logistics[4.0]
        X = np.stack(
            [inst.x for inst in build_send_instances(sim.events, schema, PipelineConfig())]
        )[:50]
        assert np.array_equal(_score_for_auc(m, X, 4.0), m.predict_proba(X))


class TestBaselines:
    def test_one_model_per_horizon(self, corpus):
        _, _, _, logistics = corpus
        assert set(logistics) == {4.0, 24.0}
        for t, m in logistics.items():
            assert m.horizon_t_hours == t

    def test_deterministic(self, corpus):
        sim, schema, _, logistics = corpus
        again = fit_logistic_baseline(sim.events, schema, 4.0, PipelineConfig())
        assert np.array_equal(again.weights, logistics[4.0].weights)

    def test_empty_events_rejected(self, corpus):
        _, schema, _, _ = corpus
        with pytest.raises(DataError):
            fit_logistic_baseline(as_columns([]), schema, 4.0, PipelineConfig())


class TestAucVsHorizon:
    def test_naive_report(self, corpus):
        sim, schema, aft, logistics = corpus
        report = auc_vs_horizon(
            aft, logistics, sim.events, schema, horizons=(4.0, 24.0)
        )
        assert [r.t_hours for r in report.rows] == [4.0, 24.0]
        n_sends = sum(1 for e in sim.events if e.kind == "send")
        for r in report.rows:
            assert r.flag == ""
            assert 0.0 <= r.auc_aft <= 1.0
            assert 0.0 <= r.auc_logistic <= 1.0
            assert r.n == n_sends
            assert r.n_ambiguous == 0
            assert r.labeler == "naive"

    def test_clean_report_counts_ambiguous(self, corpus):
        sim, schema, aft, logistics = corpus
        observations = build_observations(sim.events, schema, PipelineConfig())
        report = auc_vs_horizon(
            aft,
            logistics,
            sim.events,
            schema,
            horizons=(4.0, 24.0),
            labeler="censoring_clean",
        )
        for r in report.rows:
            assert r.labeler == "censoring_clean"
            assert r.n + r.n_ambiguous == len(observations)
        # shorter horizons leave fewer unresolved-by-then observations
        assert report.rows[0].n_ambiguous <= report.rows[1].n_ambiguous

    def test_csv_format(self, corpus):
        sim, schema, aft, logistics = corpus
        report = auc_vs_horizon(aft, logistics, sim.events, schema, horizons=(4.0,))
        lines = report.to_csv().splitlines()
        assert lines[0] == "t_hours,auc_aft,auc_logistic,n,n_ambiguous,labeler"
        cells = lines[1].split(",")
        assert cells[0] == "4.0"
        assert 0.0 <= float(cells[1]) <= 1.0
        assert cells[5] == "naive"
        assert report.to_text()  # renders without error

    def test_missing_logistic_model_named(self, corpus):
        sim, schema, aft, logistics = corpus
        with pytest.raises(DataError, match="T=8"):
            auc_vs_horizon(aft, logistics, sim.events, schema, horizons=(8.0,))

    def test_miskeyed_logistic_model(self, corpus):
        sim, schema, aft, logistics = corpus
        with pytest.raises(SchemaError):
            auc_vs_horizon(
                aft, {24.0: logistics[4.0]}, sim.events, schema, horizons=(24.0,)
            )

    def test_aft_slot_rejects_baseline(self, corpus):
        sim, schema, _, logistics = corpus
        with pytest.raises(SchemaError):
            auc_vs_horizon(
                logistics[4.0], logistics, sim.events, schema, horizons=(4.0,)
            )

    def test_degenerate_single_class_flagged(self, corpus):
        _, schema, aft, logistics = corpus
        events = [
            send("z", 0.0, badge=1, profile_0=0.1, profile_1=-0.2),
            visit("z", 1.0),
        ]
        report = auc_vs_horizon(aft, logistics, as_columns(events), schema, horizons=(4.0,))
        row = report.rows[0]
        assert row.flag == "insufficient-data"
        assert math.isnan(row.auc_aft)
        line = report.to_csv().splitlines()[1]
        assert line.startswith("4.0,,,")

    def test_unknown_labeler(self, corpus):
        sim, schema, aft, logistics = corpus
        with pytest.raises(ConfigError):
            auc_vs_horizon(
                aft, logistics, sim.events, schema, horizons=(4.0,), labeler="hopeful"
            )

    def test_default_horizon_grid(self):
        assert DEFAULT_HORIZONS == (2.0, 4.0, 8.0, 12.0, 24.0, 36.0, 48.0)


class TestAucRowValidation:
    def test_flagged_row_allows_nan(self):
        row = AucRow(4.0, math.nan, math.nan, 1, 0, "naive", flag="insufficient-data")
        assert row.flag == "insufficient-data"
