"""Tests for the send/hold decision rules and the two-constraint LP."""

import math
import warnings

import numpy as np
import pytest

from oracle_lp import lp_oracle
from sendwhen.errors import ConfigError, DataError
from sendwhen.policies import (
    Candidate,
    MooConfig,
    moo_solve,
    ratio_rule,
    threshold_rule,
)


def cand(uid, delta, p_wait=0.0, p_click=0.0):
    return Candidate(uid, delta, p_wait, p_click)


def sent_ids(res, cands):
    """The user ids of the candidates sent, in candidate order."""
    return [c.user_id for c, send in zip(cands, res.send.tolist()) if send]


# -- threshold rule ----------------------------------------------------------


def test_threshold_sends_strictly_above_kappa():
    cands = [cand("a", 0.3), cand("b", 0.2), cand("c", 0.1)]
    res = threshold_rule(cands, kappa=0.2)
    assert res.rule == "threshold"
    assert res.kappa == 0.2
    assert res.send.tolist() == [True, False, False]
    assert sent_ids(res, cands) == ["a"]


def test_threshold_equality_holds():
    # the comparison is strict: delta == kappa does not send
    res = threshold_rule([cand("a", 0.2)], kappa=0.2)
    assert not res.send[0]
    assert res.y[0] == 0.0


def test_threshold_negative_kappa_sends_everything():
    res = threshold_rule(
        [cand("a", -0.5), cand("b", 0.0), cand("c", 0.2)], kappa=-1.0
    )
    assert res.send.all()


def test_threshold_infinite_kappa_sends_nothing():
    res = threshold_rule([cand("a", 0.9), cand("b", 1.0)], kappa=math.inf)
    assert not res.send.any()


def test_threshold_nan_kappa_rejected():
    with pytest.raises(ConfigError):
        threshold_rule([cand("a", 0.1)], kappa=math.nan)


def test_threshold_send_sets_nest_as_kappa_rises():
    rng = np.random.default_rng(31)
    cands = [cand(f"u{i:02d}", float(d)) for i, d in enumerate(rng.uniform(-1, 1, 40))]
    prev = None
    for kappa in np.linspace(-1.2, 1.2, 25):
        sent = set(sent_ids(threshold_rule(cands, float(kappa)), cands))
        if prev is not None:
            assert sent <= prev
        prev = sent


# -- ratio rule --------------------------------------------------------------


def test_ratio_sends_when_ratio_exceeds_kappa():
    res = ratio_rule([cand("a", 0.1, p_wait=0.5)], kappa=0.15)
    # 0.1 / 0.5 = 0.2 > 0.15
    assert res.send[0]
    assert not res.flagged[0]


def test_ratio_holds_when_ratio_below_kappa():
    res = ratio_rule([cand("a", 0.1, p_wait=0.9)], kappa=0.15)
    # 0.1 / 0.9 = 0.111 < 0.15
    assert not res.send[0]


def test_ratio_infinite_kappa_sends_nothing():
    res = ratio_rule(
        [cand("a", 0.9, p_wait=0.1), cand("b", 1.0, p_wait=0.5)], kappa=math.inf
    )
    assert not res.send.any()


def test_ratio_zero_p_wait_decided_by_sign():
    res = ratio_rule(
        [
            cand("pos", 0.2, p_wait=0.0),
            cand("zero", 0.0, p_wait=0.0),
            cand("neg", -0.1, p_wait=0.0),
        ],
        kappa=5.0,
    )
    assert res.send.tolist() == [True, False, False]  # pos, zero, neg
    for i in range(3):
        assert res.flagged[i]
        assert "p_wait" in res.note(i)


def test_ratio_overflowing_to_infinity_sends_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ratio_rule([cand("tiny", 0.5, p_wait=5e-324), cand("neg", -0.5, p_wait=5e-324)],
                         kappa=1e300)
    assert res.send.tolist() == [True, False]
    assert not res.flagged.any()


def test_ratio_send_sets_nest_as_kappa_rises():
    rng = np.random.default_rng(47)
    cands = [
        cand(f"u{i:02d}", float(d), p_wait=float(w))
        for i, (d, w) in enumerate(
            zip(rng.uniform(-0.5, 0.5, 40), rng.uniform(0.05, 0.95, 40))
        )
    ]
    prev = None
    for kappa in np.linspace(-3.0, 3.0, 25):
        sent = set(sent_ids(ratio_rule(cands, float(kappa)), cands))
        if prev is not None:
            assert sent <= prev
        prev = sent


def test_ratio_nan_kappa_rejected():
    with pytest.raises(ConfigError):
        ratio_rule([cand("a", 0.1, p_wait=0.5)], kappa=math.nan)


@pytest.mark.parametrize("rule", [threshold_rule, ratio_rule])
@pytest.mark.parametrize("kappa", ["0.1", None, True])
def test_a_kappa_that_is_not_a_number_is_refused(rule, kappa):
    with pytest.raises(ConfigError) as info:
        rule([cand("a", 0.1, p_wait=0.5)], kappa=kappa)
    assert str(info.value) == f"kappa must be a real number, got {kappa!r}"


# -- LP policy: hand instances -----------------------------------------------


def test_moo_worked_instance():
    cands = [
        cand("u1", 0.3, p_click=0.1),
        cand("u2", 0.2, p_click=0.3),
        cand("u3", 0.1, p_click=0.2),
    ]
    res = moo_solve(cands, MooConfig(c_click=0.5, c_send=2.0))
    assert res.status == "ok"
    y = res.y.tolist()
    assert y == pytest.approx([0.0, 1.0, 1.0], abs=1e-9)
    assert res.objective == pytest.approx(0.3, abs=1e-9)
    assert res.send.tolist() == [False, True, True]
    assert sent_ids(res, cands) == ["u2", "u3"]
    # duals: the click price where u1 and u3 swap, and the score cut there
    assert res.kappa1 == pytest.approx(2.0, abs=1e-9)
    assert res.kappa2 == pytest.approx(0.5, abs=1e-9)


def test_moo_unconstrained_positive_deltas_send_all():
    cands = [cand(f"u{i}", 0.1 * (i + 1), p_click=0.2) for i in range(5)]
    res = moo_solve(cands, MooConfig(c_click=0.0, c_send=5.0))
    assert res.y.tolist() == [1.0] * 5
    assert res.send.all()


def test_moo_zero_caps_give_zero_solution():
    cands = [cand("a", 0.5, p_click=0.4), cand("b", 0.2, p_click=0.1)]
    res = moo_solve(cands, MooConfig(c_click=0.0, c_send=0.0))
    assert res.status == "ok"
    assert res.y.tolist() == [0.0, 0.0]
    assert res.objective == 0.0


def test_moo_zero_cap_prices_volume_at_the_top_score():
    # nothing may be sent, so the volume threshold must clear every score
    cands = [cand("a", 0.5, p_click=0.4), cand("b", 0.2, p_click=0.1)]
    res = moo_solve(cands, MooConfig(c_click=0.0, c_send=0.0))
    assert res.kappa1 == 0.0
    assert res.kappa2 == 0.5


def test_moo_floor_reachable_only_within_tolerance():
    # 0.1 + 0.7 sums to just under 0.8 in floating point: the floor is
    # feasible within the tolerance, so the price search must accept it
    cands = [cand("a", 0.0, p_click=0.1), cand("b", 0.0, p_click=0.7)]
    res = moo_solve(cands, MooConfig(c_click=0.8, c_send=2.0))
    assert res.status == "ok"
    assert res.y.tolist() == [1.0, 1.0]
    assert res.kappa1 == 0.0


def test_moo_nonpositive_deltas_stay_home_when_click_free():
    cands = [cand("a", -0.5, p_click=0.4), cand("b", 0.0, p_click=0.1)]
    res = moo_solve(cands, MooConfig(c_click=0.0, c_send=2.0))
    assert res.y.tolist() == [0.0, 0.0]
    assert res.objective == 0.0
    assert res.kappa1 == 0.0
    assert res.kappa2 == 0.0


def test_moo_click_floor_forces_negative_delta():
    # a lone candidate with negative delta sends fractionally, exactly
    # enough to cover the click floor and no more
    res = moo_solve(
        [cand("a", -0.5, p_click=0.8)], MooConfig(c_click=0.4, c_send=1.0)
    )
    assert res.y[0] == pytest.approx(0.5, abs=1e-12)
    assert res.flagged[0]
    # the volume cap has room to round it up
    assert res.send[0]
    assert res.objective == pytest.approx(-0.25, abs=1e-12)
    assert res.kappa1 == pytest.approx(0.625, abs=1e-9)
    assert res.kappa2 == 0.0


def test_moo_click_tight_volume_slack():
    # the volume cap leaves room; only the click floor should pin y
    cands = [
        cand("a", -0.5713536, p_click=0.7994661),
        cand("b", -0.38109594, p_click=0.0),
    ]
    cc, cs = 0.3737831457309126, 0.5424714410905639
    res = moo_solve(cands, MooConfig(c_click=cc, c_send=cs))
    want_y0 = cc / 0.7994661
    assert res.y[0] == pytest.approx(want_y0, abs=1e-9)
    assert res.y[1] == 0.0
    assert res.objective == pytest.approx(-0.5713536 * want_y0, abs=1e-9)
    assert res.kappa2 == 0.0


def test_moo_both_constraints_tight_two_fractional():
    cands = [
        cand("a", 0.1, p_click=0.9),
        cand("b", 0.5, p_click=0.1),
        cand("c", 0.45, p_click=0.15),
    ]
    cc, cs = 0.9, 2.0
    res = moo_solve(cands, MooConfig(c_click=cc, c_send=cs))
    y = res.y
    _, _, obj_oracle = lp_oracle(
        np.array([0.1, 0.5, 0.45]), np.array([0.9, 0.1, 0.15]), cc, cs
    )
    assert res.objective == pytest.approx(obj_oracle, abs=1e-9)
    assert float(np.sum(y)) == pytest.approx(cs, abs=1e-9)
    assert float(y @ np.array([0.9, 0.1, 0.15])) == pytest.approx(cc, abs=1e-9)
    n_frac = int(np.sum((y > 1e-9) & (y < 1 - 1e-9)))
    assert n_frac == 2


def test_moo_kappa1_zero_when_click_free_but_volume_tight():
    cands = [cand("a", 0.3, p_click=0.5), cand("b", 0.2, p_click=0.1)]
    res = moo_solve(cands, MooConfig(c_click=0.2, c_send=1.0))
    assert res.y.tolist() == [1.0, 0.0]
    assert res.kappa1 == 0.0
    # volume threshold equals the marginal taken score
    assert res.kappa2 == pytest.approx(0.3, abs=1e-12)


def test_moo_infeasible_reports_reachable_click():
    res = moo_solve(
        [cand("a", 0.1, p_click=0.3)], MooConfig(c_click=0.5, c_send=1.0)
    )
    assert res.status == "infeasible"
    assert len(res.y) == len(res.send) == len(res.flagged) == 0
    assert res.report["c_click"] == 0.5
    assert res.report["max_click_reachable"] == pytest.approx(0.3)


def test_moo_tie_broken_by_user_id():
    cands = [
        cand("b", 0.1, p_click=0.0),
        cand("a", 0.1, p_click=0.0),
        cand("c", 0.1, p_click=0.0),
    ]
    res = moo_solve(cands, MooConfig(c_click=0.0, c_send=2.0))
    by_id = dict(zip(["b", "a", "c"], res.y.tolist()))
    assert by_id == {"a": 1.0, "b": 1.0, "c": 0.0}


def test_moo_deterministic():
    rng = np.random.default_rng(12)
    cands = [
        cand(f"u{i:02d}", float(d), p_click=float(p))
        for i, (d, p) in enumerate(
            zip(rng.uniform(-1, 1, 30), rng.uniform(0, 1, 30))
        )
    ]
    cfg = MooConfig(c_click=3.0, c_send=10.0)
    a, b = moo_solve(cands, cfg), moo_solve(cands, cfg)
    for name in ("y", "send", "flagged"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    for name in ("kappa1", "kappa2", "objective", "report"):
        assert getattr(a, name) == getattr(b, name)


def test_moo_validation():
    with pytest.raises(DataError):
        moo_solve([], MooConfig(c_click=0.0, c_send=1.0))
    with pytest.raises(DataError):
        moo_solve(
            [cand("a", 0.1), cand("a", 0.2)], MooConfig(c_click=0.0, c_send=1.0)
        )
    with pytest.raises(ConfigError):
        MooConfig(c_click=-0.1, c_send=1.0)
    with pytest.raises(ConfigError):
        MooConfig(c_click=0.0, c_send=-1.0)


def test_candidate_validation():
    with pytest.raises(DataError):
        Candidate("", 0.1, 0.0, 0.0)
    with pytest.raises(DataError):
        Candidate("a", math.nan, 0.0, 0.0)
    with pytest.raises(DataError):
        Candidate("a", 0.1, 1.5, 0.0)
    with pytest.raises(DataError):
        Candidate("a", 0.1, 0.0, -0.2)


# -- LP policy vs exhaustive vertex oracle -----------------------------------


def _random_instance(rng):
    n = int(rng.integers(1, 9))
    d = rng.uniform(-1.0, 1.0, size=n)
    p = rng.uniform(0.0, 1.0, size=n)
    p[rng.random(n) < 0.2] = 0.0
    if rng.random() < 0.5:
        cs = float(rng.uniform(0.0, n + 0.5))
    else:
        cs = float(rng.integers(0, n + 1))
    max_click = lp_oracle(np.ones(n), p, 0.0, cs)[2] if cs > 0 else 0.0
    cc = float(rng.uniform(0.0, 1.3 * max(max_click, 0.05)))
    return d, p, cc, cs


def test_moo_matches_vertex_oracle_on_random_instances():
    rng = np.random.default_rng(20260819)
    n_infeasible = 0
    for _ in range(500):
        d, p, cc, cs = _random_instance(rng)
        status_o, _, obj_o = lp_oracle(d, p, cc, cs)
        cands = [
            Candidate(f"u{i}", float(d[i]), 0.0, float(p[i]))
            for i in range(len(d))
        ]
        res = moo_solve(cands, MooConfig(c_click=cc, c_send=cs))
        if status_o == "infeasible":
            assert res.status == "infeasible"
            n_infeasible += 1
            continue
        assert res.status == "ok"
        y = res.y
        # objective optimal, constraints met, at most 2 fractional entries
        assert abs(res.objective - obj_o) <= 1e-9 * max(1.0, abs(obj_o))
        assert float(p @ y) >= cc - 1e-9 * max(1.0, cc)
        assert float(np.sum(y)) <= cs + 1e-9 * max(1.0, cs)
        assert np.all(y >= -1e-12) and np.all(y <= 1 + 1e-12)
        assert int(np.sum((y > 1e-9) & (y < 1 - 1e-9))) <= 2
        # duals reconstruct the decisions away from the threshold
        s = d + res.kappa1 * p
        for i, y_i in enumerate(res.y):
            if abs(s[i] - res.kappa2) > 1e-7:
                if s[i] > res.kappa2:
                    assert y_i > 1 - 1e-9
                else:
                    assert y_i < 1e-9
    # the generator must actually exercise the infeasible branch
    assert n_infeasible > 10
