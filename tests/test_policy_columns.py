"""The policies on CandidateColumns, against the Candidate rows and the full-sort LP.

Each rule gives the same result, bit for bit, whether its candidates come
as a CandidateColumns record or as a sequence of Candidate rows.  The LP's
greedy fill partitions at the volume cap; tests/oracle_moo.py keeps the
solver that sorted every candidate at each price step, and the two must
agree bit for bit on tie-heavy instances.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_moo import moo_oracle
from sendwhen.errors import DataError
from sendwhen.policies import (
    Candidate,
    CandidateColumns,
    MooConfig,
    moo_solve,
    ratio_rule,
    threshold_rule,
)

# few distinct values, so that scores tie at the volume cap and at the price steps
deltas = st.sampled_from([-0.5, -0.1, 0.0, 0.1, 0.25, 0.5]) | st.floats(-1.0, 1.0)
probabilities = st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0)
user_ids = st.sampled_from(["a", "a\x00", "b", "é", "😀", "B", "u10", "u9"]) | st.text(
    min_size=1, max_size=4)


@st.composite
def instances(draw):
    """(candidates, c_click, c_send) with unique user ids."""
    ids = draw(st.lists(user_ids, min_size=1, max_size=10, unique=True))
    cands = [Candidate(u, draw(deltas), draw(probabilities), draw(probabilities)) for u in ids]
    n = len(cands)
    c_send = draw(st.sampled_from([0.0, 1.0, 2.0, 2.5, float(n), n + 0.5])
                  | st.floats(0.0, n + 1.0))
    top = sorted((c.p_click for c in cands), reverse=True)[:math.floor(c_send)]
    c_click = draw(st.floats(0.0, 1.3 * max(sum(top), 0.05)))
    return cands, c_click, c_send


def _columns(cands):
    return CandidateColumns([c.user_id for c in cands],
                            np.array([c.delta for c in cands]),
                            np.array([c.p_wait for c in cands]),
                            np.array([c.p_click for c in cands]))


def _same(a, b):
    assert (a.rule, a.status) == (b.rule, b.status)
    assert a.y.tobytes() == b.y.tobytes()
    assert a.send.tolist() == b.send.tolist()
    assert a.flagged.tolist() == b.flagged.tolist()
    assert (a.kappa, a.kappa1, a.kappa2, a.objective) == (b.kappa, b.kappa1, b.kappa2,
                                                          b.objective)
    assert a.report == b.report


@settings(derandomize=True, deadline=None, max_examples=300)
@given(instances(), st.sampled_from([0.0, math.inf, -math.inf, 0.3]) | st.floats(-1.0, 1.0))
def test_rules_on_columns_equal_the_candidate_rows(drawn, kappa):
    cands, c_click, c_send = drawn
    cols = _columns(cands)
    for rule in (threshold_rule, ratio_rule):
        _same(rule(cols, kappa), rule(cands, kappa))
    cfg = MooConfig(c_click=c_click, c_send=c_send)
    _same(moo_solve(cols, cfg), moo_solve(cands, cfg))


def _check_against_oracle(ids, delta, p, c_click, c_send):
    res = moo_solve(CandidateColumns(ids, delta, np.full(len(ids), 0.5), p),
                    MooConfig(c_click=c_click, c_send=c_send))
    status, y, send, flagged, kappa1, kappa2, objective, report = moo_oracle(
        ids, delta, p, c_click, c_send)
    assert res.status == status
    assert res.y.tobytes() == y.tobytes()
    assert res.send.tolist() == send.tolist()
    assert res.flagged.tolist() == flagged.tolist()
    assert (res.kappa1, res.kappa2, res.objective) == (kappa1, kappa2, objective)
    assert res.report == report


@settings(derandomize=True, deadline=None, max_examples=500)
@given(instances())
def test_moo_equals_the_full_sort_solver(drawn):
    cands, c_click, c_send = drawn
    _check_against_oracle([c.user_id for c in cands], [c.delta for c in cands],
                          [c.p_click for c in cands], c_click, c_send)


@pytest.mark.parametrize("seed", range(6))
def test_moo_equals_the_full_sort_solver_at_2000_tied_candidates(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    ids = [f"u{i}" for i in rng.permutation(n).tolist()]  # not in row order
    delta = np.round(rng.normal(0.0, 0.1, n), 2)  # about 60 distinct values
    p = np.round(rng.uniform(0.0, 1.0, n), 1) if seed % 2 else rng.uniform(0.0, 1.0, n)
    c_send = [400.0, 1000.5, 1999.0][seed % 3]
    top = np.sort(p)[::-1][:int(c_send)].sum()
    _check_against_oracle(ids, delta, p, 0.8 * top, c_send)


@st.composite
def click_floors(draw):
    """(delta, p_click, c_click, c_send, permutation): distinct deltas and distinct
    p_click, with a click floor between the clicks of the volume-capped choice by
    delta and the most clicks the cap allows."""
    n = draw(st.integers(2, 12))
    delta = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n, unique=True))
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True))
    c_send = draw(st.floats(0.5, float(n)))
    free = moo_solve(CandidateColumns([f"u{i}" for i in range(n)], delta, np.full(n, 0.5), p),
                     MooConfig(c_click=0.0, c_send=c_send))
    least = float(np.dot(p, free.y))
    most = float(np.dot(np.sort(p)[::-1], np.clip(c_send - np.arange(n), 0.0, 1.0)))
    assume(most - least > 1e-6)
    c_click = least + draw(st.floats(0.1, 0.9)) * (most - least)
    return delta, p, c_click, c_send, draw(st.permutations(range(n)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(click_floors())
def test_moo_decides_each_user_alike_in_any_row_order(drawn):
    delta, p, c_click, c_send, order = drawn
    cfg = MooConfig(c_click=c_click, c_send=c_send)
    ids = [f"u{i}" for i in range(len(delta))]

    def solve(rows):
        res = moo_solve(CandidateColumns([ids[i] for i in rows], np.take(delta, rows),
                                         np.full(len(rows), 0.5), np.take(p, rows)), cfg)
        return res.kappa1, {ids[i]: (bool(res.send[j]), bool(res.flagged[j]), float(res.y[j]))
                            for j, i in enumerate(rows)}

    kappa1, base = solve(list(range(len(delta))))
    assume(kappa1 > 0.0)  # the floor binds; with a delta of 0 it may be met at price 0
    permuted = solve(order)[1]
    for uid, (send, flagged, y) in base.items():
        assert permuted[uid][:2] == (send, flagged), uid
        assert abs(permuted[uid][2] - y) <= 1e-12, uid


BAD_ROWS = [
    ("", 0.1, 0.5, 0.5),
    ("c", math.nan, 0.5, 0.5),
    ("c", math.inf, 0.5, 0.5),
    ("c", 0.1, 1.5, 0.5),
    ("c", 0.1, math.nan, 0.5),
    ("c", 0.1, 0.5, -0.2),
    ("c", 0.1, 0.5, math.inf),
    ("", math.nan, 2.0, 2.0),  # the first fault in Candidate's order
]


@pytest.mark.parametrize("row", BAD_ROWS)
def test_columns_refuse_the_first_bad_row_as_candidate_does(row):
    with pytest.raises(DataError) as one:
        Candidate(*row)
    rows = [("a", 0.1, 0.5, 0.5), ("b", -0.2, 0.0, 1.0), row, ("", math.nan, 0.5, 0.5)]
    with pytest.raises(DataError) as cols:
        CandidateColumns([r[0] for r in rows], *np.array([r[1:] for r in rows]).T)
    assert str(cols.value) == str(one.value)
    assert cols.value.row == 2


@pytest.mark.parametrize("column", ["delta", "p_wait", "p_click"])
def test_columns_refuse_a_column_of_another_length(column):
    columns = {"delta": np.zeros(3), "p_wait": np.zeros(3), "p_click": np.zeros(3),
               column: np.zeros(2)}
    with pytest.raises(DataError) as info:
        CandidateColumns(["a", "b", "c"], **columns)
    assert str(info.value) == f"{column} has shape (2,), 3 user ids"


def test_from_candidates_keeps_order_and_values():
    cands = [Candidate("b", 0.25, 0.5, 0.1), Candidate("a", -1.0, 0.0, 1.0)]
    cols = CandidateColumns.from_candidates(cands)
    assert list(cols.user_ids) == ["b", "a"] and len(cols) == 2
    assert cols.delta.tolist() == [0.25, -1.0]
    assert cols.p_wait.tolist() == [0.5, 0.0]
    assert cols.p_click.tolist() == [0.1, 1.0]
    assert len(CandidateColumns.from_candidates([])) == 0
