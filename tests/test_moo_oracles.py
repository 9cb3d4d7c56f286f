"""The LP policy against independent solvers.

At real sizes the reference is scipy's HiGHS; on small tie-heavy inputs
drawn by hypothesis it is the exhaustive vertex oracle.  Both check the
same things: the optimal objective, the two constraints, at most two
fractional entries, and that the duals reproduce every decision whose
adjusted score is clear of the volume threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oracle_lp import lp_oracle
from sendwhen.policies import Candidate, MooConfig, moo_solve


def _solve(d, p, c_click, c_send):
    ids = [f"u{i:05d}" for i in range(len(d))]
    cands = [Candidate(ids[i], float(d[i]), 0.5, float(p[i])) for i in range(len(d))]
    return moo_solve(cands, MooConfig(c_click=c_click, c_send=c_send))


def _check_optimal(res, d, p, c_click, c_send, obj_ref):
    assert res.status == "ok"
    y = res.y
    assert abs(res.objective - obj_ref) <= 1e-9 * max(1.0, abs(obj_ref))
    assert float(p @ y) >= c_click - 1e-9 * max(1.0, c_click)
    assert float(np.sum(y)) <= c_send + 1e-9 * max(1.0, c_send)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    assert int(np.sum((y > 1e-9) & (y < 1 - 1e-9))) <= 2
    # duals reconstruct the decisions away from the volume threshold
    s = d + res.kappa1 * p
    clear = np.abs(s - res.kappa2) > 1e-7
    assert np.all(y[clear & (s > res.kappa2)] > 1 - 1e-9)
    assert np.all(y[clear & (s < res.kappa2)] < 1e-9)


def _highs_objective(d, p, c_click, c_send):
    n = len(d)
    lp = linprog(
        -d,
        A_ub=np.vstack([-p, np.ones(n)]),
        b_ub=[-c_click, c_send],
        bounds=(0.0, 1.0),
        method="highs",
    )
    assert lp.status == 0, lp.message
    return -float(lp.fun)


@pytest.mark.parametrize("n", [1000, 20000])
@pytest.mark.parametrize("ties", [False, True], ids=["continuous", "ties"])
@pytest.mark.parametrize("cap", ["integer", "fractional"])
@pytest.mark.parametrize("floor", ["binding", "slack"])
def test_moo_matches_highs(n, ties, cap, floor):
    seed = [n, ties, cap == "integer", floor == "binding"]
    rng = np.random.default_rng(seed)
    d = rng.normal(0.05, 0.2, n)
    p = rng.uniform(0.0, 1.0, n)
    if ties:
        # one or two decimals, so many candidates share a score at any price
        d = np.round(d, int(rng.integers(1, 3)))
        p = np.round(p, int(rng.integers(1, 3)))
        p[rng.random(n) < 0.1] = 0.0
    c_send = 0.2 * n + (0.0 if cap == "integer" else 0.37)
    # clicks of the volume-capped top by delta, and the most the cap allows
    click_free = float(np.sum(np.sort(p[np.argsort(-d)][: int(c_send)])))
    reachable = float(np.sum(np.sort(p)[::-1][: int(c_send)]))
    if floor == "binding":
        c_click = click_free + 0.5 * (reachable - click_free)
    else:
        c_click = 0.5 * click_free

    res = _solve(d, p, c_click, c_send)
    _check_optimal(res, d, p, c_click, c_send, _highs_objective(d, p, c_click, c_send))
    assert (res.kappa1 > 0.0) == (floor == "binding")


_grid = st.integers(-10, 10).map(lambda k: k / 10)


@st.composite
def _small_instance(draw):
    n = draw(st.integers(1, 6))
    d = np.array(draw(st.lists(_grid, min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))) / 10
    c_send = draw(st.integers(0, 2 * n + 1)) / 2
    c_click = draw(st.integers(0, 10 * n)) / 10
    return d, p, c_click, c_send


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_small_instance())
def test_moo_matches_vertex_oracle_on_tied_grid(inst):
    d, p, c_click, c_send = inst
    status, _, obj = lp_oracle(d, p, c_click, c_send)
    res = _solve(d, p, c_click, c_send)
    if status == "infeasible":
        assert res.status == "infeasible"
        return
    _check_optimal(res, d, p, c_click, c_send, obj)
