"""Reference LP policy: one full sort per greedy fill.

The moo_solve that ranked every candidate with np.lexsort at each price
step, deduplicated the refill breakpoints with np.unique and ranked ties
by a precomputed user_id position, kept as an oracle for
policies.moo_solve, which partitions at the volume cap instead.  Both
must give the same y, send, flagged, prices, objective and report, bit
for bit.
"""

import math

import numpy as np

_EDGE_TOL = 1e-9


def moo_oracle(ids, delta, p, c_click, c_send):
    """(status, y, send, flagged, kappa1, kappa2, objective, report) of the old solver."""
    delta, p = np.array(delta, dtype=float), np.array(p, dtype=float)
    n = len(ids)
    id_pos = np.empty(n, dtype=np.intp)
    id_pos[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    room = np.clip(c_send - np.arange(n), 0.0, 1.0)

    def greedy(s):
        order = np.lexsort((id_pos, -s))
        y = np.zeros(n)
        y[order] = np.where(s[order] > 0.0, room, 0.0)
        return y

    def meets_floor(clicks):
        return clicks >= c_click - _EDGE_TOL * max(1.0, c_click)

    y = greedy(p)
    if not meets_floor(float(p @ y)):
        report = {"c_click": c_click, "c_send": c_send, "max_click_reachable": float(p @ y)}
        empty = np.zeros(0, dtype=bool)
        return "infeasible", np.zeros(0), empty, empty, None, None, None, report

    kappa1, y = 0.0, greedy(delta)
    if not meets_floor(float(p @ y)):
        lo, y_lo, hi = 0.0, y, 1.0
        for _ in range(200):
            y_hi = greedy(delta + hi * p)
            if meets_floor(float(p @ y_hi)):
                break
            hi *= 2.0
        else:
            raise ArithmeticError("click price search failed to bracket")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            y_mid = greedy(delta + mid * p)
            if meets_floor(float(p @ y_mid)):
                hi, y_hi = mid, y_mid
            else:
                lo, y_lo = mid, y_mid

        priced = bool(np.any(y_hi < y_lo))
        entrant = int(np.argmax(y_hi > y_lo))
        a, b = sorted((int(np.argmax(y_hi < y_lo)) if priced else n, entrant))
        dz, pz = np.append(delta, 0.0), np.append(p, 0.0)
        kappa1 = hi
        if pz[a] != pz[b]:
            k = float((dz[b] - dz[a]) / (pz[a] - pz[b])) + 0.0
            if k >= 0.0 and abs(k - hi) <= 1e-6 * max(1.0, hi):
                kappa1 = k

        tied = (y_lo != y_hi) | ((y_hi > 0.0) & (y_hi < 1.0))
        y = np.where(tied, 0.0, y_hi)
        order = np.flatnonzero(tied)[np.argsort(-p[tied], kind="stable")]
        m = len(order)
        v = min(max(c_send - float(np.sum(y)), 0.0), float(m))
        c_rem = max(c_click - float(p @ y), 0.0)
        x = np.arange(m + 1.0)
        clicks = np.concatenate(([0.0], np.cumsum(p[order])))
        t_br = np.unique(np.clip(np.concatenate((x, x - (m - v))), 0.0, v))
        c_br = np.interp(t_br, x, clicks)
        if priced:
            c_br += clicks[-1] - np.interp(t_br + (m - v), x, clicks)
        c_br = np.maximum.accumulate(c_br)
        j = min(int(np.searchsorted(c_br, c_rem)), len(c_br) - 1)
        seg = slice(max(j - 1, 0), j + 1)
        t = float(np.interp(c_rem, c_br[seg], t_br[seg]))
        back = v - t if priced else 0.0
        y[order] = np.clip(t - x[:-1], 0.0, 1.0) + np.clip(x[1:] - (m - back), 0.0, 1.0)

    s = delta + kappa1 * p
    consumed = float(np.sum(y)) >= c_send - _EDGE_TOL
    kappa2 = max(float(np.min(s[y > 1e-12], initial=np.max(s))), 0.0) if consumed else 0.0

    y_out = np.clip(y, 0.0, 1.0)
    whole = y_out >= 1.0 - 1e-12
    flagged = (y_out > 1e-12) & ~whole
    frac = np.flatnonzero(flagged)
    budget, n_up = c_send - int(np.count_nonzero(whole)), 0
    while n_up < len(frac) and budget >= 1.0 - _EDGE_TOL:
        budget -= 1.0
        n_up += 1

    def round_up(key):
        send = whole.copy()
        send[frac[np.lexsort((id_pos[frac], key[frac]))[:n_up]]] = True
        return send, math.fsum(p[send].tolist())

    send, sent_clicks = round_up(-delta)
    if not meets_floor(sent_clicks):
        send, sent_clicks = round_up(-p)
    report = {
        "click_total": float(p @ y),
        "send_total": float(np.sum(y)),
        "n_fractional": len(frac),
        "sent_click_total": sent_clicks,
        "floor_met": meets_floor(sent_clicks),
    }
    return "ok", y_out, send, flagged, kappa1, kappa2, float(delta @ y), report
