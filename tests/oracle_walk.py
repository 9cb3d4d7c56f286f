"""Reference state walk: one user at a time, one event at a time.

The per-user generator the pipeline used before it became one sort over
all events, kept as an oracle for pipeline.send_table and its views.  It
groups events by user, sorts each stream by (time, visit before send) and
walks it, building every feature vector with a per-slot loop.  Slow, but
each rule is written out once and in the order it applies.
"""

import numpy as np

from sendwhen.errors import SchemaError
from sendwhen.pipeline import SEND, VISIT, Event, ObservationColumns, SendInstance


def _in_window(ev, cfg):
    """True when ev lies inside the window; both bounds are inclusive."""
    if cfg.window_start is not None and ev.ts_hours < cfg.window_start:
        return False
    if cfg.window_end is not None and ev.ts_hours > cfg.window_end:
        return False
    return True


def _group_sorted(events, cfg):
    """Group by user and sort each stream by time.

    Ties at equal timestamps put the visit first (it is attributed to the
    prior state); Python's stable sort preserves input order beyond that.
    """
    by_user = {}
    for ev in events:
        if _in_window(ev, cfg):
            by_user.setdefault(ev.user_id, []).append(ev)
    for stream in by_user.values():
        stream.sort(key=lambda e: (e.ts_hours, 0 if e.kind == VISIT else 1))
    return by_user


def _walk_user(stream):
    """Yield (send, w0_hours, next_event_or_None) for each send in order.

    w0 is the time the user had already spent in the pre-send state: hours
    since the latest preceding send or visit (whichever came later), zero
    when the send is the user's first event.

    The successor of a send is the next event in sorted order, except that
    a visit at the very same timestamp counts as the successor (yielding a
    floor-duration uncensored observation) even though the tie rule sorts
    it before the send; that visit also terminates any earlier pending
    observation, so a simultaneous pair is never silently dropped.
    """
    visit_ts = {e.ts_hours for e in stream if e.kind == VISIT}
    state_start = None
    for i, ev in enumerate(stream):
        if ev.kind == SEND:
            w0 = 0.0 if state_start is None else ev.ts_hours - state_start
            if ev.ts_hours in visit_ts:
                nxt = Event(ev.user_id, ev.ts_hours, VISIT)
            else:
                nxt = stream[i + 1] if i + 1 < len(stream) else None
            yield ev, max(w0, 0.0), nxt
        state_start = ev.ts_hours  # both kinds start a new state


def materialize(schema, raw, *, badge_count=0.0, w0_hours=0.0):
    """One feature vector, slot by slot, then the interactions."""
    x = np.empty(len(schema.slots), dtype=float)
    for i, s in enumerate(schema.slots):
        if s.kind == "intercept":
            x[i] = 1.0
        elif s.kind == "badge":
            x[i] = float(badge_count)
        elif s.kind == "w0":
            x[i] = float(w0_hours)
        elif s.kind == "base":
            if s.name not in raw:
                raise SchemaError(f"missing base feature {s.name!r}")
            x[i] = float(raw[s.name])
        else:  # interaction, filled in the second pass
            x[i] = 0.0
    for i, s in enumerate(schema.slots):
        if s.kind == "interaction":
            a, b = (schema.index(p) for p in s.parents)
            x[i] = x[a] * x[b]
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise SchemaError(f"non-finite value in slot {schema.slots[bad].name!r}")
    return x


def build_observations(events, schema, cfg):
    by_user = _group_sorted(events, cfg)
    user_ids = sorted(by_user)
    rows = []  # (user code, x, duration, uncensored, origin)
    for code, user_id in enumerate(user_ids):
        for send, w0, nxt in _walk_user(by_user[user_id]):
            if nxt is None:
                continue
            duration = max(nxt.ts_hours - send.ts_hours, cfg.duration_floor_hours)
            x = materialize(schema, send.features, badge_count=send.badge_count, w0_hours=w0)
            rows.append((code, x, duration, nxt.kind == VISIT, send.ts_hours))
    user, xs, t, uncensored, origin = zip(*rows) if rows else ((),) * 5
    return ObservationColumns(
        user_ids=user_ids,
        user=np.array(user, dtype=np.int64),
        x=np.array(xs, dtype=float).reshape(len(rows), len(schema.slots)),
        t_hours=np.array(t, dtype=float),
        uncensored=np.array(uncensored, dtype=bool),
        origin_ts_hours=np.array(origin, dtype=float),
    )


def build_send_instances(events, schema, cfg):
    by_user = _group_sorted(events, cfg)
    out = []
    for user_id in sorted(by_user):
        for send, w0, _ in _walk_user(by_user[user_id]):
            x = materialize(schema, send.features, badge_count=send.badge_count, w0_hours=w0)
            out.append(SendInstance(user_id=user_id, ts_hours=send.ts_hours, x=x))
    return out


def label_naive(events, horizon, cfg):
    by_user = _group_sorted(events, cfg)
    out = []
    for user_id in sorted(by_user):
        stream = by_user[user_id]
        visits = np.asarray(
            sorted(e.ts_hours for e in stream if e.kind == VISIT), dtype=float
        )
        for send, _, _ in _walk_user(stream):
            i = int(np.searchsorted(visits, send.ts_hours, side="right"))
            out.append(bool(i < visits.size and visits[i] <= send.ts_hours + horizon))
    return np.asarray(out, dtype=bool)
