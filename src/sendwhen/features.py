"""Feature schema: named slots, interaction materialization, send transitions.

A FeatureSchema is the shared contract between the event pipeline (which
builds observation vectors), the trainers (which name coefficients), and
the scoring engine (which must know how a hypothetical send changes the
vector).  Slots are ordered; a dense vector is only meaningful together
with its schema.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError, at_row

__all__ = ["SlotSpec", "FeatureSchema", "SLOT_KINDS"]

# base:        a raw profile or activity feature, read from the event payload
# intercept:   constant 1.0
# badge:       the badge count after the event (drives the send transition)
# w0:          derived from hours since the state start; reset to 0 on send
# interaction: product of exactly two non-interaction parent slots
SLOT_KINDS = ("intercept", "base", "badge", "w0", "interaction")


@dataclass(frozen=True)
class SlotSpec:
    """One named position in the feature vector."""

    name: str
    kind: str = "base"
    parents: tuple[str, ...] = ()
    online: bool = False

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError("slot name must be a non-empty string")
        if self.kind not in SLOT_KINDS:
            raise SchemaError(
                f"slot {self.name!r}: unknown kind {self.kind!r}, "
                f"expected one of {SLOT_KINDS}"
            )
        if self.kind == "interaction":
            if len(self.parents) != 2:
                raise SchemaError(
                    f"interaction slot {self.name!r} needs exactly 2 parents, "
                    f"got {len(self.parents)}"
                )
        elif self.parents:
            raise SchemaError(
                f"slot {self.name!r} of kind {self.kind!r} cannot have parents"
            )


def _slot_fields(entry) -> tuple[str, str, tuple[str, ...], bool] | None:
    """A slot entry's (name, kind, parents, online), or None if one is not of its JSON type."""
    if type(entry) is not dict:
        return None
    name, kind = entry.get("name"), entry.get("kind", "base")
    parents, online = entry.get("parents", []), entry.get("online", False)
    if not (type(name) is str and type(kind) is str and type(parents) is list
            and all(type(p) is str for p in parents) and type(online) is bool):
        return None
    return name, kind, tuple(parents), online


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered, validated collection of slots with derived-slot semantics."""

    slots: tuple[SlotSpec, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.slots:
            raise SchemaError("schema must have at least one slot")
        names = [s.name for s in self.slots]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate slot names: {dupes}")
        index = {s.name: i for i, s in enumerate(self.slots)}
        object.__setattr__(self, "_index", index)

        n_intercept = sum(1 for s in self.slots if s.kind == "intercept")
        if n_intercept != 1:
            raise SchemaError(
                f"schema must have exactly one intercept slot, found {n_intercept}"
            )
        if sum(1 for s in self.slots if s.kind == "badge") > 1:
            raise SchemaError("schema may have at most one badge slot")
        for s in self.slots:
            if s.kind != "interaction":
                continue
            for pname in s.parents:
                if pname not in index:
                    raise SchemaError(
                        f"interaction slot {s.name!r}: unknown parent {pname!r}"
                    )
                parent = self.slots[index[pname]]
                if parent.kind == "interaction":
                    raise SchemaError(
                        f"interaction slot {s.name!r}: parent {pname!r} is "
                        "itself an interaction (only pairwise products of "
                        "plain slots are supported)"
                    )

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)

    def indices_of_kind(self, kind: str) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.slots) if s.kind == kind)

    @property
    def schema_id(self) -> str:
        """Content hash of the slot layout; stable across processes."""
        payload = json.dumps(
            [[s.name, s.kind, list(s.parents), s.online] for s in self.slots],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- vector construction ----------------------------------------------

    def materialize(
        self,
        raw: Mapping[str, float],
        *,
        badge_count: float = 0.0,
        w0_hours: float = 0.0,
    ) -> np.ndarray:
        """Build a dense vector from raw named features plus state inputs.

        The one-row case of materialize_columns, with the same errors.
        """
        columns = {name: ([value], [True]) for name, value in raw.items()}
        return self.materialize_columns(columns, [badge_count], [w0_hours])[0]

    def materialize_columns(
        self,
        features: Mapping[str, tuple[Sequence[float], Sequence[bool]]],
        badge_counts: Sequence[float] | np.ndarray,
        w0_hours: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """Build an (n, k) matrix from named feature columns, n = len(badge_counts).

        features maps a base slot's name to (values, present) columns; a row
        whose present entry is False lacks the feature and holds nan in
        values, and a name absent from features is missing on every row.
        Interaction slots are computed from their parents, so callers never
        supply them.  Missing base features and non-finite values raise a
        SchemaError for the first bad row, as if the rows were built one by
        one: a missing feature first, then the first non-finite slot.  The
        error's row is that row's index.
        """
        X = np.empty((len(badge_counts), len(self.slots)))
        for i, s in enumerate(self.slots):
            if s.kind == "intercept":
                X[:, i] = 1.0
            elif s.kind == "badge":
                X[:, i] = badge_counts
            elif s.kind == "w0":
                X[:, i] = w0_hours
            elif s.kind == "base":  # a missing feature reads as nan here
                X[:, i] = features[s.name][0] if s.name in features else np.nan
        self._interact(X)
        finite = np.isfinite(X)
        if np.count_nonzero(finite) < finite.size:
            row = int(np.argmin(finite.all(axis=1)))
            for s in self.slots:
                if s.kind == "base" and not (s.name in features and features[s.name][1][row]):
                    raise at_row(SchemaError(f"missing base feature {s.name!r}"), row)
            self.check_rows(X)  # the non-finite slot of that row
        return X

    def _interact(self, X: np.ndarray) -> None:
        """Set every interaction slot of X (a vector or a matrix) from its parents."""
        with np.errstate(over="ignore", invalid="ignore"):  # callers report inf and nan
            for i, s in enumerate(self.slots):
                if s.kind == "interaction":
                    a, b = (self._index[p] for p in s.parents)
                    X[..., i] = X[..., a] * X[..., b]

    def check_rows(self, X: np.ndarray) -> None:
        """Raise a SchemaError for the first row of an (n, w) matrix the schema refuses.

        A row needs one value per slot, every value finite and 1.0 in the
        intercept slot; the error's row is the first bad row's index.
        """
        if X.ndim != 2 or X.shape[1] != len(self.slots):
            if len(X):
                raise at_row(SchemaError(
                    f"vector length {X.shape[1:]} does not match schema ({len(self.slots)} slots)"
                ), 0)
            return
        icpt = self.indices_of_kind("intercept")[0]
        finite = np.isfinite(X)
        bad = ~finite.all(axis=1) | (X[:, icpt] != 1.0)
        if bad.any():
            row = int(np.argmax(bad))
            if not finite[row].all():
                name = self.slots[int(np.argmin(finite[row]))].name
                raise at_row(SchemaError(f"non-finite value in slot {name!r}"), row)
            raise at_row(SchemaError(f"intercept slot {self.slots[icpt].name!r} must be 1.0, "
                                     f"got {X[row, icpt]}"), row)

    # -- the send transition ----------------------------------------------

    def transition(self, X0: Sequence[float] | np.ndarray) -> np.ndarray:
        """Feature vectors after a hypothetical send right now.

        X0 is one vector or an (n, k) matrix of them, unchecked (see
        check_rows).  The badge count goes up by one, slots derived from
        time-in-state drop to zero (a send starts a new state), and every
        interaction is recomputed from its updated parents.  Everything
        else is carried over unchanged.
        """
        X1 = np.array(X0, dtype=float)
        for i, s in enumerate(self.slots):
            if s.kind == "badge":
                X1[..., i] += 1.0
            elif s.kind == "w0":
                X1[..., i] = 0.0
        self._interact(X1)
        return X1

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_id": self.schema_id,
            "slots": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "parents": list(s.parents),
                    "online": s.online,
                }
                for s in self.slots
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FeatureSchema":
        """The schema a JSON document holds; a slot field of another JSON type is refused."""
        raw_slots = d.get("slots") if isinstance(d, dict) else None
        if type(raw_slots) is not list:
            raise SchemaError("schema document must have a 'slots' list")
        slots = []
        for entry in raw_slots:
            fields = _slot_fields(entry)
            if fields is None:
                raise SchemaError(f"malformed slot entry {entry!r}")
            slots.append(SlotSpec(*fields))
        schema = cls(tuple(slots))
        declared = d.get("schema_id")
        if declared is not None and declared != schema.schema_id:
            raise SchemaError(
                f"schema_id mismatch: document says {declared!r}, "
                f"content hashes to {schema.schema_id!r}"
            )
        return schema

    @classmethod
    def build(
        cls,
        base: Iterable[str] = (),
        *,
        badge: str | None = "badge_count",
        w0: str | None = None,
        interactions: Iterable[tuple[str, str]] = (),
        online: Iterable[str] = (),
        intercept: str = "intercept",
    ) -> "FeatureSchema":
        """Convenience constructor for the common layout.

        Slot order: intercept, base features (input order), badge, w0,
        then interactions named "a*b".
        """
        online_set = set(online)
        slots = [SlotSpec(intercept, "intercept")]
        slots += [SlotSpec(n, "base", online=n in online_set) for n in base]
        if badge is not None:
            slots.append(SlotSpec(badge, "badge", online=badge in online_set))
        if w0 is not None:
            slots.append(SlotSpec(w0, "w0", online=w0 in online_set))
        for a, b in interactions:
            slots.append(SlotSpec(f"{a}*{b}", "interaction", parents=(a, b)))
        return cls(tuple(slots))
