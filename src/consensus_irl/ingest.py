"""Raw record loading, imputation, outlier filtering, action encoding.

Records arrive as time-stamped rows per subject with possibly-missing
feature values, binary treatment flags, demographic tags, and an outcome
bit. Each subject is one `SubjectRecords` block of columns. This module makes
them fully valued (last observation carried forward, clinical normal values
before the first measurement), drops rows with out-of-range observations, and
turns treatment-flag patterns into discrete action ids via a declared codec.
Each step works on whole columns and returns a new block. The records and
prepared CSVs go through the package's one CSV reader (table.py), so an empty
tag cell is a missing tag (None), which regrouping leaves missing. Rows are
taken as already bucketed to uniform time steps upstream; nothing resamples.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CohortEmptyError, ParameterError, SchemaError
from .table import BINARY, FINITE, FLAG, INTEGER, OPTIONAL, TEXT, read_table, write_table


@dataclass(eq=False)
class SubjectRecords:
    """One subject's rows in time order, one column per field.

    features maps a feature name to a float column (NaN = missing) and
    treatment_flags a flag name to a bool column; demographics and
    died_in_hospital hold once for the subject. The columns are checked on
    construction: equal lengths, at least one row, and strictly increasing
    timestamps. len() is the row count.
    """

    subject_id: str
    timestamps: np.ndarray
    features: dict
    treatment_flags: dict = field(default_factory=dict)
    demographics: dict = field(default_factory=dict)
    died_in_hospital: bool = False

    def __post_init__(self):
        ts = self.timestamps = np.asarray(self.timestamps, np.int64)
        self.features = {k: np.asarray(v, float) for k, v in self.features.items()}
        self.treatment_flags = {k: np.asarray(v, bool) for k, v in self.treatment_flags.items()}
        self.died_in_hospital = bool(self.died_in_hospital)
        columns = [*self.features.values(), *self.treatment_flags.values()]
        if ts.ndim != 1 or not len(ts) or any(c.shape != ts.shape for c in columns):
            raise SchemaError(f"subject {self.subject_id}: no rows, or a column of another length")
        if (ts[1:] <= ts[:-1]).any():
            raise SchemaError(f"subject {self.subject_id}: timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps)


def impute_series(records: SubjectRecords, normals: dict) -> SubjectRecords:
    """Fill missing feature values: LOCF after the first measurement, the
    normal-value table before it.

    Observed values are never altered, and the operation is idempotent.
    Raises a schema error naming the feature if a normal value is needed
    but absent from the table.
    """
    rows = np.arange(len(records))
    filled = {}
    for name in sorted(records.features):
        column = records.features[name]
        # the latest observed row at or before each row; -1 before the first
        last = np.maximum.accumulate(np.where(np.isnan(column), -1, rows))
        values = column[last]
        if last[0] < 0:  # unobserved at the first row
            if name not in normals:
                raise SchemaError(f"feature {name!r} missing from the normal-value table")
            values[last < 0] = normals[name]
        filled[name] = values
    return replace(records, features=filled)


def filter_outliers(records: SubjectRecords, bounds: dict) -> tuple[SubjectRecords, dict]:
    """Drop rows with any observed feature outside its inclusive [lo, hi] bound.

    Returns (kept rows, per-feature counts of the rows breaking each bound).
    Missing values never trigger a drop. Raises if nothing survives.
    """
    keep = np.ones(len(records), dtype=bool)
    report = {}
    for name, (lo, hi) in bounds.items():
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ParameterError(f"bounds for {name!r} must be finite with lo < hi")
        if name in records.features:
            column = records.features[name]
            broken = (column < lo) | (column > hi)  # NaN compares false
            if broken.any():
                report[name] = int(broken.sum())
                keep &= ~broken
    if not keep.any():
        raise CohortEmptyError("outlier filtering removed every record")
    features = {k: v[keep] for k, v in records.features.items()}
    flags = {k: v[keep] for k, v in records.treatment_flags.items()}
    return replace(records, timestamps=records.timestamps[keep], features=features,
                   treatment_flags=flags), report


@dataclass
class ActionCodec:
    """Ordered treatment labels and the flag sets that map onto them.

    entries pair each label with its treatment-flag set, in priority order.
    An observed flag set is matched exactly when possible; otherwise the
    first entry (in declared order) whose non-empty flag set is contained in
    the observation wins; otherwise the empty-flag entry applies. Flags never
    mentioned by any entry are a schema error.
    """

    condition: str
    labels: list[str]
    entries: list[tuple[frozenset, int]]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ParameterError("an action codec needs at least 2 actions")
        for flags, idx in self.entries:
            if not (0 <= idx < len(self.labels)):
                raise ParameterError(f"action index {idx} out of range")

    @property
    def n_actions(self) -> int:
        return len(self.labels)

    @property
    def known_flags(self) -> frozenset:
        return frozenset().union(*(flags for flags, _ in self.entries))

    def encode(self, flags) -> int:
        observed = frozenset(flags)
        unknown = observed - self.known_flags
        if unknown:
            raise SchemaError(
                f"treatment flags unknown to the {self.condition} codec: "
                + ", ".join(sorted(unknown))
            )
        for entry_flags, idx in self.entries:
            if entry_flags == observed:
                return idx
        for entry_flags, idx in self.entries:
            if entry_flags and entry_flags <= observed:
                return idx
        for entry_flags, idx in self.entries:
            if not entry_flags:
                return idx
        raise SchemaError(
            f"flag set {sorted(observed)} has no mapping in the {self.condition} codec"
        )

    @classmethod
    def from_json(cls, path) -> "ActionCodec":
        payload = _json_table(path, "codec", lambda value: value, "")
        try:
            labels = payload["labels"]
            entries = []
            for entry in payload["mapping"]:
                idx = entry["action"] if "action" in entry else labels.index(entry["label"])
                entries.append((frozenset(entry["flags"]), int(idx)))
            condition = payload["condition"]
        except KeyError as exc:
            raise SchemaError(f"{path}: codec is missing key {exc}") from None
        except (TypeError, ValueError) as exc:  # an entry that is not {flags, label or action}
            raise SchemaError(f"{path}: codec mapping entry, bad label or action: {exc}") from None
        return cls(condition, labels, entries)


def hypotension_codec() -> ActionCodec:
    labels = ["no_treatment", "vasopressors", "bolus_epinephrine", "combined"]
    entries = [
        (frozenset(), 0),
        (frozenset({"vasopressors"}), 1),
        (frozenset({"bolus_epinephrine"}), 2),
        (frozenset({"vasopressors", "bolus_epinephrine"}), 3),
    ]
    return ActionCodec("hypotension", labels, entries)


def sepsis_codec() -> ActionCodec:
    labels = ["no_treatment", "ventilation", "glucocorticoids", "antibiotics", "vasoactive"]
    entries = [
        (frozenset(), 0),
        (frozenset({"ventilation"}), 1),
        (frozenset({"glucocorticoids"}), 2),
        (frozenset({"antibiotics"}), 3),
        (frozenset({"vasoactive"}), 4),
    ]
    return ActionCodec("sepsis", labels, entries)


def encode_actions(records: SubjectRecords, codec: ActionCodec) -> np.ndarray:
    """Action index per row; the codec encodes each distinct flag pattern once,
    in order of first use, so a pattern it rejects raises at its first row."""
    columns = [column.tolist() for column in records.treatment_flags.values()]
    patterns = list(zip(*columns)) or [()] * len(records)
    codes = {
        pattern: codec.encode({name for name, on in zip(records.treatment_flags, pattern) if on})
        for pattern in dict.fromkeys(patterns)
    }
    return np.fromiter(map(codes.__getitem__, patterns), dtype=np.int64, count=len(patterns))


def regroup_demographics(subjects: dict, relabel: dict, min_share: float = 0.01) -> dict:
    """Relabel demographic categories and collapse rare ones.

    subjects maps subject id -> SubjectRecords; relabel maps tag name ->
    {old category -> new category}. After relabeling, categories held by
    fewer than min_share of subjects collapse into "other". Shares are
    computed per subject, not per row. A missing tag (None) stays missing: it
    is no category, so it is neither counted nor collapsed.
    """
    if not (0.0 <= min_share < 1.0):
        raise ParameterError("min_share must be in [0, 1)")
    mapped = {
        sid: {tag: relabel.get(tag, {}).get(value, value) for tag, value in r.demographics.items()}
        for sid, r in subjects.items()
    }
    counts = Counter(
        (tag, cat) for demo in mapped.values() for tag, cat in demo.items() if cat is not None
    )
    rare = {key for key, count in counts.items() if count / len(subjects) < min_share}
    return {
        sid: replace(subjects[sid], demographics={
            tag: "other" if (tag, cat) in rare else cat for tag, cat in demo.items()
        })
        for sid, demo in mapped.items()
    }


# ---------------------------------------------------------------------------
# file formats


def _json_table(path, what: str, convert, kind: str) -> dict:
    """{key: convert(value)} over a JSON object; an error names the file and the key."""
    with open(path) as fh:
        try:
            table = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(table, dict):
        raise SchemaError(f"{path}: must hold a JSON object")
    for key, value in table.items():
        try:
            table[key] = convert(value)
        except (TypeError, ValueError):
            raise SchemaError(f"{path}: {what} for {key!r} is not {kind}: {value!r}") from None
    return table


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


def load_normal_values(path) -> dict:
    return _json_table(path, "normal value", _number, "a finite number")


def load_bounds(path) -> dict:
    return _json_table(path, "bound", _pair, "a [lo, hi] pair of numbers")


def load_relabel(path) -> dict:
    return _json_table(path, "regroup mapping", lambda value: {**value}, "a JSON object")


def _number(cell) -> float:
    value = float(cell)
    if not math.isfinite(value):  # k-means would drop a nan column as zero-variance
        raise ValueError(cell)
    return value


def _subjects(path, table, features, flags=()) -> dict:
    """{subject id: (SubjectRecords, its actions or None)} of a records or prepared table."""
    if not table.ids:
        raise CohortEmptyError(f"{path}: no rows")
    columns, owned = table.columns, dict(table.owned)
    died, ends = owned.pop("died_in_hospital"), np.cumsum(table.lengths).tolist()
    subjects = {}
    for i, (sid, lo, hi) in enumerate(zip(table.ids, [0, *ends], ends)):
        try:
            records = SubjectRecords(
                sid, columns["timestamp"][lo:hi], {c: columns[c][lo:hi] for c in features},
                {c: columns[c][lo:hi] for c in flags}, {t: v[i] for t, v in owned.items()},
                died[i])
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None
        subjects[sid] = (records, columns["action"][lo:hi] if "action" in columns else None)
    return subjects


def load_records_csv(
    path, features: list[str], flags: list[str], demographics: list[str]
) -> dict:
    """Read the raw-record CSV into {subject_id: SubjectRecords}, each sorted by time.

    Expected columns: subject_id, timestamp (an integer), one numeric column
    per feature (empty cell = missing), one column per treatment flag (empty,
    0 or 1), one column per demographic tag, died_in_hospital (0 or 1); the
    last two hold one value per subject.
    """
    kinds = {"timestamp": INTEGER, "died_in_hospital": BINARY, **dict.fromkeys(features, OPTIONAL),
             **dict.fromkeys(flags, FLAG), **dict.fromkeys(demographics, TEXT)}
    table = read_table(path, "subject_id", kinds, owned=("died_in_hospital",), sort_by="timestamp")
    return {sid: records for sid, (records, _) in _subjects(path, table, features, flags).items()}


def prepare_subjects(
    subjects: dict, normals: dict, bounds: dict, codec: ActionCodec
) -> tuple[dict, dict]:
    """Filter outliers, impute, and encode actions for every subject.

    Outlier rows are dropped before imputation so extreme observed values
    never propagate forward into imputed ones. Subjects whose rows are all
    outliers are dropped (counted in the report rather than raising).
    Returns ({subject_id: (records, actions)}, drop report).
    """
    prepared, report, dropped = {}, Counter(), 0
    for sid in sorted(subjects):
        try:
            kept, drops = filter_outliers(subjects[sid], bounds)
        except CohortEmptyError:
            dropped += 1  # its rows count in no feature's drops
            continue
        report.update(drops)
        full = impute_series(kept, normals)
        prepared[sid] = (full, encode_actions(full, codec))
    if not prepared:
        raise CohortEmptyError("no subjects survived outlier filtering")
    return prepared, {**report, "subjects_dropped": dropped}


def write_prepared_csv(prepared: dict, features: list[str], path) -> None:
    """Emit fully-valued rows with encoded actions, ready for clustering."""
    tags = sorted({t for records, _ in prepared.values() for t in records.demographics})
    rows = []
    for sid in sorted(prepared):
        records, actions = prepared[sid]
        tail = [records.demographics.get(t) for t in tags] + [int(records.died_in_hospital)]
        columns = [records.features[f].tolist() for f in features]  # repr of Python floats
        steps = zip(records.timestamps.tolist(), *columns, actions.tolist())
        rows += ([sid, t, *map(repr, values), a, *tail] for t, *values, a in steps)
    write_table(path, ["subject_id", "timestamp", *features, "action", *tags, "died_in_hospital"],
                rows)


def read_prepared_csv(path, features: list[str]) -> dict:
    """Inverse of write_prepared_csv: {subject_id: (SubjectRecords, actions)}.

    Each subject's rows must come in strictly increasing timestamp order, as
    write_prepared_csv writes them.
    """
    kinds = {"timestamp": INTEGER, "action": INTEGER, "died_in_hospital": BINARY,
             **dict.fromkeys(features, FINITE)}
    table = read_table(path, "subject_id", kinds, rest=TEXT, owned=("died_in_hospital",))
    return _subjects(path, table, features)
