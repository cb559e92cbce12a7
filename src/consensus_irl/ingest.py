"""Raw record loading, imputation, outlier filtering, action encoding.

Records arrive as time-stamped rows per subject with possibly-missing
feature values, binary treatment flags, demographic tags, and an outcome
bit. This module makes them fully valued (last observation carried forward,
clinical normal values before the first measurement), drops rows with
out-of-range observations, and turns treatment-flag sets into discrete
action ids via a declared codec.

Rows are taken as already bucketed to uniform time steps upstream; nothing
here resamples.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CohortEmptyError, ParameterError, SchemaError


@dataclass
class RawRecord:
    """One time-stamped observation row for one subject."""

    subject_id: str
    timestamp: int
    features: dict  # feature name -> float or None (missing)
    treatment_flags: set = field(default_factory=set)
    demographics: dict = field(default_factory=dict)
    died_in_hospital: bool = False


def _check_sorted(records, path=None) -> None:
    ts = [r.timestamp for r in records]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        where = f"{path}: " if path else ""
        raise SchemaError(
            f"{where}subject {records[0].subject_id}: timestamps must be strictly increasing"
        )


def impute_series(records: list[RawRecord], normals: dict) -> list[RawRecord]:
    """Fill missing feature values: LOCF after the first measurement, the
    normal-value table before it.

    Observed values are never altered, and the operation is idempotent.
    Raises a schema error naming the feature if a normal value is needed
    but absent from the table.
    """
    _check_sorted(records)
    names = sorted({f for r in records for f in r.features})
    last_seen: dict = {}
    out = []
    for rec in records:
        filled = {}
        for name in names:
            value = rec.features.get(name)
            if value is not None:
                last_seen[name] = value
                filled[name] = value
            elif name in last_seen:
                filled[name] = last_seen[name]
            else:
                if name not in normals:
                    raise SchemaError(
                        f"feature {name!r} missing from the normal-value table"
                    )
                filled[name] = normals[name]
        out.append(replace(rec, features=filled))
    return out


def filter_outliers(records: list[RawRecord], bounds: dict) -> tuple[list[RawRecord], dict]:
    """Drop rows with any observed feature outside its inclusive [lo, hi] bound.

    Returns (kept rows, per-feature drop counts). Missing values never
    trigger a drop. Raises if nothing survives.
    """
    for name, (lo, hi) in bounds.items():
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ParameterError(f"bounds for {name!r} must be finite with lo < hi")
    report: Counter = Counter()
    kept = []
    for rec in records:
        violations = [
            name
            for name, (lo, hi) in bounds.items()
            if rec.features.get(name) is not None
            and not (lo <= rec.features[name] <= hi)
        ]
        if violations:
            report.update(violations)
        else:
            kept.append(rec)
    if records and not kept:
        raise CohortEmptyError("outlier filtering removed every record")
    return kept, dict(report)


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
        with open(path) as fh:
            payload = json.load(fh)
        labels = payload["labels"]
        entries = []
        for entry in payload["mapping"]:
            if "action" in entry:
                idx = int(entry["action"])
            else:
                idx = labels.index(entry["label"])
            entries.append((frozenset(entry["flags"]), idx))
        return cls(payload["condition"], labels, entries)


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


def encode_actions(records: list[RawRecord], codec: ActionCodec) -> np.ndarray:
    """Action index per record, in record order."""
    return np.array([codec.encode(rec.treatment_flags) for rec in records], dtype=np.int64)


def regroup_demographics(
    subjects: dict, relabel: dict, min_share: float = 0.01, other_label: str = "other"
) -> dict:
    """Relabel demographic categories and collapse rare ones.

    subjects maps subject id -> record list; relabel maps tag name ->
    {old category -> new category}. After relabeling, categories held by
    fewer than min_share of subjects collapse into other_label. Shares are
    computed per subject, not per row.
    """
    if not (0.0 <= min_share < 1.0):
        raise ParameterError("min_share must be in [0, 1)")

    def mapped(tag, value):
        return relabel.get(tag, {}).get(value, value)

    n = len(subjects)
    counts: dict = {}
    for records in subjects.values():
        rec = records[0]
        for tag, value in rec.demographics.items():
            counts.setdefault(tag, Counter())[mapped(tag, value)] += 1
    rare = {
        tag: {cat for cat, c in ctr.items() if c / n < min_share}
        for tag, ctr in counts.items()
    }

    out = {}
    for sid, records in subjects.items():
        new_records = []
        for rec in records:
            demo = {}
            for tag, value in rec.demographics.items():
                cat = mapped(tag, value)
                if cat in rare.get(tag, ()):
                    cat = other_label
                demo[tag] = cat
            new_records.append(replace(rec, demographics=demo))
        out[sid] = new_records
    return out


# ---------------------------------------------------------------------------
# file formats


def load_normal_values(path) -> dict:
    with open(path) as fh:
        table = json.load(fh)
    return {str(k): float(v) for k, v in table.items()}


def load_bounds(path) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    return {str(k): (float(v[0]), float(v[1])) for k, v in raw.items()}


def _number(cell) -> float:
    value = float(cell)
    if not math.isfinite(value):  # k-means would drop a nan column as zero-variance
        raise ValueError(cell)
    return value


def _optional_number(cell):
    return None if cell in ("", None) else _number(cell)


def _flag(cell) -> bool:
    if cell in ("", "0", None):
        return False
    if cell == "1":
        return True
    raise ValueError(cell)


def _binary(cell) -> bool:
    value = int(cell)
    if value not in (0, 1):
        raise ValueError(cell)
    return bool(value)


def _bad_cell(path, row, cells) -> SchemaError:
    """The error for a CSV row one of whose cells did not parse.

    cells holds (column, parse, kind) for every parsed column; the error names
    the file, the subject and the first column whose cell does not parse.
    """
    for column, parse, kind in cells:
        try:
            parse(row[column])
        except (TypeError, ValueError):
            return SchemaError(
                f"{path}: subject {row['subject_id']}: {column} {row[column]!r} is not {kind}"
            )
    return SchemaError(f"{path}: subject {row['subject_id']}: malformed row")


def load_records_csv(
    path, features: list[str], flags: list[str], demographics: list[str]
) -> dict:
    """Read the raw-record CSV into {subject_id: [RawRecord, ...]} sorted by time.

    Expected columns: subject_id, timestamp (an integer), one numeric column
    per feature (empty cell = missing), one column per treatment flag (empty,
    0 or 1), one column per demographic tag, died_in_hospital (0 or 1).
    """
    cells = [
        ("timestamp", int, "an integer"),
        ("died_in_hospital", _binary, "0 or 1"),
        *((name, _optional_number, "a finite number") for name in features),
        *((name, _flag, "empty, 0 or 1") for name in flags),
    ]
    subjects: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("records CSV has no header row")
        needed = ["subject_id", "timestamp", "died_in_hospital"] + features + flags + demographics
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise SchemaError("records CSV missing columns: " + ", ".join(missing))
        for row in reader:
            try:
                rec = RawRecord(
                    subject_id=row["subject_id"],
                    timestamp=int(row["timestamp"]),
                    features={name: _optional_number(row[name]) for name in features},
                    treatment_flags={name for name in flags if _flag(row[name])},
                    demographics={name: row[name] for name in demographics},
                    died_in_hospital=_binary(row["died_in_hospital"]),
                )
            except (TypeError, ValueError):
                raise _bad_cell(path, row, cells) from None
            subjects.setdefault(rec.subject_id, []).append(rec)
    for records in subjects.values():
        records.sort(key=lambda r: r.timestamp)
        _check_sorted(records, path)
    if not subjects:
        raise CohortEmptyError("records CSV contains no rows")
    return subjects


def prepare_subjects(
    subjects: dict, normals: dict, bounds: dict, codec: ActionCodec
) -> tuple[dict, dict]:
    """Filter outliers, impute, and encode actions for every subject.

    Outlier rows are dropped before imputation so extreme observed values
    never propagate forward into imputed ones. Subjects whose rows are all
    outliers are dropped (counted in the report rather than raising).
    Returns ({subject_id: (records, actions)}, drop report).
    """
    prepared = {}
    report: Counter = Counter()
    dropped_subjects = 0
    for sid in sorted(subjects):
        try:
            kept, drops = filter_outliers(subjects[sid], bounds)
        except CohortEmptyError:
            dropped_subjects += 1
            continue
        report.update(drops)
        full = impute_series(kept, normals)
        actions = encode_actions(full, codec)
        prepared[sid] = (full, actions)
    if not prepared:
        raise CohortEmptyError("no subjects survived outlier filtering")
    out_report = dict(report)
    out_report["subjects_dropped"] = dropped_subjects
    return prepared, out_report


def write_prepared_csv(prepared: dict, features: list[str], path) -> None:
    """Emit fully-valued rows with encoded actions, ready for clustering."""
    demo_tags = sorted(
        {t for records, _ in prepared.values() for t in records[0].demographics}
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["subject_id", "timestamp"]
            + features
            + ["action"]
            + demo_tags
            + ["died_in_hospital"]
        )
        for sid in sorted(prepared):
            records, actions = prepared[sid]
            for rec, action in zip(records, actions):
                row = [sid, rec.timestamp]
                row += [repr(float(rec.features[f])) for f in features]
                row.append(int(action))
                row += [rec.demographics.get(t, "") for t in demo_tags]
                row.append(int(rec.died_in_hospital))
                writer.writerow(row)


def read_prepared_csv(path, features: list[str]) -> dict:
    """Inverse of write_prepared_csv: {subject_id: (records, actions)}.

    Each subject's rows must come in strictly increasing timestamp order, as
    write_prepared_csv writes them.
    """
    subjects: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("prepared CSV has no header row")
        core = ["subject_id", "timestamp", "action", "died_in_hospital"]
        missing = [c for c in core + features if c not in reader.fieldnames]
        if missing:
            raise SchemaError("prepared CSV missing columns: " + ", ".join(missing))
        demo_tags = [c for c in reader.fieldnames if c not in core and c not in features]
        cells = [
            ("timestamp", int, "an integer"),
            ("action", int, "an integer"),
            ("died_in_hospital", _binary, "0 or 1"),
            *((f, _number, "a finite number") for f in features),
        ]
        for row in reader:
            try:
                rec = RawRecord(
                    subject_id=row["subject_id"],
                    timestamp=int(row["timestamp"]),
                    features={f: _number(row[f]) for f in features},
                    treatment_flags=set(),
                    demographics={t: row[t] for t in demo_tags},
                    died_in_hospital=_binary(row["died_in_hospital"]),
                )
                action = int(row["action"])
            except (TypeError, ValueError):
                raise _bad_cell(path, row, cells) from None
            records, actions = subjects.setdefault(rec.subject_id, ([], []))
            records.append(rec)
            actions.append(action)
    if not subjects:
        raise CohortEmptyError("prepared CSV contains no rows")
    for records, _ in subjects.values():
        _check_sorted(records, path)
    return {
        sid: (records, np.array(actions, dtype=np.int64))
        for sid, (records, actions) in subjects.items()
    }
