"""Raw record loading, imputation, outlier filtering, action encoding.

Records arrive as time-stamped rows per subject with possibly-missing
feature values, binary treatment flags, demographic tags, and an outcome
bit. Each subject is one `SubjectRecords` block of columns. prepare_subjects
makes them fully valued (last observation carried forward, clinical normal
values before the first measurement), drops rows with out-of-range
observations, and turns treatment-flag patterns into discrete action ids via
a declared codec. It joins every subject's columns once and runs each step in
one pass over all rows, then splits the result back into one block per
subject; its errors are the ones a subject-by-subject pass in sorted-id order
would raise. The records and prepared CSVs go through the package's one CSV
reader (table.py), so an empty tag cell is a missing tag (None), which
regrouping leaves missing. Rows are taken as already bucketed to uniform time
steps upstream; nothing resamples.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CohortEmptyError, ParameterError, SchemaError
from .table import BINARY, FINITE, FLAG, INTEGER, OPTIONAL, TEXT, read_json, read_table, write_table


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
        payload = read_json(path)
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
    table = read_json(path)
    for key, value in table.items():
        try:
            table[key] = convert(value)
        except (TypeError, ValueError):
            raise SchemaError(f"{path}: {what} for {key!r} is not {kind}: {value!r}") from None
    return table


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return _number(lo), _number(hi)


def load_normal_values(path) -> dict:
    return _json_table(path, "normal value", _number, "a finite number")


def load_bounds(path) -> dict:
    return _json_table(path, "bound", _pair, "a [lo, hi] pair of finite numbers")


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


def _join(blocks: list, field: str, missing) -> tuple[dict, dict]:
    """One field's columns over every block's rows, names sorted, and for each
    name which blocks have it; a block without the column gives it `missing`."""
    names = sorted({name for r in blocks for name in getattr(r, field)})
    columns, owners = {}, {}
    for name in names:
        owners[name] = np.array([name in getattr(r, field) for r in blocks])
        columns[name] = np.concatenate([
            getattr(r, field)[name] if has else np.full(len(r), missing)
            for r, has in zip(blocks, owners[name].tolist())
        ])
    return columns, owners


def _outlier_rows(features: dict, bounds: dict, who: np.ndarray) -> tuple[np.ndarray, dict]:
    """The rows with no observed feature outside its inclusive [lo, hi] bound, and
    per feature the count of rows it breaks in subjects that keep a row.

    who numbers each row's subject. A missing value (NaN) breaks no bound.
    """
    keep, broken = np.ones(len(who), dtype=bool), {}
    for name, (lo, hi) in bounds.items():
        if name in features:
            broken[name] = (features[name] < lo) | (features[name] > hi)  # NaN compares false
            keep &= ~broken[name]
    counted = (np.bincount(who[keep], minlength=who[-1] + 1) > 0)[who]
    # a dropped subject's rows count in no feature's drops
    counts = {name: int((rows & counted).sum()) for name, rows in broken.items()}
    return keep, {name: n for name, n in counts.items() if n}


def _impute(features: dict, owners: dict, who: np.ndarray, normals: dict) -> tuple[dict, tuple]:
    """Each feature carried forward from its last observation in the row's subject,
    and the normal value before the subject's first one.

    Returns (filled columns, failure): failure is None, or (subject, error) for
    the first subject, then the first feature by name, that needs a normal
    value the table lacks. owners says which subjects have each feature.
    """
    rows = np.arange(len(who))
    first_row = np.searchsorted(who, who)  # rows are grouped by subject
    filled, failure = {}, None
    for name, column in features.items():
        # the latest observed row so far; before the subject's first, one of another
        last = np.where(np.isnan(column), -1, rows)
        np.maximum.accumulate(last, out=last)
        values, unseen = column[last], last < first_row
        if name in normals:
            values[unseen] = normals[name]
        else:
            lacking = unseen & owners[name][who]
            if lacking.any() and (failure is None or who[lacking.argmax()] < failure[0]):
                failure = (who[lacking.argmax()],
                           SchemaError(f"feature {name!r} missing from the normal-value table"))
        filled[name] = values
    return filled, failure


def _encode(flags: dict, who: np.ndarray, codec: ActionCodec) -> tuple[np.ndarray, tuple]:
    """Action per row; each distinct flag pattern is encoded once, in order of first use.

    Returns (actions, failure): failure is None, or (subject, error) for the
    first row of the first pattern the codec rejects, and actions then None.
    """
    # number the patterns densely, one flag at a time, so no code overflows
    code = np.zeros(len(who), dtype=np.int64)
    for column in flags.values():
        code = np.unique(2 * code + column, return_inverse=True)[1]
    _, first_use, pattern_of = np.unique(code, return_index=True, return_inverse=True)
    codes = np.empty(len(first_use), dtype=np.int64)
    for p in np.argsort(first_use).tolist():
        row = first_use[p]
        try:
            codes[p] = codec.encode({name for name, column in flags.items() if column[row]})
        except SchemaError as exc:
            return None, (who[row], exc)
    return codes[pattern_of], None


def prepare_subjects(
    subjects: dict, normals: dict, bounds: dict, codec: ActionCodec
) -> tuple[dict, dict]:
    """Filter outliers, impute, and encode actions: one pass over every subject's rows.

    The subjects' columns are joined once, in sorted-id order, and each step
    runs over all rows. A row with any observed feature outside its inclusive
    [lo, hi] bound is dropped first, so an extreme observed value never
    propagates into imputed ones; a missing value never drops a row. A subject
    whose every row is dropped is left out and counted as subjects_dropped,
    and its rows count in no feature's drops. Each feature is then carried
    forward from its last observation within the subject, with the normal
    value before the subject's first one, and each distinct treatment-flag
    pattern is encoded once, in order of first use.

    Errors are those a subject-by-subject pass in sorted-id order raises:
    malformed bounds first, then the first subject that fails, and within it
    a missing normal value (of the first feature by name) before a flag
    pattern the codec rejects. Returns ({subject_id: (records, actions)},
    drop report).
    """
    if not subjects:
        raise CohortEmptyError("no subjects survived outlier filtering")
    for name, (lo, hi) in bounds.items():
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ParameterError(f"bounds for {name!r} must be finite with lo < hi")
    ids = sorted(subjects)
    blocks = [subjects[sid] for sid in ids]
    who = np.repeat(np.arange(len(blocks)), [len(r) for r in blocks])
    features, owners = _join(blocks, "features", np.nan)
    flags, _ = _join(blocks, "treatment_flags", False)

    keep, report = _outlier_rows(features, bounds, who)
    if not keep.any():
        raise CohortEmptyError("no subjects survived outlier filtering")
    who = who[keep]
    features = {name: column[keep] for name, column in features.items()}
    flags = {name: column[keep] for name, column in flags.items()}
    features, missing = _impute(features, owners, who, normals)
    actions, rejected = _encode(flags, who, codec)
    failures = [f for f in (missing, rejected) if f is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]  # a tie keeps imputation's

    timestamps = np.concatenate([r.timestamps for r in blocks])[keep]
    kept, starts = np.unique(who, return_index=True)
    prepared = {}
    for i, lo, hi in zip(kept.tolist(), starts.tolist(), [*starts[1:].tolist(), len(who)]):
        r = blocks[i]
        prepared[ids[i]] = (SubjectRecords(
            r.subject_id, timestamps[lo:hi],
            {name: features[name][lo:hi] for name in sorted(r.features)},
            {name: flags[name][lo:hi] for name in r.treatment_flags},
            r.demographics, r.died_in_hospital,
        ), actions[lo:hi])
    return prepared, {**report, "subjects_dropped": len(blocks) - len(kept)}


def write_prepared_csv(prepared: dict, features: list[str], path) -> None:
    """Emit fully-valued rows with encoded actions, ready for clustering."""
    ids = sorted(prepared)
    blocks = [prepared[sid][0] for sid in ids]
    lengths = [len(r) for r in blocks]
    tags = sorted({t for r in blocks for t in r.demographics})

    def per_row(values: list, dtype=object) -> np.ndarray:
        """One value per subject, repeated on each of its rows."""
        return np.repeat(np.array(values, dtype=dtype), lengths)

    columns = [
        per_row(ids),
        np.concatenate([r.timestamps for r in blocks]),
        *(np.concatenate([r.features[f] for r in blocks]) for f in features),
        np.concatenate([prepared[sid][1] for sid in ids]),
        *(per_row([r.demographics.get(t) for r in blocks]) for t in tags),
        per_row([r.died_in_hospital for r in blocks], np.int64),
    ]
    write_table(path, ["subject_id", "timestamp", *features, "action", *tags, "died_in_hospital"],
                columns)


def read_prepared_csv(path, features: list[str]) -> dict:
    """Inverse of write_prepared_csv: {subject_id: (SubjectRecords, actions)}.

    Each subject's rows must come in strictly increasing timestamp order, as
    write_prepared_csv writes them.
    """
    kinds = {"timestamp": INTEGER, "action": INTEGER, "died_in_hospital": BINARY,
             **dict.fromkeys(features, FINITE)}
    table = read_table(path, "subject_id", kinds, rest=TEXT, owned=("died_in_hospital",))
    return _subjects(path, table, features)
