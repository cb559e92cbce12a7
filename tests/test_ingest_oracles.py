"""The column-block ingest path against the row-object reference in oracles.py.

Each cohort is deliberately dirty: empty cells, a feature that is never
observed, out-of-bounds rows, a subject whose every row is out of bounds, a
demographic category too rare to survive regrouping, rows out of time order
and interleaved between subjects, and a one-row subject. A cohort built in
memory adds a subject that lacks a tag. The CSV readers read an empty tag cell
as such a missing tag, but the reference readers keep it as the category '',
so the CSV cohorts carry every tag and the in-memory one covers the missing
tag. The new path must write the same prepared.csv bytes, report the same
drops, stack the same feature matrix and chain the same trajectories.csv bytes
as the reference, and on a cohort where subjects fail, raise the reference's
first error.
"""

import numpy as np
import pytest

from consensus_irl import SchemaError, SubjectRecords, fit_state_space, hypotension_codec
from consensus_irl.discretize import feature_matrix, trajectories_from_prepared
from consensus_irl.ingest import (
    load_records_csv,
    prepare_subjects,
    read_prepared_csv,
    regroup_demographics,
    write_prepared_csv,
)

from oracles import (
    RawRecord,
    reference_feature_matrix,
    reference_load_records_csv,
    reference_prepare_subjects,
    reference_read_prepared_csv,
    reference_regroup_demographics,
    reference_trajectories_from_prepared,
    reference_write_prepared_csv,
)

FEATURES = ["hr", "bp", "lactate"]
FLAGS = ["vasopressors", "bolus_epinephrine"]
DEMOGRAPHICS = ["site", "sex"]  # not sorted: the prepared header sorts the tags
NORMALS = {"hr": 80.0, "bp": 85.0, "lactate": 1.2}
BOUNDS = {"hr": (20.0, 220.0), "bp": (30.0, 180.0)}
RELABEL = {"site": {"north-east": "north"}}
MIN_SHARE = 0.1


def dirty_cohort(path, seed, n_subjects=24):
    """Write a records CSV; s00 has one row, s01 the rare site, s02 only outliers.

    lactate is never observed, so it is the normal value on every row.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_subjects):
        sid = f"s{i:02d}"
        n_rows = 1 if i == 0 else int(rng.integers(2, 9))
        sex = str(rng.choice(["f", "m"]))
        site = "rare" if i == 1 else str(rng.choice(["north", "north-east", "south"]))
        died = int(rng.random() < 0.3)
        for t in np.sort(rng.choice(60, n_rows, replace=False)).tolist():
            cells = [repr(float(rng.normal(90, 25))), repr(float(rng.normal(80, 15))), ""]
            if i == 2:
                cells[int(rng.integers(2))] = "999.5"
            else:
                if rng.random() < 0.15:
                    cells[int(rng.integers(2))] = str(rng.choice(["-5.0", "400", "19.99"]))
                for j in range(2):
                    if rng.random() < 0.25:
                        cells[j] = ""
            flags = [str(rng.choice(["", "0", "1"], p=[0.2, 0.5, 0.3])) for _ in FLAGS]
            rows.append([sid, str(t), *cells, *flags, site, sex, str(died)])
    order = rng.permutation(len(rows))
    header = ["subject_id", "timestamp", *FEATURES, *FLAGS, *DEMOGRAPHICS, "died_in_hospital"]
    lines = [",".join(header)] + [",".join(rows[k]) for k in order]
    path.write_text("\n".join(lines) + "\n")


def ingest(load, regroup, prepare, write, records, out):
    subjects = load(records, FEATURES, FLAGS, DEMOGRAPHICS)
    subjects = regroup(subjects, RELABEL, MIN_SHARE)
    prepared, report = prepare(subjects, NORMALS, BOUNDS, hypotension_codec())
    write(prepared, FEATURES, out)
    return prepared, report


@pytest.fixture(params=range(5))
def cohort(request, tmp_path):
    records = tmp_path / "records.csv"
    dirty_cohort(records, request.param)
    new = ingest(
        load_records_csv, regroup_demographics, prepare_subjects, write_prepared_csv,
        records, tmp_path / "prepared.csv",
    )
    old = ingest(
        reference_load_records_csv, reference_regroup_demographics,
        reference_prepare_subjects, reference_write_prepared_csv,
        records, tmp_path / "reference_prepared.csv",
    )
    return tmp_path, new, old


def test_cohort_is_as_dirty_as_described(cohort):
    tmp_path, (prepared, report), _ = cohort
    text = (tmp_path / "records.csv").read_text()
    assert ",," in text and "999.5" in text
    assert report["subjects_dropped"] >= 1 and "s02" not in prepared
    assert len(prepared["s00"][0]) == 1
    assert prepared["s01"][0].demographics["site"] == "other"
    assert {v for records, _ in prepared.values() for v in records.features["lactate"]} == {1.2}
    ids = [line.split(",")[0] for line in text.splitlines()[1:]]
    assert ids != sorted(ids)


def test_prepared_csv_and_report_match_reference(cohort):
    tmp_path, (_, report), (_, reference_report) = cohort
    written = (tmp_path / "prepared.csv").read_bytes()
    assert written == (tmp_path / "reference_prepared.csv").read_bytes()
    assert report == reference_report


def test_feature_matrix_matches_reference(cohort):
    tmp_path, (prepared, _), (reference, _) = cohort
    for got, want in (
        (prepared, reference),
        (read_prepared_csv(tmp_path / "prepared.csv", FEATURES),
         reference_read_prepared_csv(tmp_path / "prepared.csv", FEATURES)),
    ):
        rows, index = feature_matrix(got, FEATURES)
        reference_rows, reference_index = reference_feature_matrix(want, FEATURES)
        assert rows.dtype == reference_rows.dtype and rows.shape == reference_rows.shape
        assert rows.tobytes() == reference_rows.tobytes()
        assert index == reference_index


def test_read_prepared_matches_reference(cohort):
    tmp_path, _, _ = cohort
    got = read_prepared_csv(tmp_path / "prepared.csv", FEATURES)
    want = reference_read_prepared_csv(tmp_path / "prepared.csv", FEATURES)
    assert list(got) == list(want)
    for sid, (records, actions) in got.items():
        rows, reference_actions = want[sid]
        assert actions.tolist() == reference_actions.tolist()
        assert records.timestamps.tolist() == [r.timestamp for r in rows]
        for f in FEATURES:
            assert records.features[f].tolist() == [r.features[f] for r in rows]
        assert all(r.demographics == records.demographics for r in rows)
        assert all(r.died_in_hospital is records.died_in_hospital for r in rows)


def test_trajectories_csv_matches_reference(cohort):
    tmp_path, _, _ = cohort
    got = read_prepared_csv(tmp_path / "prepared.csv", FEATURES)
    want = reference_read_prepared_csv(tmp_path / "prepared.csv", FEATURES)
    rows, _ = feature_matrix(got, FEATURES)
    model = fit_state_space(rows, k=4, min_size=2, seed=0, feature_names=FEATURES)
    tset, report = trajectories_from_prepared(got, model, FEATURES)
    reference_tset, reference_report = reference_trajectories_from_prepared(want, model, FEATURES)
    tset.to_csv(tmp_path / "trajectories.csv")
    reference_tset.to_csv(tmp_path / "reference_trajectories.csv")
    written = (tmp_path / "trajectories.csv").read_bytes()
    assert written == (tmp_path / "reference_trajectories.csv").read_bytes()
    assert report == reference_report
    assert report["excluded_short"] >= 1


@pytest.mark.parametrize("seed", range(3))
def test_chaining_matches_reference_with_short_and_untagged_subjects(tmp_path, seed):
    """A prepared cohort built in memory: subjects may lack a tag, as after an empty tag cell.

    u01 and u04 have one row each; u02 has no site, and u04's ward is a tag of
    no subject with two rows, so the set must not carry it.
    """
    rng = np.random.default_rng(seed)
    got, want = {}, {}
    for i in range(12):
        sid = f"u{i:02d}"
        n_rows = 1 if i in (1, 4) else int(rng.integers(2, 7))
        times = np.sort(rng.choice(50, n_rows, replace=False))
        columns = {f: rng.normal(80, 20, n_rows) for f in FEATURES}
        tags = {"sex": str(rng.choice(["f", "m"]))}
        if i != 2:
            tags["site"] = str(rng.choice(["north", "south"]))
        if i == 4:
            tags["ward"] = "icu"
        died = bool(rng.random() < 0.3)
        actions = rng.integers(0, 4, n_rows)
        got[sid] = (SubjectRecords(sid, times, columns, {}, tags, died), actions)
        rows = [
            RawRecord(sid, int(t), {f: float(columns[f][j]) for f in FEATURES}, set(), tags, died)
            for j, t in enumerate(times)
        ]
        want[sid] = (rows, actions)
    rows, _ = feature_matrix(got, FEATURES)
    model = fit_state_space(rows, k=5, min_size=3, seed=seed, feature_names=FEATURES)
    tset, report = trajectories_from_prepared(got, model, FEATURES)
    reference_tset, reference_report = reference_trajectories_from_prepared(want, model, FEATURES)
    tset.to_csv(tmp_path / "trajectories.csv")
    reference_tset.to_csv(tmp_path / "reference_trajectories.csv")
    written = (tmp_path / "trajectories.csv").read_bytes()
    assert written == (tmp_path / "reference_trajectories.csv").read_bytes()
    assert (tset.n_states, tset.n_actions) == (reference_tset.n_states, reference_tset.n_actions)
    assert report == reference_report == {"excluded_short": 2}
    assert tset.demographic_tags() == ["sex", "site"]
    assert tset.demographics["site"][tset.ids.index("u02")] is None


@pytest.mark.parametrize(
    "old, new",
    [
        ("999.5", "abc"),
        ("999.5", "nan"),
        ("\ns03,", "\ns03,x"),
    ],
)
def test_records_reader_errors_match_reference(tmp_path, old, new):
    records = tmp_path / "records.csv"
    dirty_cohort(records, 0)
    records.write_text(records.read_text().replace(old, new, 1))
    messages = []
    for load in (load_records_csv, reference_load_records_csv):
        with pytest.raises(SchemaError) as exc:
            load(records, FEATURES, FLAGS, DEMOGRAPHICS)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_repeated_timestamp_error_matches_reference(tmp_path):
    records = tmp_path / "records.csv"
    dirty_cohort(records, 1)
    lines = records.read_text().splitlines()
    row = next(line for line in lines[1:] if line.startswith("s04,"))
    records.write_text("\n".join([*lines, row]) + "\n")
    messages = []
    for load in (load_records_csv, reference_load_records_csv):
        with pytest.raises(SchemaError) as exc:
            load(records, FEATURES, FLAGS, DEMOGRAPHICS)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0] == f"{records}: subject s04: timestamps must be strictly increasing"


# how a subject of failing_cohort fails: its lactate unobserved on its first row
# (the normals lack lactate), a flag the codec does not know on its second row,
# both on its first row, or every row out of bounds on top of both, which drops
# the subject before either can fail
FAILURES = {
    "normal": "feature 'lactate' missing from the normal-value table",
    "flag": "treatment flags unknown to the hypotension codec: leeches",
    "both": "feature 'lactate' missing from the normal-value table",
    "bound": None,
}


def failing_cohort(path, kinds):
    """A records CSV of healthy subjects h0 and h9 around one subject per kind,
    f1, f2, ... in the order given, each row with a leeches flag column."""
    header = ["subject_id", "timestamp", *FEATURES, *FLAGS, "leeches", *DEMOGRAPHICS,
              "died_in_hospital"]
    lines = [",".join(header)]
    for sid, kind in [("h0", None), *((f"f{i}", k) for i, k in enumerate(kinds, 1)), ("h9", None)]:
        for t in range(3):
            lactate = "" if t > 0 or kind in ("normal", "both", "bound") else "1.5"
            leeches = "1" if (kind == "flag" and t == 1) or kind in ("both", "bound") else "0"
            bp = "999.5" if kind == "bound" else "80.0"
            lines.append(",".join([sid, str(t), "90.0", bp, lactate, "1", "", leeches,
                                   "north", "f", "0"]))
    path.write_text("\n".join(lines) + "\n")


PAIRS = [("normal", "flag"), ("normal", "bound"), ("flag", "bound"), ("both", "flag")]


@pytest.mark.parametrize(
    "kinds",
    [None, *PAIRS, *(pair[::-1] for pair in PAIRS)],
    ids=lambda kinds: "-".join(kinds) if kinds else "dirty",
)
def test_missing_normal_error_matches_reference(tmp_path, kinds):
    """The first failing subject in sorted-id order wins, as one subject at a time;
    within a subject a missing normal value comes before an unknown flag."""
    records = tmp_path / "records.csv"
    if kinds is None:
        dirty_cohort(records, 2)
        flags, normals = FLAGS, {"hr": 80.0}
    else:
        failing_cohort(records, kinds)
        flags, normals = [*FLAGS, "leeches"], {"hr": 80.0, "bp": 85.0}
    messages = []
    for load, prepare in (
        (load_records_csv, prepare_subjects),
        (reference_load_records_csv, reference_prepare_subjects),
    ):
        subjects = load(records, FEATURES, flags, DEMOGRAPHICS)
        with pytest.raises(SchemaError) as exc:
            prepare(subjects, normals, BOUNDS, hypotension_codec())
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    if kinds is not None:
        assert messages[0] == next(FAILURES[k] for k in kinds if FAILURES[k])
