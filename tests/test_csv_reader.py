"""The one CSV reader behind trajectories, raw records, prepared rows, scores and
labels, and the one writer behind every CSV the package makes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import traced_peak
from oracles import reference_write_table

from consensus_irl import (
    PopulationConfig, SchemaError, SubjectRecords, TrajectorySet, generate_population,
    generate_world, regroup_demographics,
)
from consensus_irl.ingest import load_records_csv, read_prepared_csv, write_prepared_csv
from consensus_irl.prune import read_scores_csv
from consensus_irl.synth import read_labels_csv

# per file: its reader, its rows (the third row belongs to the owner named in
# errors), the owner's label and id, an integer column, a number column and
# what that number column's cells must be
FILES = {
    "trajectories": (
        lambda path: TrajectorySet.from_csv(path),
        ["trajectory_id,step,state,action,next_state,sex,died_in_hospital",
         "a,0,0,1,2,f,0", "b,0,0,1,2,m,1", "b,1,2,0,1,m,1"],
        "trajectory b", "action", "state", "an integer",
    ),
    "records": (
        lambda path: load_records_csv(path, ["hr"], ["vasopressors"], ["sex"]),
        ["subject_id,timestamp,hr,vasopressors,sex,died_in_hospital",
         "p1,0,70.5,0,f,0", "p2,0,80,1,m,1", "p2,1,81,,m,1"],
        "subject p2", "timestamp", "hr", "a finite number",
    ),
    "prepared": (
        lambda path: read_prepared_csv(path, ["hr"]),
        ["subject_id,timestamp,hr,action,sex,died_in_hospital",
         "p1,0,70.5,0,f,0", "p2,0,80.0,1,m,1", "p2,1,81.0,2,m,1"],
        "subject p2", "action", "hr", "a finite number",
    ),
}


@pytest.mark.parametrize("name", sorted(FILES))
@pytest.mark.parametrize("case", ["1_0", "full-width digit", "nan", "short row"])
def test_a_bad_cell_is_named_alike_in_every_csv(tmp_path, name, case):
    read, lines, owner, integer, number, kind = FILES[name]
    header, cells = lines[0].split(","), lines[3].split(",")
    if case == "short row":
        cells.pop()
        named = (f"died_in_hospital is missing: a row has {len(cells)} fields, "
                 f"not the header's {len(header)}")
    else:
        column, cell, kind = {
            "1_0": (integer, "1_0", "an integer"),
            "full-width digit": (integer, "１", "an integer"),
            "nan": (number, "nan", kind),
        }[case]
        cells[header.index(column)] = cell
        named = f"{column} {cell!r} is not {kind}"
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join([*lines[:3], ",".join(cells)]) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: {owner}: {named}"


@pytest.mark.parametrize(
    "second, named",
    [("b,1,2,0,1,f,1", "sex differs between rows ['m', 'f']"),
     ("b,1,2,0,1,,1", "sex differs between rows ['m', None]"),
     ("b,1,2,0,1,m,0", "died_in_hospital differs between rows [True, False]")],
)
def test_a_trajectory_carries_one_tag_and_death_flag(tmp_path, second, named):
    lines = FILES["trajectories"][1]
    path = tmp_path / "t.csv"
    path.write_text("\n".join([*lines[:3], second]) + "\n")
    with pytest.raises(SchemaError) as exc:
        TrajectorySet.from_csv(path)
    assert str(exc.value) == f"{path}: trajectory b: {named}; a trajectory has one value"


@pytest.mark.parametrize("name", sorted(FILES))
def test_an_empty_tag_cell_is_a_missing_tag(tmp_path, name):
    read, lines = FILES[name][:2]
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join([lines[0], lines[1].replace(",f,", ",,"), *lines[2:]]) + "\n")
    got = read(path)
    if name == "trajectories":
        tags = dict(zip(got.ids, got.demographics["sex"].tolist()))
    else:
        tags = {sid: value[0].demographics["sex"] if name == "prepared"
                else value.demographics["sex"] for sid, value in got.items()}
    assert tags == {lines[1].split(",")[0]: None, lines[2].split(",")[0]: "m"}


def test_regrouping_leaves_a_missing_tag_missing():
    subjects = {
        sid: SubjectRecords(sid, [0], {}, demographics={"sex": sex})
        for sid, sex in [("a", "f"), ("b", "f"), ("c", None), ("d", "m")]
    }
    out = regroup_demographics(subjects, {"sex": {"m": "male"}}, min_share=0.3)
    # m, relabelled male, is rare (1 of 4) and collapses; the missing tag stays missing
    assert {sid: r.demographics["sex"] for sid, r in out.items()} == {
        "a": "f", "b": "f", "c": None, "d": "other",
    }


SCORES = (
    "trajectory_id,L,C,log_likelihood,end_state_reward,retained,fully_off_policy,sex\n"
    "a,0.5,0.6,-inf,1.25,1,0,f\n"
    "b,0.0,1.0,0.0,-0.5,0,1,\n"
)


def test_scores_read_any_float_and_binary_flags(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES)
    scores, retained = read_scores_csv(path)
    assert scores.ids == ["a", "b"]
    assert scores.log_likelihood.tolist() == [-np.inf, 0.0]
    assert retained.tolist() == [True, False]
    assert scores.fully_off_policy.tolist() == [False, True]


@pytest.mark.parametrize(
    "old, new, named",
    [("1.25,1,0", "1.25,2,0", "trajectory a: retained '2' is not 0 or 1"),
     ("-0.5,0,1", "-0.5,0,x", "trajectory b: fully_off_policy 'x' is not 0 or 1"),
     ("a,0.5,", "a,abc,", "trajectory a: L 'abc' is not a number"),
     ("b,0.0,", "a,0.0,", "trajectory a: more than one row")],
)
def test_bad_scores_name_the_file_trajectory_and_column(tmp_path, old, new, named):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES.replace(old, new))
    with pytest.raises(SchemaError) as exc:
        read_scores_csv(path)
    assert str(exc.value) == f"{path}: {named}"


def test_labels_name_each_id_once(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("trajectory_id,corrupted\nt0,0\nt1,1\n")
    assert read_labels_csv(path) == {"t0": False, "t1": True}
    path.write_text("trajectory_id,corrupted\nt0,0\nt1,1\nt0,1\n")
    with pytest.raises(SchemaError) as exc:
        read_labels_csv(path)
    assert str(exc.value) == f"{path}: trajectory t0: more than one row"


# --------------------------------------------------- text cells parsed as codes


def test_owners_come_in_sorted_order_whatever_order_they_first_appear_in(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("trajectory_id,step,state,action,next_state,sex\n"
                    "b,0,1,0,2,f\na10,0,2,1,3,m\na9,0,3,0,1,\nb,1,2,1,0,f\na,0,0,0,0,m\n")
    got = TrajectorySet.from_csv(path)
    assert got.ids == ["a", "a10", "a9", "b"]
    assert got.lengths.tolist() == [1, 1, 1, 2]
    assert got.triples.tolist() == [[0, 0, 0], [2, 1, 3], [3, 0, 1], [1, 0, 2], [2, 1, 0]]
    assert got.demographics["sex"].tolist() == ["m", "m", None, "f"]


def test_quoted_ids_and_the_empty_id_read_as_written(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('trajectory_id,step,state,action,next_state\n'
                    '"x,y",0,0,0,1\n"say ""hi""",0,1,0,0\n\u00e9,0,0,0,0\n,0,1,0,1\n'
                    '"x,y",1,1,0,0\n', encoding="utf-8")
    got = TrajectorySet.from_csv(path)
    assert got.ids == ["", 'say "hi"', "x,y", "\u00e9"]
    assert got.lengths.tolist() == [1, 1, 2, 1]
    again = tmp_path / "again.csv"
    got.to_csv(again)
    assert TrajectorySet.from_csv(again).ids == got.ids


RECORDS = "subject_id,timestamp,hr,vasopressors,sex,died_in_hospital\n"


def _records(path):
    return load_records_csv(path, ["hr"], ["vasopressors"], ["sex"])


def test_a_bad_flag_after_good_ones_names_the_first_bad_row_in_file_order(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(RECORDS + "p2,0,70,1,f,0\np2,1,71,,f,0\np3,0,72,yes,m,1\n"
                    "p1,0,73,0,m,0\np1,1,74,2,m,0\n")
    with pytest.raises(SchemaError) as exc:
        _records(path)
    assert str(exc.value) == f"{path}: subject p3: vasopressors 'yes' is not empty, 0 or 1"


def test_text_that_differs_between_an_owners_rows_is_named_in_time_order(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(RECORDS + "p1,0,70,0,m,0\np2,5,71,0,f,0\np2,3,72,1,m,0\n")
    with pytest.raises(SchemaError) as exc:
        _records(path)
    assert str(exc.value) == (
        f"{path}: subject p2: sex differs between rows ['m', 'f']; a subject has one value"
    )


def test_a_row_with_a_field_too_many_is_named_beside_an_unread_column(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(RECORDS.replace("\n", ",note\n")
                    + "p1,0,70,0,m,0,a\np2,0,71,1,f,1,b,extra\np2,1,72,0,f,1,c\n")
    with pytest.raises(SchemaError) as exc:
        _records(path)
    assert str(exc.value) == f"{path}: subject p2: a row has 8 fields, not the header's 7"


@pytest.mark.parametrize("rows", ["in order", "shuffled"])
def test_every_column_read_is_its_own_contiguous_array(tmp_path, rows):
    """Whatever the row order, no column is a strided view that pins the parsed rows."""
    from consensus_irl import table

    lines = ["a,0,1.5,,f", "a,1,2.5,1,f", "b,0,3.5,0,m"]
    path = tmp_path / "t.csv"
    path.write_text("trajectory_id,step,x,flag,sex\n"
                    + "\n".join(lines if rows == "in order" else lines[::-1]) + "\n")
    kinds = {"step": table.INTEGER, "x": table.NUMBER, "flag": table.FLAG, "sex": table.TEXT}
    got = table.read_table(path, "trajectory_id", kinds, sort_by="step")
    assert got.columns["x"].tolist() == [1.5, 2.5, 3.5]
    for values in [*got.columns.values(), *got.owned.values()]:
        assert values.flags.c_contiguous and values.base is None


# ------------------------------------------------ rows parsed a block at a time

BLOCK_HEADER = "subject_id,step,x,flag,sex"
BLOCK_ROWS = ["a,0,1.5,,f", "a,1,2.5,1,f", '"b\r\nc",0,3.5,0,m', '"b\r\nc",1,4.5,,m',
              "d,1,5.5,1,", "d,0,6.5,0,", "e,0,7.5,,f"]
BLOCK_FILES = {  # each file holds the same table
    "quoted line break": "\r\n".join([BLOCK_HEADER, *BLOCK_ROWS]) + "\r\n",
    "blank lines": "\r\n".join([BLOCK_HEADER, *BLOCK_ROWS[:2], "", "", *BLOCK_ROWS[2:4], "",
                                 *BLOCK_ROWS[4:], "", ""]),
    "no final line break": "\n".join([BLOCK_HEADER, *BLOCK_ROWS]),
    "lone CR": "\r".join([BLOCK_HEADER, *BLOCK_ROWS]) + "\r",
    "mixed line ends": "".join(
        line + end for line, end in zip([BLOCK_HEADER, *BLOCK_ROWS], ["\r", "\n", "\r\n"] * 3)
    ),
    "shuffled": "\n".join([BLOCK_HEADER, *(BLOCK_ROWS[i] for i in (6, 3, 0, 5, 2, 4, 1))]),
}


def _read_blocks(path):
    from consensus_irl import table

    kinds = {"step": table.INTEGER, "x": table.NUMBER, "flag": table.FLAG, "sex": table.TEXT}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # reading in blocks adds no warning
        return table.read_table(path, "subject_id", kinds, sort_by="step")


def _same_table(got, want):
    assert got.ids == want.ids and got.lengths.tolist() == want.lengths.tolist()
    for part in ("columns", "owned"):
        got_part, want_part = getattr(got, part), getattr(want, part)
        assert list(got_part) == list(want_part)
        for column, values in want_part.items():
            assert got_part[column].dtype == values.dtype
            assert got_part[column].tolist() == values.tolist()


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BLOCK_FILES))
def test_any_block_size_reads_the_table_one_block_reads(tmp_path, monkeypatch, name, block):
    from consensus_irl import table

    path = tmp_path / "t.csv"
    path.write_bytes(BLOCK_FILES[name].encode())
    whole = _read_blocks(path)
    assert whole.ids == ["a", "b\r\nc", "d", "e"]
    assert whole.columns["x"].tolist() == [1.5, 2.5, 3.5, 4.5, 6.5, 5.5, 7.5]
    assert whole.owned["sex"].tolist() == ["f", "m", None, "f"]
    monkeypatch.setattr(table, "_READ_BLOCK", block)
    _same_table(_read_blocks(path), whole)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_a_bad_cell_in_a_later_block_is_named_as_in_one_block(tmp_path, monkeypatch, block):
    from consensus_irl import table

    path = tmp_path / "t.csv"
    path.write_text("\n".join([BLOCK_HEADER, *BLOCK_ROWS[:5], "d,0,six,0,", "e,0,7.5,2,f"]))
    with pytest.raises(SchemaError) as whole:
        _read_blocks(path)
    assert str(whole.value) == f"{path}: subject d: x 'six' is not a number"
    monkeypatch.setattr(table, "_READ_BLOCK", block)
    with pytest.raises(SchemaError) as exc:
        _read_blocks(path)
    assert str(exc.value) == str(whole.value)


# rows already in (owner, step) order, with equal steps within a and within c
IN_ORDER = ["a,0,1.5,,f", "a,1,2.5,1,f", "a,1,3.5,0,f", "b,0,4.5,,m", "c,2,5.5,1,", "c,2,6.5,0,"]
ORDERS = {
    "in order": IN_ORDER,
    # rows moved, each tie kept in its order, as the stable sort keeps it
    "shuffled": [IN_ORDER[i] for i in (4, 1, 3, 0, 5, 2)],
    # a's rows grouped but its steps descending
    "descending": [IN_ORDER[i] for i in (1, 2, 0, 3, 4, 5)],
}


def _spy_in_order(monkeypatch) -> list:
    """The list to which each read then appends whether it found its rows in order."""
    from consensus_irl import table

    found, in_order = [], table._in_order
    monkeypatch.setattr(table, "_in_order", lambda *a: found.append(in_order(*a)) or found[-1])
    return found


def _read_steps(path, lines):
    from consensus_irl import table

    path.write_text("\n".join(["trajectory_id,step,x,flag,sex", *lines]) + "\n")
    kinds = {"step": table.INTEGER, "x": table.NUMBER, "flag": table.FLAG, "sex": table.TEXT}
    return table.read_table(path, "trajectory_id", kinds, sort_by="step")


@pytest.mark.parametrize("rows", sorted(ORDERS))
def test_rows_in_order_read_as_the_sorted_table(tmp_path, monkeypatch, rows):
    from consensus_irl import table

    monkeypatch.setattr(table, "_in_order", lambda *a: False)  # always the lexsort path
    sorted_table = _read_steps(tmp_path / "t.csv", IN_ORDER)
    monkeypatch.undo()
    found = _spy_in_order(monkeypatch)
    got = _read_steps(tmp_path / "t.csv", ORDERS[rows])
    assert found == [rows == "in order"]
    _same_table(got, sorted_table)
    assert got.columns["x"].tolist() == [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]


@pytest.mark.parametrize("rows", ["in order", "shuffled"])
def test_triples_are_read_into_one_array_of_their_own(tmp_path, monkeypatch, rows):
    lines = ["a,0,0,1,2,f,0", "a,1,2,0,1,f,0", "b,0,1,1,1,m,1"]
    path = tmp_path / "t.csv"
    path.write_text("trajectory_id,step,state,action,next_state,sex,died_in_hospital\n"
                    + "\n".join(lines if rows == "in order" else lines[::-1]) + "\n")
    found = _spy_in_order(monkeypatch)
    tset = TrajectorySet.from_csv(path)
    assert found == [rows == "in order"]
    assert tset.triples.tolist() == [[0, 1, 2], [2, 0, 1], [1, 1, 1]]
    assert tset.triples.flags.c_contiguous and tset.triples.base is None


@pytest.mark.parametrize("column", ["state", "action", "next_state"])
def test_id_columns_are_read_as_int32(tmp_path, column):
    """The largest int32 id reads; one past it is a bad cell named by file and trajectory."""
    header = ["trajectory_id", "step", "state", "action", "next_state"]
    path = tmp_path / "t.csv"

    def read(cell):
        row = ["b", "0", "0", "0", "0"]
        row[header.index(column)] = cell
        path.write_text("\n".join([",".join(header), "a,0,0,0,0", ",".join(row)]) + "\n")
        return TrajectorySet.from_csv(path)

    tset = read("2147483647")
    assert tset.triples.dtype == np.int32
    assert tset.triples[1, header.index(column) - 2] == 2**31 - 1
    with pytest.raises(SchemaError) as exc:
        read("2147483648")
    assert str(exc.value) == f"{path}: trajectory b: {column} '2147483648' is not an integer"


@pytest.mark.parametrize("column", ["state", "action", "next_state"])
@pytest.mark.parametrize("row", [0, 4095, 4096, 8999])  # first and last of blocks 1 and 2, last row
def test_ids_are_read_int16_until_one_does_not_fit(tmp_path, column, row):
    """9,000 one-step trajectories, three parse blocks of 4,096 rows: an id of
    32767 keeps the triples int16; 32768 in any block, the last one included,
    widens every row read so far to int32 once, and every id reads as written."""
    at = ["state", "action", "next_state"].index(column)
    rng = np.random.default_rng(row)
    path = tmp_path / "t.csv"
    for highest, dtype in [(2**15 - 1, np.int16), (2**15, np.int32)]:
        triples = rng.integers(0, 2**15, size=(9000, 3))
        triples[row, at] = highest
        lines = [f"t{i:04d},0,{s},{a},{sp}" for i, (s, a, sp) in enumerate(triples.tolist())]
        path.write_text("trajectory_id,step,state,action,next_state\n" + "\n".join(lines) + "\n")
        tset = TrajectorySet.from_csv(path)
        assert tset.triples.dtype == dtype
        assert np.array_equal(tset.triples, triples) and tset.triples.base is None


def test_line_breaks_count_a_cr_lf_split_between_chunks_once(tmp_path):
    from consensus_irl import table

    path = tmp_path / "t.csv"
    path.write_bytes(b"a" * (2**20 - 1) + b"\r\n\r\rb\n")
    assert table._line_breaks(path) == 4


def test_reading_a_trajectory_file_holds_no_str_per_row(tmp_path):
    """Peak traced memory of TrajectorySet.from_csv per row, on the 40,000 rows of a
    seeded 100-state population: 164.4 bytes when every owner cell was a str, 109.4
    with the owner column parsed as codes, 63.7 parsed a block at a time into
    columns allocated once, 44.5 with the steps and triples parsed as int32, 37.6
    with the owner codes int32 and renumbered in place, the death flags int8 and
    the steps checked in int32, 32.9 with the ids held int16 and the owners'
    rows counted a block at a time."""
    world = generate_world(100, 4, 5, seed=3, horizon=20)
    config = PopulationConfig(n_trajectories=2000, corrupted_fraction=0.3, seed=3)
    path = tmp_path / "trajectories.csv"
    generate_population(world, config).trajectories.to_csv(path)
    assert TrajectorySet.from_csv(path).lengths.sum() == 40_000
    assert traced_peak(lambda: TrajectorySet.from_csv(path)) < 35 * 40_000


# text a CSV has to quote, or that a reader could take for a comment
TEXT = st.text(alphabet=["a", "Z", " ", ",", '"', "#", "'", "\n"], min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(TEXT, min_size=1, max_size=5, unique=True),
    data=st.data(),
)
def test_trajectories_round_trip_any_text(tmp_path_factory, ids, data):
    n = len(ids)
    lengths = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    sex = data.draw(st.lists(st.none() | TEXT, min_size=n, max_size=n))
    died = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    triples = np.zeros((sum(lengths), 3), dtype=np.int64)  # state 0 loops under action 0
    tset = TrajectorySet(triples, lengths, ids, 2, 1, {"sex": sex}, died)
    path = tmp_path_factory.mktemp("round_trip") / "t.csv"
    tset.to_csv(path)
    back = TrajectorySet.from_csv(path, 2, 1)
    order = sorted(range(n), key=ids.__getitem__)  # the reader takes ids in sorted order
    assert back.ids == [ids[i] for i in order]
    assert back.lengths.tolist() == [lengths[i] for i in order]
    assert back.triples.tolist() == tset.triples.tolist()
    assert {t: c.tolist() for t, c in back.demographics.items()} == {
        t: c[order].tolist() for t, c in tset.demographics.items()
    }
    assert back.died_in_hospital.tolist() == [died[i] for i in order]


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(TEXT, min_size=1, max_size=4, unique=True),
    data=st.data(),
)
def test_prepared_rows_round_trip_any_text(tmp_path_factory, ids, data):
    prepared = {}
    for sid in ids:
        n = data.draw(st.integers(1, 3))
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=n, max_size=n))
        tags = data.draw(st.fixed_dictionaries({}, optional={"sex": TEXT, "site": TEXT}))
        records = SubjectRecords(sid, np.arange(n) * 5 - 3, {"hr": values}, {}, tags,
                                 data.draw(st.booleans()))
        prepared[sid] = (records, np.array(data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64))
    path = tmp_path_factory.mktemp("round_trip") / "prepared.csv"
    write_prepared_csv(prepared, ["hr"], path)
    back = read_prepared_csv(path, ["hr"])
    assert list(back) == sorted(prepared)
    tags = {t for records, _ in prepared.values() for t in records.demographics}
    for sid, (records, actions) in prepared.items():
        got, got_actions = back[sid]
        assert got.timestamps.tolist() == records.timestamps.tolist()
        assert got.features["hr"].tolist() == records.features["hr"].tolist()
        assert got_actions.tolist() == actions.tolist()
        assert got.demographics == {t: records.demographics.get(t) for t in tags}
        assert got.died_in_hospital is records.died_in_hospital


@settings(max_examples=300, deadline=None)
@given(cell=st.text(alphabet=list("0123456789+-.eE _infaNx\t") + ["１"], min_size=1, max_size=6),
       kind=st.sampled_from(["INTEGER", "NUMBER", "FINITE", "BINARY"]))
def test_the_scan_names_the_cell_whenever_parsing_fails(tmp_path_factory, cell, kind):
    """The bad-cell scan judges one cell by the grammar np.loadtxt parses by."""
    from consensus_irl import table

    kind = getattr(table, kind)
    path = tmp_path_factory.mktemp("cell") / "t.csv"
    path.write_text(f"trajectory_id,v\na,{cell}\n", encoding="utf-8")
    try:
        table.read_table(path, "trajectory_id", {"v": kind})
    except SchemaError as exc:
        assert str(exc) == f"{path}: trajectory a: v {cell!r} is not {kind.name}"
    else:
        assert table._accepts(kind, cell)


# text csv quotes (comma, quote, CR, LF), text it does not ("#", space, non-ASCII),
# the empty string and None
WRITTEN_TEXT = st.none() | st.text(
    alphabet=st.sampled_from([",", '"', "\r", "\n", "#", " ", "a", "é", "中", "\x00"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=5,
)
# a narrow range (a table of the range) or a wide one (a table of distinct values)
INT64 = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1) | st.sampled_from(
    [-(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2, 0, -1]
)
FLOAT64 = st.floats(allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -2.2250738585072014e-308]
)


@st.composite
def tables(draw):
    """(header, columns): one to four columns of text, int64 or float64 cells."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    header = draw(st.lists(st.text(max_size=4), min_size=width, max_size=width))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["text", "int", "float"]),
                              min_size=width, max_size=width)):
        if kind == "text":
            columns.append(draw(st.lists(WRITTEN_TEXT, min_size=n, max_size=n)))
        else:
            cells = draw(st.lists(INT64 if kind == "int" else FLOAT64, min_size=n, max_size=n))
            columns.append(np.array(cells, dtype=np.int64 if kind == "int" else np.float64))
    return header, columns


def _both_write(tmp, header, columns, note=None):
    from consensus_irl.table import write_table

    ours, theirs = tmp / "ours.csv", tmp / "theirs.csv"
    write_table(ours, header, columns, note=note)
    reference_write_table(theirs, header, columns, note=note)
    return ours.read_bytes(), theirs.read_bytes()


@settings(max_examples=300, deadline=None)
@given(table=tables(), note=st.none() | st.just("permutation p-values"))
def test_the_column_writer_writes_what_csv_writes(tmp_path_factory, table, note):
    ours, theirs = _both_write(tmp_path_factory.mktemp("write"), *table, note=note)
    assert ours == theirs


@pytest.mark.parametrize("cells", [["x", "", None, "y"], [None], [""]])
def test_a_one_column_empty_cell_is_quoted(tmp_path, cells):
    """csv writes a row of one empty cell as "" so that it is not a blank line."""
    ours, theirs = _both_write(tmp_path, ["v"], [cells])
    assert ours == theirs
    assert b'\r\n""\r\n' in ours


def test_rows_span_write_blocks(tmp_path):
    from consensus_irl.table import _BLOCK

    n = 2 * _BLOCK + 3
    rng = np.random.default_rng(0)
    columns = [[f"t{i}" if i % 7 else "a,b" for i in range(n)], rng.integers(0, 400, size=n),
               rng.integers(-(10**9), 10**9, size=n), rng.normal(size=n)]
    ours, theirs = _both_write(tmp_path, ["id", "state", "when", "value"], columns)
    assert ours == theirs and ours.count(b"\r\n") == n + 1


def test_a_bool_column_is_written_as_0_and_1(tmp_path):
    """The bytes csv writes for the flags as int64 0/1, as BINARY reads them back."""
    from consensus_irl.table import write_table

    ids, flags = ["a", "b", "c", "d"], np.array([True, False, False, True])
    write_table(tmp_path / "ours.csv", ["id", "flag"], [ids, flags])
    reference_write_table(tmp_path / "theirs.csv", ["id", "flag"], [ids, flags.astype(np.int64)])
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1, 2], [3]]),
    (["a", "b"], [np.arange(2)]),
    (["a"], [np.arange(2), np.arange(2)]),
])
def test_the_writer_rejects_ragged_columns(tmp_path, header, columns):
    from consensus_irl.table import write_table

    with pytest.raises(ValueError, match="one column per field, all one length"):
        write_table(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()
