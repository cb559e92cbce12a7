import numpy as np
import pytest

from consensus_irl import InputError, ParameterError, SchemaError, TrajectorySet

from conftest import make_set, traced_peak
from oracles import reference_trajectories

STEPS = ((0, 1, 2), (2, 0, 1))


def test_first_and_end_states():
    tset = make_set([STEPS, [(1, 0, 0)]])
    assert tset.first_states.tolist() == [0, 1]
    assert tset.end_states.tolist() == [1, 0]


def test_iterating_yields_each_trajectorys_triples():
    tset = make_set([STEPS, [(1, 0, 0)]])
    assert [block.tolist() for block in tset] == [list(map(list, STEPS)), [[1, 0, 0]]]
    assert list(make_set([], n_states=3, n_actions=2)) == []


def test_chaining_violation_rejected():
    with pytest.raises(InputError, match="trajectory t1: triples do not chain"):
        make_set([STEPS, ((0, 1, 2), (3, 0, 1))])


def test_zero_length_rejected():
    with pytest.raises(InputError, match="trajectory t0: at least one transition"):
        TrajectorySet(np.empty((0, 3), dtype=np.int64), [0], ["t0"])


def test_columns_must_agree():
    with pytest.raises(SchemaError, match="shape"):
        TrajectorySet(np.zeros((2, 2)), [2], ["a"])
    with pytest.raises(SchemaError, match="do not add up"):
        TrajectorySet(np.array(STEPS), [1], ["a"])
    with pytest.raises(SchemaError, match="disagree on the number"):
        TrajectorySet(np.array(STEPS), [2], ["a"], died_in_hospital=[True, False])


def test_set_validates_id_ranges():
    with pytest.raises(InputError):
        make_set([[(0, 1, 5)]], n_states=3, n_actions=2)
    with pytest.raises(InputError):
        make_set([[(0, 7, 1)]], n_states=3, n_actions=2)


def test_every_producer_stores_narrow_ids(tmp_path, small_population):
    """Ids below 2**15 are stored int16, whichever producer made the set."""
    given = [np.array(STEPS, dtype=np.int64), [list(step) for step in STEPS],
             np.array(STEPS, dtype=np.int32)]
    sets = [TrajectorySet(triples, [2], ["a"]) for triples in given]
    small_population.trajectories.to_csv(tmp_path / "t.csv")
    sets += [
        small_population.trajectories,  # generate_population's
        TrajectorySet.from_csv(tmp_path / "t.csv"),
        sets[0].subset(np.array([True])),
    ]
    for tset in sets:
        assert tset.triples.dtype == np.int16 and tset.triples.flags.c_contiguous
    assert sets[0].triples.tolist() == sets[1].triples.tolist() == list(map(list, STEPS))
    sampled = sets[3]
    again = TrajectorySet(sampled.triples, sampled.lengths, sampled.ids, sampled.n_states)
    assert again.triples is sampled.triples  # a set of int16 ids is not copied


@pytest.mark.parametrize("column", [0, 1, 2])
def test_ids_widen_to_int32_from_2_to_the_15(column):
    """32767 is the largest id stored int16; 32768 anywhere makes the set int32,
    from int64 given ids, and a subset is int32 while it keeps that id."""
    for highest, dtype in [(2**15 - 1, np.int16), (2**15, np.int32)]:
        triples = np.zeros((3, 3), dtype=np.int64)
        triples[1, column] = highest  # each trajectory is one step: nothing to chain
        tset = TrajectorySet(triples, [1, 1, 1], ["a", "b", "c"])
        assert tset.triples.dtype == dtype and tset.triples.tolist() == triples.tolist()
        assert tset.subset(np.array([False, True, True])).triples.dtype == dtype
        assert tset.subset(np.array([True, False, False])).triples.dtype == np.int16


@pytest.mark.parametrize("column", [0, 1, 2])
def test_an_id_beyond_int32_is_rejected_before_the_cast(column):
    """Cast first, 2**31 would wrap to -2**31 and -2**31 - 1 to 2**31 - 1."""
    for cell, message in [(2**31, "state/action id above 2147483647"),
                          (-(2**31) - 1, "negative state/action id")]:
        triples = np.zeros((2, 3), dtype=np.int64)
        triples[1, column] = cell
        with pytest.raises(SchemaError, match=f"trajectory b: {message}"):
            TrajectorySet(triples, [1, 1], ["a", "b"])
        with pytest.raises(SchemaError, match=f"trajectory b: {message}"):
            TrajectorySet(triples.tolist(), [1, 1], ["a", "b"])
    triples = np.full((1, 3), 2**31 - 1, dtype=np.int64)
    assert TrajectorySet(triples, [1], ["a"]).n_states == 2**31


def test_duplicate_ids_rejected():
    with pytest.raises(InputError):
        make_set([STEPS, STEPS], ["a", "a"], n_states=3, n_actions=2)


def test_subset_preserves_order_and_checks_the_mask():
    tset = make_set([STEPS] * 3, ["a", "b", "c"], n_states=3, n_actions=2)
    sub = tset.subset(np.array([True, False, True]))
    assert sub.ids == ["a", "c"]
    assert sub.n_states == 3
    for bad in ([True, False], np.ones(4, dtype=bool), [1, 0, 1], ["c", "a"], np.array(True)):
        with pytest.raises(ParameterError, match="mask must be 3 bools"):
            tset.subset(bad)


def test_max_length_and_tags():
    tset = make_set(
        [[(0, 0, 1)], [(0, 0, 1), (1, 0, 2), (2, 0, 0)]],
        ["a", "b"],
        [{"race": "x", "language": "en"}, {"race": "y"}],
        n_states=3,
        n_actions=1,
    )
    assert tset.max_length() == 3
    assert tset.demographic_tags() == ["language", "race"]


def test_csv_round_trip(tmp_path, small_population):
    path = tmp_path / "t.csv"
    tset = small_population.trajectories
    tset.to_csv(path)
    back = TrajectorySet.from_csv(path, n_states=tset.n_states,
                                  n_actions=tset.n_actions)
    assert back.ids == tset.ids
    assert np.array_equal(back.triples, tset.triples)
    assert np.array_equal(back.lengths, tset.lengths)
    assert [tr.demographics for tr in reference_trajectories(back)] == [
        tr.demographics for tr in reference_trajectories(tset)
    ]
    assert np.array_equal(back.died_in_hospital, tset.died_in_hospital)


def test_csv_round_trip_with_demographics(tmp_path):
    tset = make_set(
        [STEPS, STEPS], ["a", "b"], [{"race": "x"}, {"race": "y"}], [True, False], 3, 2
    )
    path = tmp_path / "t.csv"
    tset.to_csv(path)
    back = TrajectorySet.from_csv(path)
    assert back.ids == ["a", "b"]
    assert back.died_in_hospital.tolist() == [True, False]
    assert reference_trajectories(back)[1].demographics == {"race": "y"}


def test_csv_round_trip_keeps_missing_tags_missing(tmp_path):
    from consensus_irl.analyze import _attribute_labels

    tags = {"race": "x", "language": "en", "site": "north"}
    tset = make_set([STEPS, STEPS], ["a", "b"], [tags, {"race": "y"}], n_states=3, n_actions=2)
    path = tmp_path / "t.csv"
    tset.to_csv(path)
    back = TrajectorySet.from_csv(path)
    assert reference_trajectories(back)[0].demographics == tags
    assert reference_trajectories(back)[1].demographics == {"race": "y"}
    assert back.demographics["site"].tolist() == ["north", None]
    for attribute in ("language", "site"):
        with pytest.raises(ParameterError, match=f"trajectory b is missing .*{attribute}"):
            _attribute_labels(back, attribute)
    assert _attribute_labels(back, "race").tolist() == ["x", "y"]


def test_from_csv_infers_dimensions(tmp_path):
    tset = make_set([[(0, 3, 4), (4, 1, 2)]], ["a"], n_states=5, n_actions=4)
    path = tmp_path / "t.csv"
    tset.to_csv(path)
    back = TrajectorySet.from_csv(path)
    assert back.n_states == 5
    assert back.n_actions == 4


HEADER = "trajectory_id,step,state,action,next_state,died_in_hospital\n"


def write_csv(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text(HEADER + body)
    return path


@pytest.mark.parametrize("column", ["step", "state", "action", "next_state"])
def test_csv_non_integer_cell_names_file_and_trajectory(tmp_path, column):
    # a float cell must not be truncated into an integer one
    for cell in ["x", "2.7", "1.0", "1e0", "2147483648"]:  # the last one past int32
        rows = [["a", "0", "0", "1", "2", "0"], ["b", "0", "0", "1", "2", "0"],
                ["b", "1", "2", "0", "1", "0"]]
        rows[2][HEADER.strip().split(",").index(column)] = cell
        path = write_csv(tmp_path, "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(SchemaError, match=rf"t\.csv: trajectory b: {column} '{cell}'"):
            TrajectorySet.from_csv(path)


def test_csv_repeated_step_rejected(tmp_path):
    path = write_csv(tmp_path, "a,0,0,1,2,0\nb,0,0,1,2,0\nb,0,2,0,1,0\n")
    with pytest.raises(SchemaError, match=r"t\.csv: trajectory b: steps must be 0\.\.1"):
        TrajectorySet.from_csv(path)


def test_csv_steps_must_start_at_zero(tmp_path):
    path = write_csv(tmp_path, "a,1,0,1,2,0\na,2,2,0,1,0\n")
    with pytest.raises(SchemaError, match="trajectory a: steps"):
        TrajectorySet.from_csv(path)


def test_csv_broken_chain_names_file(tmp_path):
    path = write_csv(tmp_path, "a,0,0,1,2,0\na,1,1,0,1,0\n")
    with pytest.raises(SchemaError, match=r"t\.csv: trajectory a: triples do not chain"):
        TrajectorySet.from_csv(path)


def test_csv_interleaved_rows_come_in_id_order(tmp_path):
    path = write_csv(tmp_path, "b,1,2,0,1,1\na,0,0,1,2,0\nb,0,0,1,2,1\na,1,2,0,0,0\n")
    tset = TrajectorySet.from_csv(path)
    assert tset.ids == ["a", "b"]
    assert [tr.triples.tolist() for tr in reference_trajectories(tset)] == [
        [[0, 1, 2], [2, 0, 0]],
        [[0, 1, 2], [2, 0, 1]],
    ]
    assert tset.died_in_hospital.tolist() == [False, True]


def test_reduce_steps_matches_per_trajectory_reductions():
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, 300, size=400)
    values = rng.normal(size=lengths.sum()) * 10.0 ** rng.integers(-6, 6, size=lengths.sum())
    where = rng.random(lengths.sum()) < 0.6
    states = np.zeros(lengths.sum(), dtype=np.int64)
    tset = TrajectorySet(
        np.stack([states, states, states], axis=1), lengths, [f"t{i}" for i in range(400)]
    )
    slices = np.split(np.arange(lengths.sum()), np.cumsum(lengths)[:-1])
    assert tset.reduce_steps(values.__getitem__, np.mean).tolist() == [
        np.mean(values[i]) for i in slices
    ]
    sums, counts = tset.reduce_steps(lambda rows, keep: values[rows][keep], np.sum,
                                     where=where.__getitem__)
    assert sums.tolist() == [np.sum(values[i][where[i]]) for i in slices]
    assert counts.tolist() == [np.count_nonzero(where[i]) for i in slices]


# ------------------------------------------------ per-step work, a block at a time

MIXED = [3, 1, 4, 4, 4, 2, 5, 1, 4]  # the 4s split across blocks of 9 rows


def walks(lengths, n_states=51, seed=0, **columns):
    """A set of random walks of these lengths over n_states states and two actions."""
    rng = np.random.default_rng(seed)
    blocks = []
    for length in lengths:
        states = rng.integers(0, n_states, size=length + 1)
        blocks.append(np.stack([states[:-1], rng.integers(0, 2, size=length), states[1:]], 1))
    return TrajectorySet(np.concatenate(blocks), lengths, [f"t{i}" for i in range(len(lengths))],
                         n_states, 2, **columns)


@pytest.mark.parametrize("block", [1, 5, 9])
def test_blocks_hold_whole_trajectories(monkeypatch, block):
    from consensus_irl import trajectories

    tset = walks(MIXED)
    monkeypatch.setattr(trajectories, "_STEP_BLOCK", block)
    blocks = list(tset.blocks())
    assert [i for owners, _ in blocks for i in range(owners.start, owners.stop)] == list(
        range(len(MIXED))
    )
    for owners, rows in blocks:
        assert rows.start == tset.offsets[owners.start]
        assert rows.stop - rows.start == tset.lengths[owners].sum()
        assert rows.stop - rows.start <= block or owners.stop - owners.start == 1
    assert max(owners.stop - owners.start for owners, _ in blocks) <= 3


@pytest.mark.parametrize("block", [1, 5, 9])
def test_reduce_steps_in_blocks_is_the_per_slice_reduction(monkeypatch, block):
    """Mixed lengths, a length group split across blocks, and a trajectory with no
    selected step: every value is np.sum / np.mean of its slice, to the bit."""
    from consensus_irl import trajectories

    tset, rng = walks(MIXED), np.random.default_rng(4)
    n = len(tset.triples)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, size=n)
    where = rng.random(n) < 0.6
    where[tset.offsets[3] : tset.offsets[4]] = False
    slices = [slice(o, o + length) for o, length in zip(tset.offsets, tset.lengths)]
    monkeypatch.setattr(trajectories, "_STEP_BLOCK", block)
    assert tset.reduce_steps(values.__getitem__, np.mean).tolist() == [
        np.mean(values[i]) for i in slices
    ]
    calls = []

    def where_once(rows):  # each block's mask is asked for once
        calls.append(rows)
        return where[rows]

    sums, counts = tset.reduce_steps(lambda rows, keep: values[rows][keep], np.sum,
                                     where=where_once)
    assert sums.tolist() == [np.sum(values[i][where[i]]) for i in slices]
    assert counts.tolist() == [np.count_nonzero(where[i]) for i in slices]
    assert sums[3] == 0.0 and counts[3] == 0
    assert calls == [rows for _, rows in tset.blocks()]


@pytest.mark.parametrize("block", [1, 5, 9])
def test_to_csv_in_blocks_writes_the_bytes_of_one_block(tmp_path, monkeypatch, block):
    """Tags that need quoting, missing tags and death flags; a block's state cells
    come from np.unique where the whole column's come from its range."""
    from consensus_irl import trajectories

    lengths = MIXED * 4
    notes = ["a, b", 'say "hi"', None, "two\nlines", "#1", "plain"]
    tset = walks(lengths, demographics={"note": [notes[i % 6] for i in range(len(lengths))]},
                 died_in_hospital=[i % 3 == 0 for i in range(len(lengths))])
    states = tset.triples[:, 0]
    assert np.ptp(states) < len(states) and np.ptp(states[:3]) >= 3
    assert len(list(tset.blocks())) == 1
    tset.to_csv(tmp_path / "whole.csv")
    monkeypatch.setattr(trajectories, "_STEP_BLOCK", block)
    tset.to_csv(tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    back = TrajectorySet.from_csv(tmp_path / "blocks.csv")
    assert dict(zip(back.ids, back.demographics["note"])) == dict(
        zip(tset.ids, tset.demographics["note"])
    )


def test_writing_a_trajectory_file_holds_one_block_of_columns(tmp_path, rows_400k):
    """Peak traced memory of to_csv per row, on 400,000 rows: 32.0 bytes with
    every per-step column built at once, 4.9 built and written one block of
    trajectories at a time."""
    assert traced_peak(lambda: rows_400k.to_csv(tmp_path / "t.csv")) < 16 * 400_000


def test_csv_round_trip_quotes_commas_and_hashes(tmp_path):
    tags = {"note": "a, b", "quote": 'say "hi"', "mark": "#1"}
    other = {"note": "#", "quote": '""', "mark": ","}
    tset = make_set([STEPS, STEPS], ["#a", "b#"], [tags, other], [True, False], 3, 2)
    path = tmp_path / "t.csv"
    tset.to_csv(path)
    back = TrajectorySet.from_csv(path)
    assert back.ids == ["#a", "b#"]
    assert reference_trajectories(back)[0].demographics == tags
    assert reference_trajectories(back)[1].demographics == other
    assert back.died_in_hospital.tolist() == [True, False]
    assert back.triples.tolist() == tset.triples.tolist()


def test_csv_blank_lines_between_rows_are_skipped(tmp_path):
    path = write_csv(tmp_path, "a,0,0,1,2,1\n\nb,0,0,1,2,0\n\n\nb,1,2,0,1,0\n")
    tset = TrajectorySet.from_csv(path)
    assert tset.ids == ["a", "b"]
    assert tset.lengths.tolist() == [1, 2]
    assert tset.died_in_hospital.tolist() == [True, False]


def test_csv_crlf_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes((HEADER + "a,0,0,1,2,1\na,1,2,0,1,1\n").replace("\n", "\r\n").encode())
    tset = TrajectorySet.from_csv(path)
    assert tset.ids == ["a"]
    assert tset.triples.tolist() == [[0, 1, 2], [2, 0, 1]]
    assert tset.died_in_hospital.tolist() == [True]


@pytest.mark.parametrize(
    "cell, message", [("2", "'2' is not 0 or 1"), ("-1", "'-1' is not 0 or 1"),
                      ("1.5", r"'1\.5' is not 0 or 1")],
)
def test_csv_death_flag_must_be_zero_or_one(tmp_path, cell, message):
    path = write_csv(tmp_path, f"a,0,0,1,2,0\nb,0,0,1,2,{cell}\nb,1,2,0,1,{cell}\n")
    with pytest.raises(SchemaError, match=rf"t\.csv: trajectory b: died_in_hospital {message}"):
        TrajectorySet.from_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file"),
        ("\n\n", "empty file"),
        ("trajectory_id,step,state,action\na,0,0,1\n", r"missing columns \['next_state'\]"),
        (HEADER, "no trajectories"),
        (HEADER + "\n", "no trajectories"),
        (HEADER + "a,0,0,1,2,0\na,1,2,0,1\n",
         "trajectory a: died_in_hospital is missing: a row has 5 fields, not the header's 6"),
        (HEADER + "a,0,0,1,2,0\na,1,2,0,1,0,7\n",
         "trajectory a: a row has 7 fields, not the header's 6"),
        (HEADER + 'a,0,0,1,2,0\n"a,1",1,2,0,1,0\n', r"trajectory a,1: steps must be 0\.\.0"),
    ],
)
def test_csv_file_level_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=rf"t\.csv: {message}"):
        TrajectorySet.from_csv(path)


@pytest.mark.parametrize("cell", ["1_0", "\uff11", str(2**63)])
def test_csv_integer_cell_int_accepts_but_loadtxt_rejects(tmp_path, cell):
    # int() reads each of these, but a CSV integer cell holds plain decimal
    # digits within int64
    path = write_csv(tmp_path, f"a,0,0,{cell},2,0\n")
    with pytest.raises(SchemaError, match=rf"t\.csv: trajectory a: action '{cell}' is not"):
        TrajectorySet.from_csv(path)


def test_csv_integer_cell_may_carry_sign_and_spaces(tmp_path):
    tset = TrajectorySet.from_csv(write_csv(tmp_path, "a, 0 ,+0,1,\t2,0\n"))
    assert tset.triples.tolist() == [[0, 1, 2]]
