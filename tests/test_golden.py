"""The file comparer of tools/golden.py, on two small hand-made output trees."""

import csv
import importlib.util
import json
from pathlib import Path

from consensus_irl.ingest import ActionCodec, hypotension_codec, sepsis_codec

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def write_run(root: Path, reward: str = "0.25") -> None:
    run = root / "seed1" / "two_stage"
    run.mkdir(parents=True)
    (run / "rewards_stage1.json").write_text(
        '{"n_states": 2, "rewards": [' + reward + ", -1.5]}\n"
    )
    (run / "tests.csv").write_text("# note\nname,statistic,p_value\nchi2,1.5,0.04\n")
    (root / "demos").mkdir()
    (root / "demos" / "01.txt").write_text("exit 0\nrecovered 12 of 20 states\n")
    (root / "seed1" / "inputs").mkdir()
    (root / "seed1" / "inputs" / "records.csv").write_text("a,b\n1,2\n")


def test_golden_codec_is_the_hypotension_codec(tmp_path):
    """ingest --codec in the command set reads the codec --condition hypotension names."""
    path = tmp_path / "codec.json"
    path.write_text(json.dumps(golden.CODEC))
    assert ActionCodec.from_json(path) == hypotension_codec()


def test_golden_sepsis_records_hold_the_sepsis_codecs_flags(tmp_path):
    """ingest --condition sepsis in the command set reads records with every
    treatment column of the sepsis codec, and rows with more than one flag."""
    (tmp_path / "records.csv").write_text(
        "subject_id,timestamp,mean_bp,vasopressors,bolus_epinephrine,sex\n"
        "p0,0,70.0,1,1,f\np0,1,71.0,0,1,f\np1,0,72.0,1,0,m\n"
    )
    golden.write_sepsis_records(tmp_path)
    with open(tmp_path / "records_sepsis.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(sepsis_codec().known_flags) <= set(rows[0])
    assert not {"vasopressors", "bolus_epinephrine"} & set(rows[0])
    flags = [[f for f in sorted(sepsis_codec().known_flags) if row[f] == "1"] for row in rows]
    assert flags == [["antibiotics", "glucocorticoids", "vasoactive", "ventilation"],
                     ["antibiotics"], ["vasoactive"]]


def test_equal_trees_are_all_identical(tmp_path):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b")
    summary = golden.compare_trees(tmp_path / "a", tmp_path / "b")
    # the copied inputs are not compared
    assert summary == {
        "compared": 3, "identical": 3, "differing": 0,
        "decisions_moved": False, "decision_files": [], "files": [],
    }
    assert golden.within(summary, rtol=0.0)


def test_one_byte_reward_change_is_reported(tmp_path):
    write_run(tmp_path / "a", reward="0.25")
    write_run(tmp_path / "b", reward="0.26")
    summary = golden.compare_trees(tmp_path / "a", tmp_path / "b")
    assert (summary["compared"], summary["identical"], summary["differing"]) == (3, 2, 1)
    [moved] = summary["files"]
    assert moved["file"] == "seed1/two_stage/rewards_stage1.json"
    assert moved["fields"] == ["rewards/0"]
    assert not moved["text_differs"]
    # a reward is an estimate, not a decision
    assert moved["decisions"] == [] and not summary["decisions_moved"]
    assert abs(moved["max_abs"] - 0.01) < 1e-12
    assert abs(moved["max_rel"] - 0.01 / 0.26) < 1e-12
    assert not golden.within(summary, rtol=0.01)
    assert golden.within(summary, rtol=0.05)
    json.dumps(summary)  # the report is one JSON line


def test_text_and_missing_files_are_reported(tmp_path):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b")
    (tmp_path / "b" / "demos" / "01.txt").write_text("exit 1\n")
    (tmp_path / "b" / "seed1" / "two_stage" / "tests.csv").write_text(
        "# note\nname,statistic,p_value\nchi2,1.5,0.05\n"
    )
    (tmp_path / "a" / "extra.json").write_text("{}")
    summary = golden.compare_trees(tmp_path / "a", tmp_path / "b")
    files = {f["file"]: f for f in summary["files"]}
    assert files["demos/01.txt"]["text_differs"]
    assert files["extra.json"]["missing_in"] == "ref"
    assert files["seed1/two_stage/tests.csv"]["fields"] == ["p_value"]
    assert summary["decision_files"] == ["seed1/two_stage/tests.csv"]
    assert not golden.within(summary, rtol=1.0)


def test_named_json_entries_are_reported_by_name(tmp_path):
    tests = {"tests": [{"name": "chi2[sex]", "p_value": 0.5}, {"name": "anova", "p_value": 0.1}]}
    ours = json.dumps(tests).encode()
    tests["tests"][0]["p_value"] = 0.25
    moved = golden.diff_file("tests.json", ours, json.dumps(tests).encode())
    assert moved["fields"] == ["tests/chi2[sex]/p_value"]
    assert (moved["max_abs"], moved["max_rel"]) == (0.25, 0.5)


def test_removed_and_added_json_keys_are_listed_by_path(tmp_path):
    theirs = {"metadata": {"init": "ones", "seed": 1, "stage": "stage1"}, "rewards": [0.5, -1.0]}
    ours = {"metadata": {"seed": 1, "stage": "stage1", "tag": "x"}, "rewards": [0.25, -1.0]}
    moved = golden.diff_file(
        "rewards_stage1.json", json.dumps(ours).encode(), json.dumps(theirs).encode()
    )
    assert moved["removed"] == ["metadata/init"]
    assert moved["added"] == ["metadata/tag"]
    assert moved["text_differs"]
    # the paths both sides have are still compared value by value
    assert moved["fields"] == ["rewards/0"]
    assert (moved["max_abs"], moved["max_rel"]) == (0.25, 0.5)
    # a changed CSV header has no paths to list
    table = golden.diff_file("scores.csv", b"id,C\nt0,1\n", b"id,L\nt0,1\n")
    assert table["fields"] == ["<layout>"] and "removed" not in table


def test_moved_decisions_are_flagged_by_file(tmp_path):
    """Each kind of decision, moved alone, names its file; within() then fails at any rtol."""
    delta = [{"state": 0, "r1": 0.5, "policy1": 1, "policy2": 1, "agree": True}]
    recovery = {"prune_precision": 0.75, "prune_recall": 0.5, "spearman_stage2": 0.25}
    files = {
        "scores.csv": ("id,C,retained\nt0,0.5,1\nt1,0.25,0\n",
                       "id,C,retained\nt0,0.5,0\nt1,0.25,1\n"),
        "reward_delta.json": (delta, [{**delta[0], "policy2": 0, "agree": False}]),
        "recovery.json": (recovery, {**recovery, "prune_recall": 0.55}),
        "manifest.json": ({"n_retained": 3}, {"n_retained": 4}),
        # p_holm is the adjusted p of a ref from before p_adjusted
        "tests.json": (
            {"tests": [{"name": "anova", "posthoc": [{"group_a": "f", "p_adjusted": 0.5},
                                                     {"group_a": "m", "p_holm": 0.5}]}]},
            {"tests": [{"name": "anova", "posthoc": [{"group_a": "f", "p_adjusted": 0.25},
                                                     {"group_a": "m", "p_holm": 0.25}]}]},
        ),
    }
    for name, sides in files.items():
        for side, content in zip("ab", sides):
            path = tmp_path / side / "seed1" / "run" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content if isinstance(content, str) else json.dumps(content))
    summary = golden.compare_trees(tmp_path / "a", tmp_path / "b")
    assert summary["decisions_moved"]
    assert summary["decision_files"] == [f"seed1/run/{name}" for name in sorted(files)]
    moved = {f["file"].rsplit("/", 1)[-1]: f["decisions"] for f in summary["files"]}
    assert moved == {
        "manifest.json": ["n_retained"],
        "recovery.json": ["prune_recall"],
        "reward_delta.json": ["0/agree", "0/policy2"],
        "scores.csv": ["retained"],
        "tests.json": ["tests/anova/posthoc/0/p_adjusted", "tests/anova/posthoc/1/p_holm"],
    }
    assert not golden.within(summary, rtol=1.0)


def test_csv_rows_are_paired_by_their_owner():
    """Rows of one trajectory_id are compared with each other, wherever they stand."""
    ours = "trajectory_id,C,retained\nt0,0.5,1\nt1,0.25,0\nt2,0.125,1\n"
    permuted = "trajectory_id,C,retained\nt2,0.125,1\nt0,0.5,1\nt1,0.25,0\n"
    moved = golden.diff_file("scores.csv", ours.encode(), permuted.encode())
    assert moved["fields"] == [] and moved["decisions"] == []
    assert not moved["text_differs"]
    # a flipped flag is still a moved decision when the rows are permuted too
    flipped = "trajectory_id,C,retained\nt2,0.125,1\nt0,0.5,0\nt1,0.25,0\n"
    moved = golden.diff_file("scores.csv", ours.encode(), flipped.encode())
    assert moved["fields"] == ["retained"] and moved["decisions"] == ["retained"]
    # rows of one subject keep their order: a swap within a subject moves its cells
    rows = "subject_id,timestamp\np1,0\np0,0\np0,1\n"
    swapped = "subject_id,timestamp\np0,1\np0,0\np1,0\n"
    assert golden.diff_file("prepared.csv", rows.encode(), swapped.encode())["fields"] == [
        "timestamp"
    ]
