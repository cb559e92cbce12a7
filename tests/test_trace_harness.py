"""Smoke tests of perfbench/trace_cli.py over the clinical and MaxEnt commands.

The harness wraps the package's public functions from outside and counts
rows from their arguments and results: `len()` of each subject's records and
the `(records, actions)` pairs of prepared subjects. This runs it the way the
benchmark does, in a subprocess, on a tiny cohort.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import consensus_irl

ROOT = Path(__file__).resolve().parents[1]
TRACE_CLI = ROOT / "perfbench" / "trace_cli.py"
FEATURES = "heart_rate,mean_bp"


def write_cohort(path):
    """27 rows: six subjects of four, one outlier row, and a subject of two outliers.

    Two tags: sex, and site, which puts four of the six subjects in n and two in s,
    with both sexes in each."""
    lines = ["subject_id,timestamp,heart_rate,mean_bp,vasopressors,bolus_epinephrine,sex,"
             "died_in_hospital,site"]
    for i in range(6):
        sick = i % 2 == 0
        for t in range(4):
            hr, bp = (115 + t, 52 - t) if sick else (72 - t, 88 + t)
            hr_cell = "" if (i == 1 and t == 2) else f"{hr}.5"
            lines.append(f"p{i},{t},{hr_cell},{bp}.0,{int(sick and t > 0)},0,{'fm'[i % 2]},0,"
                         f"{'nns'[i % 3]}")
    lines.append("p0,4,80.0,9999.0,0,0,f,0,n")
    lines += ["px,0,900.0,80.0,0,0,m,1,s", "px,1,901.0,80.0,0,0,m,1,s"]
    path.write_text("\n".join(lines) + "\n")


def write_clinical_inputs(tmp_path):
    write_cohort(tmp_path / "records.csv")
    (tmp_path / "normals.json").write_text('{"heart_rate": 75, "mean_bp": 85}')
    (tmp_path / "bounds.json").write_text('{"heart_rate": [20, 300], "mean_bp": [10, 200]}')


def trace(tmp_path, name, *argv):
    src = os.path.dirname(os.path.dirname(consensus_irl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    spans = tmp_path / f"{name}.json"
    done = subprocess.run(
        [sys.executable, str(TRACE_CLI), str(spans), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text())


def attrs(spans, name):
    return [span[4] for span in spans if span[0] == name]


def test_trace_counts_clinical_rows(tmp_path):
    write_clinical_inputs(tmp_path)
    spans = trace(
        tmp_path, "ingest", "ingest", "--records", "records.csv", "--normals", "normals.json",
        "--bounds", "bounds.json", "--features", FEATURES, "--demographics", "sex",
        "--condition", "hypotension", "--out", "ingest",
    )
    assert attrs(spans, "ingest.load_records") == [{"rows": 27}]
    assert attrs(spans, "ingest.prepare_subjects") == [{"rows_dropped": 3}]

    clustered = ("--prepared", "ingest/prepared.csv", "--features", FEATURES,
                 "--k", "2", "--min-size", "2")
    spans = trace(tmp_path, "cluster", "cluster", *clustered, "--out", "states")
    assert len(attrs(spans, "ingest.read_prepared")) == 1
    assert attrs(spans, "discretize.fit_state_space") == [{"states_retained": 2}]

    spans = trace(
        tmp_path, "pipeline", "pipeline", *clustered, "--retain", "0.5", "--epochs", "20",
        "--permutations", "50", "--out", "two_stage",
    )
    assert len(attrs(spans, "ingest.read_prepared")) == 1
    assert len(attrs(spans, "maxent.train")) == 2
    assert (tmp_path / "two_stage" / "manifest.json").exists()


@pytest.mark.parametrize("optimizer", ["sga", "lbfgs"])
def test_trace_sees_both_passes_of_every_fit(tmp_path, optimizer):
    """Every evaluation of the objective runs one backward and one forward pass,
    under either optimizer, and each is a direct child of its fit's span."""
    trace(tmp_path, "synth", "synth", "--states", "12", "--actions", "2", "--branching", "3",
          "--horizon", "6", "--trajectories", "40", "--seed", "3", "--out", "synth")
    spans = trace(
        tmp_path, "pipeline", "pipeline", "--trajectories", "synth/trajectories.csv",
        "--optimizer", optimizer, "--epochs", "20", "--permutations", "20", "--out", "run",
    )
    fits = [i for i, span in enumerate(spans) if span[0] == "maxent.train"]
    assert len(fits) == 2
    for fit in fits:
        children = [span[0] for span in spans if span[1] == fit]
        backward = children.count("maxent.backward")
        assert backward >= 1
        assert backward == children.count("maxent.forward")


def test_trace_sees_the_tests_of_a_two_tag_analyze(tmp_path):
    """analyze over two tags runs under the harness, and its spans give the
    analyze layer's chi-squared metrics; the disparity tests reach tests.json."""
    write_clinical_inputs(tmp_path)
    trace(tmp_path, "ingest", "ingest", "--records", "records.csv", "--normals", "normals.json",
          "--bounds", "bounds.json", "--features", FEATURES, "--demographics", "sex,site",
          "--condition", "hypotension", "--out", "ingest")
    clustered = ("--prepared", "ingest/prepared.csv", "--features", FEATURES,
                 "--k", "2", "--min-size", "2")
    trace(tmp_path, "cluster", "cluster", *clustered, "--out", "states")
    trace(tmp_path, "pipeline", "pipeline", *clustered, "--retain", "0.5", "--epochs", "20",
          "--permutations", "50", "--out", "two_stage")
    spans = trace(
        tmp_path, "analyze", "analyze", "--run", "two_stage", "--trajectories",
        "states/trajectories.csv", "--permutations", "50", "--out", "reports",
    )
    # died_in_hospital is 0 for every subject left: its test raises, and has no counts
    chi2 = [span for span in spans if span[0] == "analyze.permutation_chi2"]
    assert [span[4] for span in chi2] == [{"tests": 1, "permutations": 50}] * 2 + [None]
    assert {spans[span[1]][0] for span in chi2} == {"analyze.pruning_uniformity"}

    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    metrics = layers.layer_metrics([("analyze", spans)])
    assert metrics["analyze.tests"] == 2 and metrics["analyze.permutations"] == 100
    assert metrics["analyze.permutation_chi2_s"] > 0 and metrics["cli.analyze.self_s"] > 0

    tests = json.loads((tmp_path / "reports" / "tests.json").read_text())["tests"]
    disparity = {t["name"]: t for t in tests if t["name"].startswith("reward_loss_disparity")}
    assert sorted(disparity) == ["reward_loss_disparity[sex]", "reward_loss_disparity[site]"]
    assert all(len(t["posthoc"]) == 1 for t in disparity.values())
