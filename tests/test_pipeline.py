"""Two-stage orchestration: pruning semantics, determinism, run artifacts."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from consensus_irl import (
    CohortEmptyError,
    IrlConfig,
    ParameterError,
    PruneConfig,
    SchemaError,
    TrajectorySet,
    TwoStageResult,
    estimate_transitions,
    evaluate_recovery,
    generate_population,
    generate_world,
    load_run_directory,
    retention_sweep,
    run_two_stage,
    train_maxent_irl,
    write_run_directory,
)
from consensus_irl import pipeline
from consensus_irl.pipeline import sha256_file
from consensus_irl.synth import PopulationConfig

RUN_FILES = [
    "config.json",
    "rewards_stage1.json",
    "rewards_stage2.json",
    "scores.csv",
    "reward_delta.csv",
    "training_log_stage1.csv",
    "training_log_stage2.csv",
    "manifest.json",
]


@pytest.fixture(scope="module")
def quick_result(small_population):
    ts = small_population.trajectories
    return (
        run_two_stage(ts, IrlConfig(epochs=25, seed=3), PruneConfig(retain_fraction=0.5)),
        ts,
    )


def assert_same_scores(a, b):
    """Two TrajectoryScores hold the same ids and, bit for bit, the same columns."""
    assert a.ids == b.ids
    for column in ("L", "C", "log_likelihood", "end_state_reward", "fully_off_policy"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def test_full_retention_reproduces_stage1_bitwise(small_population):
    ts = small_population.trajectories
    result = run_two_stage(ts, IrlConfig(epochs=20), PruneConfig(retain_fraction=1.0))
    assert np.array_equal(result.reward_stage1.rewards, result.reward_stage2.rewards)
    assert np.all(result.reward_delta == 0.0)
    assert np.all(result.policy_agreement)
    assert result.scores.ids == ts.ids
    assert result.retained.dtype == bool and result.retained.all()


def test_partition_and_monotone_selection(quick_result):
    result, ts = quick_result
    assert result.retained.shape == (len(ts),) and result.scores.ids == ts.ids
    assert result.retained.sum() == math.ceil(0.5 * len(ts))
    worst_kept = result.scores.C[result.retained].min()
    best_cut = result.scores.C[~result.retained].max()
    assert worst_kept >= best_cut
    assert result.reward_delta.shape == (ts.n_states,)


def test_stage2_uses_only_retained_trajectories(quick_result):
    """Replaying stage 2 by hand on the retained subset must reproduce it."""
    result, ts = quick_result
    cfg2 = IrlConfig(epochs=25, seed=4, horizon=ts.max_length())
    replay = train_maxent_irl(
        ts.subset(result.retained), result.transitions, cfg2, stage="stage2"
    )
    assert np.array_equal(replay.rewards, result.reward_stage2.rewards)


def test_stage_seeds_are_offset(quick_result):
    result, _ = quick_result
    assert result.reward_stage1.metadata["seed"] == 3
    assert result.reward_stage2.metadata["seed"] == 4
    assert result.reward_stage1.metadata["stage"] == "stage1"
    assert result.reward_stage2.metadata["stage"] == "stage2"


def test_two_stage_is_deterministic(small_population):
    ts = small_population.trajectories
    irl = IrlConfig(epochs=15)
    prune = PruneConfig(retain_fraction=0.4)
    a = run_two_stage(ts, irl, prune)
    b = run_two_stage(ts, irl, prune)
    assert np.array_equal(a.reward_stage1.rewards, b.reward_stage1.rewards)
    assert np.array_equal(a.reward_stage2.rewards, b.reward_stage2.rewards)
    assert np.array_equal(a.retained, b.retained)


def test_empty_set_is_rejected():
    empty = TrajectorySet(np.empty((0, 3)), [], [], n_states=2, n_actions=2)
    with pytest.raises(CohortEmptyError):
        run_two_stage(empty, IrlConfig(), PruneConfig())


def test_pruning_improves_policy_agreement_on_corrupted_data():
    """Stage 2 should match the true optimal policy at least as well.

    Pinned to early-stopped sga fits (300 epochs at lr0 0.4): fitted with lbfgs
    to the gradient tolerance, the median change in agreement is negative.
    """
    diffs = []
    for seed in range(5):
        world = generate_world(60, 3, 4, seed=50 + seed, horizon=15)
        pop = generate_population(
            world,
            PopulationConfig(n_trajectories=600, corrupted_fraction=0.3, seed=seed),
        )
        result = run_two_stage(
            pop.trajectories,
            IrlConfig(epochs=300, lr0=0.4, seed=seed, optimizer="sga"),
            PruneConfig(retain_fraction=0.5),
        )
        metrics = evaluate_recovery(world, result, pop.corrupted)
        diffs.append(metrics["policy_agreement_stage2"] - metrics["policy_agreement_stage1"])
    assert float(np.median(diffs)) >= 0.0


def test_retention_sweep_runs_all_fractions(small_population, monkeypatch):
    ts = small_population.trajectories
    irl, prune = IrlConfig(epochs=10), PruneConfig()
    stages = []
    train = pipeline.train_maxent_irl

    def counting_train(*args, **kwargs):
        stages.append(kwargs["stage"])
        return train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train_maxent_irl", counting_train)
    results = retention_sweep(ts, irl, prune)
    monkeypatch.undo()
    assert stages == ["stage1", "stage2", "stage2", "stage2"]  # one stage-1 fit serves all
    assert sorted(results) == [0.2, 0.5, 0.8]
    for f, result in results.items():
        assert result.retained.sum() == math.ceil(f * len(ts))
        # each leg is bit for bit the one-fraction run
        alone = run_two_stage(ts, irl, replace(prune, retain_fraction=f))
        for stage in ("reward_stage1", "reward_stage2"):
            leg, single = getattr(result, stage), getattr(alone, stage)
            assert leg.rewards.tobytes() == single.rewards.tobytes()
            assert leg.metadata == single.metadata
        assert_same_scores(result.scores, alone.scores)
        assert np.array_equal(result.retained, alone.retained)
        assert np.array_equal(result.policy_agreement, alone.policy_agreement)
    # same stage-1 scores in every sweep leg, so retained sets nest
    assert not (results[0.2].retained & ~results[0.5].retained).any()
    assert not (results[0.5].retained & ~results[0.8].retained).any()


def test_retention_sweep_checks_every_fraction_before_fitting(small_population, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the fractions were checked")

    monkeypatch.setattr(pipeline, "train_maxent_irl", no_training)
    with pytest.raises(ParameterError):
        retention_sweep(small_population.trajectories, IrlConfig(), PruneConfig(), (0.5, 1.5))


def test_run_directory_layout_and_manifest(tmp_path, quick_result):
    result, ts = quick_result
    out = tmp_path / "run"
    manifest = write_run_directory(
        result, out, IrlConfig(epochs=25, seed=3), PruneConfig(retain_fraction=0.5),
        trajectories=ts,
    )
    for name in RUN_FILES:
        assert (out / name).exists(), name
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest
    for name, digest in manifest["hashes"].items():
        assert sha256_file(out / name) == digest
    assert manifest["seeds"] == {"stage1": 3, "stage2": 4, "prune": 0}
    assert manifest["n_retained"] + manifest["n_pruned"] == len(ts)
    assert "shared" in manifest["transition_kernel"]
    header = (out / "reward_delta.csv").read_text().splitlines()
    assert header[0] == "state,r1,r2,delta,policy1,policy2,agree"
    assert len(header) == ts.n_states + 1


def test_run_directory_rerun_is_byte_identical(tmp_path, quick_result):
    result, ts = quick_result
    irl, prune = IrlConfig(epochs=25, seed=3), PruneConfig(retain_fraction=0.5)
    write_run_directory(result, tmp_path / "a", irl, prune, trajectories=ts)
    write_run_directory(result, tmp_path / "b", irl, prune, trajectories=ts)
    for name in RUN_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_run_directory_loads_back_into_the_same_result(tmp_path, quick_result):
    result, ts = quick_result
    write_run_directory(
        result, tmp_path, IrlConfig(epochs=25, seed=3), PruneConfig(retain_fraction=0.5),
        trajectories=ts,
    )
    loaded = load_run_directory(tmp_path, ts)
    assert isinstance(loaded, TwoStageResult)
    assert np.array_equal(loaded.reward_stage1.rewards, result.reward_stage1.rewards)
    assert np.array_equal(loaded.reward_stage2.rewards, result.reward_stage2.rewards)
    assert np.array_equal(loaded.policy_stage1.actions, result.policy_stage1.actions)
    assert np.array_equal(loaded.policy_stage2.actions, result.policy_stage2.actions)
    assert np.array_equal(loaded.retained, result.retained)
    assert_same_scores(loaded.scores, result.scores)
    assert np.array_equal(loaded.reward_delta, result.reward_delta)
    assert np.array_equal(loaded.policy_agreement, result.policy_agreement)


def test_run_directory_rejects_other_trajectories(tmp_path, quick_result):
    result, ts = quick_result
    write_run_directory(
        result, tmp_path, IrlConfig(epochs=25, seed=3), PruneConfig(retain_fraction=0.5),
        trajectories=ts,
    )
    fewer = ts.subset(np.arange(len(ts)) < len(ts) - 1)
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(tmp_path))}: .* {len(fewer)} is None "):
        load_run_directory(tmp_path, fewer)
    other = ts.subset(np.arange(len(ts)) != 2)
    with pytest.raises(SchemaError, match=f"trajectory 2 is {other.ids[2]!r} but {ts.ids[2]!r}"):
        load_run_directory(tmp_path, other)


def test_shared_kernel_comes_from_all_trajectories(quick_result, small_population):
    result, ts = quick_result
    expected = estimate_transitions(ts)
    assert np.array_equal(result.transitions.probs, expected.probs)
    retained_only = estimate_transitions(ts.subset(result.retained))
    assert not np.array_equal(result.transitions.probs, retained_only.probs)
