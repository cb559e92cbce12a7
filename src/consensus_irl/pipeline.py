"""Two-stage consensus procedure.

Stage 1 fits a reward to every demonstration, trajectories are scored against
the stage-1 greedy policy, the low-consensus tail is pruned, and stage 2
refits on the retained subset. The transition kernel is estimated once from
the full set and shared by both stages: pruning targets decision quality, not
environment dynamics, and refitting the kernel on the retained subset would
starve rarely-taken actions. That choice is recorded in the run manifest.

retention_sweep is the one prune-and-refit loop: it fits stage 1 once and
refits stage 2 once per retention fraction. run_two_stage is its
one-fraction case. A result holds the stage-1 scores as columns and the
retained set as one bool mask, both in the order of the fitted trajectories.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest

import numpy as np

from .analyze import reward_delta_by_state
from .errors import CohortEmptyError, SchemaError
from .maxent import IrlConfig, train_maxent_irl, write_training_log
from .mdp import (
    DeterministicPolicy,
    RewardModel,
    TransitionModel,
    estimate_transitions,
    greedy_policy,
)
from .prune import (
    PruneConfig,
    TrajectoryScores,
    read_scores_csv,
    score_trajectories,
    select_retained,
    write_scores_csv,
)
from .table import write_json, write_table
from .trajectories import TrajectorySet
from .version import __version__


@dataclass
class TwoStageResult:
    """Everything both stages produced, plus the per-state comparison.

    scores and the retained mask are in the order of the fitted trajectories.
    """

    transitions: TransitionModel
    reward_stage1: RewardModel
    reward_stage2: RewardModel
    policy_stage1: DeterministicPolicy
    policy_stage2: DeterministicPolicy
    scores: TrajectoryScores
    retained: np.ndarray

    @property
    def n_states(self) -> int:
        return self.reward_stage1.n_states

    @property
    def reward_delta(self) -> np.ndarray:
        return self.reward_stage2.rewards - self.reward_stage1.rewards

    @property
    def policy_agreement(self) -> np.ndarray:
        return self.policy_stage1.actions == self.policy_stage2.actions


def retention_sweep(
    trajectories: TrajectorySet,
    irl_config: IrlConfig,
    prune_config: PruneConfig,
    fractions=(0.2, 0.5, 0.8),
) -> dict[float, TwoStageResult]:
    """Fit and score stage 1 once, then prune and refit once per retention fraction.

    The horizon comes from the full set, so both stages roll out over the same
    number of steps even when pruning removes the longest trajectories. Every
    result shares the kernel, the stage-1 reward and the scores. Each stage 2
    draws its initial-state distribution from its retained set and trains
    from the all-ones start; its config records seed + 1. Every fraction is
    checked before any fitting starts.
    """
    configs = {f: replace(prune_config, retain_fraction=f) for f in fractions}
    if len(trajectories) == 0:
        raise CohortEmptyError("cannot run the two-stage procedure on an empty set")
    transitions = estimate_transitions(trajectories)
    cfg1 = replace(irl_config, horizon=irl_config.horizon or trajectories.max_length())
    reward1 = train_maxent_irl(trajectories, transitions, cfg1, stage="stage1")
    policy1 = greedy_policy(transitions, reward1)
    scores = score_trajectories(trajectories, transitions, reward1, policy1)

    cfg2 = replace(cfg1, seed=cfg1.seed + 1)
    results = {}
    for f, config in configs.items():
        retained = select_retained(scores, config)
        kept = trajectories.subset(retained)
        reward2 = train_maxent_irl(kept, transitions, cfg2, stage="stage2")
        results[f] = _assemble(transitions, reward1, reward2, scores, retained)
    return results


def run_two_stage(
    trajectories: TrajectorySet,
    irl_config: IrlConfig,
    prune_config: PruneConfig,
) -> TwoStageResult:
    """Fit, score, prune, refit: retention_sweep at prune_config's one fraction."""
    f = prune_config.retain_fraction
    return retention_sweep(trajectories, irl_config, prune_config, (f,))[f]


def _assemble(transitions, reward1, reward2, scores, retained) -> TwoStageResult:
    """The result of one fit, with both greedy policies on the shared kernel."""
    policies = (greedy_policy(transitions, reward1), greedy_policy(transitions, reward2))
    return TwoStageResult(transitions, reward1, reward2, *policies, scores, retained)


def load_run_directory(run_dir, trajectories: TrajectorySet) -> TwoStageResult:
    """Rebuild the result of a run from the directory write_run_directory wrote.

    Rewards, scores and the retained set are read back from the directory. The
    shared kernel is not stored, so it is estimated again from `trajectories`,
    and both greedy policies are derived from it. `trajectories` must be the
    set the run was fitted on: SchemaError when its ids are not those of
    scores.csv, in the same order, or when a trajectory's stage-1 end-state
    reward is not exactly the one scores.csv holds for it.
    """
    reward1 = RewardModel.from_json(os.path.join(run_dir, "rewards_stage1.json"))
    reward2 = RewardModel.from_json(os.path.join(run_dir, "rewards_stage2.json"))
    scores, retained = read_scores_csv(os.path.join(run_dir, "scores.csv"))
    if scores.ids != trajectories.ids:
        pairs = list(zip_longest(trajectories.ids, scores.ids))
        i, (given, run) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        raise SchemaError(
            f"{run_dir}: not the trajectories of this run: trajectory {i} is {given!r} "
            f"but {run!r} in scores.csv ({len(trajectories)} given, {len(scores)} scored)"
        )
    trajectories.require_space(reward1.n_states, error=SchemaError)
    given = reward1.rewards[trajectories.end_states]
    stored = scores.end_state_reward
    differ = np.flatnonzero(given != stored)
    if differ.size:
        i = differ[0]
        raise SchemaError(
            f"{run_dir}: not the trajectories of this run: trajectory {trajectories.ids[i]!r} "
            f"ends where the stage-1 reward is {float(given[i])!r}, "
            f"but {float(stored[i])!r} in scores.csv"
        )
    return _assemble(estimate_transitions(trajectories), reward1, reward2, scores, retained)


def write_reward_delta_csv(result: TwoStageResult, path) -> None:
    """The table of reward_delta_by_state, floats as repr and agree as 0/1."""
    table = reward_delta_by_state(result)
    write_table(path, list(table), list(table.values()))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def config_echo(irl_config: IrlConfig, prune_config: PruneConfig) -> dict:
    return {"irl": dataclasses.asdict(irl_config), "prune": dataclasses.asdict(prune_config)}


def write_manifest(out_dir, files: dict, fields: dict) -> dict:
    """Make out_dir, write `files` into it, then write and return manifest.json.

    `files` maps each file name to its writer, called as writer(path). The
    manifest holds the tool, its version, `fields` and a sha256 per file. This
    is the only code that makes a run directory: a caller that computes
    everything first and then calls it once writes nothing when it fails.
    """
    os.makedirs(out_dir, exist_ok=True)
    hashes = {}
    for name, write in files.items():
        path = os.path.join(out_dir, name)
        write(path)
        hashes[name] = sha256_file(path)
    manifest = {"tool": "consensus-irl", "version": __version__, **fields, "hashes": hashes}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def write_run_directory(
    result: TwoStageResult,
    out_dir,
    irl_config: IrlConfig,
    prune_config: PruneConfig,
    trajectories: TrajectorySet,
    extra_manifest: dict | None = None,
    config_json: dict | None = None,
    extra_files: dict | None = None,
) -> dict:
    """Emit the standard run layout and return the manifest dict.

    Files: config.json (echo), rewards_stage1.json, rewards_stage2.json,
    scores.csv, reward_delta.csv, training_log_stage1.csv,
    training_log_stage2.csv, then extra_files ({name: writer}, as for
    write_manifest), and manifest.json. All writers format numbers with repr
    and sort JSON keys, so reruns are byte-identical. config_json, when given,
    replaces the default echo written to config.json (the CLI uses this to
    echo its flat flag namespace).
    """
    echo = config_echo(irl_config, prune_config)
    files = {
        "config.json": partial(write_json, payload=echo if config_json is None else config_json),
        "rewards_stage1.json": result.reward_stage1.to_json,
        "rewards_stage2.json": result.reward_stage2.to_json,
        "scores.csv": partial(
            write_scores_csv, result.scores, result.retained, trajectories=trajectories
        ),
        "reward_delta.csv": partial(write_reward_delta_csv, result),
        "training_log_stage1.csv": partial(write_training_log, result.reward_stage1),
        "training_log_stage2.csv": partial(write_training_log, result.reward_stage2),
        **(extra_files or {}),
    }
    return write_manifest(out_dir, files, {
        "config": echo,
        "seeds": {
            "stage1": result.reward_stage1.metadata.get("seed"),
            "stage2": result.reward_stage2.metadata.get("seed"),
            "prune": prune_config.seed,
        },
        "transition_kernel": "estimated once from all trajectories and shared by both stages",
        "n_trajectories": len(result.scores),
        "n_retained": int(result.retained.sum()),
        "n_pruned": int((~result.retained).sum()),
        **(extra_manifest or {}),
    })
