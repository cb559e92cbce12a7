"""Trajectory scoring against the consensus policy and retained-set selection.

Each trajectory gets three scores against the stage-1 consensus:
  L  - mean expected reward loss: the per-step average gap between the
       greedy action's expected reward and the taken action's,
  C  - deviation score, the geometric mean of exp(r_sel - r_opt) per step,
       which collapses algebraically to exp(-L),
  l  - log-likelihood of the on-policy steps only (off-policy steps
       contribute nothing, so a fully off-policy trajectory scores 0, the
       maximum; that known quirk is preserved as defined and flagged).

Selection keeps the top ceil(f*N) by C (deviation), everything above a
log-likelihood cutoff (likelihood), or a seeded uniform sample (random).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CohortEmptyError, ParameterError
from .mdp import DeterministicPolicy, RewardModel, TransitionModel, expected_reward_table
from .trajectories import Trajectory, TrajectorySet

METHODS = ("deviation", "likelihood", "random")


@dataclass
class TrajectoryScore:
    trajectory_id: str
    L: float
    C: float
    log_likelihood: float
    end_state_reward: float
    fully_off_policy: bool = False


@dataclass
class PruneConfig:
    """How to choose the retained subset.

    retain_fraction drives the deviation and random methods and, when neither
    a percentile nor a threshold is given, the likelihood method (as
    percentile = 100 * retain_fraction). Supplying both a percentile and a
    threshold is rejected.
    """

    method: str = "deviation"
    retain_fraction: float = 0.5
    likelihood_percentile: float | None = None
    likelihood_threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown prune method {self.method!r}")
        if not (0.0 < self.retain_fraction <= 1.0):
            raise ParameterError("retain_fraction must be in (0, 1]")
        if self.likelihood_percentile is not None and self.likelihood_threshold is not None:
            raise ParameterError("give a likelihood percentile or a threshold, not both")
        if self.method != "likelihood" and (
            self.likelihood_percentile is not None or self.likelihood_threshold is not None
        ):
            raise ParameterError("likelihood cutoffs only apply to method='likelihood'")
        if self.likelihood_percentile is not None and not (0 < self.likelihood_percentile <= 100):
            raise ParameterError("likelihood_percentile must be in (0, 100]")
        if self.likelihood_threshold is not None and self.likelihood_threshold <= 0:
            raise ParameterError("likelihood_threshold must be a positive probability")


def score_deviation(
    trajectory: Trajectory,
    transitions: TransitionModel,
    reward: RewardModel,
    policy: DeterministicPolicy,
) -> TrajectoryScore:
    """Score one trajectory's per-step deviation from the greedy consensus.

    Per step t: r_opt = E(s_t, policy(s_t)), r_sel = E(s_t, a_t).
    L = mean(r_opt - r_sel); C = exp(mean(r_sel - r_opt)) = exp(-L).
    The end-state reward is R at the trajectory's final next state.
    """
    return score_trajectories(_set_of_one(trajectory, transitions), transitions, reward, policy)[0]


def score_likelihood(
    trajectory: Trajectory,
    policy: DeterministicPolicy,
    transitions: TransitionModel,
) -> float:
    """Sum of log P(s,a,s') over exactly the steps where a matches the policy.

    A zero-probability on-policy transition yields -inf. A trajectory with no
    on-policy steps returns 0.0 (the empty product), emulating the indicator
    formula as written.
    """
    log_likelihood, _ = _log_likelihoods(_set_of_one(trajectory, transitions), policy, transitions)
    return float(log_likelihood[0])


def _set_of_one(trajectory: Trajectory, transitions: TransitionModel) -> TrajectorySet:
    if len(trajectory) == 0:
        raise ParameterError(f"trajectory {trajectory.id} has no steps")
    return TrajectorySet([trajectory], transitions.n_states, transitions.n_actions)


def _log_likelihoods(trajectories, policy, transitions):
    """(score_likelihood, no on-policy step) per trajectory of the set."""
    s, a, sp = trajectories.triples.T
    on_policy = policy.actions[s] == a
    with np.errstate(divide="ignore"):
        log_p = np.log(transitions.probs[s, a, sp])
    on_policy_steps = trajectories.reduce_steps(on_policy, np.sum)
    return trajectories.reduce_steps(log_p, np.sum, where=on_policy), on_policy_steps == 0


def score_trajectories(
    trajectories: TrajectorySet,
    transitions: TransitionModel,
    reward: RewardModel,
    policy: DeterministicPolicy,
) -> list[TrajectoryScore]:
    """Deviation and likelihood scores for every trajectory in the set (see score_deviation)."""
    table = expected_reward_table(transitions, reward)
    s, a = trajectories.triples[:, 0], trajectories.triples[:, 1]
    loss = trajectories.reduce_steps(table[s, policy.actions[s]] - table[s, a], np.mean)
    log_likelihood, off_policy = _log_likelihoods(trajectories, policy, transitions)
    end_reward = reward.rewards[trajectories.end_states]
    return [
        TrajectoryScore(tid, L, math.exp(-L), ll, end, off)
        for tid, L, ll, end, off in zip(
            trajectories.ids,
            loss.tolist(),
            log_likelihood.tolist(),
            end_reward.tolist(),
            off_policy.tolist(),
        )
    ]


def select_retained(
    scores: list[TrajectoryScore], config: PruneConfig
) -> tuple[list[str], list[str]]:
    """Partition trajectory ids into (retained, pruned) per the configured method."""
    if not scores:
        raise CohortEmptyError("no scores to select from")
    n = len(scores)
    if config.method == "deviation":
        ranked = sorted(scores, key=lambda sc: (-sc.C, sc.trajectory_id))
        k = math.ceil(config.retain_fraction * n)
        retained = {sc.trajectory_id for sc in ranked[:k]}
    elif config.method == "likelihood":
        # -inf scores are mapped onto the most negative finite float so the
        # linear-interpolation percentile stays well defined
        sentinel = np.finfo(float).min
        lls = np.array([max(sc.log_likelihood, sentinel) for sc in scores])
        if config.likelihood_threshold is not None:
            cutoff = math.log(config.likelihood_threshold)
        else:
            p = config.likelihood_percentile
            if p is None:
                p = 100.0 * config.retain_fraction
            cutoff = float(np.percentile(lls, 100.0 - p))
        retained = {
            sc.trajectory_id for sc, ll in zip(scores, lls) if ll >= cutoff
        }
    else:
        rng = np.random.default_rng(config.seed)
        k = math.ceil(config.retain_fraction * n)
        ids = sorted(sc.trajectory_id for sc in scores)
        picked = rng.choice(n, size=k, replace=False)
        retained = {ids[i] for i in picked}
    if not retained:
        raise CohortEmptyError("selection retained zero trajectories")
    retained_ids = [sc.trajectory_id for sc in scores if sc.trajectory_id in retained]
    pruned_ids = [sc.trajectory_id for sc in scores if sc.trajectory_id not in retained]
    return retained_ids, pruned_ids


def read_scores_csv(path) -> tuple[list[TrajectoryScore], list[str]]:
    """Inverse of write_scores_csv: (scores, retained ids), extras ignored."""
    scores = []
    retained = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            sc = TrajectoryScore(
                trajectory_id=row["trajectory_id"],
                L=float(row["L"]),
                C=float(row["C"]),
                log_likelihood=float(row["log_likelihood"]),
                end_state_reward=float(row["end_state_reward"]),
                fully_off_policy=bool(int(row["fully_off_policy"])),
            )
            scores.append(sc)
            if int(row["retained"]):
                retained.append(sc.trajectory_id)
    return scores, retained


def write_scores_csv(
    scores: list[TrajectoryScore],
    retained_ids,
    path,
    trajectories: TrajectorySet | None = None,
) -> None:
    """Scores CSV with a retained flag; demographic tags copied through when available."""
    retained = set(retained_ids)
    tags = trajectories.demographic_tags() if trajectories is not None else []
    row_of = {}
    if trajectories is not None:
        row_of = dict(zip(trajectories.ids, range(len(trajectories))))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [
            "trajectory_id",
            "L",
            "C",
            "log_likelihood",
            "end_state_reward",
            "retained",
            "fully_off_policy",
        ] + tags
        if trajectories is not None:
            header.append("died_in_hospital")
        writer.writerow(header)
        for sc in scores:
            row = [
                sc.trajectory_id,
                repr(sc.L),
                repr(sc.C),
                repr(sc.log_likelihood),
                repr(sc.end_state_reward),
                int(sc.trajectory_id in retained),
                int(sc.fully_off_policy),
            ]
            i = row_of.get(sc.trajectory_id)
            if i is None:
                row += [""] * len(tags)
            else:  # csv writes a missing tag (None) as an empty cell
                row += [trajectories.demographics[t][i] for t in tags]
            if trajectories is not None:
                row.append(0 if i is None else int(trajectories.died_in_hospital[i]))
            writer.writerow(row)
