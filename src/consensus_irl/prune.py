"""Trajectory scoring against the consensus policy and retained-set selection.

score_trajectories scores every trajectory of a set against the stage-1
consensus and returns the scores as columns, one entry per trajectory in the
set's order:
  L  - mean expected reward loss: the per-step average gap between the
       greedy action's expected reward and the taken action's,
  C  - deviation score, the geometric mean of exp(r_sel - r_opt) per step,
       which collapses algebraically to exp(-L),
  l  - log-likelihood of the on-policy steps only (off-policy steps
       contribute nothing, so a fully off-policy trajectory scores 0, the
       maximum; that known quirk is preserved as defined and flagged).

select_retained returns the retained set as one boolean mask in that same
order. It keeps the top ceil(f*N) by C, ties broken by id (deviation),
everything above a log-likelihood cutoff (likelihood), or a seeded uniform
sample drawn over the id-sorted order (random).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CohortEmptyError, ParameterError
from .mdp import (
    DeterministicPolicy, RewardModel, TransitionModel, cell_index, expected_reward_table,
)
from .table import BINARY, NUMBER, read_table, write_table
from .trajectories import TrajectorySet

METHODS = ("deviation", "likelihood", "random")


@dataclass(eq=False)
class TrajectoryScores:
    """The scores of a set's trajectories as columns, in the set's order.

    L, C, log_likelihood and end_state_reward are float64 arrays and
    fully_off_policy a bool array, each with one entry per id.
    """

    ids: list[str]
    L: np.ndarray
    C: np.ndarray
    log_likelihood: np.ndarray
    end_state_reward: np.ndarray
    fully_off_policy: np.ndarray

    def __post_init__(self):
        self.ids = list(self.ids)
        for name in ("L", "C", "log_likelihood", "end_state_reward", "fully_off_policy"):
            kind = bool if name == "fully_off_policy" else float
            column = np.asarray(getattr(self, name), dtype=kind)
            if column.shape != (len(self.ids),):
                raise ParameterError(f"scores column {name} must hold one value per id")
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)


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


def _log_likelihoods(trajectories, policy, transitions):
    """(log-likelihood of the on-policy steps, no on-policy step) per trajectory of the set.

    A zero-probability on-policy transition yields -inf. A trajectory with no
    on-policy steps gets 0.0 (the empty product), emulating the indicator
    formula as written.
    """
    def on_policy(rows):  # each block's mask is made once
        return policy.actions[trajectories.id_column(rows, 0)] == trajectories.triples[rows, 1]

    # P(s, a, s') of a cell is the value at its place in the sorted cells, which
    # lies among its (s, a) row's cells, firsts[r] up to firsts[r + 1]; an absent
    # cell reads the 0 appended after the last value
    cells, values = transitions.cells, np.append(transitions.values, 0.0)
    n_states, n_actions = transitions.n_states, transitions.n_actions
    firsts = np.searchsorted(cells, np.arange(n_states * n_actions + 1) * n_states)
    widths = np.diff(firsts)  # every row holds at least one cell
    widest = int(widths.max(initial=1))

    def log_p(rows, keep):  # at the on-policy steps
        cell = cell_index(trajectories.triples[rows][keep], n_states, n_actions)
        row = cell // n_states
        first, width = firsts[row], widths[row]
        # a binary search of each row's few cells: before[i], the number of them
        # below cell[i], found one halving of the widest row at a time
        before = np.zeros(len(cell), dtype=np.intp)
        step = 1 << (widest.bit_length() - 1)
        while step:
            probe = np.minimum(before + step, width)
            before = np.where(cells.take(first + probe - 1) < cell, probe, before)
            step >>= 1
        at = first + before
        at[cells.take(at, mode="clip") != cell] = len(cells)
        with np.errstate(divide="ignore"):
            return np.log(values[at])

    log_likelihood, on_policy_steps = trajectories.reduce_steps(log_p, np.sum, where=on_policy)
    return log_likelihood, on_policy_steps == 0


def score_trajectories(
    trajectories: TrajectorySet,
    transitions: TransitionModel,
    reward: RewardModel,
    policy: DeterministicPolicy,
) -> TrajectoryScores:
    """Deviation and likelihood scores of every trajectory in the set, as columns.

    Per step t: r_opt = E(s_t, policy(s_t)), r_sel = E(s_t, a_t).
    L = mean(r_opt - r_sel); C = exp(mean(r_sel - r_opt)) = exp(-L), taken
    with math.exp per trajectory (np.exp rounds some values differently).
    The end-state reward is R at the trajectory's final next state.
    """
    table = expected_reward_table(transitions, reward)
    greedy = table[np.arange(len(table)), policy.actions]  # r_opt of each state

    def gap(rows):
        s = trajectories.id_column(rows, 0)
        return greedy[s] - table[s, trajectories.id_column(rows, 1)]

    loss = trajectories.reduce_steps(gap, np.mean)
    log_likelihood, off_policy = _log_likelihoods(trajectories, policy, transitions)
    C = np.fromiter(map(math.exp, (-loss).tolist()), dtype=float, count=len(loss))
    end_reward = reward.rewards[trajectories.end_states]
    return TrajectoryScores(trajectories.ids, loss, C, log_likelihood, end_reward, off_policy)


def select_retained(scores: TrajectoryScores, config: PruneConfig) -> np.ndarray:
    """The retained set per the configured method, as a bool mask in the order of scores."""
    n = len(scores)
    if n == 0:
        raise CohortEmptyError("no scores to select from")
    k = math.ceil(config.retain_fraction * n)
    retained = np.zeros(n, dtype=bool)
    if config.method == "deviation":
        # highest C first, ties by id
        retained[np.lexsort((np.array(scores.ids), -scores.C))[:k]] = True
    elif config.method == "likelihood":
        # -inf scores are mapped onto the most negative finite float so the
        # linear-interpolation percentile stays well defined
        lls = np.maximum(scores.log_likelihood, np.finfo(float).min)
        if config.likelihood_threshold is not None:
            cutoff = math.log(config.likelihood_threshold)
        else:
            p = config.likelihood_percentile
            if p is None:
                p = 100.0 * config.retain_fraction
            cutoff = float(np.percentile(lls, 100.0 - p))
        retained = lls >= cutoff
    else:
        rng = np.random.default_rng(config.seed)
        by_id = np.argsort(np.array(scores.ids))
        retained[by_id[rng.choice(n, size=k, replace=False)]] = True
    if not retained.any():
        raise CohortEmptyError("selection retained zero trajectories")
    return retained


def read_scores_csv(path) -> tuple[TrajectoryScores, np.ndarray]:
    """Inverse of write_scores_csv: (scores, retained mask), extras ignored.

    One row per trajectory; the scores are any float (-inf included) and the
    two flags 0 or 1.
    """
    kinds = {
        **dict.fromkeys(("L", "C", "log_likelihood", "end_state_reward"), NUMBER),
        **dict.fromkeys(("fully_off_policy", "retained"), BINARY),
    }
    table = read_table(path, "trajectory_id", kinds, one_row=True)
    retained = table.columns.pop("retained")
    return TrajectoryScores(ids=table.ids, **table.columns), retained


def write_scores_csv(
    scores: TrajectoryScores, retained, path, trajectories: TrajectorySet
) -> None:
    """Scores CSV with a retained flag, the set's demographic tags and death flag.

    scores and the retained mask are in the order of `trajectories`, the set
    that was scored.
    """
    if scores.ids != trajectories.ids:
        raise ParameterError("scores are not those of the given trajectories, in order")
    retained = trajectories.require_mask(retained)
    tags = trajectories.demographic_tags()
    columns = [
        scores.ids,
        scores.L, scores.C, scores.log_likelihood, scores.end_state_reward,
        retained.astype(np.int64),
        scores.fully_off_policy.astype(np.int64),
        # a missing tag (None) is an empty cell
        *(trajectories.demographics[t] for t in tags),
        trajectories.died_in_hospital.astype(np.int64),
    ]
    header = ["trajectory_id", "L", "C", "log_likelihood", "end_state_reward", "retained",
              "fully_off_policy", *tags, "died_in_hospital"]
    write_table(path, header, columns)
