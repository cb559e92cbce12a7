"""Tabular MDP primitives: transition kernel estimation, expected action
rewards, and the greedy consensus policy.

Rewards are per-state and bounded to [-1, 1]; the expected reward of taking
action a in state s is the next-state reward averaged under the kernel,
E(s, a) = sum_s' R(s') * P(s, a, s').
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SchemaError
from .table import write_table
from .trajectories import TrajectorySet

ROW_SUM_TOL = 1e-9


@dataclass
class TransitionModel:
    """Tabular stochastic kernel P(s, a, s') with per-(s, a) visit counts.

    `nonzero` holds the kernel's non-zero entries P(s, a, s') as
    (bins, cols, vals), in the row-major order of its (S*A, S) reshape: bins
    is the bin a*S + s of the entry's (s, a) row in an action-major (A, S)
    block, the layout of the soft backward and forward visitation passes of
    maxent, cols is s' and vals the probability. It is built once, and
    `probs` is made read-only so that it cannot go stale.
    """

    probs: np.ndarray  # (n_states, n_actions, n_states), read-only
    visit_counts: np.ndarray  # (n_states, n_actions) int
    nonzero: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.visit_counts = np.asarray(self.visit_counts, dtype=np.int64)
        if self.probs.ndim != 3 or self.probs.shape[0] != self.probs.shape[2]:
            raise SchemaError("transition kernel must have shape (S, A, S)")
        if np.any(self.probs < 0):
            raise SchemaError("transition kernel has negative entries")
        rows = self.probs.sum(axis=2)
        if np.any(np.abs(rows - 1.0) > ROW_SUM_TOL):
            worst = np.unravel_index(np.argmax(np.abs(rows - 1.0)), rows.shape)
            raise SchemaError(f"transition row {worst} does not sum to 1")
        self.probs.flags.writeable = False
        flat = self.probs.reshape(-1, self.n_states)
        rows, cols = np.nonzero(flat)
        s, a = np.divmod(rows, self.n_actions)
        self.nonzero = (a * self.n_states + s, cols, flat[rows, cols])

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]


@dataclass
class RewardModel:
    """Per-state reward in [-1, 1] plus metadata from the training run."""

    rewards: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.rewards.ndim != 1:
            raise SchemaError("rewards must be a flat per-state vector")
        if np.any(self.rewards < -1.0 - 1e-12) or np.any(self.rewards > 1.0 + 1e-12):
            raise SchemaError("rewards outside [-1, 1]")

    @property
    def n_states(self) -> int:
        return len(self.rewards)

    def to_json(self, path) -> None:
        payload = {"rewards": self.rewards.tolist(), "metadata": self.metadata}
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "RewardModel":
        with open(path) as fh:
            payload = json.load(fh)
        return cls(np.array(payload["rewards"]), payload.get("metadata", {}))


@dataclass
class DeterministicPolicy:
    """One action per state."""

    actions: np.ndarray

    def __post_init__(self):
        self.actions = np.asarray(self.actions, dtype=np.int64)


def estimate_transitions(trajectories: TrajectorySet, n_states=None, n_actions=None) -> TransitionModel:
    """Empirical next-state frequencies per (s, a).

    (s, a) pairs never observed get a deterministic self-loop P(s, a, s) = 1,
    which keeps unseen actions reward-neutral relative to the current state.
    No smoothing is applied to observed rows.

    The counts are accumulated as floats in the kernel's own array, one block
    of trajectories at a time: each block's int64 (s, a, s') cell index is
    added in with np.add.at, so no set-sized index and no integer copy of
    the kernel sit beside it. Counts are exact integers in float64, and one
    in-place division by max(visits, 1) makes each seen cell the division
    count / visits always was, to the bit; an unseen row's counts are all 0.
    """
    n_states = n_states if n_states is not None else trajectories.n_states
    n_actions = n_actions if n_actions is not None else trajectories.n_actions
    trajectories.require_space(n_states, n_actions)
    probs = np.zeros((n_states, n_actions, n_states))
    flat = probs.reshape(-1)  # a view: the counts go straight into the kernel
    for _, rows in trajectories.blocks():  # each block's index goes before the next is built
        np.add.at(flat, cell_index(trajectories.triples[rows], n_states, n_actions), 1.0)
    visit = probs.sum(axis=2)
    probs /= np.maximum(visit, 1.0)[:, :, None]
    unseen_s, unseen_a = np.nonzero(visit == 0)
    probs[unseen_s, unseen_a, unseen_s] = 1.0
    return TransitionModel(probs, visit)


def cell_index(triples, n_states: int, n_actions: int) -> np.ndarray:
    """(s * A + a) * S + s' of each triple, the flat index of its kernel cell: the one
    arithmetic on ids that can pass 2**31, so it is built in int64, from a copy of
    the state column into which the other two are added in place."""
    s, a, sp = triples.T
    cell = s.astype(np.int64)
    cell *= n_actions
    cell += a
    cell *= n_states
    cell += sp
    return cell


def expected_reward_table(model: TransitionModel, reward: RewardModel) -> np.ndarray:
    """E(s, a) = sum_s' R(s') P(s, a, s') for every state-action pair."""
    if reward.n_states != model.n_states:
        raise ParameterError("reward and transition model disagree on n_states")
    return model.probs @ reward.rewards


def greedy_policy(model: TransitionModel, reward: RewardModel) -> DeterministicPolicy:
    """Argmax_a E(s, a) per state; ties broken toward the lowest action index."""
    table = expected_reward_table(model, reward)
    return DeterministicPolicy(np.argmax(table, axis=1))


def write_expected_reward_csv(model: TransitionModel, reward: RewardModel, path) -> None:
    """Debug export of the full E(s, a) table."""
    table = expected_reward_table(model, reward)
    header = ["state"] + [f"action_{a}" for a in range(model.n_actions)]
    write_table(path, header, [np.arange(model.n_states), *table.T])
