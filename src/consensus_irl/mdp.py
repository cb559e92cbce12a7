"""Tabular MDP primitives: transition kernel estimation, expected action
rewards, and the greedy consensus policy.

Rewards are per-state and bounded to [-1, 1]; the expected reward of taking
action a in state s is the next-state reward averaged under the kernel,
E(s, a) = sum_s' R(s') * P(s, a, s'). A kernel is kept as its non-zeros, and
E is the dense product taken one block of states at a time, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SchemaError
from .table import read_json, write_json, write_table
from .trajectories import TrajectorySet

ROW_SUM_TOL = 1e-9
_STATE_BLOCK = 64  # states per dense block of a kernel product


@dataclass
class TransitionModel:
    """Tabular stochastic kernel P(s, a, s'), kept as its non-zeros, with per-(s, a)
    visit counts.

    `cells` holds the row-major flat index (s*A + a)*S + s' of each non-zero
    entry of the (S, A, S) kernel, sorted, and `values` its probability; both
    are read-only, so nothing derived from them can go stale. `nonzero` holds
    the same entries as (bins, cols, vals) in that order: bins is the bin
    a*S + s of the entry's (s, a) row in an action-major (A, S) block, the
    layout of the soft backward and forward visitation passes of maxent, cols
    is s' and vals the probability.

    Products with the kernel go through `expect`, which densifies one block of
    states at a time, so no (S, A, S) array is ever whole. `probs` builds that
    dense array on demand, for tests and tools; the package does not use it.
    """

    n_states: int
    n_actions: int
    cells: np.ndarray  # int64 flat indices (s*A + a)*S + s', sorted, read-only
    values: np.ndarray  # float64 probability at each cell, read-only
    visit_counts: np.ndarray  # (n_states, n_actions) int
    nonzero: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.cells = np.array(self.cells, dtype=np.int64)
        self.values = np.array(self.values, dtype=float)
        self.visit_counts = np.asarray(self.visit_counts, dtype=np.int64)
        n_states, n_actions = self.n_states, self.n_actions
        if self.cells.ndim != 1 or self.cells.shape != self.values.shape:
            raise SchemaError("transition kernel needs one value per cell")
        if len(self.cells) and not (
            self.cells[0] >= 0 and self.cells[-1] < n_states * n_actions * n_states
            and (self.cells[1:] > self.cells[:-1]).all()
        ):
            raise SchemaError("transition kernel cells must be distinct, sorted and in range")
        if not (np.isfinite(self.values) & (self.values >= 0)).all():
            raise SchemaError("transition kernel has negative or non-finite entries")
        rows, cols = np.divmod(self.cells, n_states)
        sums = np.bincount(rows, weights=self.values, minlength=n_states * n_actions)
        off = np.abs(sums - 1.0)
        if np.any(off > ROW_SUM_TOL):
            worst = divmod(int(np.argmax(off)), n_actions)  # the (s, a) of the row furthest off
            raise SchemaError(f"transition row {worst} does not sum to 1")
        self.cells.flags.writeable = self.values.flags.writeable = False
        s, a = np.divmod(rows, n_actions)
        self.nonzero = (a * n_states + s, cols, self.values)

    @classmethod
    def from_dense(cls, probs, visit_counts) -> "TransitionModel":
        """The kernel of a dense (S, A, S) array."""
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 3 or probs.shape[0] != probs.shape[2]:
            raise SchemaError("transition kernel must have shape (S, A, S)")
        cells = np.flatnonzero(probs)
        return cls(probs.shape[0], probs.shape[1], cells, probs.reshape(-1)[cells], visit_counts)

    @property
    def probs(self) -> np.ndarray:
        """The dense (S, A, S) kernel: zeros with the values scattered at their cells,
        built on each call, read-only."""
        dense = np.zeros(self.n_states * self.n_actions * self.n_states)
        dense[self.cells] = self.values
        dense.flags.writeable = False
        return dense.reshape(self.n_states, self.n_actions, self.n_states)

    def expect(self, x: np.ndarray) -> np.ndarray:
        """sum_s' P(s, a, s') x(s') for every (s, a), as an (S, A) array.

        This is the dense product kernel @ x, taken one (B, A, S) block of
        _STATE_BLOCK states at a time. matmul makes one (A, S) matrix-vector
        product per state, so every state's row gets the bits the whole dense
        product gives it, whichever block it is in. A sum over the non-zeros
        (np.bincount) would add in another order and differ in the last bits.
        """
        n_states, width = self.n_states, self.n_actions * self.n_states
        out = np.empty((n_states, self.n_actions))
        block = np.zeros((min(_STATE_BLOCK, n_states), self.n_actions, n_states))
        starts = range(0, n_states, _STATE_BLOCK)
        bounds = np.searchsorted(self.cells, np.array([*starts, n_states]) * width)
        for lo, first, last in zip(starts, bounds, bounds[1:]):
            hi, at = min(lo + _STATE_BLOCK, n_states), self.cells[first:last] - lo * width
            block.reshape(-1)[at] = self.values[first:last]
            out[lo:hi] = block[: hi - lo] @ x
            block.reshape(-1)[at] = 0.0  # one buffer serves every block
        return out


@dataclass
class RewardModel:
    """Per-state reward in [-1, 1] plus metadata from the training run."""

    rewards: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.rewards.ndim != 1:
            raise SchemaError("rewards must be a flat per-state vector")
        if not (np.abs(self.rewards) <= 1.0 + 1e-12).all():  # NaN fails it
            raise SchemaError("rewards not finite or outside [-1, 1]")

    @property
    def n_states(self) -> int:
        return len(self.rewards)

    def to_json(self, path) -> None:
        write_json(path, {"rewards": self.rewards, "metadata": self.metadata}, indent=None)

    @classmethod
    def from_json(cls, path) -> "RewardModel":
        payload = read_json(path)
        return cls(payload["rewards"], payload.get("metadata", {}))


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

    The cells are counted one block of trajectories at a time: each block's
    int64 (s, a, s') cell index is counted by np.unique, and its distinct
    cells merge with those so far, so what counting holds beside the set is
    one block's index and the non-zeros, never a dense count array. Each seen
    cell's probability is the division count / visits, in float64, that it
    always was.
    """
    n_states = n_states if n_states is not None else trajectories.n_states
    n_actions = n_actions if n_actions is not None else trajectories.n_actions
    trajectories.require_space(n_states, n_actions)
    cells, counts = np.zeros(0, dtype=np.int64), np.zeros(0)
    for _, rows in trajectories.blocks():  # each block's index goes before the next is built
        block = cell_index(trajectories.triples[rows], n_states, n_actions)
        found, n = np.unique(block, return_counts=True)
        cells, at = np.unique(np.concatenate([cells, found]), return_inverse=True)
        counts = np.bincount(at, weights=np.concatenate([counts, n]))
    rows = cells // n_states
    visit = np.bincount(rows, weights=counts, minlength=n_states * n_actions)
    values = counts / visit[rows]
    # an unseen row s*A + a holds one cell, its self-loop (s*A + a)*S + s
    unseen = np.flatnonzero(visit == 0)
    loops = unseen * n_states + unseen // n_actions
    at = np.searchsorted(cells, loops)
    cells, values = np.insert(cells, at, loops), np.insert(values, at, 1.0)
    return TransitionModel(n_states, n_actions, cells, values, visit.reshape(n_states, n_actions))


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
    return model.expect(reward.rewards)


def greedy_policy(model: TransitionModel, reward: RewardModel) -> DeterministicPolicy:
    """Argmax_a E(s, a) per state; ties broken toward the lowest action index."""
    table = expected_reward_table(model, reward)
    return DeterministicPolicy(np.argmax(table, axis=1))


def write_expected_reward_csv(model: TransitionModel, reward: RewardModel, path) -> None:
    """Debug export of the full E(s, a) table."""
    table = expected_reward_table(model, reward)
    header = ["state"] + [f"action_{a}" for a in range(model.n_actions)]
    write_table(path, header, [np.arange(model.n_states), *table.T])
