"""Tabular maximum-entropy IRL with a time-indexed soft backward pass.

The reward is parameterized per state (one-hot features), so the feature-
matching gradient is simply the difference between the empirical state
visitation of the demonstrations and the visitation induced by the current
reward. maxent_objective is the one place that computes the exact objective
J(theta) = theta . (mu_emp - d0) - d0 . V_0(theta) and that gradient, from the
two public passes: soft_backward_pass, whose SoftPolicy carries V_0 in .v0,
and expected_state_visitation. Two optimizers fit it, both from the all-ones
start and both through maxent_objective: full-batch gradient ascent ("sga")
steps on its gradient with a linearly decaying learning rate, and L-BFGS
("lbfgs", scipy's L-BFGS-B) minimizes -J.

Both passes run once per evaluation (Ziebart et al., AAAI 2008), and each
step of either is one np.bincount over the kernel's non-zeros
(TransitionModel.nonzero), so a step costs O(nnz) rather than O(S^2 A); the
kernel is kept as those non-zeros only, and no (S, A, S) array is made. Both
work in one action-major layout: the bin of (s, a) is a*S + s, so a step's
values form a contiguous (A, S) block whose reductions over actions run down
its rows, and numpy spends far less per call on those than on the short rows
of an (S, A) block.
The layout moves no result: bincount adds each bin's products in the order
of the non-zero list, whatever the bin's index, and the one sum over actions
keeps the order numpy adds a contiguous row in (_action_sum). The backward
pass adds each (s, a) row's products in column order, which differs from a
dense matvec only in rounding; it takes its log-sum-exp over actions inline,
by the algorithm of scipy.special.logsumexp (1.17), so the values do not
depend on the installed scipy. The forward pass adds the same products in
the same order as a dense contraction. scipy is imported only by the L-BFGS
fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CohortEmptyError, NumericError, ParameterError
from .mdp import RewardModel, TransitionModel
from .table import write_table
from .trajectories import TrajectorySet

OPTIMIZERS = ("sga", "lbfgs")


@dataclass
class IrlConfig:
    """Training knobs for one MaxEnt IRL stage.

    Every fit starts from theta = 1 in each state. horizon=None means
    "longest trajectory in the training set". Under optimizer="lbfgs", epochs
    caps the L-BFGS iterations, grad_tolerance is the only stopping rule and
    lr0 is unused. grad_tolerance=0 runs to the cap. No fit draws random
    numbers: seed is only recorded in the reward's metadata and the manifest.
    """

    optimizer: str = "sga"
    lr0: float = 0.2
    epochs: int = 200
    grad_tolerance: float = 1e-4
    horizon: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ParameterError(f"unknown optimizer {self.optimizer!r}")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ParameterError(f"lr0 must be a finite positive number, got {self.lr0!r}")
        if not (math.isfinite(self.grad_tolerance) and self.grad_tolerance >= 0):
            raise ParameterError(
                f"grad_tolerance must be a finite number >= 0, got {self.grad_tolerance!r}"
            )
        if self.epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if self.horizon is not None and self.horizon < 1:
            raise ParameterError("horizon must be >= 1")


@dataclass
class SoftPolicy:
    """Per-time-step action probabilities pi_t(a | s), shape (horizon, S, A).

    v0 is the soft value V_0 of a policy soft_backward_pass computed, and None
    for a policy built by hand.
    """

    probs: np.ndarray
    v0: np.ndarray | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 3:
            raise ParameterError("soft policy must have shape (horizon, S, A)")

    @property
    def horizon(self) -> int:
        return self.probs.shape[0]


def _reward_vector(reward) -> np.ndarray:
    if isinstance(reward, RewardModel):
        return reward.rewards
    return np.asarray(reward, dtype=float)


def empirical_state_visitation(trajectories: TrajectorySet, n_states=None) -> np.ndarray:
    """Mean per-trajectory state visit counts (initial state plus every next state)."""
    if len(trajectories) == 0:
        raise CohortEmptyError("cannot compute visitation of an empty trajectory set")
    n_states = n_states if n_states is not None else trajectories.n_states
    trajectories.require_space(n_states)
    counts = np.bincount(trajectories.first_states, minlength=n_states)
    return (counts + _arrivals(trajectories, n_states)) / len(trajectories)


def _arrivals(trajectories: TrajectorySet, n_states: int) -> np.ndarray:
    """How many steps arrive at each state, counted one block at a time: a bincount
    of the whole next-state column would convert all of it to intp at once."""
    counts = np.zeros(n_states, dtype=np.int64)
    for _, rows in trajectories.blocks():
        counts += np.bincount(trajectories.id_column(rows, 2), minlength=n_states)
    return counts


def initial_state_distribution(trajectories: TrajectorySet, n_states=None) -> np.ndarray:
    """Empirical frequency of each trajectory's first state."""
    if len(trajectories) == 0:
        raise CohortEmptyError("cannot compute initial distribution of an empty set")
    n_states = n_states if n_states is not None else trajectories.n_states
    trajectories.require_space(n_states)
    return np.bincount(trajectories.first_states, minlength=n_states) / len(trajectories)


def _action_sum(x: np.ndarray) -> np.ndarray:
    """The sum of each column of an (A, S) block, added as numpy adds a row of A.

    numpy adds a contiguous row of fewer than eight terms left to right, as
    adding the block's rows top down does. From eight terms on it sums a row
    pairwise, so there the sums run over a C-contiguous (S, A) copy.
    """
    if len(x) < 8:
        return x.sum(axis=0)
    return np.ascontiguousarray(x.T).sum(axis=1)


def soft_backward_pass(transitions: TransitionModel, reward, horizon: int) -> SoftPolicy:
    """Finite-horizon soft value recursion.

    V_horizon = 0; going backward, Q_t(s,a) = sum_s' P(s,a,s') (R(s') + V_{t+1}(s'))
    and V_t = logsumexp_a Q_t. The returned policy is pi_t(a|s) =
    exp(Q_t(s,a) - V_t(s)), and its v0 is V_0. Rewards are collected on
    arrival at s'.

    Each Q_t is one np.bincount over the kernel's non-zeros into the
    action-major bins a*S + s: it adds the products
    P(s,a,s') (R(s') + V_{t+1}(s')) of each (s, a) row in column order,
    starting from 0, because the non-zero list keeps that order. A dense
    matvec adds the same products in another order, so the two agree to
    rounding, not to the bit.

    The log-sum-exp is computed inline as scipy.special.logsumexp (1.17)
    computes it: with m the maximum over actions, k the number of actions
    equal to it and s the sum of exp(Q - m) over the others,
    V = log1p(s / k) + log(k) + m. m and k are reductions down the rows of
    the (A, S) block, and s adds its terms as scipy's sum over a row of the
    (S, A) block does (_action_sum). A non-finite value raises NumericError.
    """
    r = _reward_vector(reward)
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    if len(r) != transitions.n_states:
        raise ParameterError("reward length does not match transition model")
    n_states, n_actions = transitions.n_states, transitions.n_actions
    bins, cols, vals = transitions.nonzero
    policy = np.empty((horizon, n_actions, n_states))
    v = np.zeros(n_states)
    # the steps after a non-finite one run on, silently, and the check below names it
    with np.errstate(all="ignore"):
        for t in range(horizon - 1, -1, -1):
            q = np.bincount(bins, weights=vals * (r + v)[cols], minlength=n_actions * n_states)
            q = q.reshape(n_actions, n_states)
            m = q.max(axis=0)
            top = q == m
            rest = np.exp(q - m)
            np.putmask(rest, top, 0.0)
            if np.count_nonzero(top) == n_states:
                # no ties, so every k is 1: s / 1 is s, and log(1) = 0 added to
                # log1p(s) >= 0 changes nothing, so skipping both is exact
                v = np.log1p(_action_sum(rest)) + m
            else:
                k = np.count_nonzero(top, axis=0)
                v = np.log1p(_action_sum(rest) / k) + np.log(k) + m
            policy[t] = np.exp(q - v)
    # a finite maximum over actions leaves its policy column finite, and an
    # infinite or NaN one makes it NaN: so the last step with a NaN column, at
    # its lowest state, is the first non-finite value of the pass
    if np.isnan(policy.sum()):
        steps, states = np.nonzero(np.isnan(policy).any(axis=1))
        t = steps.max()
        raise NumericError(
            f"soft backward pass: non-finite value at (t={t}, s={states[steps == t].min()})"
        )
    return SoftPolicy(np.ascontiguousarray(policy.transpose(0, 2, 1)), v)


def expected_state_visitation(
    transitions: TransitionModel,
    policy: SoftPolicy,
    initial_distribution: np.ndarray,
) -> np.ndarray:
    """Forward pass: total expected state visitation mass over t = 0..policy.horizon.

    Each step is one np.bincount over the kernel's non-zeros. The flow
    D_t(s) pi_t(a|s) of each (s, a) sits at its action-major bin a*S + s, in
    one transposed copy of the policy, and the non-zero list keeps its (s, a)
    order, so each s' adds its products (D_t(s) pi_t(a|s)) P(s,a,s') in
    (s, a) order, as the dense contraction np.einsum("s,sa,sap->p", ...) does.
    The terms it skips are zeros, so the result is the same to the bit.
    """
    d = np.asarray(initial_distribution, dtype=float)
    n_states = transitions.n_states
    if d.shape != (n_states,):
        raise ParameterError("initial distribution length does not match transition model")
    if abs(d.sum() - 1.0) > 1e-9 or np.any(d < 0):
        raise ParameterError("initial distribution must be a probability vector")
    if policy.probs.shape[1:] != (n_states, transitions.n_actions):
        raise ParameterError("soft policy shape does not match transition model")
    bins, cols, vals = transitions.nonzero
    pi = np.ascontiguousarray(policy.probs.transpose(0, 2, 1))
    total = d.copy()
    for t in range(policy.horizon):
        # D_{t+1}(s') = sum_{s,a} D_t(s) pi_t(a|s) P(s,a,s')
        flow = (pi[t] * d).ravel()
        d = np.bincount(cols, weights=flow[bins] * vals, minlength=n_states)
        total += d
    return total


def maxent_objective(transitions: TransitionModel, theta, empirical, d0, horizon: int):
    """Exact MaxEnt objective J(theta) and its gradient.

    J(theta) = theta . (empirical - d0) - d0 . V_0(theta), with V_0 from the
    soft backward pass, is the dual of the maximum causal entropy problem: the
    demonstrations' mean arrival reward minus the soft value of their first
    states. For a deterministic kernel it is the mean demonstration
    log-likelihood. J is concave and its gradient is (empirical - model)
    visitation. Returns (J, gradient).

    This is the only evaluation of J and its gradient: sga steps on the
    gradient and lbfgs minimizes -J. Each call runs soft_backward_pass once
    and expected_state_visitation once.
    """
    theta = np.asarray(theta, dtype=float)
    policy = soft_backward_pass(transitions, theta, horizon)
    model = expected_state_visitation(transitions, policy, d0)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite J is the callers' to report
        objective = float(np.dot(theta, empirical - d0) - np.dot(d0, policy.v0))
    return objective, empirical - model


def _rescale_rewards(theta: np.ndarray) -> tuple[np.ndarray, str]:
    """The trained weights divided by their largest magnitude, into [-1, 1]."""
    peak = np.abs(theta).max()
    if peak < 1e-300:
        return np.zeros_like(theta), "degenerate-zero"
    return theta / peak, "max-abs"


def _ascend(theta, empirical, d0, transitions, horizon, config):
    """SGA on maxent_objective's gradient; returns (theta, log rows, updates made)."""
    log_rows = []
    epochs_run = 0
    for k in range(config.epochs):
        grad = maxent_objective(transitions, theta, empirical, d0, horizon)[1]
        grad_max = float(np.abs(grad).max())
        lr = config.lr0 * (1.0 - k / config.epochs)
        log_rows.append((k, grad_max, lr))
        if grad_max < config.grad_tolerance:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            theta = theta + lr * grad
        epochs_run = k + 1
        if not np.all(np.isfinite(theta)):
            raise NumericError(f"maxent training diverged at epoch {k}")
    return theta, log_rows, epochs_run


def _lbfgs(theta, empirical, d0, transitions, horizon, config):
    """L-BFGS-B on -J; returns (theta, log rows, iterations).

    The log has one row for the starting point and one per iteration, each
    with the iterate's max|grad| and no learning rate.
    """
    from scipy.optimize import minimize

    last = {}

    def negative_objective(x):
        value, grad = maxent_objective(transitions, x, empirical, d0, horizon)
        if not np.isfinite(value):
            raise NumericError("maxent training diverged: non-finite L-BFGS objective")
        last["x"], last["grad"] = x.copy(), grad
        return -value, -grad

    log_rows = []

    def log_iterate(x):
        if "x" not in last or not np.array_equal(x, last["x"]):
            negative_objective(x)
        log_rows.append((len(log_rows), float(np.abs(last["grad"]).max()), None))

    log_iterate(theta)
    iterations = 0
    if log_rows[0][1] >= config.grad_tolerance:
        result = minimize(
            negative_objective,
            theta,
            jac=True,
            method="L-BFGS-B",
            callback=log_iterate,
            options={"maxiter": config.epochs, "gtol": config.grad_tolerance, "ftol": 0.0},
        )
        theta, iterations = result.x, int(result.nit)
    return theta, log_rows, iterations


def train_maxent_irl(
    trajectories: TrajectorySet,
    transitions: TransitionModel,
    config: IrlConfig,
    stage: str = "stage1",
) -> RewardModel:
    """Fit a per-state reward by feature matching.

    Training starts from theta = 1 in every state. Both optimizers evaluate
    through maxent_objective, whose gradient is (empirical - model
    visitation). Under sga the step size at epoch k decays linearly,
    eta_k = lr0 * (1 - k / epochs); under lbfgs, L-BFGS-B maximizes J for at
    most `epochs` iterations. Training stops early once max|grad| falls below
    config.grad_tolerance, and the metadata's `converged` says whether it did.
    The final weights are affinely rescaled into [-1, 1]. The metadata's
    `unvisited_states` lists the states no demonstration arrives at, a state
    seen only as a first state among them: the fit gets no arrival evidence
    for their reward.
    """
    if len(trajectories) == 0:
        raise CohortEmptyError("cannot train on an empty trajectory set")
    n_states = transitions.n_states
    horizon = config.horizon if config.horizon is not None else trajectories.max_length()

    empirical = empirical_state_visitation(trajectories, n_states)
    d0 = initial_state_distribution(trajectories, n_states)

    fit = _lbfgs if config.optimizer == "lbfgs" else _ascend
    theta, log_rows, epochs_run = fit(
        np.ones(n_states), empirical, d0, transitions, horizon, config
    )
    grad_max = log_rows[-1][1]

    rewards, rescale = _rescale_rewards(theta)
    unvisited = np.flatnonzero(_arrivals(trajectories, n_states) == 0)
    metadata = {
        "stage": stage,
        "optimizer": config.optimizer,
        "lr0": config.lr0,
        "epochs_requested": config.epochs,
        "epochs_run": epochs_run,
        "final_grad_max": grad_max,
        "grad_tolerance": config.grad_tolerance,
        "converged": grad_max < config.grad_tolerance,
        "horizon": int(horizon),
        "seed": config.seed,
        "rescale": rescale,
        "n_trajectories": len(trajectories),
        "unvisited_states": [int(s) for s in unvisited],
        "training_log": [
            {"epoch": e, "grad_max": g, "lr": lr} for e, g, lr in log_rows
        ],
    }
    return RewardModel(rewards, metadata)


def write_training_log(reward: RewardModel, path) -> None:
    """CSV of (epoch, max|grad|, learning rate) from a RewardModel's metadata.

    The lr cell is empty for lbfgs, which has no learning rate.
    """
    rows = reward.metadata.get("training_log", [])
    write_table(path, ["epoch", "grad_max", "lr"], [
        np.array([row["epoch"] for row in rows], dtype=np.int64),
        np.array([row["grad_max"] for row in rows], dtype=np.float64),
        [None if row["lr"] is None else repr(row["lr"]) for row in rows],
    ])
