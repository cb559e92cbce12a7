"""The MaxEnt passes against their reference loops and dense predecessors.

The backward pass sums each Q_t(s, a) over the kernel's non-zeros and takes
its log-sum-exp inline; it must equal tests/oracles.py's
reference_sparse_backward, a plain loop that adds each row's products in
column order, bit for bit: the policy and V_0. The dense recursion it replaced
adds the same products in another order, so it is held to DENSE_RTOL. The
forward pass, J and its gradient are exact against the dense einsum oracle fed
the package's own policy. The inputs are the conftest worlds, the
clinical-shaped set of test_clinical_oracles.py (lengths 1-24, unused state
ids and an action never taken, which gives rows of exactly tied Q), a
400-state garnet, garnets of 8 to 130 actions and policies built outside the
package.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

import oracles
from consensus_irl import (
    IrlConfig,
    PruneConfig,
    SoftPolicy,
    TrajectorySet,
    TransitionModel,
    empirical_state_visitation,
    estimate_transitions,
    expected_state_visitation,
    generate_population,
    generate_world,
    initial_state_distribution,
    maxent_objective,
    run_two_stage,
    soft_backward_pass,
)
from consensus_irl import maxent
from consensus_irl.synth import PopulationConfig
from test_clinical_oracles import clinical  # noqa: F401  (the clinical-shaped set)


def _thetas(n_states, seed):
    rng = np.random.default_rng(seed)
    return [
        np.ones(n_states),
        rng.normal(0.0, 1.0, n_states),
        rng.uniform(-1.0, 1.0, n_states).round(1),  # repeated values, so tied Q
        rng.normal(0.0, 30.0, n_states),  # saturated softmax, exp underflow
    ]


# The dense matvec and the non-zero sum round differently. The policy's
# relative error is about the absolute error of Q - V, which grows with |Q|: the
# saturated theta (sd 30) reaches 4.6e-13 on the garnet, everything else 1e-13.
DENSE_RTOL = 1e-12


def _assert_passes_match(model, trajectories, thetas, horizon=None):
    horizon = horizon or trajectories.max_length()
    empirical = empirical_state_visitation(trajectories, model.n_states)
    d0 = initial_state_distribution(trajectories, model.n_states)
    for theta in thetas:
        want_policy, want_v0 = oracles.reference_sparse_backward(model.probs, theta, horizon)
        soft = soft_backward_pass(model, theta, horizon)
        policy, v0 = soft.probs, soft.v0
        assert np.array_equal(policy, want_policy)
        assert np.array_equal(v0, want_v0)

        dense_policy, dense_v0 = oracles.reference_soft_backward(model.probs, theta, horizon)
        np.testing.assert_allclose(policy, dense_policy, rtol=DENSE_RTOL, atol=0)
        np.testing.assert_allclose(v0, dense_v0, rtol=DENSE_RTOL, atol=0)

        want_visits = oracles.reference_visitation(model.probs, policy, d0, horizon)
        visits = expected_state_visitation(model, SoftPolicy(policy), d0)
        assert np.array_equal(visits, want_visits)

        J, grad = maxent_objective(model, theta, empirical, d0, horizon)
        assert J == float(theta @ (empirical - d0) - d0 @ want_v0)
        assert np.array_equal(grad, empirical - want_visits)


def _tied_rows(model, theta):
    """Rows of the last step's Q whose maximum is taken by two or more actions."""
    q = model.probs @ theta
    return int(((q == q.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())


@pytest.fixture(scope="module")
def garnet():
    world = generate_world(400, 4, 5, seed=21, horizon=20)
    population = generate_population(world, PopulationConfig(n_trajectories=300, seed=4))
    return world, population.trajectories


def test_conftest_worlds_match_dense_passes(small_world, small_population, two_state):
    trajectories = small_population.trajectories
    thetas = _thetas(small_world.n_states, 0)
    _assert_passes_match(estimate_transitions(trajectories), trajectories, thetas)
    world_kernel = small_world.kernel
    _assert_passes_match(world_kernel, trajectories, thetas)

    model, reward = two_state
    demos = TrajectorySet([[0, 1, 1], [1, 0, 1], [0, 0, 0]], [2, 1], ["a", "b"])
    _assert_passes_match(model, demos, [reward.rewards, np.zeros(2)], horizon=4)


def test_clinical_shaped_set_matches_dense_passes(clinical):  # noqa: F811
    tset, scoring_kernel, _, _ = clinical
    thetas = _thetas(tset.n_states + 2, 1)
    wide = estimate_transitions(tset, tset.n_states + 2, tset.n_actions + 1)
    assert all(_tied_rows(wide, theta) for theta in thetas)
    _assert_passes_match(wide, tset, thetas)
    _assert_passes_match(scoring_kernel, tset, [theta[:-2] for theta in thetas])


def test_400_state_garnet_matches_dense_passes(garnet):
    world, trajectories = garnet
    thetas = _thetas(world.n_states, 2)[1::2]
    _assert_passes_match(estimate_transitions(trajectories, 400, 4), trajectories, thetas)
    world_kernel = world.kernel
    _assert_passes_match(world_kernel, trajectories, thetas[:1])


@pytest.mark.parametrize("n_actions", [8, 9, 16, 130])
def test_wide_action_spaces_match_dense_passes(n_actions):
    """From eight actions on, numpy sums a row pairwise, and past 128 it also
    splits the row in two; the sum over actions must keep that order at every
    width. The estimated kernel's unobserved actions loop in place, which ties
    their Q values."""
    n_states = 10 if n_actions > 16 else 30
    world = generate_world(n_states, n_actions, 4, seed=n_actions, horizon=8)
    config = PopulationConfig(n_trajectories=200, seed=5)
    trajectories = generate_population(world, config).trajectories
    thetas = _thetas(n_states, n_actions)
    estimated = estimate_transitions(trajectories, n_states, n_actions)
    assert any(_tied_rows(estimated, theta) for theta in thetas)
    _assert_passes_match(estimated, trajectories, thetas)
    world_kernel = world.kernel
    _assert_passes_match(world_kernel, trajectories, thetas)


def test_dense_backward_pass_takes_the_same_decisions(small_population, monkeypatch):
    """Two 200-epoch sga stages: the O(nnz) pass against the dense recursion.

    Only rounding separates the two, so the retained set and both greedy
    policies are the same, and the rescaled rewards agree to DENSE_RTOL.
    """
    trajectories = small_population.trajectories
    configs = IrlConfig(optimizer="sga"), PruneConfig(retain_fraction=0.5)
    shipped = run_two_stage(trajectories, *configs)

    def dense(transitions, reward, horizon):
        rewards = maxent._reward_vector(reward)
        return SoftPolicy(*oracles.reference_soft_backward(transitions.probs, rewards, horizon))

    monkeypatch.setattr(maxent, "soft_backward_pass", dense)
    reference = run_two_stage(trajectories, *configs)

    assert 0 < shipped.retained.sum() < len(trajectories)
    assert np.array_equal(shipped.retained, reference.retained)
    for stage in ("stage1", "stage2"):
        ours, theirs = getattr(shipped, f"reward_{stage}"), getattr(reference, f"reward_{stage}")
        assert ours.metadata["epochs_run"] == theirs.metadata["epochs_run"] == 200
        np.testing.assert_allclose(ours.rewards, theirs.rewards, rtol=DENSE_RTOL, atol=0)
        policy = f"policy_{stage}"
        assert np.array_equal(getattr(shipped, policy).actions, getattr(reference, policy).actions)


def test_outside_policy_visitation_matches_dense_pass(garnet, clinical):  # noqa: F811
    rng = np.random.default_rng(7)
    for model, trajectories in (
        (garnet[0].kernel, garnet[1]),
        (estimate_transitions(clinical[0]), clinical[0]),
    ):
        n_states, n_actions = model.n_states, model.n_actions
        policy = SoftPolicy(rng.dirichlet(np.ones(n_actions), size=(12, n_states)))
        policy.probs[3, : n_states // 2] = np.eye(n_actions)[0]  # deterministic rows
        d0 = initial_state_distribution(trajectories, n_states)
        for horizon in (12, 5):
            got = expected_state_visitation(model, SoftPolicy(policy.probs[:horizon]), d0)
            want = oracles.reference_visitation(model.probs, policy.probs, d0, horizon)
            assert np.array_equal(got, want)


def test_inline_logsumexp_matches_scipy():
    """V_0 at horizon 1 is the log-sum-exp of Q = P r over actions.

    A deterministic kernel sends (s, a) to a state whose reward is the Q
    value wanted, so each row can hold any pattern: 1 to A tied maxima, and
    spreads up to +-700, down to values one ulp apart.
    """
    rng = np.random.default_rng(3)
    n_actions = 5
    pool = np.concatenate(
        [
            rng.uniform(-700.0, 700.0, 40),
            rng.uniform(-1.0, 1.0, 40),
            1.0 + np.arange(8) * np.finfo(float).eps,
            [-700.0, 700.0, 0.0, -0.0],
        ]
    )
    rows, ties = [], []
    for _ in range(600):
        top = int(rng.integers(len(pool)))
        below = np.flatnonzero(pool < pool[top])
        if below.size == 0:
            continue
        k = int(rng.integers(1, n_actions + 1))
        row = np.concatenate([np.full(k, top), rng.choice(below, n_actions - k)])
        rows.append(rng.permutation(row))
        ties.append(k)
    assert set(ties) == set(range(1, n_actions + 1))

    n_states = len(rows)  # more rows than pool values; the spare states earn 0
    rewards = np.zeros(n_states)
    rewards[: len(pool)] = pool
    probs = np.zeros((n_states, n_actions, n_states))
    for s, row in enumerate(rows):
        probs[s, np.arange(n_actions), row] = 1.0
    model = TransitionModel.from_dense(probs, np.zeros((n_states, n_actions), dtype=int))

    q = model.probs @ rewards
    assert np.array_equal(q, pool[rows])
    soft = soft_backward_pass(model, rewards, 1)
    want = logsumexp(q, axis=1)
    assert np.array_equal(soft.v0, want)
    assert np.array_equal(soft.probs[0], np.exp(q - want[:, None]))
