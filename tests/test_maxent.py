"""Backward/forward pass and training checks against literal path enumeration."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from consensus_irl import (
    IrlConfig,
    NumericError,
    ParameterError,
    SoftPolicy,
    TransitionModel,
    empirical_state_visitation,
    expected_state_visitation,
    estimate_transitions,
    generate_population,
    generate_world,
    initial_state_distribution,
    maxent_objective,
    soft_backward_pass,
    train_maxent_irl,
)
from consensus_irl.maxent import write_training_log
from consensus_irl.synth import PopulationConfig

from conftest import make_set, traced_peak

from oracles import (
    central_difference_gradient,
    deterministic_kernel,
    enumeration_objective,
    enumeration_visitation,
    gibbs_path_distribution,
    policy_path_distribution,
    sample_deterministic_demos,
)


def _model(probs):
    probs = np.asarray(probs, dtype=float)
    return TransitionModel.from_dense(probs, np.zeros(probs.shape[:2], dtype=int))


def _demo_set(demos, n_states, n_actions):
    return make_set(demos, [f"d{i}" for i in range(len(demos))], n_states=n_states,
                    n_actions=n_actions)


def _random_stochastic(n_states, n_actions, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))


# ---------------------------------------------------------------- backward pass


def test_single_action_policy_is_one():
    probs = _random_stochastic(3, 1, 0)
    policy = soft_backward_pass(_model(probs), np.array([0.3, -0.2, 0.9]), horizon=4)
    assert np.allclose(policy.probs, 1.0)


def test_identical_action_kernels_give_uniform_policy():
    base = _random_stochastic(4, 1, 1)[:, 0, :]
    probs = np.stack([base, base], axis=1)
    policy = soft_backward_pass(_model(probs), np.linspace(-1, 1, 4), horizon=5)
    assert np.allclose(policy.probs, 0.5, atol=1e-12)


def test_policy_rows_are_distributions():
    for seed in range(4):
        probs = _random_stochastic(5, 3, seed)
        reward = np.random.default_rng(seed).normal(size=5)
        policy = soft_backward_pass(_model(probs), reward, horizon=6)
        assert np.all(policy.probs >= 0)
        assert np.allclose(policy.probs.sum(axis=2), 1.0, atol=1e-12)


def test_last_step_policy_is_softmax_of_arrival_reward(two_state):
    model, rewards = two_state
    policy = soft_backward_pass(model, rewards, horizon=3)
    # At the final step Q(0, a) is just the arrival reward: -1 for staying,
    # +1 for switching.
    expected = np.exp(1.0) / (np.exp(1.0) + np.exp(-1.0))
    assert policy.probs[-1, 0, 1] == pytest.approx(expected, abs=1e-12)
    assert policy.probs[-1, 0, 1] > policy.probs[0, 0, 1] - 1.0  # sanity: finite


def test_backward_pass_matches_gibbs_path_distribution():
    probs, nxt = deterministic_kernel(3, 2, seed=7)
    theta = np.random.default_rng(2).normal(0.0, 1.0, size=3)
    horizon = 4
    policy = soft_backward_pass(_model(probs), theta, horizon)
    for s0 in range(3):
        gibbs = gibbs_path_distribution(nxt, theta, s0, horizon)
        induced = policy_path_distribution(nxt, policy.probs, s0, horizon)
        tv = 0.5 * sum(abs(gibbs[seq] - induced[seq]) for seq in gibbs)
        assert tv <= 1e-8


def test_backward_pass_rejects_bad_horizon(two_state):
    model, rewards = two_state
    with pytest.raises(ParameterError):
        soft_backward_pass(model, rewards, horizon=0)
    with pytest.raises(ParameterError):
        soft_backward_pass(model, np.zeros(5), horizon=3)


# ------------------------------------------------------------------- visitation


def test_empirical_visitation_counts_initial_and_next_states():
    ts = make_set([[[3, 0, 9], [9, 1, 3]]], ["a"], n_states=10, n_actions=2)
    values = empirical_state_visitation(ts)
    assert values[3] == 2.0
    assert values[9] == 1.0
    assert values.sum() == 3.0


def test_empirical_visitation_is_mean_over_trajectories():
    steps = [[3, 0, 9], [9, 1, 3]]
    one = empirical_state_visitation(make_set([steps], ["a"], n_states=10, n_actions=2))
    two = empirical_state_visitation(make_set([steps, steps], ["a", "b"], n_states=10, n_actions=2))
    assert np.array_equal(one, two)


def test_arrival_counts_hold_one_block_of_next_states(rows_400k):
    """Traced peak of the arrival counts on the 400,000-row set, against the 3.2 MB
    intp copy that one bincount of the whole next-state column makes (its peak
    was 3.20 MB): 0.80 MB, one block's column at a time. The unvisited states
    of a fit count them the same way."""
    column_copy = 8 * len(rows_400k.triples)
    assert traced_peak(lambda: empirical_state_visitation(rows_400k)) < 0.4 * column_copy
    kernel = estimate_transitions(rows_400k)
    one_epoch = IrlConfig(epochs=1)
    assert traced_peak(lambda: train_maxent_irl(rows_400k, kernel, one_epoch)) < 0.4 * column_copy


def test_initial_state_distribution():
    tset = make_set(
        [[[0, 0, 1]], [[0, 0, 1]], [[2, 0, 1]], [[1, 0, 2]]], list("abcd"), n_states=3, n_actions=1
    )
    d0 = initial_state_distribution(tset)
    assert np.allclose(d0, [0.5, 0.25, 0.25])


def test_visitation_horizon_zero_returns_initial_distribution():
    probs = _random_stochastic(3, 2, 3)
    policy = soft_backward_pass(_model(probs), np.zeros(3), horizon=4)
    d0 = np.array([0.2, 0.5, 0.3])
    out = expected_state_visitation(_model(probs), SoftPolicy(policy.probs[:0]), d0)
    assert np.allclose(out, d0)


def test_visitation_absorbing_state_accumulates_full_mass():
    probs = np.ones((1, 1, 1))
    policy = soft_backward_pass(_model(probs), np.array([0.4]), horizon=6)
    out = expected_state_visitation(_model(probs), policy, np.array([1.0]))
    assert out[0] == pytest.approx(7.0, abs=1e-12)


def test_visitation_total_mass_is_horizon_plus_one():
    probs = _random_stochastic(6, 3, 9)
    policy = soft_backward_pass(_model(probs), np.random.default_rng(1).normal(size=6), horizon=8)
    d0 = np.full(6, 1 / 6)
    out = expected_state_visitation(_model(probs), policy, d0)
    assert out.sum() == pytest.approx(9.0, abs=1e-10)


def test_visitation_matches_path_enumeration():
    rng = np.random.default_rng(5)
    probs = _random_stochastic(4, 2, 11)
    horizon = 5
    policy_probs = rng.dirichlet(np.ones(2), size=(horizon, 4))
    d0 = rng.dirichlet(np.ones(4))
    from consensus_irl.maxent import SoftPolicy

    ours = expected_state_visitation(_model(probs), SoftPolicy(policy_probs), d0)
    brute = enumeration_visitation(probs, policy_probs, d0, horizon)
    assert np.max(np.abs(ours - brute)) <= 1e-8


def test_visitation_rejects_bad_initial_distribution():
    probs = _random_stochastic(3, 2, 0)
    policy = soft_backward_pass(_model(probs), np.zeros(3), horizon=2)
    with pytest.raises(ParameterError):
        expected_state_visitation(_model(probs), policy, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ParameterError, match="initial distribution length"):
        expected_state_visitation(_model(probs), policy, np.array([1.0]))
    for shape in ((2, 2, 2), (2, 3, 3)):
        with pytest.raises(ParameterError, match="soft policy shape"):
            misshapen = SoftPolicy(np.full(shape, 0.5))
            expected_state_visitation(_model(probs), misshapen, np.ones(3) / 3)


# --------------------------------------------------------------------- gradient


def test_gradient_matches_enumerated_likelihood_derivative():
    """Analytic (empirical - model) gradient vs central differences of the
    literally enumerated MaxEnt log-likelihood on a deterministic kernel."""
    n_states, n_actions, horizon = 4, 2, 4
    probs, nxt = deterministic_kernel(n_states, n_actions, seed=3)
    demos = sample_deterministic_demos(nxt, n_demos=12, horizon=horizon, seed=8)
    ts = _demo_set(demos, n_states, n_actions)
    model = _model(probs)
    theta = np.random.default_rng(4).normal(0.0, 0.7, size=n_states)

    policy = soft_backward_pass(model, theta, horizon)
    d0 = initial_state_distribution(ts)
    analytic = (
        empirical_state_visitation(ts)
        - expected_state_visitation(model, policy, d0)
    )
    numeric = central_difference_gradient(
        lambda th: enumeration_objective(nxt, th, demos, horizon), theta
    )
    rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
    assert rel < 1e-5


def test_objective_matches_enumerated_likelihood():
    """J(theta) and its gradient vs the literally enumerated log-likelihood."""
    n_states, n_actions, horizon = 4, 2, 4
    probs, nxt = deterministic_kernel(n_states, n_actions, seed=3)
    demos = sample_deterministic_demos(nxt, n_demos=12, horizon=horizon, seed=8)
    ts = _demo_set(demos, n_states, n_actions)
    model = _model(probs)
    theta = np.random.default_rng(4).normal(0.0, 0.7, size=n_states)
    empirical = empirical_state_visitation(ts)
    d0 = initial_state_distribution(ts)

    value, grad = maxent_objective(model, theta, empirical, d0, horizon)
    assert value == pytest.approx(enumeration_objective(nxt, theta, demos, horizon), abs=1e-12)
    policy = soft_backward_pass(model, theta, horizon)
    model_visits = expected_state_visitation(model, policy, d0)
    assert np.array_equal(grad, empirical - model_visits)


def test_gradient_zero_when_demos_match_model_symmetry():
    # Two self-looping states visited equally: empirical == model visitation
    # at the uniform init, so training stops before any update.
    probs = np.zeros((2, 2, 2))
    probs[0, :, 0] = 1.0
    probs[1, :, 1] = 1.0
    ts = make_set([[[0, 0, 0]], [[1, 0, 1]]], ["a", "b"], n_states=2, n_actions=2)
    for optimizer in ("sga", "lbfgs"):
        out = train_maxent_irl(ts, _model(probs), IrlConfig(optimizer=optimizer))
        assert out.metadata["epochs_run"] == 0
        assert out.metadata["final_grad_max"] == 0.0
        assert out.metadata["converged"] is True
        assert np.allclose(out.rewards, 1.0)


def test_unvisited_state_has_exactly_zero_gradient():
    ts = make_set([[[0, 0, 1], [1, 0, 0]]], ["a"], n_states=2, n_actions=1)
    model = estimate_transitions(ts, n_states=4, n_actions=1)
    theta = np.array([0.5, -0.3, 0.8, -0.8])
    policy = soft_backward_pass(model, theta, horizon=2)
    d0 = initial_state_distribution(ts, n_states=4)
    grad = (
        empirical_state_visitation(ts, n_states=4)
        - expected_state_visitation(model, policy, d0)
    )
    assert grad[2] == 0.0
    assert grad[3] == 0.0
    out = train_maxent_irl(ts, model, IrlConfig(epochs=5))
    assert out.metadata["unvisited_states"] == [2, 3]


def test_a_state_seen_only_first_is_unvisited():
    # state 2 starts trajectory "a" and is never arrived at; state 3 is never seen
    ts = make_set([[[2, 0, 0], [0, 0, 1]], [[1, 0, 0]]], ["a", "b"], n_states=4, n_actions=1)
    model = estimate_transitions(ts, n_states=4, n_actions=1)
    assert empirical_state_visitation(ts, n_states=4)[2] == 0.5
    for optimizer in ("sga", "lbfgs"):
        out = train_maxent_irl(ts, model, IrlConfig(optimizer=optimizer, epochs=5))
        assert out.metadata["unvisited_states"] == [2, 3]


# --------------------------------------------------------------------- training


def test_training_rewards_live_in_unit_interval(small_population):
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    for optimizer in ("sga", "lbfgs"):
        out = train_maxent_irl(
            pop.trajectories, model, IrlConfig(optimizer=optimizer, epochs=30)
        )
        assert out.rewards.min() >= -1.0 - 1e-12
        assert out.rewards.max() <= 1.0 + 1e-12
        assert out.metadata["optimizer"] == optimizer
        assert out.metadata["epochs_run"] >= 1


def test_training_rescale_is_max_abs(small_population):
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    for optimizer in ("sga", "lbfgs"):
        out = train_maxent_irl(pop.trajectories, model, IrlConfig(optimizer=optimizer, epochs=10))
        assert out.metadata["rescale"] == "max-abs"
        # max-abs rescale touches the peak
        assert np.abs(out.rewards).max() == pytest.approx(1.0)


def test_learning_rate_schedule_is_linear(small_population):
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    cfg = IrlConfig(lr0=0.4, epochs=16, grad_tolerance=0.0)
    out = train_maxent_irl(pop.trajectories, model, cfg)
    log = out.metadata["training_log"]
    assert len(log) == 16
    for row in log:
        assert row["lr"] == pytest.approx(0.4 * (1 - row["epoch"] / 16), abs=1e-15)
    # the epoch cap, not the tolerance, ended training
    assert out.metadata["converged"] is False


def test_lbfgs_converges_deterministically(small_population, tmp_path):
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    cfg = IrlConfig(optimizer="lbfgs", epochs=200)
    a = train_maxent_irl(pop.trajectories, model, cfg)
    b = train_maxent_irl(pop.trajectories, model, cfg)
    meta = a.metadata
    assert meta["converged"] is True
    assert meta["final_grad_max"] < cfg.grad_tolerance
    assert a.rewards.tobytes() == b.rewards.tobytes()
    assert meta["rescale"] == "max-abs"
    # one log row for the starting point, then one per L-BFGS iteration
    log = meta["training_log"]
    assert 1 <= meta["epochs_run"] < cfg.epochs
    assert [row["epoch"] for row in log] == list(range(meta["epochs_run"] + 1))
    assert log[-1]["grad_max"] == meta["final_grad_max"]
    assert all(row["lr"] is None for row in log)
    write_training_log(a, tmp_path / "log.csv")
    lines = (tmp_path / "log.csv").read_text().splitlines()
    assert lines[0] == "epoch,grad_max,lr"
    assert len(lines) == len(log) + 1
    assert all(line.endswith(",") for line in lines[1:])


def test_default_horizon_is_longest_trajectory(small_population):
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    out = train_maxent_irl(pop.trajectories, model, IrlConfig(epochs=2))
    assert out.metadata["horizon"] == pop.trajectories.max_length()


def test_training_is_deterministic(small_population):
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    cfg = IrlConfig(epochs=25)
    a = train_maxent_irl(pop.trajectories, model, cfg)
    b = train_maxent_irl(pop.trajectories, model, cfg)
    assert np.array_equal(a.rewards, b.rewards)


def test_config_rejects_bad_values():
    with pytest.raises(ParameterError):
        IrlConfig(lr0=0.0)
    with pytest.raises(ParameterError):
        IrlConfig(epochs=0)
    with pytest.raises(ParameterError):
        IrlConfig(horizon=0)
    with pytest.raises(ParameterError):
        IrlConfig(optimizer="adam")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="lr0"):
            IrlConfig(lr0=bad)
    for bad in (np.nan, np.inf, -1e-9):
        with pytest.raises(ParameterError, match="grad_tolerance"):
            IrlConfig(optimizer="lbfgs", grad_tolerance=bad)
    # zero stays legal: it runs to the epoch cap
    assert IrlConfig(grad_tolerance=0.0).grad_tolerance == 0.0


def test_seed_does_not_move_the_fit(small_population):
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    a = train_maxent_irl(pop.trajectories, model, IrlConfig(epochs=5, seed=1))
    b = train_maxent_irl(pop.trajectories, model, IrlConfig(epochs=5, seed=2))
    assert a.rewards.tobytes() == b.rewards.tobytes()
    assert (a.metadata["seed"], b.metadata["seed"]) == (1, 2)
    assert "init" not in a.metadata


def test_divergence_raises_numeric_error(small_population):
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    # the largest finite steps drive theta past float range within two epochs
    cfg = IrlConfig(lr0=1e308, epochs=50)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="non-finite"):
            train_maxent_irl(pop.trajectories, model, cfg)


@pytest.mark.parametrize(
    "reward_3, t", [(np.inf, 3), (1e308, 2)], ids=["infinite", "overflowing"]
)
def test_non_finite_value_names_its_step_and_state(reward_3, t):
    """Only state 2's action 1 and state 3's own loop reach state 3.

    An infinite reward there makes Q non-finite at the last step; a reward of
    1e308 is finite at the last step, and adding V = 1e308 overflows one step
    earlier. Either way state 2 is the first state whose value is not finite.
    """
    probs = np.stack([np.eye(4), np.eye(4)], axis=1)
    probs[2, 1] = [0.0, 0.0, 0.0, 1.0]
    model = _model(probs)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as raised:
            soft_backward_pass(model, [0.0, 0.0, 0.0, reward_3], horizon=4)
    assert str(raised.value) == f"soft backward pass: non-finite value at (t={t}, s=2)"


def test_lbfgs_non_finite_objective_raises_numeric_error(small_population, monkeypatch):
    from consensus_irl import maxent

    exact = maxent.maxent_objective
    monkeypatch.setattr(maxent, "maxent_objective", lambda *a: (np.inf, exact(*a)[1]))
    pop = small_population
    model = estimate_transitions(pop.trajectories)
    with pytest.raises(NumericError, match="non-finite"):
        train_maxent_irl(pop.trajectories, model, IrlConfig(optimizer="lbfgs"))


def test_recovers_reward_ranking_on_synthetic_worlds():
    """Trained rewards should rank states like the generating rewards.

    The reward jitter on the 80% zero-reward states is essentially
    unrecoverable ordering, so the median correlation sits only modestly
    above one half even when the positive/zero/negative classes separate
    cleanly.
    """
    rhos = []
    for seed in range(5):
        world = generate_world(100, 4, 10, seed=100 + seed, horizon=20)
        pop = generate_population(
            world,
            PopulationConfig(
                n_trajectories=2000, expert_beta=5.0, corrupted_fraction=0.0, seed=seed
            ),
        )
        model = estimate_transitions(pop.trajectories)
        out = train_maxent_irl(pop.trajectories, model, IrlConfig(epochs=200))
        rho = spearmanr(out.rewards, world.rewards).statistic
        rhos.append(rho)
    assert np.median(rhos) > 0.5
