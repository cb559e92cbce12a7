import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consensus_irl as ci
from consensus_irl.mdp import cell_index
from consensus_irl.synth import _cdf_rows, _inverse_cdf, _step_table

from conftest import make_set, traced_peak


def tset_from_triples(triple_lists, n_states, n_actions):
    return make_set(triple_lists, n_states=n_states, n_actions=n_actions)


def test_estimate_transitions_frequencies():
    # visits of (0,0): twice to 1, once to 2
    tset = tset_from_triples(
        [[(0, 0, 1), (1, 0, 0), (0, 0, 1)], [(0, 0, 2), (2, 0, 0)]], 3, 1
    )
    model = ci.estimate_transitions(tset)
    assert model.probs[0, 0, 1] == pytest.approx(2 / 3)
    assert model.probs[0, 0, 2] == pytest.approx(1 / 3)
    assert model.visit_counts[0, 0] == 3


def test_unseen_pair_gets_self_loop():
    tset = tset_from_triples([[(0, 0, 1)]], 6, 2)
    model = ci.estimate_transitions(tset)
    assert model.probs[5, 1, 5] == 1.0
    assert model.visit_counts[5, 1] == 0


def test_rows_sum_to_one(small_population):
    model = ci.estimate_transitions(small_population.trajectories)
    sums = model.probs.sum(axis=2)
    assert np.abs(sums - 1.0).max() < 1e-9


def test_cell_index_is_exact_past_int32():
    """(s * A + a) * S + s' is 2,499,999,998 here: int32 arithmetic would wrap it."""
    triples = np.array([[49_999, 0, 49_998], [1, 0, 2]], dtype=np.int32)
    cells = cell_index(triples, 50_000, 1)
    assert cells.dtype == np.int64
    assert cells.tolist() == [49_999 * 50_000 + 49_998, 50_002]
    assert triples.tolist() == [[49_999, 0, 49_998], [1, 0, 2]]


def test_estimating_a_kernel_holds_less_than_three_kernels():
    """Traced peak of estimate_transitions over the kernel's nbytes, on a seeded
    100-state, 2,000-trajectory population: 4.23 when the counts were copied to
    floats and the seen rows gathered, 2.43 with the kernel divided in place."""
    world = ci.generate_world(100, 4, 5, seed=3, horizon=20)
    config = ci.PopulationConfig(n_trajectories=2000, corrupted_fraction=0.3, seed=3)
    tset = ci.generate_population(world, config).trajectories
    model = ci.estimate_transitions(tset)
    assert traced_peak(lambda: ci.estimate_transitions(tset)) < 3.0 * model.probs.nbytes


def test_counting_into_the_kernel_holds_less_than_two_kernels():
    """The same ratio where the dense kernel outweighs a block's cell index, 5,000
    trajectories of a 400-state world: 2.03 with integer counts divided into the
    kernel, 1.13 with float counts added into it a block at a time, 0.24 with the
    cells of each block sorted and counted into the non-zeros."""
    world = ci.generate_world(400, 4, 5, seed=3, horizon=20)
    config = ci.PopulationConfig(n_trajectories=5000, corrupted_fraction=0.3, seed=3)
    tset = ci.generate_population(world, config).trajectories
    model = ci.estimate_transitions(tset)
    assert traced_peak(lambda: ci.estimate_transitions(tset)) < 0.5 * model.probs.nbytes


def test_expected_reward_table_two_state(two_state):
    transitions, reward = two_state
    table = ci.expected_reward_table(transitions, reward)
    assert table[0, 0] == pytest.approx(-1.0)
    assert table[0, 1] == pytest.approx(1.0)


def test_expected_reward_zero_everywhere(two_state):
    transitions, _ = two_state
    zero = ci.RewardModel(np.zeros(2))
    assert np.all(ci.expected_reward_table(transitions, zero) == 0.0)


def test_expected_reward_uniform_kernel():
    probs = np.full((4, 1, 4), 0.25)
    model = ci.TransitionModel.from_dense(probs, np.ones((4, 1), dtype=np.int64))
    reward = ci.RewardModel(np.array([0.1, 0.2, 0.3, 0.4]))
    table = ci.expected_reward_table(model, reward)
    assert table == pytest.approx(np.full((4, 1), 0.25))


def test_greedy_policy_two_state(two_state):
    transitions, reward = two_state
    policy = ci.greedy_policy(transitions, reward)
    assert policy.actions[0] == 1


def test_greedy_tie_break_lowest_action():
    # both actions share one kernel: every E(s, a) ties, action 0 must win
    probs = np.zeros((3, 2, 3))
    probs[:, :, 1] = 1.0
    model = ci.TransitionModel.from_dense(probs, np.ones((3, 2), dtype=np.int64))
    reward = ci.RewardModel(np.array([0.3, -0.2, 0.9]))
    assert np.all(ci.greedy_policy(model, reward).actions == 0)


def test_greedy_invariant_under_constant_shift(small_population):
    model = ci.estimate_transitions(small_population.trajectories)
    rng = np.random.default_rng(3)
    base = rng.uniform(-0.5, 0.5, model.n_states)
    p1 = ci.greedy_policy(model, ci.RewardModel(base))
    p2 = ci.greedy_policy(model, ci.RewardModel(base + 0.4))
    assert np.array_equal(p1.actions, p2.actions)


def test_expected_reward_linear_in_reward(small_population):
    model = ci.estimate_transitions(small_population.trajectories)
    rng = np.random.default_rng(4)
    r1 = rng.uniform(-1, 1, model.n_states)
    r2 = rng.uniform(-1, 1, model.n_states)
    a, b = 0.3, -0.6
    combo = ci.expected_reward_table(model, ci.RewardModel(a * r1 + b * r2))
    split = a * ci.expected_reward_table(model, ci.RewardModel(r1)) + \
        b * ci.expected_reward_table(model, ci.RewardModel(r2))
    assert combo == pytest.approx(split, abs=1e-12)


def test_reward_range_validated():
    with pytest.raises(ci.InputError):
        ci.RewardModel(np.array([0.0, 1.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rewards_must_be_finite(bad):
    with pytest.raises(ci.SchemaError, match="not finite"):
        ci.RewardModel(np.array([0.0, bad]))


def test_a_null_reward_read_from_json_is_not_finite(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"rewards": [null, 0.5]}')  # numpy reads null as NaN
    with pytest.raises(ci.SchemaError, match="not finite"):
        ci.RewardModel.from_json(path)


def test_reward_model_json_round_trip(tmp_path):
    reward = ci.RewardModel(np.array([0.25, -1.0, 1.0]), {"stage": "stage1", "seed": 3})
    path = tmp_path / "r.json"
    reward.to_json(path)
    back = ci.RewardModel.from_json(path)
    assert np.array_equal(back.rewards, reward.rewards)
    assert back.metadata == reward.metadata


def test_kernel_is_read_only(small_population):
    model = ci.estimate_transitions(small_population.trajectories)
    for array in (model.probs, model.cells, model.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    bins, cols, vals = model.nonzero
    flat = model.probs.reshape(-1, model.n_states)
    rows, want_cols = np.nonzero(flat)
    assert np.array_equal(cols, want_cols)
    assert np.array_equal(vals, flat[rows, cols])
    # each entry's (s, a) row s * A + a sits at bin a * S + s
    s, a = np.divmod(rows, model.n_actions)
    assert np.array_equal(bins, a * model.n_states + s)


def test_a_kernel_is_its_sorted_non_zeros(small_population):
    model = ci.estimate_transitions(small_population.trajectories)
    dense = model.probs.reshape(-1)
    assert np.array_equal(model.cells, np.flatnonzero(dense))
    assert model.values.tobytes() == dense[model.cells].tobytes()
    back = ci.TransitionModel.from_dense(model.probs, model.visit_counts)
    assert np.array_equal(back.cells, model.cells) and np.array_equal(back.values, model.values)


@pytest.mark.parametrize("cells, values, message", [
    ([1, 0], [1.0, 0.0], "sorted"),
    ([0, 0], [0.5, 0.5], "sorted"),
    ([0, 8], [1.0, 1.0], "in range"),
    ([0, 3], [1.5, -0.5], "negative"),
    ([0], [1.0], "row"),
    ([0, 3], [np.nan, 1.0], "non-finite"),  # a NaN row sum is no distance from 1
    ([0, 3], [np.inf, 1.0], "non-finite"),
])
def test_a_kernel_rejects_bad_non_zeros(cells, values, message):
    with pytest.raises(ci.SchemaError, match=message):
        ci.TransitionModel(2, 1, cells, values, np.zeros((2, 1)))


def _dense_values(probs, rewards, horizon):
    v, q = np.zeros(len(rewards)), None
    for _ in range(horizon):
        q = probs @ (rewards + v)
        v = q.max(axis=1)
    return v, q


@settings(max_examples=12, deadline=None)
@given(
    n_states=st.integers(31, 200).filter(lambda s: s % 64),
    n_actions=st.sampled_from([1, 3, 9]),
    seed=st.integers(0, 2**16),
)
def test_sparse_kernel_products_are_the_dense_products_bit_for_bit(n_states, n_actions, seed):
    """E(s, a), finite_horizon_values, policy_value and the sampler's draws, on a
    garnet world and on the kernel estimated from 30 of its steps (so that most
    rows are unseen self-loops), against the dense kernel's products. No state
    count is a multiple of the 64-state block, and 9 actions are golden's wide
    chain's."""
    world = ci.generate_world(n_states, n_actions, min(4, n_states), seed=seed, horizon=6)
    config = ci.PopulationConfig(n_trajectories=5, corrupted_fraction=0.3, seed=seed)
    estimated = ci.estimate_transitions(
        ci.generate_population(world, config).trajectories, n_states, n_actions
    )
    rng = np.random.default_rng(seed)
    assert (estimated.visit_counts == 0).any()
    for kernel in (world.kernel, estimated):
        probs = kernel.probs
        x = rng.uniform(-1, 1, n_states)
        table = ci.expected_reward_table(kernel, ci.RewardModel(x))
        assert table.tobytes() == (probs @ x).tobytes()
        for got, want in zip(ci.finite_horizon_values(kernel, x, 6), _dense_values(probs, x, 6)):
            assert got.tobytes() == want.tobytes()
        # the sampler: the sparse table's draw is the dense choice(p=...) draw, also
        # for u at every cumulative value of a row
        step_cdf, successors = _step_table(kernel)
        dense_cdf = _cdf_rows(probs).reshape(n_states * n_actions, n_states)
        picked = rng.integers(0, n_states * n_actions, 200)
        rows = np.concatenate([picked, np.repeat(picked, step_cdf.shape[1])])
        u = np.concatenate([rng.random(200), step_cdf[picked].ravel()])
        rows, u = rows[u < 1], u[u < 1]
        want = _inverse_cdf(dense_cdf, rows, u)
        assert np.array_equal(successors[rows, _inverse_cdf(step_cdf, rows, u)], want)
    actions = rng.integers(0, n_actions, n_states)
    probs = world.kernel.probs[np.arange(n_states), actions]
    v = np.zeros(n_states)
    for _ in range(world.horizon):
        v = probs @ (world.rewards + v)
    assert ci.policy_value(world, actions) == float(world.initial_distribution @ v)
