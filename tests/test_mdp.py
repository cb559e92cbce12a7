import numpy as np
import pytest

import consensus_irl as ci
from consensus_irl.mdp import cell_index

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
    """The same ratio where the kernel outweighs a block's cell index, 5,000
    trajectories of a 400-state world: 2.03 with integer counts divided into the
    kernel, 1.13 with float counts added into it a block at a time."""
    world = ci.generate_world(400, 4, 5, seed=3, horizon=20)
    config = ci.PopulationConfig(n_trajectories=5000, corrupted_fraction=0.3, seed=3)
    tset = ci.generate_population(world, config).trajectories
    model = ci.estimate_transitions(tset)
    assert traced_peak(lambda: ci.estimate_transitions(tset)) < 1.8 * model.probs.nbytes


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
    model = ci.TransitionModel(probs, np.ones((4, 1), dtype=np.int64))
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
    model = ci.TransitionModel(probs, np.ones((3, 2), dtype=np.int64))
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


def test_reward_model_json_round_trip(tmp_path):
    reward = ci.RewardModel(np.array([0.25, -1.0, 1.0]), {"stage": "stage1", "seed": 3})
    path = tmp_path / "r.json"
    reward.to_json(path)
    back = ci.RewardModel.from_json(path)
    assert np.array_equal(back.rewards, reward.rewards)
    assert back.metadata == reward.metadata


def test_kernel_is_read_only(small_population):
    model = ci.estimate_transitions(small_population.trajectories)
    with pytest.raises(ValueError, match="read-only"):
        model.probs[0, 0, 0] = 0.5
    bins, cols, vals = model.nonzero
    flat = model.probs.reshape(-1, model.n_states)
    rows, want_cols = np.nonzero(flat)
    assert np.array_equal(cols, want_cols)
    assert np.array_equal(vals, flat[rows, cols])
    # each entry's (s, a) row s * A + a sits at bin a * S + s
    s, a = np.divmod(rows, model.n_actions)
    assert np.array_equal(bins, a * model.n_states + s)
