"""Synthetic world generation, expert populations, and recovery metrics."""

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from consensus_irl import (
    DemographicTag,
    ParameterError,
    PopulationConfig,
    SchemaError,
    RewardModel,
    SyntheticWorld,
    TrajectoryScores,
    PruneConfig,
    evaluate_recovery,
    finite_horizon_values,
    generate_population,
    generate_world,
    policy_value,
    select_retained,
)
from consensus_irl.mdp import DeterministicPolicy, TransitionModel
from consensus_irl.synth import (
    DEATH_REWARD_CUTOFF,
    _inverse_cdf,
    _spawned_uniforms,
    _spearman_rho,
    read_labels_csv,
)

from conftest import traced_peak
from oracles import brute_force_optimal_values, reference_population


# -------------------------------------------------------------------- worlds


def test_minimal_world_invariants():
    world = generate_world(2, 1, 2, seed=0)
    assert np.allclose(world.kernel.probs.sum(axis=2), 1.0, atol=1e-12)
    assert world.rewards.min() >= -1.0
    assert world.rewards.max() <= 1.0


def test_branching_limits_successors(small_world):
    support = (small_world.kernel.probs > 0).sum(axis=2)
    assert support.max() <= small_world.branching
    assert support.min() >= 1
    assert np.allclose(small_world.kernel.probs.sum(axis=2), 1.0, atol=1e-12)


def test_reward_classes_are_tenth_tenth_rest():
    world = generate_world(50, 2, 5, seed=4)
    good = np.sum(world.rewards >= 0.95)
    bad = np.sum(world.rewards <= -0.95)
    near_zero = np.sum(np.abs(world.rewards) <= 0.05)
    assert good == 5
    assert bad == 5
    assert near_zero == 40


def test_world_determinism():
    a = generate_world(12, 3, 4, seed=9)
    b = generate_world(12, 3, 4, seed=9)
    c = generate_world(12, 3, 4, seed=10)
    assert np.array_equal(a.kernel.probs, b.kernel.probs)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.optimal_policy.actions, b.optimal_policy.actions)
    assert not np.array_equal(a.kernel.probs, c.kernel.probs)


def test_world_parameter_validation():
    with pytest.raises(ParameterError):
        generate_world(4, 2, 5, seed=0)  # branching > n_states
    with pytest.raises(ParameterError):
        generate_world(1, 2, 1, seed=0)
    with pytest.raises(ParameterError):
        generate_world(4, 0, 2, seed=0)


def test_value_iteration_matches_policy_enumeration():
    world = generate_world(4, 2, 2, seed=3, horizon=3)
    v0, q0 = finite_horizon_values(world.kernel, world.rewards, horizon=3)
    brute = brute_force_optimal_values(world.kernel.probs, world.rewards, horizon=3)
    assert np.max(np.abs(v0 - brute)) <= 1e-10
    assert np.allclose(v0, q0.max(axis=1), atol=1e-12)


def test_optimal_policy_is_greedy_on_q(small_world):
    assert np.array_equal(
        small_world.optimal_policy.actions, np.argmax(small_world.optimal_q, axis=1)
    )


def test_world_json_round_trip(tmp_path, small_world):
    path = tmp_path / "world.json"
    small_world.to_json(path)
    back = SyntheticWorld.from_json(path)
    assert np.array_equal(back.kernel.probs, small_world.kernel.probs)
    assert np.array_equal(back.rewards, small_world.rewards)
    assert np.array_equal(back.optimal_policy.actions, small_world.optimal_policy.actions)
    assert back.horizon == small_world.horizon
    assert back.seed == small_world.seed


_ARRAYS = ("kernel", "rewards", "optimal_policy", "optimal_q", "initial_distribution")


def _hand_world():
    """A 2-state, 2-action world whose arrays hold the float edge cases of JSON. Its
    kernel is a kernel, so its rows sum to 1 and it holds no -0.0 (a zero is not
    kept); the non-zeros take the edge cases a probability can: the least
    subnormal and a sum that is not its literal."""
    big, sum_ = 1.7976931348623157e308, 0.1 + 0.2
    return SyntheticWorld(
        n_states=2, n_actions=2, branching=2,
        kernel=TransitionModel.from_dense(
            np.array([[[1.0, 5e-324], [sum_, 0.7]], [[0.5, 0.5], [0.0, 1.0]]]), np.zeros((2, 2)),
        ),
        rewards=np.array([-0.0, 0.0]),
        optimal_policy=DeterministicPolicy(np.array([1, 0])),
        optimal_q=np.array([[sum_, sum_], [0.0, big]]), horizon=3,
        initial_distribution=np.array([5e-324, 1.0]), seed=None,
    )


def _tolist_payload(world):
    """The world as json.dumps encoded it through nested Python lists."""
    return {
        "n_states": world.n_states, "n_actions": world.n_actions,
        "branching": world.branching, "probs": world.kernel.probs.tolist(),
        "rewards": world.rewards.tolist(),
        "optimal_policy": world.optimal_policy.actions.tolist(),
        "optimal_q": world.optimal_q.tolist(), "horizon": world.horizon,
        "initial_distribution": world.initial_distribution.tolist(), "seed": world.seed,
    }


@pytest.mark.parametrize("make", [_hand_world, lambda: generate_world(30, 3, 4, seed=7)],
                         ids=["hand", "generated"])
def test_world_json_is_json_dumps_of_nested_lists(tmp_path, make):
    world = make()
    path = tmp_path / "world.json"
    world.to_json(path)
    assert path.read_text() == json.dumps(_tolist_payload(world))


@pytest.mark.parametrize("make", [_hand_world, lambda: generate_world(30, 3, 4, seed=7)],
                         ids=["hand", "generated"])
def test_world_json_arrays_read_as_json_load_reads_them(tmp_path, make):
    path = tmp_path / "world.json"
    make().to_json(path)
    loaded, back = json.loads(path.read_text()), SyntheticWorld.from_json(path)
    for key in _ARRAYS:
        got = getattr(back, key)
        got = got.actions if key == "optimal_policy" else got.probs if key == "kernel" else got
        expected = np.array(loaded["probs" if key == "kernel" else key])
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), key
        assert got.tobytes() == expected.tobytes(), key


@pytest.mark.parametrize("edit, message", [
    (lambda probs: probs.pop(), "shape"),
    (lambda probs: [state.pop() for state in probs], "shape"),
    (lambda probs: probs[3][0].__setitem__(0, probs[3][0][0] + 0.5), "does not sum to 1"),
])
def test_a_world_kernel_must_be_a_kernel(tmp_path, small_world, edit, message):
    path = tmp_path / "world.json"
    small_world.to_json(path)
    payload = json.loads(path.read_text())
    edit(payload["probs"])
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match=message):
        SyntheticWorld.from_json(path)


def test_hand_world_keeps_every_float_bit(tmp_path):
    world = _hand_world()
    world.to_json(tmp_path / "world.json")
    back = SyntheticWorld.from_json(tmp_path / "world.json")
    assert back.kernel.probs.tobytes() == world.kernel.probs.tobytes()
    assert np.signbit(back.rewards).tolist() == [True, False]  # -0.0 is not 0.0
    assert back.seed is None


class TestWorldJsonPeakMemory:
    """A 100-state world's kernel (320 KB) is written and read without one Python
    float per cell. Traced peak over the kernel's nbytes, measured: to_json 13.9
    through nested lists, 1.55 encoded row by row into one text, 0.095 with each
    row's text written as it is made; from_json 5.30 with a float per cell, 2.86
    with one per distinct number."""

    @pytest.fixture(scope="class")
    def world(self):
        return generate_world(100, 4, 5, seed=3, horizon=20)

    def test_to_json_encodes_row_by_row(self, tmp_path, world):
        peak = traced_peak(lambda: world.to_json(tmp_path / "world.json"))
        assert peak < 0.5 * world.kernel.probs.nbytes

    def test_from_json_shares_each_distinct_float(self, tmp_path, world):
        world.to_json(tmp_path / "world.json")
        peak = traced_peak(lambda: SyntheticWorld.from_json(tmp_path / "world.json"))
        assert peak < 4.0 * world.kernel.probs.nbytes


# --------------------------------------------------------------- populations


def test_sampling_holds_one_block_of_draws_at_a_time():
    """Traced peak of generate_population per trajectory, 10,000 trajectories of
    20 steps on a seeded 100-state world: 1,327 bytes with every trajectory's
    uniforms drawn at once, 898 drawn 4,096 trajectories at a time, with the
    CDF tables normalised in place and the range checks on column views, 658
    sampled into int32 triples."""
    world = generate_world(100, 4, 5, seed=3, horizon=20)
    config = PopulationConfig(n_trajectories=10_000, corrupted_fraction=0.3, seed=3)
    assert traced_peak(lambda: generate_population(world, config)) < 780 * 10_000


@pytest.mark.parametrize("n_states, n_actions, dtype", [
    (2**15, 2, np.int16), (2**15 + 1, 2, np.int32),
    (2, 2**15, np.int16), (2, 2**15 + 1, np.int32),
])
def test_sampling_draws_ids_as_narrow_as_the_world_needs(n_states, n_actions, dtype):
    """Every walk starts in the last state, takes the last action and moves to
    state 0: ids up to 32767 are drawn into int16 triples, and 32768 into int32."""
    rows = np.arange(n_states * n_actions)  # every (s, a) row moves to state 0
    world = SyntheticWorld(
        n_states=n_states, n_actions=n_actions, branching=1,
        kernel=TransitionModel(n_states, n_actions, rows * n_states,
                               np.ones(len(rows)), np.zeros((n_states, n_actions))),
        rewards=np.zeros(n_states), optimal_policy=DeterministicPolicy(np.zeros(n_states)),
        optimal_q=np.tile(np.arange(n_actions, dtype=float), (n_states, 1)), horizon=3,
        initial_distribution=np.zeros(n_states), seed=0,
    )
    world.initial_distribution[-1] = 1.0
    config = PopulationConfig(n_trajectories=4, corrupted_fraction=0.0, expert_beta=50.0, seed=1)
    tset = generate_population(world, config).trajectories
    assert tset.triples.dtype == dtype
    assert tset.triples.base is not None  # the sampler's own array, not a copy of it
    steps = [[n_states - 1, n_actions - 1, 0], [0, n_actions - 1, 0], [0, n_actions - 1, 0]]
    assert tset.triples.tolist() == steps * 4


def test_zero_corruption_has_no_labels(small_world):
    pop = generate_population(
        small_world, PopulationConfig(n_trajectories=40, corrupted_fraction=0.0, seed=1)
    )
    assert not any(pop.corrupted.values())


def test_corruption_count_is_exact_ceiling():
    world = generate_world(10, 2, 3, seed=2, horizon=10)
    pop = generate_population(
        world, PopulationConfig(n_trajectories=2000, corrupted_fraction=0.3, seed=3)
    )
    assert sum(pop.corrupted.values()) == 600
    small = generate_population(
        world, PopulationConfig(n_trajectories=7, corrupted_fraction=0.3, seed=3)
    )
    assert sum(small.corrupted.values()) == 3  # ceil(2.1)


def test_huge_beta_tracks_the_optimal_policy(small_world):
    pop = generate_population(
        small_world,
        PopulationConfig(n_trajectories=30, expert_beta=1e6, corrupted_fraction=0.0, seed=7),
    )
    optimal = small_world.optimal_policy.actions
    s, a = pop.trajectories.triples[:, 0], pop.trajectories.triples[:, 1]
    assert np.array_equal(a, optimal[s])


def test_population_respects_world_dimensions(small_population, small_world):
    ts = small_population.trajectories
    assert ts.n_states == small_world.n_states
    assert ts.n_actions == small_world.n_actions
    assert (ts.lengths == small_world.horizon).all()
    assert ts.triples[:, [0, 2]].max() < small_world.n_states
    assert ts.triples[:, 1].max() < small_world.n_actions


def test_population_determinism(small_world):
    cfg = PopulationConfig(n_trajectories=25, corrupted_fraction=0.2, seed=13)
    a = generate_population(small_world, cfg)
    b = generate_population(small_world, cfg)
    assert a.corrupted == b.corrupted
    assert a.trajectories.ids == b.trajectories.ids
    assert np.array_equal(a.trajectories.triples, b.trajectories.triples)
    assert np.array_equal(a.trajectories.lengths, b.trajectories.lengths)
    c = generate_population(small_world, replace(cfg, seed=14))
    assert not np.array_equal(a.trajectories.triples, c.trajectories.triples)


def test_corruption_modes_produce_distinct_behaviour(small_world):
    def corrupted_actions(mode):
        cfg = PopulationConfig(
            n_trajectories=30, corrupted_fraction=0.5, corruption_mode=mode, seed=21
        )
        pop = generate_population(small_world, cfg)
        tset = pop.trajectories
        corrupted = np.array([pop.corrupted[tid] for tid in tset.ids])
        return tset.triples[np.repeat(corrupted, tset.lengths), 1]

    random_a = corrupted_actions("random_policy")
    negated_a = corrupted_actions("negated_reward")
    low_t = corrupted_actions("low_temperature")
    assert not np.array_equal(random_a, negated_a)
    assert not np.array_equal(random_a, low_t)


def test_demographics_attached_and_correlated(small_world):
    tags = [
        DemographicTag("site", ["north", "south"], [0.5, 0.5]),
        DemographicTag("flagged", ["yes", "no"], [0.1, 0.9], corrupted_probs=[1.0, 0.0]),
    ]
    cfg = PopulationConfig(
        n_trajectories=60, corrupted_fraction=0.4, demographics=tags, seed=2
    )
    pop = generate_population(small_world, cfg)
    tags = pop.trajectories.demographics
    assert set(tags["site"].tolist()) <= {"north", "south"}
    for tid, flagged in zip(pop.trajectories.ids, tags["flagged"].tolist()):
        if pop.corrupted[tid]:
            assert flagged == "yes"


def test_demographic_tag_validates_distributions():
    with pytest.raises(ParameterError):
        DemographicTag("x", ["a", "b"], [0.7, 0.7])
    with pytest.raises(ParameterError):
        DemographicTag("x", ["a", "b"], [0.5, 0.5], corrupted_probs=[0.9, 0.3])
    with pytest.raises(ParameterError):
        DemographicTag("x", ["a", "b"], [0.5, 0.25, 0.25])
    with pytest.raises(ParameterError):
        DemographicTag("x", ["a", "b"], [0.5, 0.5], corrupted_probs=[1.5, -0.5])
    with pytest.raises(ParameterError):
        DemographicTag("x", [], [])
    with pytest.raises(ParameterError):
        DemographicTag("x", ["a", "b"], [math.nan, 1.0])


TAGS = [
    DemographicTag("site", ["north", "south", "east"], [0.2, 0.5, 0.3]),
    DemographicTag("flagged", [1, 2], [0.1, 0.9], corrupted_probs=[0.8, 0.2]),
]


def sparse_start(world):
    """The world with a start distribution that puts no mass on most states."""
    start = np.zeros(world.n_states)
    start[[1, 4, 5]] = [0.5, 0.2, 0.3]
    return replace(world, initial_distribution=start)


@pytest.mark.parametrize(
    "world, config",
    [
        pytest.param((20, 3, 4, 8), PopulationConfig(300, demographics=TAGS, seed=5),
                     id="random_policy-tags"),
        pytest.param((20, 3, 4, 8), PopulationConfig(
            200, corruption_mode="negated_reward", demographics=TAGS[1:], seed=6),
            id="negated_reward-corrupted-tag"),
        pytest.param((20, 3, 4, 8), PopulationConfig(
            200, corruption_mode="low_temperature", demographics=TAGS[:1], seed=7),
            id="low_temperature-plain-tag"),
        pytest.param((30, 4, 2, 6), PopulationConfig(200, expert_beta=1e6, seed=9),
                     id="zero-probability-successors"),
        pytest.param((12, 2, 3, 10), PopulationConfig(1, demographics=TAGS, seed=10),
                     id="one-trajectory"),
        pytest.param((12, 2, 3, 10), PopulationConfig(
            120, corrupted_fraction=0.0, demographics=TAGS, seed=11), id="no-corruption"),
        pytest.param((12, 2, 3, 10), PopulationConfig(
            120, corrupted_fraction=1.0, demographics=TAGS, seed=12), id="all-corrupted"),
        pytest.param((12, 2, 3, 10), PopulationConfig(80, demographics=TAGS, seed=2**70),
                     id="three-word-seed"),
    ],
)
def test_sampler_reproduces_the_per_step_stream(world, config):
    n_states, n_actions, branching, horizon = world
    world = sparse_start(generate_world(n_states, n_actions, branching, seed=3, horizon=horizon))
    assert (world.kernel.probs == 0).any()
    pop = generate_population(world, config)
    triples, ids, corrupted, demographics, died = reference_population(world, config)
    tset = pop.trajectories
    assert tset.triples.tolist() == triples.reshape(-1, 3).tolist()
    assert tset.lengths.tolist() == [triples.shape[1]] * len(ids)
    assert tset.ids == ids
    assert list(pop.corrupted) == ids
    assert list(pop.corrupted.values()) == corrupted
    assert {t: col.tolist() for t, col in tset.demographics.items()} == demographics
    assert tset.died_in_hospital.tolist() == died


# seeds of one 32-bit entropy word (the largest too), two, three, and five: more
# words than SeedSequence's pool of four
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1])
@pytest.mark.parametrize("k", [1, 41])
def test_child_streams_equal_numpy(seed, k):
    keys = np.array([0, 1, 2, 3, 7, 1000, 2**32 - 1])
    got = _spawned_uniforms(seed, keys, k)
    expected = np.array([
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(key),))).random(k)
        for key in keys
    ])
    assert got.shape == (len(keys), k)
    assert (got.view(np.uint64) == expected.view(np.uint64)).all()
    # the children generate_population takes: spawn numbers 2.. of the root
    children = np.random.SeedSequence(seed).spawn(5)[2:]
    assert [c.spawn_key for c in children] == [(2,), (3,), (4,)]


def test_a_negative_seed_is_a_parameter_error():
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
        PopulationConfig(10, seed=-1)


@pytest.mark.parametrize("width", [1, 2, 5, 8, 13])
def test_inverse_cdf_is_searchsorted_right_per_row(width):
    rng = np.random.default_rng(width)
    p = rng.random((6, width)) * (rng.random((6, width)) < 0.6)
    p[:, -1] += 0.1
    cdf = np.cumsum(p, axis=1) / np.cumsum(p, axis=1)[:, -1:]
    rows = rng.integers(0, 6, size=400)
    u = rng.random(400)
    u[::2] = cdf[rows[::2], rng.integers(0, width, size=200)]  # ties with table entries
    u[u == 1.0] = 0.0
    expected = [np.searchsorted(cdf[r], x, side="right") for r, x in zip(rows, u)]
    assert _inverse_cdf(cdf, rows, u).tolist() == expected


def test_death_label_follows_end_state_reward(small_world, small_population):
    tset = small_population.trajectories
    expected = small_world.rewards[tset.end_states] <= DEATH_REWARD_CUTOFF
    assert np.array_equal(tset.died_in_hospital, expected)


def test_labels_csv_round_trip(tmp_path, small_population):
    path = tmp_path / "labels.csv"
    small_population.write_labels_csv(path)
    assert read_labels_csv(path) == small_population.corrupted


# ------------------------------------------------------------------ recovery


def _perfect_result(world, labels):
    reward = RewardModel(world.rewards)
    return SimpleNamespace(
        reward_stage1=reward,
        reward_stage2=reward,
        policy_stage1=world.optimal_policy,
        policy_stage2=world.optimal_policy,
        scores=SimpleNamespace(ids=list(labels)),
        retained=~np.array(list(labels.values())),
    )


def test_perfect_recovery_metrics(small_world, small_population):
    metrics = evaluate_recovery(
        small_world, _perfect_result(small_world, small_population.corrupted),
        small_population.corrupted,
    )
    assert metrics["spearman_stage1"] == pytest.approx(1.0, abs=1e-12)
    assert metrics["spearman_stage2"] == pytest.approx(1.0, abs=1e-12)
    assert metrics["policy_agreement_stage1"] == 1.0
    assert metrics["evd_stage1"] == pytest.approx(0.0, abs=1e-10)
    assert metrics["evd_stage2"] == pytest.approx(0.0, abs=1e-10)
    assert metrics["prune_precision"] == 1.0
    assert metrics["prune_recall"] == 1.0


def test_spearman_equals_scipy_bit_for_bit():
    """Average ranks and np.corrcoef give scipy.stats.spearmanr's value exactly."""
    from scipy.stats import spearmanr

    rng = np.random.default_rng(8)
    for i in range(200):
        n = int(rng.integers(2, 120))
        if i % 2:  # heavy ties
            x, y = rng.integers(0, 4, n).astype(float), rng.integers(0, 6, n).astype(float)
        else:
            x = rng.normal(size=n)
            y = x + rng.normal(size=n)
        if (x == x[0]).all() or (y == y[0]).all():
            continue
        assert _spearman_rho(x, y) == float(spearmanr(x, y).statistic)


def test_spearman_of_constant_input_is_nan():
    assert math.isnan(_spearman_rho(np.ones(5), np.arange(5.0)))
    assert math.isnan(_spearman_rho(np.arange(5.0), np.full(5, 2.0)))


def test_recovery_rejects_dimension_mismatch(small_world, small_population):
    result = _perfect_result(small_world, small_population.corrupted)
    result.reward_stage1 = RewardModel(np.zeros(small_world.n_states + 1))
    with pytest.raises(ParameterError):
        evaluate_recovery(small_world, result, small_population.corrupted)


def test_policy_value_hand_example():
    probs = np.zeros((2, 1, 2))
    probs[0, 0, 1] = 1.0
    probs[1, 0, 1] = 1.0
    world = SimpleNamespace(
        kernel=TransitionModel.from_dense(probs, np.zeros((2, 1))),
        rewards=np.array([0.0, 1.0]),
        initial_distribution=np.array([0.5, 0.5]),
        horizon=2,
        n_states=2,
    )
    # every path lands in state 1 at both steps: return = 2 from either start
    assert policy_value(world, np.array([0, 0])) == pytest.approx(2.0, abs=1e-12)


def test_random_pruning_recall_matches_uniform_expectation(small_world):
    """Pruning half the set uniformly prunes half the corrupted subset."""
    world = small_world
    recalls = []
    for seed in range(20):
        pop = generate_population(
            world, PopulationConfig(n_trajectories=200, corrupted_fraction=0.3, seed=seed)
        )
        n = len(pop.trajectories)
        scores = TrajectoryScores(
            pop.trajectories.ids, np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n),
            np.zeros(n, dtype=bool),
        )
        cfg = PruneConfig(method="random", retain_fraction=0.5, seed=seed)
        pruned = ~select_retained(scores, cfg)
        corrupted = np.array([pop.corrupted[tid] for tid in scores.ids])
        recalls.append((pruned & corrupted).sum() / corrupted.sum())
    assert abs(float(np.mean(recalls)) - 0.5) <= 0.05


def test_recall_and_precision_degenerate_edges(small_world, small_population):
    result = _perfect_result(small_world, small_population.corrupted)
    result.retained[:] = True
    metrics = evaluate_recovery(small_world, result, small_population.corrupted)
    assert math.isnan(metrics["prune_precision"])
    clean = {tid: False for tid in small_population.corrupted}
    result2 = _perfect_result(small_world, clean)
    metrics2 = evaluate_recovery(small_world, result2, clean)
    assert math.isnan(metrics2["prune_recall"])
