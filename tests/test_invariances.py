"""Relations the two-stage fit must keep when its input is relabelled or repeated.

The world is the 60-state one of tools/golden.py: 3 actions, branching 4,
H = 12, 600 trajectories with 30 % random-policy demonstrators, seed 2,
retain 0.5, both stages fitted with `sga`. The `lbfgs` relabelling cases
wait for a prior on theta that makes its stage 2 well posed: without one,
its stage-2 rewards move by about 2e-3 under a relabelling.

- Renumbering the states, or the actions, reorders every sum in the passes,
  so rewards may move by rounding. They are rescaled into [-1, 1]; the moves
  measured here are at most 3.4e-16, and TOLERANCE is 1e-13, about 450 ulps
  of 1.0. The smallest gap between a state's two best actions is 1.8e-4, so
  a tolerance that small still catches any change of a greedy action.
- Repeating every trajectory doubles every count and the number of
  trajectories, and each empirical frequency is the same quotient: the
  rewards are bit-equal.
"""

import numpy as np
import pytest

import consensus_irl as ci
from consensus_irl import IrlConfig, PruneConfig, run_two_stage
from consensus_irl.mdp import expected_reward_table

TOLERANCE = 1e-13
N_STATES, N_ACTIONS = 60, 3
IRL = IrlConfig(optimizer="sga", seed=2)
PRUNE = PruneConfig(retain_fraction=0.5, seed=4)
# states whose two best actions are within TOLERANCE of each other in E(s, a),
# per stage: a relabelling may break such a tie either way, so their greedy
# actions are not compared. This world has none.
TIED_STATES = {1: [], 2: []}


@pytest.fixture(scope="module")
def population():
    world = ci.generate_world(N_STATES, N_ACTIONS, 4, seed=2, horizon=12)
    config = ci.PopulationConfig(n_trajectories=600, corrupted_fraction=0.3, seed=2)
    return ci.generate_population(world, config).trajectories


@pytest.fixture(scope="module")
def base(population):
    return run_two_stage(population, IRL, PRUNE)


def _with_triples(tset, triples):
    return ci.TrajectorySet(triples, tset.lengths, tset.ids, N_STATES, N_ACTIONS,
                            tset.demographics, tset.died_in_hospital)


def _stages(result):
    return {1: (result.reward_stage1.rewards, result.policy_stage1.actions),
            2: (result.reward_stage2.rewards, result.policy_stage2.actions)}


def _near_ties(result, stage):
    table = expected_reward_table(result.transitions, getattr(result, f"reward_stage{stage}"))
    best = np.sort(table, axis=1)
    return np.flatnonzero(best[:, -1] - best[:, -2] <= TOLERANCE).tolist()


@pytest.mark.parametrize("stage", [1, 2])
def test_the_world_has_the_named_ties(base, stage):
    assert _near_ties(base, stage) == TIED_STATES[stage]


def test_renumbered_states_permute_the_rewards(population, base):
    renumber = np.random.default_rng(0).permutation(N_STATES)  # old state -> new
    triples = population.triples.copy()
    triples[:, [0, 2]] = renumber[triples[:, [0, 2]]]
    got = run_two_stage(_with_triples(population, triples), IRL, PRUNE)
    assert np.array_equal(got.retained, base.retained)
    for stage, (rewards, actions) in _stages(got).items():
        want_rewards, want_actions = _stages(base)[stage]
        assert np.abs(rewards[renumber] - want_rewards).max() <= TOLERANCE
        compared = np.setdiff1d(np.arange(N_STATES), TIED_STATES[stage])
        assert np.array_equal(actions[renumber][compared], want_actions[compared])


def test_renumbered_actions_keep_the_rewards(population, base):
    renumber = np.array([2, 0, 1])  # old action -> new
    triples = population.triples.copy()
    triples[:, 1] = renumber[triples[:, 1]]
    got = run_two_stage(_with_triples(population, triples), IRL, PRUNE)
    assert np.array_equal(got.retained, base.retained)
    for stage, (rewards, actions) in _stages(got).items():
        want_rewards, want_actions = _stages(base)[stage]
        assert np.abs(rewards - want_rewards).max() <= TOLERANCE
        compared = np.setdiff1d(np.arange(N_STATES), TIED_STATES[stage])
        assert np.array_equal(actions[compared], renumber[want_actions][compared])


def test_every_trajectory_twice_gives_the_same_fit(population, base):
    n, twice = len(population), lambda column: np.concatenate([column, column])
    doubled = ci.TrajectorySet(
        twice(population.triples), twice(population.lengths),
        population.ids + [f"copy of {t}" for t in population.ids], N_STATES, N_ACTIONS,
        {tag: twice(column) for tag, column in population.demographics.items()},
        twice(population.died_in_hospital),
    )
    got = run_two_stage(doubled, IRL, PRUNE)
    for stage, (rewards, actions) in _stages(got).items():
        want_rewards, want_actions = _stages(base)[stage]
        assert rewards.tobytes() == want_rewards.tobytes()
        assert np.array_equal(actions, want_actions)
    assert np.array_equal(got.retained[:n], base.retained)
    assert np.array_equal(got.retained[n:], base.retained)
