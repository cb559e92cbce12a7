"""Relations the two-stage fit must keep when its input is relabelled or repeated.

Two sets, both fitted with `sga` at retain 0.5:

- synthetic: the 60-state world of tools/golden.py, 3 actions, branching 4,
  H = 12, 600 trajectories with 30 % random-policy demonstrators, seed 2;
- clinical: the clinical-shaped set of tests/test_clinical_oracles.py, 151
  trajectories of lengths 1-24 over 30 states, 4 actions, with states 3, 11
  and 29 never visited and action 3 never taken.

The `lbfgs` relabelling cases wait for a prior on theta that makes its
stage 2 well posed: without one, its stage-2 rewards move by about 2e-3
under a relabelling.

- Renumbering the states, or the actions, reorders every sum in the passes,
  so rewards may move by rounding. They are rescaled into [-1, 1]; the moves
  measured here are at most 3.4e-16 (synthetic) and 1.0e-15 (clinical), and
  TOLERANCE is 1e-13, about 450 ulps of 1.0. Greedy actions are compared
  except at the states named in TIED_STATES.
- Repeating every trajectory doubles every count and the number of
  trajectories, and each empirical frequency is the same quotient: the
  stage-1 rewards are bit-equal. Stage 2 is too when the doubled set keeps
  twice as many trajectories, ceil(0.5 * 1200) = 2 * ceil(0.5 * 600). The
  clinical set has 151: its doubled set keeps ceil(0.5 * 302) = 151, not
  2 * 76: of the last trajectory kept, the copy stays and the original goes
  (a tie goes to the lower id, and "copy of p..." sorts before "p..."), and
  stage 2, fitted on 151 trajectories instead of twice 76, moves by 2.5e-3.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import consensus_irl as ci
from consensus_irl import IrlConfig, PruneConfig, run_two_stage
from consensus_irl.mdp import expected_reward_table
from test_clinical_oracles import clinical_shaped

TOLERANCE = 1e-13
IRL = IrlConfig(optimizer="sga", seed=2)
PRUNE = PruneConfig(retain_fraction=0.5, seed=4)
# states whose two best actions are within TOLERANCE of each other in E(s, a),
# per stage: a relabelling may break such a tie either way, so their greedy
# actions are not compared. The synthetic world has none (its smallest gap is
# 1.8e-4); in the clinical set every action of an unvisited state is a
# self-loop, so those states tie exactly (the next smallest gap is 9.6e-5).
TIED_STATES = {"synthetic": {1: [], 2: []}, "clinical": {1: [3, 11, 29], 2: [3, 11, 29]}}
# old action -> new; the clinical one moves the never-taken action 3
ACTION_RENUMBERING = {"synthetic": [2, 0, 1], "clinical": [1, 3, 0, 2]}


def _synthetic():
    world = ci.generate_world(60, 3, 4, seed=2, horizon=12)
    config = ci.PopulationConfig(n_trajectories=600, corrupted_fraction=0.3, seed=2)
    return ci.generate_population(world, config).trajectories


@pytest.fixture(scope="module", params=["synthetic", "clinical"])
def case(request):
    """The set, its fit and what the relations need to know about it."""
    population = _synthetic() if request.param == "synthetic" else clinical_shaped()[0]
    return SimpleNamespace(
        name=request.param, population=population, base=run_two_stage(population, IRL, PRUNE),
        n_states=population.n_states, n_actions=population.n_actions,
        tied=TIED_STATES[request.param],
    )


def _with_triples(case, triples):
    tset = case.population
    return ci.TrajectorySet(triples, tset.lengths, tset.ids, case.n_states, case.n_actions,
                            tset.demographics, tset.died_in_hospital)


def _stages(result):
    return {1: (result.reward_stage1.rewards, result.policy_stage1.actions),
            2: (result.reward_stage2.rewards, result.policy_stage2.actions)}


def _near_ties(result, stage):
    table = expected_reward_table(result.transitions, getattr(result, f"reward_stage{stage}"))
    best = np.sort(table, axis=1)
    return np.flatnonzero(best[:, -1] - best[:, -2] <= TOLERANCE).tolist()


@pytest.mark.parametrize("stage", [1, 2])
def test_the_set_has_the_named_ties(case, stage):
    assert _near_ties(case.base, stage) == case.tied[stage]


def test_renumbered_states_permute_the_rewards(case):
    renumber = np.random.default_rng(0).permutation(case.n_states)  # old state -> new
    triples = case.population.triples.copy()
    triples[:, [0, 2]] = renumber[triples[:, [0, 2]]]
    got = run_two_stage(_with_triples(case, triples), IRL, PRUNE)
    assert np.array_equal(got.retained, case.base.retained)
    for stage, (rewards, actions) in _stages(got).items():
        want_rewards, want_actions = _stages(case.base)[stage]
        assert np.abs(rewards[renumber] - want_rewards).max() <= TOLERANCE
        compared = np.setdiff1d(np.arange(case.n_states), case.tied[stage])
        assert np.array_equal(actions[renumber][compared], want_actions[compared])


def test_renumbered_actions_keep_the_rewards(case):
    renumber = np.array(ACTION_RENUMBERING[case.name])
    triples = case.population.triples.copy()
    triples[:, 1] = renumber[triples[:, 1]]
    got = run_two_stage(_with_triples(case, triples), IRL, PRUNE)
    assert np.array_equal(got.retained, case.base.retained)
    for stage, (rewards, actions) in _stages(got).items():
        want_rewards, want_actions = _stages(case.base)[stage]
        assert np.abs(rewards - want_rewards).max() <= TOLERANCE
        compared = np.setdiff1d(np.arange(case.n_states), case.tied[stage])
        assert np.array_equal(actions[compared], renumber[want_actions][compared])


def test_every_trajectory_twice_gives_the_same_fit(case):
    population, base = case.population, case.base
    n, twice = len(population), lambda column: np.concatenate([column, column])
    doubled = ci.TrajectorySet(
        twice(population.triples), twice(population.lengths),
        population.ids + [f"copy of {t}" for t in population.ids], case.n_states, case.n_actions,
        {tag: twice(column) for tag, column in population.demographics.items()},
        twice(population.died_in_hospital),
    )
    got = run_two_stage(doubled, IRL, PRUNE)
    assert got.reward_stage1.rewards.tobytes() == base.reward_stage1.rewards.tobytes()
    assert np.array_equal(got.policy_stage1.actions, base.policy_stage1.actions)
    assert np.array_equal(got.retained[n:], base.retained)  # each copy, as its original was
    if math.ceil(0.5 * 2 * n) == 2 * math.ceil(0.5 * n):
        assert np.array_equal(got.retained[:n], base.retained)
        assert got.reward_stage2.rewards.tobytes() == base.reward_stage2.rewards.tobytes()
        assert np.array_equal(got.policy_stage2.actions, base.policy_stage2.actions)
    else:  # one short of twice as many kept: one original its base run kept is dropped
        dropped = np.flatnonzero(got.retained[:n] != base.retained)
        assert len(dropped) == 1 and base.retained[dropped[0]]
