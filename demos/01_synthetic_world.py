"""Build a random tabular world, sample a mixed demonstrator population, and
fit a single-stage reward to see how much a corrupted minority distorts it.

Run with:  python3 demos/01_synthetic_world.py
"""

import numpy as np
from scipy.stats import spearmanr

from consensus_irl import (
    IrlConfig,
    PopulationConfig,
    estimate_transitions,
    generate_population,
    generate_world,
    train_maxent_irl,
)

# ---------------------------------------------------------------- the world
# A garnet-style MDP: every (state, action) pair reaches `branching` random
# successor states with Dirichlet weights, rewards are i.i.d. in [-1, 1].
world = generate_world(30, 3, branching=4, seed=7, horizon=10)
print(f"world: {world.n_states} states, {world.n_actions} actions, horizon {world.horizon}")
print(f"true reward range: [{world.rewards.min():+.3f}, {world.rewards.max():+.3f}]")
print(f"optimal policy (first 10 states): {world.optimal_policy.actions[:10].tolist()}")

# ---------------------------------------------------------- the demonstrators
# 70% of trajectories follow a Boltzmann policy over the true action values;
# the rest pick actions uniformly at random (corruption mode "random_policy").
pop_cfg = PopulationConfig(n_trajectories=500, corrupted_fraction=0.3, seed=1)
population = generate_population(world, pop_cfg)
n_bad = sum(population.corrupted.values())
print(f"\npopulation: {len(population.trajectories)} trajectories, {n_bad} corrupted")

lengths = population.trajectories.lengths
print(f"steps per trajectory: min {lengths.min()}, max {lengths.max()}")

# ------------------------------------------------- kernel estimation quality
kernel = estimate_transitions(population.trajectories)
err = np.abs(kernel.probs - world.kernel.probs).max()
print(f"\nestimated kernel, max abs error vs truth: {err:.4f}")
print(f"visited (state, action) pairs: {(kernel.visit_counts > 0).sum()} / {world.n_states * world.n_actions}")

# ------------------------------------------------------- single-stage reward
# Plain MaxEnt on everything, corrupted demonstrations included. The rank
# correlation with the true reward is the number the two-stage procedure in
# demo 02 tries to protect.
reward = train_maxent_irl(population.trajectories, kernel, IrlConfig(epochs=300, lr0=0.5, seed=0))
rho = spearmanr(reward.rewards, world.rewards).statistic
print(f"\nsingle-stage MaxEnt fit: spearman(learned, true) = {rho:+.3f}")
print(f"learned reward range: [{reward.rewards.min():+.3f}, {reward.rewards.max():+.3f}]")
