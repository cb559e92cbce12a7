"""Two-stage run on a corrupted synthetic population: fit, score every
trajectory against the greedy consensus, prune the bottom half, refit, and
compare both stages against the ground truth.

Run with:  python3 demos/02_two_stage_pruning.py
"""

import numpy as np

from consensus_irl import (
    IrlConfig,
    PopulationConfig,
    PruneConfig,
    evaluate_recovery,
    generate_population,
    generate_world,
    run_two_stage,
)

world = generate_world(60, 4, branching=5, seed=13, horizon=12)
population = generate_population(
    world, PopulationConfig(n_trajectories=800, corrupted_fraction=0.3, seed=2)
)
print(f"{len(population.trajectories)} trajectories, "
      f"{sum(population.corrupted.values())} corrupted")

result = run_two_stage(
    population.trajectories,
    IrlConfig(epochs=300, lr0=0.5, seed=0),
    PruneConfig(retain_fraction=0.5),
)

# ------------------------------------------------ score separation by label
# C = exp(-L) is 1.0 for perfectly consensus-consistent behavior and decays
# with the mean per-step expected-reward gap. Corrupted trajectories should
# sit visibly lower.
bad = np.array([population.corrupted[tid] for tid in result.scores.ids])
c_good, c_bad = result.scores.C[~bad], result.scores.C[bad]
print(f"\nmean deviation score C: competent {np.mean(c_good):.4f}, corrupted {np.mean(c_bad):.4f}")
print(f"retained {result.retained.sum()}, pruned {(~result.retained).sum()}")

# --------------------------------------------------------- recovery metrics
metrics = evaluate_recovery(world, result, population.corrupted)
print(f"\npruned-set precision {metrics['prune_precision']:.3f}, "
      f"recall {metrics['prune_recall']:.3f} against the corruption labels")
print("stage            spearman   policy agreement   EVD")
for stage in ("stage1", "stage2"):
    print(f"{stage:<12} {metrics['spearman_' + stage]:+12.4f}"
          f"{metrics['policy_agreement_' + stage]:15.3f}"
          f"{metrics['evd_' + stage]:12.4f}")

# ------------------------------------------------- where the reward moved
# States dominated by pruned trajectories are the ones whose learned reward
# should move the most between stages.
moved = np.argsort(-np.abs(result.reward_delta))[:5]
print("\nlargest per-state reward changes (state: stage1 -> stage2):")
for s in moved:
    print(f"  {s:3d}: {result.reward_stage1.rewards[s]:+.3f} -> "
          f"{result.reward_stage2.rewards[s]:+.3f}")
