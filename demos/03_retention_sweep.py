"""Sweep the retention fraction and watch the trade-off: prune too little and
corrupted behavior stays in; prune too much and the second stage starves.

Run with:  python3 demos/03_retention_sweep.py
"""

from consensus_irl import (
    IrlConfig,
    PopulationConfig,
    PruneConfig,
    evaluate_recovery,
    generate_population,
    generate_world,
    retention_sweep,
)

world = generate_world(50, 3, branching=4, seed=23, horizon=10)
population = generate_population(
    world, PopulationConfig(n_trajectories=600, corrupted_fraction=0.3, seed=4)
)
print(f"{len(population.trajectories)} trajectories, "
      f"{sum(population.corrupted.values())} corrupted\n")

results = retention_sweep(
    population.trajectories,
    IrlConfig(epochs=300, lr0=0.5, seed=0),
    PruneConfig(retain_fraction=0.5),
    fractions=(0.2, 0.5, 0.8, 1.0),
)

print("fraction  retained  prune recall  spearman2   EVD2   policy agreement")
for f, result in results.items():
    metrics = evaluate_recovery(world, result, population.corrupted)
    print(f"{f:8.1f}{result.retained.sum():10d}"
          f"{metrics['prune_recall']:14.3f}"
          f"{metrics['spearman_stage2']:+11.3f}"
          f"{metrics['evd_stage2']:7.3f}"
          f"{float(result.policy_agreement.mean()):19.3f}")

# At fraction 1.0 nothing is pruned, so stage 2 is literally stage 1 again
# and the policy agreement column reads 1.000 by construction.
full = results[1.0]
identical = full.reward_stage1.rewards.tobytes() == full.reward_stage2.rewards.tobytes()
print(f"\nfraction 1.0 reproduces stage 1 bitwise: {identical}")
