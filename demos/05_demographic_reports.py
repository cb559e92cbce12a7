"""Demographic safety checks on a pruning run: does pruning hit one group
disproportionately, and does the stage-2 reward shift differ across groups?

Corruption here is deliberately skewed by sex (85% of corrupted trajectories
are tagged "m"), so the uniformity test should fire for sex and stay quiet
for the independent age_band tag.

Run with:  python3 demos/05_demographic_reports.py
"""

from consensus_irl import (
    DemographicTag,
    IrlConfig,
    PopulationConfig,
    PruneConfig,
    generate_population,
    generate_world,
    holm_correction,
    run_two_stage,
    test_pruning_uniformity,
    test_reward_loss_disparity,
)

world = generate_world(40, 3, branching=4, seed=31, horizon=10)
tags = [
    DemographicTag("sex", ["f", "m"], [0.5, 0.5], corrupted_probs=[0.15, 0.85]),
    DemographicTag("age_band", ["lt65", "ge65"], [0.6, 0.4]),
]
population = generate_population(
    world,
    PopulationConfig(n_trajectories=600, corrupted_fraction=0.3, demographics=tags, seed=6),
)
result = run_two_stage(
    population.trajectories,
    IrlConfig(epochs=250, lr0=0.5, seed=0),
    PruneConfig(retain_fraction=0.6),
)
print(f"pruned {(~result.retained).sum()} of {len(population.trajectories)} trajectories")

# ------------------------------------------- is pruning demographically flat?
uniformity = [
    test_pruning_uniformity(population.trajectories, result.retained, attr,
                            n_permutations=5000, seed=1)
    for attr in ("sex", "age_band")
]
adjusted = holm_correction([t.p_value for t in uniformity])
print("\npruning uniformity (chi-squared, permutation p, Holm-adjusted):")
for t, p_adj in zip(uniformity, adjusted):
    print(f"  {t.name:28s} stat {t.statistic:8.2f}  p {t.p_value:.4f}  holm {p_adj:.4f}")
print(f"  note: {uniformity[0].note}")

# --------------------------------- does the reward shift differ across groups?
omnibus, posthoc = test_reward_loss_disparity(
    population.trajectories,
    result.reward_stage1,
    result.reward_stage2,
    "sex",
    n_permutations=5000,
    seed=2,
)
print(f"\nreward-shift disparity by sex: F {omnibus.statistic:.3f}, p {omnibus.p_value:.4f}")
for pair in posthoc:
    print(f"  {pair.group_a} vs {pair.group_b}: mean difference "
          f"{pair.mean_difference:+.4f}, p {pair.p_value:.4f}, adjusted {pair.p_adjusted:.4f}")

# A significant uniformity p for sex is the expected outcome here: the
# corrupted share really is concentrated in one group, and pruning that
# follows the corruption must follow the skew. The disparity test asks the
# sharper question of whether the learned reward moved differently for the
# groups' visited states.
