"""Consensus reward learning from mixed-quality demonstrations.

Tabular MaxEnt IRL plus trajectory pruning: fit a reward to every
demonstration, score each trajectory by how far its actions fall from the
learned greedy policy, drop the low-consensus tail, and refit on what
remains. Includes the feature-to-state discretization path for clinical-style
records, a synthetic ground-truth generator for quantitative validation, and
permutation-based disparity reports.
"""

from types import ModuleType as _ModuleType

from .analyze import (
    PairwiseResult,
    TestResult,
    cluster_report,
    end_state_deciles,
    holm_correction,
    pairwise_permutation_tests,
    permutation_anova,
    permutation_chi2,
    reward_delta_by_state,
    reward_loss_disparity_tests,
    test_pruning_uniformity,
    test_reward_loss_disparity,
)
from .discretize import (
    ClusterModel,
    assign_states,
    fit_state_space,
)
from .errors import (
    CohortEmptyError,
    InputError,
    NumericError,
    ParameterError,
    SchemaError,
)
from .ingest import (
    ActionCodec,
    SubjectRecords,
    hypotension_codec,
    regroup_demographics,
    sepsis_codec,
)
from .maxent import (
    IrlConfig,
    SoftPolicy,
    empirical_state_visitation,
    expected_state_visitation,
    initial_state_distribution,
    maxent_objective,
    soft_backward_pass,
    train_maxent_irl,
)
from .mdp import (
    DeterministicPolicy,
    RewardModel,
    TransitionModel,
    estimate_transitions,
    expected_reward_table,
    greedy_policy,
)
from .pipeline import (
    TwoStageResult,
    load_run_directory,
    retention_sweep,
    run_two_stage,
    write_run_directory,
)
from .prune import (
    PruneConfig,
    TrajectoryScores,
    read_scores_csv,
    score_trajectories,
    select_retained,
    write_scores_csv,
)
from .synth import (
    DemographicTag,
    LabeledPopulation,
    PopulationConfig,
    SyntheticWorld,
    evaluate_recovery,
    finite_horizon_values,
    generate_population,
    generate_world,
    policy_value,
)
from .trajectories import TrajectorySet
from .version import __version__

# every public name imported above, and nothing else
__all__ = sorted(
    name
    for name, value in globals().items()
    if not isinstance(value, _ModuleType) and (name == "__version__" or name[0] != "_")
)
