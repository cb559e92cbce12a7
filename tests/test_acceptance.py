"""Numbered acceptance checklist for the package.

Each test exercises one end-to-end quantitative gate at its stated tolerance
and prints a single PASS/FAIL line (plus per-seed detail where it helps); the
terminal summary replays every line at the end of the run so the checklist is
visible without -s. Run the gate alone with

    pytest tests/test_acceptance.py -v
"""

import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np

from consensus_irl import (
    IrlConfig,
    PopulationConfig,
    PruneConfig,
    RewardModel,
    TrajectoryScores,
    TransitionModel,
    empirical_state_visitation,
    end_state_deciles,
    estimate_transitions,
    evaluate_recovery,
    expected_reward_table,
    expected_state_visitation,
    generate_population,
    generate_world,
    greedy_policy,
    initial_state_distribution,
    permutation_anova,
    permutation_chi2,
    run_two_stage,
    score_trajectories,
    select_retained,
    soft_backward_pass,
    train_maxent_irl,
)
from consensus_irl.cli import dispatch
from consensus_irl.discretize import feature_matrix, fit_state_space, trajectories_from_prepared
from consensus_irl.ingest import (
    hypotension_codec, load_bounds, load_normal_values, load_records_csv, prepare_subjects,
)
from consensus_irl.maxent import SoftPolicy
from consensus_irl.synth import read_labels_csv

from conftest import make_set
from oracles import (
    central_difference_gradient,
    deterministic_kernel,
    enumeration_objective,
    enumeration_visitation,
    exact_anova_p,
    exact_chi2_p,
    exact_randomization_chi2_2x2,
    sample_deterministic_demos,
)

REPORT_LINES = []


def report(num, ok, detail, extra=()):
    lines = [f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {detail}"]
    lines += [f"              {e}" for e in extra]
    REPORT_LINES.extend(lines)
    print()
    for line in lines:
        print(line)


def corrupted_setting(i):
    """100-state, 4-action world; 2000 trajectories, 30% random-policy corruption."""
    world = generate_world(100, 4, branching=5, seed=100 + i, horizon=12)
    population = generate_population(
        world, PopulationConfig(2000, corrupted_fraction=0.3, seed=i)
    )
    return world, population


def prune_recall(scores, corrupted, config):
    pruned = {tid for tid, kept in zip(scores.ids, select_retained(scores, config)) if not kept}
    return len(pruned & corrupted) / len(corrupted)


def score_one(triples, kernel, reward, policy):
    """score_trajectories on the one-trajectory set of `triples`: (L, C, ll, off-policy)."""
    one = make_set([triples], n_states=kernel.n_states, n_actions=kernel.n_actions)
    sc = score_trajectories(one, kernel, reward, policy)
    return sc.L[0], sc.C[0], sc.log_likelihood[0], sc.fully_off_policy[0]


def test_criterion_01_gradient_matches_enumerated_likelihood():
    n_states, n_actions, horizon = 4, 2, 4
    t0 = time.perf_counter()
    probs, nxt = deterministic_kernel(n_states, n_actions, seed=3)
    demos = sample_deterministic_demos(nxt, n_demos=12, horizon=horizon, seed=8)
    ts = make_set(demos, [f"d{i}" for i in range(len(demos))], n_states=n_states,
                  n_actions=n_actions)
    model = TransitionModel.from_dense(probs, np.zeros((n_states, n_actions), dtype=int))
    theta = np.random.default_rng(4).normal(0.0, 0.7, size=n_states)

    policy = soft_backward_pass(model, theta, horizon)
    analytic = (
        empirical_state_visitation(ts)
        - expected_state_visitation(model, policy, initial_state_distribution(ts))
    )
    numeric = central_difference_gradient(
        lambda th: enumeration_objective(nxt, th, demos, horizon), theta
    )
    rel = float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12))
    elapsed = time.perf_counter() - t0

    ok = rel < 1e-5 and elapsed < 1.0
    report(
        1,
        ok,
        f"analytic gradient vs central differences of the enumerated log-likelihood: "
        f"rel err {rel:.2e} (< 1e-5), {elapsed:.3f} s (< 1 s)",
    )
    assert ok


def test_criterion_02_visitation_matches_path_enumeration():
    rng = np.random.default_rng(5)
    n_states, n_actions, horizon = 4, 2, 5
    probs = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    model = TransitionModel.from_dense(probs, np.zeros((n_states, n_actions), dtype=int))
    d0 = rng.dirichlet(np.ones(n_states))

    soft = soft_backward_pass(model, rng.normal(0.0, 1.0, n_states), horizon)
    arbitrary = SoftPolicy(rng.dirichlet(np.ones(n_actions), size=(horizon, n_states)))
    worst = 0.0
    for policy in (soft, arbitrary):
        ours = expected_state_visitation(model, policy, d0)
        brute = enumeration_visitation(probs, policy.probs, d0, horizon)
        worst = max(worst, float(np.max(np.abs(ours - brute))))

    ok = worst <= 1e-8
    report(
        2,
        ok,
        f"expected state visitation vs exhaustive path enumeration: "
        f"max abs err {worst:.2e} (<= 1e-8)",
    )
    assert ok


def test_criterion_03_score_identities():
    rng = np.random.default_rng(14)
    n_states, n_actions = 8, 3
    probs = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    kernel = TransitionModel.from_dense(probs, np.zeros((n_states, n_actions), dtype=int))
    reward = RewardModel(rng.uniform(-1.0, 1.0, n_states))
    policy = greedy_policy(kernel, reward)
    table = expected_reward_table(kernel, reward)

    worst_identity = 0.0
    for i in range(1000):
        length = int(rng.integers(2, 7))
        s = int(rng.integers(n_states))
        triples = []
        for a in rng.integers(n_actions, size=length):
            nxt = int(rng.choice(n_states, p=probs[s, a]))
            triples.append((s, int(a), nxt))
            s = nxt
        L, C, _, _ = score_one(triples, kernel, reward, policy)
        worst_identity = max(worst_identity, abs(C - math.exp(-L)))

    on_policy_exact = True
    decreases = 0
    n_sub = 100
    for i in range(n_sub):
        length = int(rng.integers(2, 7))
        s = int(rng.integers(n_states))
        triples = []
        for _ in range(length):
            a = int(policy.actions[s])
            nxt = int(rng.choice(n_states, p=probs[s, a]))
            triples.append((s, a, nxt))
            s = nxt
        base_L, base_C, _, _ = score_one(triples, kernel, reward, policy)
        on_policy_exact &= base_L == 0.0 and base_C == 1.0

        j = int(rng.integers(length))
        s_j, _, nxt_j = triples[j]
        bent = list(triples)
        bent[j] = (s_j, int(np.argmin(table[s_j])), nxt_j)
        _, sub_C, _, _ = score_one(bent, kernel, reward, policy)
        decreases += sub_C < base_C

    ok = worst_identity <= 1e-9 and on_policy_exact and decreases == n_sub
    report(
        3,
        ok,
        f"C = exp(-L) within {worst_identity:.1e} on 1000 random trajectories (<= 1e-9); "
        f"on-policy trajectories hit C = 1 and L = 0 exactly; a single worse-action "
        f"substitution lowered C in {decreases}/{n_sub} cases",
    )
    assert ok


def test_criterion_04_deviation_pruning_recovers_corruption():
    t0 = time.perf_counter()
    deviation, random_baseline = [], []
    for i in range(5):
        _, population = corrupted_setting(i)
        trajectories = population.trajectories
        kernel = estimate_transitions(trajectories)
        reward1 = train_maxent_irl(trajectories, kernel, IrlConfig(epochs=100, lr0=0.5, seed=i))
        scores = score_trajectories(trajectories, kernel, reward1, greedy_policy(kernel, reward1))
        corrupted = {tid for tid, bad in population.corrupted.items() if bad}
        deviation.append(prune_recall(scores, corrupted, PruneConfig(retain_fraction=0.5)))
        random_baseline.append(
            prune_recall(
                scores, corrupted, PruneConfig(method="random", retain_fraction=0.5, seed=1000 + i)
            )
        )
    elapsed = time.perf_counter() - t0

    # exact one-sided permutation test over all 252 ways to split the ten
    # recalls into two groups of five
    observed = np.mean(deviation) - np.mean(random_baseline)
    pooled = np.array(deviation + random_baseline)
    hits = 0
    for pick in itertools.combinations(range(10), 5):
        diff = pooled[list(pick)].mean() - np.delete(pooled, list(pick)).mean()
        hits += diff >= observed - 1e-12
    p = hits / 252

    ok = min(deviation) > 0.5 and p < 0.01 and elapsed < 60.0
    report(
        4,
        ok,
        f"corrupted-trajectory recall {np.mean(deviation):.3f} vs random-pruning baseline "
        f"{np.mean(random_baseline):.3f} (analytic 0.5), one-sided permutation p = {p:.5f} "
        f"(< 0.01), {elapsed:.1f} s (< 60 s)",
        extra=[
            f"per-seed recall: deviation {np.round(deviation, 3).tolist()}, "
            f"random {np.round(random_baseline, 3).tolist()}"
        ],
    )
    assert ok


def test_criterion_05_two_stage_spearman_and_evd():
    # Both stages are fitted to grad_tolerance: the MaxEnt estimate is the
    # optimum of a concave objective, so the comparison is made there.
    rows, fits = [], []
    for i in range(5):
        world, population = corrupted_setting(i)
        result = run_two_stage(
            population.trajectories,
            IrlConfig(optimizer="lbfgs", epochs=600, seed=i),
            PruneConfig(retain_fraction=0.5),
        )
        rows.append(evaluate_recovery(world, result, population.corrupted))
        fits.append((result.reward_stage1.metadata, result.reward_stage2.metadata))

    s1 = [r["spearman_stage1"] for r in rows]
    s2 = [r["spearman_stage2"] for r in rows]
    evd1 = float(np.mean([r["evd_stage1"] for r in rows]))
    evd2 = float(np.mean([r["evd_stage2"] for r in rows]))
    wins = sum(b >= a for a, b in zip(s1, s2))
    evd_ok = evd2 <= evd1
    converged = all(m["converged"] for pair in fits for m in pair)

    ok = wins >= 4 and evd_ok and converged
    extra = [
        f"seed {i}: spearman {s1[i]:+.4f} -> {s2[i]:+.4f}, "
        f"EVD {rows[i]['evd_stage1']:.4f} -> {rows[i]['evd_stage2']:.4f}; "
        + ", ".join(
            f"{m['stage']} max|grad| {m['final_grad_max']:.1e} "
            f"after {m['epochs_run']} iterations"
            for m in fits[i]
        )
        for i in range(5)
    ]
    report(
        5,
        ok,
        f"stage-2 spearman >= stage-1 in {wins}/5 seeds (need >= 4); "
        f"mean EVD {evd1:.4f} -> {evd2:.4f} (EVD clause {'holds' if evd_ok else 'fails'}); "
        f"both stages converged in every seed: {converged}",
        extra=extra,
    )
    assert converged, "a stage stopped at the iteration cap before reaching grad_tolerance"
    assert ok, f"spearman clause unmet: stage 2 improved the rank correlation in {wins}/5 seeds"


def test_criterion_06_full_retention_reduces_to_single_stage():
    world = generate_world(16, 3, branching=4, seed=21, horizon=8)
    population = generate_population(world, PopulationConfig(60, corrupted_fraction=0.25, seed=2))
    result = run_two_stage(
        population.trajectories,
        IrlConfig(epochs=80, lr0=0.3, seed=5),
        PruneConfig(retain_fraction=1.0),
    )
    bitwise = result.reward_stage1.rewards.tobytes() == result.reward_stage2.rewards.tobytes()
    policies = np.array_equal(result.policy_stage1.actions, result.policy_stage2.actions)

    n_pruned = int((~result.retained).sum())
    ok = bitwise and policies and n_pruned == 0
    report(
        6,
        ok,
        "retain fraction 1.0: stage-2 reward bitwise-equal to stage-1, policies identical, "
        "nothing pruned"
        if ok
        else f"retain fraction 1.0 failed to reproduce stage 1 (bitwise={bitwise}, "
        f"policies={policies}, pruned={n_pruned})",
    )
    assert ok


def test_criterion_07_bottom_decile_worse_than_top():
    outcomes = []
    for i in range(5):
        world = generate_world(20, 3, branching=4, seed=40 + i, horizon=8)
        population = generate_population(
            world, PopulationConfig(200, corrupted_fraction=0.3, seed=i)
        )
        trajectories = population.trajectories
        kernel = estimate_transitions(trajectories)
        reward1 = train_maxent_irl(trajectories, kernel, IrlConfig(epochs=150, lr0=0.5, seed=i))
        scores = score_trajectories(trajectories, kernel, reward1, greedy_policy(kernel, reward1))
        means = end_state_deciles(scores)["mean_end_state_reward"]
        outcomes.append((means[0], means[-1]))

    wins = sum(bottom < top for bottom, top in outcomes)
    ok = wins >= 4
    report(
        7,
        ok,
        f"bottom-decile mean end-state reward below the top decile in {wins}/5 "
        f"corrupted worlds (need >= 4)",
        extra=[f"seed {i}: bottom {b:.3f} vs top {t:.3f}" for i, (b, t) in enumerate(outcomes)],
    )
    assert ok


def test_criterion_08_permutation_p_values_track_exact_oracles():
    labels = np.repeat(["a", "b"], 100)
    flags = np.concatenate([np.repeat([1, 0], [30, 70]), np.repeat([1, 0], [70, 30])])
    tail = permutation_chi2(labels, flags, n_permutations=10_000, seed=3)
    d_tail = abs(tail.p_value - exact_chi2_p([[30, 70], [70, 30]]))

    labels = np.repeat(["a", "b"], 20)
    flags = np.concatenate([np.repeat([1, 0], [12, 8]), np.repeat([1, 0], [8, 12])])
    mid = permutation_chi2(labels, flags, n_permutations=10_000, seed=4)
    d_mid = abs(mid.p_value - exact_randomization_chi2_2x2([[12, 8], [8, 12]]))

    values = np.array(
        [4.1, 5.2, 6.3, 5.8, 4.9, 5.0, 6.1, 5.5, 6.8, 5.9, 4.7, 5.1, 6.0, 5.3, 5.6]
    )
    anova = permutation_anova(values, np.repeat(["a", "b", "c"], 5), n_permutations=10_000, seed=5)
    d_anova = abs(anova.p_value - exact_anova_p([values[:5], values[5:10], values[10:]]))

    rng = np.random.default_rng(12)
    rejections = 0
    for j in range(200):
        null = permutation_anova(
            rng.normal(0.0, 1.0, 24), np.repeat(["a", "b", "c"], 8), n_permutations=499, seed=j
        )
        rejections += null.p_value < 0.05
    rate = rejections / 200

    ok = d_tail < 0.02 and d_mid < 0.02 and d_anova < 0.02 and 0.02 <= rate <= 0.08
    report(
        8,
        ok,
        f"permutation p vs exact oracles: chi2 tail |dp| = {d_tail:.4f}, chi2 midrange "
        f"|dp| = {d_mid:.4f}, anova |dp| = {d_anova:.4f} (each < 0.02); null rejection "
        f"rate {rate:.3f} at alpha 0.05 over 200 null datasets (within 0.05 +/- 0.03)",
    )
    assert ok


def test_criterion_09_pipeline_runs_are_byte_identical(tmp_path):
    syn = tmp_path / "syn"
    code = dispatch(
        [
            "synth", "--states", "12", "--actions", "2", "--branching", "3",
            "--horizon", "6", "--trajectories", "40", "--seed", "3", "--out", str(syn),
        ]
    )
    assert code == 0
    argv = [
        "pipeline", "--trajectories", str(syn / "trajectories.csv"),
        "--epochs", "60", "--retain", "0.6", "--seed", "4", "--permutations", "200",
    ]
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert dispatch(argv + ["--out", str(out)]) == 0
        runs.append(out)

    names_a = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(runs[1]) for p in runs[1].rglob("*") if p.is_file())
    if names_a != names_b:
        diffs = ["<artifact sets differ>"]
    else:
        diffs = [
            str(rel)
            for rel in names_a
            if (runs[0] / rel).read_bytes() != (runs[1] / rel).read_bytes()
        ]

    ok = names_a == names_b and not diffs
    report(
        9,
        ok,
        f"two identically configured pipeline runs: all {len(names_a)} artifacts byte-identical"
        if ok
        else f"pipeline reruns differ: {diffs}",
    )
    assert ok


def test_criterion_10_likelihood_hand_examples_and_cutoffs(two_state):
    probs = np.full((2, 1, 2), 0.5)
    kernel = TransitionModel.from_dense(probs, np.zeros((2, 1), dtype=int))
    reward = RewardModel(np.array([0.0, 1.0]))
    policy = greedy_policy(kernel, reward)
    _, _, ll, _ = score_one([[0, 0, 0], [0, 0, 1]], kernel, reward, policy)
    quarter_exact = ll == math.log(0.25)

    kernel2, reward2 = two_state
    policy2 = greedy_policy(kernel2, reward2)
    off = [[0, 0, 0], [0, 0, 0]]  # action 0 self-loops; policy wants 1
    _, _, ll_off, off_policy = score_one(off, kernel2, reward2, policy2)
    anomaly_ok = ll_off == 0.0 and off_policy

    ids = ["a", "b", "c", "d"]
    scores = TrajectoryScores(
        ids, np.zeros(4), np.ones(4), [-1.0, -2.0, -3.0, -4.0], np.zeros(4), np.zeros(4, bool)
    )
    kept_p = select_retained(scores, PruneConfig(method="likelihood", likelihood_percentile=50))
    retained_p = [t for t, k in zip(ids, kept_p) if k]
    pruned_p = [t for t, k in zip(ids, kept_p) if not k]
    percentile_ok = retained_p == ["a", "b"] and pruned_p == ["c", "d"]
    kept_t = select_retained(scores, PruneConfig(method="likelihood", likelihood_threshold=0.2))
    retained_t = [t for t, k in zip(ids, kept_t) if k]
    threshold_ok = retained_t == ["a"]

    ok = quarter_exact and anomaly_ok and percentile_ok and threshold_ok
    report(
        10,
        ok,
        f"two half-probability on-policy steps score ll == ln 0.25 exactly ({quarter_exact}); "
        f"fully off-policy trajectory yields ll = 0 and is flagged ({anomaly_ok}); "
        f"percentile-50 cutoff keeps {retained_p}, threshold-0.2 keeps {retained_t}",
    )
    assert ok


def _benchmark_cohort():
    """perfbench/cohort.py, imported as tools/golden.py does, without writing bytecode
    next to it."""
    folder = str(Path(__file__).resolve().parents[1] / "perfbench")
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, folder)
    try:
        import cohort
    finally:
        sys.path.remove(folder)
        sys.dont_write_bytecode = writes
    return cohort


def test_criterion_11_deviation_pruning_finds_the_erratic_arm(tmp_path):
    """The clinical benchmark's path at its settings (hypotension codec, k = 80,
    retain 0.8, every seed = the cohort seed; no tags, which pruning does not
    read), run in process: the pruned fifth holds mostly erratic-arm subjects,
    against a fifth of them in a random prune."""
    cohort, codec = _benchmark_cohort(), hypotension_codec()
    features, flags, bound, precisions = cohort.FEATURES, sorted(codec.known_flags), 0.40, {}
    for seed in (1, 2, 3):
        inputs = tmp_path / f"seed{seed}"
        cohort.write_cohort(str(inputs), seed)
        subjects = load_records_csv(inputs / "records.csv", features, flags, [])
        prepared, _ = prepare_subjects(
            subjects, load_normal_values(inputs / "normals.json"),
            load_bounds(inputs / "bounds.json"), codec,
        )
        states = fit_state_space(feature_matrix(prepared, features)[0], k=80, seed=seed,
                                 feature_names=features)
        tset, _ = trajectories_from_prepared(prepared, states, features)
        result = run_two_stage(
            tset, IrlConfig(seed=seed), PruneConfig(retain_fraction=0.8, seed=seed + 2)
        )
        labels = read_labels_csv(inputs / "labels.csv")
        erratic = {t for t, corrupted in labels.items() if corrupted}
        pruned = [t for t, kept in zip(tset.ids, result.retained.tolist()) if not kept]
        precisions[seed] = len(erratic.intersection(pruned)) / len(pruned)

    ok = min(precisions.values()) > bound
    report(
        11,
        ok,
        f"clinical deviation pruning at retain 0.8: precision against the erratic arm "
        f"above {bound} at every cohort seed",
        [f"seed {seed}: precision {p:.4f}" for seed, p in precisions.items()],
    )
    assert ok
