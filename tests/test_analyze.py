"""Report-surface tests: cluster tables, deciles, and permutation statistics."""

import csv
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from consensus_irl import (
    DeterministicPolicy,
    IrlConfig,
    ParameterError,
    PopulationConfig,
    PruneConfig,
    RewardModel,
    TrajectoryScores,
    cluster_report,
    end_state_deciles,
    generate_population,
    generate_world,
    holm_correction,
    pairwise_permutation_tests,
    permutation_anova,
    permutation_chi2,
    reward_delta_by_state,
    reward_loss_disparity_tests,
    run_two_stage,
)

# aliased so pytest does not try to collect the package's analysis entry points
from consensus_irl import test_pruning_uniformity as pruning_uniformity
from consensus_irl import analyze
from consensus_irl import test_reward_loss_disparity as reward_loss_disparity
from consensus_irl.analyze import (
    _BLOCK_VALUES,
    PERMUTATION_NOTE,
    POSTHOC_NOTE,
    _anova_f_rows,
    _chi_squared_rows,
    _flagged_count_blocks,
    _reward_deltas,
    write_cluster_report_csv,
    write_deciles_csv,
    write_tests_csv,
    write_tests_json,
)
from consensus_irl.table import read_json

from conftest import make_set, traced_peak
from oracles import (
    exact_anova_p,
    exact_chi2_p,
    exact_pairwise_maxt,
    exact_randomization_chi2_2x2,
    reference_anova_f_statistic,
    reference_chi_squared_statistic,
    reference_pairwise_permutation_tests,
    reference_permutation_anova,
    reference_permutation_chi2,
    shuffle_permutation_chi2,
)


def chi2_of(table) -> float:
    """The package's chi-squared of one table."""
    return float(_chi_squared_rows(np.asarray(table, dtype=float)[None])[0])


def f_of(groups) -> float:
    """The package's ANOVA F of one set of groups."""
    return float(_anova_f_rows(np.concatenate(groups)[None], [len(g) for g in groups])[0])


def toy_stats(n_clusters, count=10):
    return {
        c: {
            "count": count,
            "means": {"hr": 70.0 + c, "bp": 90.0 - c},
            "stds": {"hr": 1.0, "bp": 2.0},
        }
        for c in range(n_clusters)
    }


class TestClusterReport:
    REWARDS = RewardModel([0.9, 0.5, 0.0, -0.5, -0.9])

    def test_best_and_worst_by_reward(self):
        table = cluster_report(toy_stats(5), self.REWARDS, top_k=2)
        assert table["side"] == ["best", "best", "worst", "worst"]
        assert table["reward"][:2].tolist() == [0.9, 0.5]
        assert table["reward"][2:].tolist() == [-0.5, -0.9]
        assert table["cluster"][:2].tolist() == [0, 1]
        assert table["cluster"][2:].tolist() == [3, 4]

    def test_ranks_are_a_permutation(self):
        shuffled = RewardModel([-0.5, 0.9, -0.9, 0.5, 0.0])
        table = cluster_report(toy_stats(5), shuffled, top_k=5)
        best = table["rank"][:5]
        assert sorted(best.tolist()) == list(range(5))
        by_rank = table["reward"][:5][np.argsort(best)]
        assert by_rank.tolist() == [0.9, 0.5, 0.0, -0.5, -0.9]

    def test_identical_baseline_gives_zero_deltas(self):
        base = cluster_report(toy_stats(5), self.REWARDS, top_k=2)
        table = cluster_report(toy_stats(5), self.REWARDS, top_k=2, baseline=base)
        for f in ("bp", "hr"):
            assert set(table[f"{f}_delta_mean"].tolist()) == {0.0}
            assert set(table[f"{f}_delta_std"].tolist()) == {0.0}

    def test_baseline_deltas_compare_same_rank(self):
        stats_a = toy_stats(5)
        stats_b = toy_stats(5)
        for c in stats_b:
            stats_b[c]["means"]["hr"] += 3.0
        base = cluster_report(stats_b, self.REWARDS, top_k=2)
        table = cluster_report(stats_a, self.REWARDS, top_k=2, baseline=base)
        assert table["hr_delta_mean"].tolist() == [-3.0] * 4
        assert table["bp_delta_mean"].tolist() == [0.0] * 4

    def test_columns_in_csv_order_with_their_dtypes(self):
        base = cluster_report(toy_stats(5), self.REWARDS, top_k=2)
        assert list(base) == ["side", "rank", "cluster", "reward", "count",
                              "bp_mean", "bp_std", "hr_mean", "hr_std"]
        table = cluster_report(toy_stats(5), self.REWARDS, top_k=2, baseline=base)
        assert list(table)[5:] == [
            f"{f}_{stat}" for f in ("bp", "hr")
            for stat in ("mean", "std", "delta_mean", "delta_std")
        ]
        for name, column in table.items():
            if name != "side":
                kind = np.int64 if name in ("rank", "cluster", "count") else np.float64
                assert column.dtype == kind and len(column) == 4

    @pytest.mark.parametrize("bad", [0, 6])
    def test_top_k_out_of_range(self, bad):
        with pytest.raises(ParameterError, match="top_k"):
            cluster_report(toy_stats(5), self.REWARDS, top_k=bad)

    def test_csv_layout(self, tmp_path):
        base = cluster_report(toy_stats(5), self.REWARDS, top_k=2)
        table = cluster_report(toy_stats(5), self.REWARDS, top_k=2, baseline=base)
        path = tmp_path / "clusters.csv"
        write_cluster_report_csv(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["side", "rank", "cluster", "reward", "count"]
        assert "hr_delta_mean" in rows[0]
        assert [r[0] for r in rows[1:]] == ["best", "best", "worst", "worst"]
        assert float(rows[1][3]) == 0.9


def make_scores(c_values, end_rewards):
    C, n = np.asarray(c_values, dtype=float), len(c_values)
    return TrajectoryScores(
        ids=[f"t{i:03d}" for i in range(n)],
        L=-np.log(C),
        C=C,
        log_likelihood=np.zeros(n),
        end_state_reward=np.asarray(list(end_rewards), dtype=float),
        fully_off_policy=np.zeros(n, dtype=bool),
    )


class TestDeciles:
    def test_identical_scores_identical_buckets(self):
        scores = make_scores([0.5] * 20, [0.25] * 20)
        table = end_state_deciles(scores)
        assert all(len(column) == 10 for column in table.values())
        assert set(table["mean_end_state_reward"].tolist()) == {0.25}
        assert set(table["count"].tolist()) == {2}

    def test_percentile_bands(self):
        table = end_state_deciles(make_scores([0.5] * 20, [0.0] * 20))
        assert table["percentile_low"].tolist() == list(range(0, 100, 10))
        assert table["percentile_high"].tolist() == list(range(10, 110, 10))

    def test_counts_differ_by_at_most_one(self):
        scores = make_scores([0.5] * 23, range(23))
        counts = end_state_deciles(scores)["count"].tolist()
        assert sum(counts) == 23
        assert max(counts) - min(counts) == 1

    def test_ranked_by_consensus_ascending(self):
        # worse consensus ends in worse states by construction
        c = np.linspace(0.05, 0.95, 20)
        scores = make_scores(c, c)
        means = end_state_deciles(scores)["mean_end_state_reward"].tolist()
        assert means == sorted(means)
        assert means[0] < means[-1]

    def test_too_few_scores_rejected(self):
        with pytest.raises(ParameterError, match="10"):
            end_state_deciles(make_scores([0.5] * 9, [0.0] * 9))

    def test_columns_in_csv_order_with_their_dtypes(self):
        table = end_state_deciles(make_scores(np.linspace(0.1, 0.9, 23), range(23)))
        assert list(table) == [
            "bucket", "percentile_low", "percentile_high", "mean_end_state_reward", "count"
        ]
        for name, column in table.items():
            kind = np.float64 if name == "mean_end_state_reward" else np.int64
            assert column.dtype == kind

    def test_csv_matches_rows(self, tmp_path):
        table = end_state_deciles(make_scores(np.linspace(0.1, 0.9, 23), range(23)))
        path = tmp_path / "deciles.csv"
        write_deciles_csv(table, path)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 10
        for i, raw in enumerate(got):
            assert int(raw["bucket"]) == table["bucket"][i]
            assert float(raw["mean_end_state_reward"]) == table["mean_end_state_reward"][i]
            assert int(raw["count"]) == table["count"][i]

    def test_corrupted_population_bottom_bucket_worse(self, small_world):
        """Low-consensus deciles should end in worse states than high ones."""
        from consensus_irl import estimate_transitions, greedy_policy, score_trajectories, train_maxent_irl

        pop = generate_population(
            small_world,
            PopulationConfig(n_trajectories=120, corrupted_fraction=0.3, seed=9),
        )
        transitions = estimate_transitions(pop.trajectories)
        reward = train_maxent_irl(
            pop.trajectories,
            transitions,
            IrlConfig(epochs=150, seed=1, horizon=pop.trajectories.max_length()),
        )
        scores = score_trajectories(
            pop.trajectories, transitions, reward, greedy_policy(transitions, reward)
        )
        means = end_state_deciles(scores)["mean_end_state_reward"]
        assert means[0] < means[-1]


class TestStatistics:
    def test_chi2_hand_values(self):
        assert chi2_of([[10, 10], [10, 10]]) == 0.0
        assert chi2_of([[30, 70], [70, 30]]) == pytest.approx(32.0)
        assert chi2_of([[12, 8], [8, 12]]) == pytest.approx(1.6)

    def test_chi2_zero_expected_cells_ignored(self):
        assert np.isfinite(chi2_of([[5, 0], [7, 0]]))
        assert chi2_of([[0, 0], [0, 0]]) == 0.0

    def test_f_hand_value(self):
        groups = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0])]
        assert f_of(groups) == pytest.approx(1.5)

    def test_f_degenerate_cases(self):
        same = [np.array([1.0, 1.0]), np.array([1.0, 1.0])]
        assert f_of(same) == 0.0
        apart = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
        assert f_of(apart) == np.inf

    def test_null_table_p_is_one(self):
        labels = np.repeat(["a", "b"], 20)
        flags = np.tile([0, 1], 20)  # both groups half flagged
        res = permutation_chi2(labels, flags, n_permutations=500, seed=0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_chi2_p_matches_exact_tail(self):
        labels = np.repeat(["a", "b"], 100)
        flags = np.concatenate([np.repeat([1, 0], [30, 70]), np.repeat([1, 0], [70, 30])])
        res = permutation_chi2(labels, flags, n_permutations=10_000, seed=3)
        exact = exact_chi2_p([[30, 70], [70, 30]])
        assert abs(res.p_value - exact) < 0.02
        assert res.p_value == res.p_floor  # far beyond permutation resolution

    def test_chi2_p_matches_exact_midrange(self):
        # at n=40 the permutation null is the exact hypergeometric
        # randomization distribution, so compare against that enumeration
        labels = np.repeat(["a", "b"], 20)
        flags = np.concatenate([np.repeat([1, 0], [12, 8]), np.repeat([1, 0], [8, 12])])
        res = permutation_chi2(labels, flags, n_permutations=10_000, seed=4)
        exact = exact_randomization_chi2_2x2([[12, 8], [8, 12]])
        assert abs(res.p_value - exact) < 0.02

    def test_anova_p_matches_exact(self):
        values = np.array(
            [4.1, 5.2, 6.3, 5.8, 4.9, 5.0, 6.1, 5.5, 6.8, 5.9, 4.7, 5.1, 6.0, 5.3, 5.6]
        )
        labels = np.repeat(["a", "b", "c"], 5)
        res = permutation_anova(values, labels, n_permutations=10_000, seed=5)
        exact = exact_anova_p([values[:5], values[5:10], values[10:]])
        assert abs(res.p_value - exact) < 0.02

    def test_pairwise_p_matches_exact_maxt(self):
        """Raw and step-down p-values against all 210 relabellings of groups of 2, 2 and 3."""
        values = np.array([0.3, 1.1, 2.0, 2.4, -0.6, 0.9, 1.7])
        labels = np.repeat(["a", "b", "c"], [2, 2, 3])
        exact, count = exact_pairwise_maxt(values, labels)
        assert count == 210
        pairs = pairwise_permutation_tests(values, labels, n_permutations=10_000, seed=6)
        assert [(p.group_a, p.group_b) for p in pairs] == [("a", "b"), ("a", "c"), ("b", "c")]
        for p, e in zip(pairs, exact):
            assert p.mean_difference == pytest.approx(e.mean_difference)
            assert abs(p.p_value - e.p_value) < 0.02
            assert abs(p.p_adjusted - e.p_adjusted) < 0.02
        # the adjustment moves these p-values: it is not the identity here
        assert any(e.p_adjusted > e.p_value + 0.05 for e in exact)

    def test_adjusted_p_is_monotone_in_the_observed_gap(self):
        rng = np.random.default_rng(14)
        labels = np.repeat(list("abcde"), [5, 7, 9, 4, 6])
        values = rng.normal(size=31) + np.repeat([0.0, 0.4, 0.8, 1.2, 0.2], [5, 7, 9, 4, 6])
        pairs = pairwise_permutation_tests(values, labels, n_permutations=2000, seed=1)
        sizes = dict(zip(*np.unique(labels, return_counts=True)))
        gap = [abs(p.mean_difference) / np.sqrt(1 / sizes[p.group_a] + 1 / sizes[p.group_b])
               for p in pairs]
        ranked = [pairs[q] for q in np.argsort(gap)[::-1]]
        assert all(p.p_adjusted >= p.p_value for p in pairs)
        assert all(a.p_adjusted <= b.p_adjusted for a, b in zip(ranked, ranked[1:]))

    @pytest.mark.parametrize("sizes", [(5, 7), (12, 12), (3, 40)])
    def test_a_two_group_pair_reads_the_anova_permutations(self, sizes):
        """With two groups the pair's gap is a monotone function of F, so on the
        same permutations its raw and adjusted p are the ANOVA's p."""
        rng = np.random.default_rng(sum(sizes))
        labels = np.repeat(["x", "y"], sizes)
        values = rng.normal(size=sum(sizes)) + 0.3 * (labels == "y")
        (pair,) = pairwise_permutation_tests(values, labels, n_permutations=3000, seed=2)
        anova = permutation_anova(values, labels, n_permutations=3000, seed=2)
        assert pair.p_value == pair.p_adjusted == anova.p_value

    def test_tied_gaps_share_one_adjusted_p(self):
        """Pairs of equal observed gap get one adjusted p, whichever is ranked first."""
        labels = np.repeat(["a", "b", "c"], 4)
        values = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5])
        ab, ac, bc = pairwise_permutation_tests(values, labels, n_permutations=2000, seed=3)
        assert ab.mean_difference == bc.mean_difference == -2.0
        assert ab.p_adjusted == bc.p_adjusted >= ac.p_adjusted
        assert ab.p_value == pytest.approx(bc.p_value, abs=0.03)

    def test_maximal_separation_hits_floor(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 1e-3, 12), rng.normal(1, 1e-3, 12)])
        labels = np.repeat(["lo", "hi"], 12)
        res = permutation_anova(values, labels, n_permutations=2000, seed=1)
        assert res.p_value <= 1e-3
        assert res.p_value == res.p_floor == 1.0 / 2001.0

    def test_chi2_invariant_to_relabeling(self):
        rng = np.random.default_rng(2)
        labels = rng.choice(["x", "y", "z"], size=60)
        flags = rng.integers(0, 2, size=60)
        renamed = np.array([{"x": "group_one", "y": "b", "z": "m"}[l] for l in labels])
        a = permutation_chi2(labels, flags, n_permutations=300, seed=7)
        b = permutation_chi2(renamed, flags, n_permutations=300, seed=7)
        assert a.statistic == b.statistic

    def test_anova_invariant_to_shift_and_scale(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=30)
        labels = np.repeat(["a", "b", "c"], 10)
        base = permutation_anova(values, labels, n_permutations=400, seed=2)
        shifted = permutation_anova(values + 5.0, labels, n_permutations=400, seed=2)
        scaled = permutation_anova(values * 3.0, labels, n_permutations=400, seed=2)
        assert shifted.statistic == pytest.approx(base.statistic)
        assert scaled.statistic == pytest.approx(base.statistic)
        assert shifted.p_value == base.p_value
        assert scaled.p_value == base.p_value

    def test_row_order_invariance(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=40)
        labels = rng.choice(["a", "b"], size=40)
        flags = rng.integers(0, 2, size=40)
        perm = rng.permutation(40)
        a1 = permutation_anova(values, labels, n_permutations=300, seed=9)
        a2 = permutation_anova(values[perm], labels[perm], n_permutations=300, seed=9)
        assert (a1.statistic, a1.p_value) == (a2.statistic, a2.p_value)
        c1 = permutation_chi2(labels, flags, n_permutations=300, seed=9)
        c2 = permutation_chi2(labels[perm], flags[perm], n_permutations=300, seed=9)
        assert (c1.statistic, c1.p_value) == (c2.statistic, c2.p_value)

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=30)
        labels = np.repeat(["a", "b", "c"], 10)
        a = permutation_anova(values, labels, n_permutations=500, seed=11)
        b = permutation_anova(values, labels, n_permutations=500, seed=11)
        assert a == b

    def test_single_category_rejected(self):
        with pytest.raises(ParameterError, match="categories"):
            permutation_chi2(["a"] * 10, [0, 1] * 5, n_permutations=10)
        with pytest.raises(ParameterError, match="groups"):
            permutation_anova(np.arange(10.0), ["a"] * 10, n_permutations=10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="length"):
            permutation_chi2(["a", "b"], [0, 1, 0], n_permutations=10)
        for test in (permutation_anova, pairwise_permutation_tests):
            with pytest.raises(ParameterError, match="values and labels must have equal length"):
                test([1.0, 2.0, 3.0], ["a", "b"], n_permutations=10)

    @pytest.mark.parametrize("n_permutations", [0, -2])
    def test_fewer_than_one_permutation_rejected(self, n_permutations):
        labels = np.repeat(["a", "b"], 5)
        with pytest.raises(ParameterError, match="n_permutations"):
            permutation_chi2(labels, [0, 1] * 5, n_permutations=n_permutations)
        for test in (permutation_anova, pairwise_permutation_tests):
            with pytest.raises(ParameterError, match="n_permutations"):
                test(np.arange(10.0), labels, n_permutations=n_permutations)

    def test_null_rejection_rate_is_calibrated(self):
        """At the null, p < 0.05 should fire about 5% of the time."""
        rng = np.random.default_rng(6)
        labels = np.repeat(["a", "b", "c"], 10)
        rejections = 0
        n_sets = 60
        for i in range(n_sets):
            values = rng.normal(size=30)
            res = permutation_anova(values, labels, n_permutations=400, seed=i)
            rejections += res.p_value < 0.05
        assert rejections / n_sets <= 0.15

    def test_p_floor_property(self):
        res = permutation_chi2(["a"] * 5 + ["b"] * 5, [1, 0] * 5, n_permutations=99)
        assert res.p_floor == 0.01
        assert res.p_value >= res.p_floor


def assert_tests_match_reference(values, labels, flags, n_permutations, seed=0):
    """The block-batched tests return exactly what one permutation at a time gives."""
    assert permutation_chi2(labels, flags, n_permutations, seed) == reference_permutation_chi2(
        labels, flags, n_permutations, seed
    )
    assert permutation_anova(values, labels, n_permutations, seed) == (
        reference_permutation_anova(values, labels, n_permutations, seed)
    )
    assert pairwise_permutation_tests(values, labels, n_permutations, seed) == (
        reference_pairwise_permutation_tests(values, labels, n_permutations, seed)
    )


class TestBlockedPermutationsMatchReference:
    """Equality (==) with the one-permutation-at-a-time oracles in tests/oracles.py."""

    def test_ties(self):
        rng = np.random.default_rng(20)
        labels = rng.choice(["a", "b", "c", "d"], size=60)
        values = rng.integers(0, 4, size=60).astype(float)
        assert_tests_match_reference(values, labels, rng.integers(0, 2, size=60), 300, seed=1)

    def test_zero_within_group_variance(self):
        # constant within groups: observed F = inf, and the permutations that
        # keep the groups apart reach inf too
        labels = np.repeat(["a", "b", "c"], 3)
        values = np.repeat([0.0, 1.0, 2.0], 3)
        res = permutation_anova(values, labels, 500, seed=2)
        assert res.statistic == np.inf
        assert res == reference_permutation_anova(values, labels, 500, seed=2)
        # one value everywhere: every F is the 0 of equal means
        same = np.full(9, 3.5)
        res = permutation_anova(same, labels, 100, seed=2)
        assert (res.statistic, res.p_value) == (0.0, 1.0)
        assert_tests_match_reference(same, labels, np.tile([0, 1, 0], 3), 100, seed=2)

    def test_one_member_groups(self):
        rng = np.random.default_rng(21)
        labels = np.array(["a"] + ["b"] * 6 + ["c"] + ["d"] * 5)
        values = rng.normal(size=len(labels))
        assert_tests_match_reference(values, labels, rng.integers(0, 2, len(labels)), 200, seed=3)

    def test_group_mean_square_is_rounded_as_a_scalar(self):
        # here x * x and pow(x, 2) round (mean - grand)^2 differently, which
        # moves F by one ulp
        values = np.array([-0.37, 1.78, -0.04, -0.08, -1.07, -0.48, 0.01, -0.05, -0.23])
        labels = np.repeat(["a", "b", "c"], 3)
        groups = [values[:3], values[3:6], values[6:]]
        assert f_of(groups) == reference_anova_f_statistic(groups)
        assert permutation_anova(values, labels, 200, seed=4) == (
            reference_permutation_anova(values, labels, 200, seed=4)
        )

    def test_permutation_counts_around_the_block_size(self):
        n = 64
        rows = _BLOCK_VALUES // n
        rng = np.random.default_rng(22)
        labels = rng.choice(["x", "y"], size=n)
        values = rng.normal(size=n)
        flags = rng.integers(0, 2, size=n)
        for n_permutations in (1, rows - 1, rows, rows + 1):
            assert_tests_match_reference(values, labels, flags, n_permutations, seed=5)

    def test_chi2_permutation_counts_around_its_block_size(self):
        # a chi-squared block's draws and tables take 8 values per group and
        # row, so 64 groups make the block short enough to compare with one
        # draw at a time
        k = 64
        rows = _BLOCK_VALUES // (8 * k)
        rng = np.random.default_rng(27)
        labels = rng.integers(0, k, size=500)
        flags = rng.integers(0, 2, size=500)
        for n_permutations in (1, rows - 1, rows, rows + 1):
            assert permutation_chi2(labels, flags, n_permutations, seed=8) == (
                reference_permutation_chi2(labels, flags, n_permutations, seed=8)
            )

    def test_block_of_one_row(self):
        n = _BLOCK_VALUES // 2 + 1  # too long for two rows in a block
        rng = np.random.default_rng(23)
        labels = rng.choice(["x", "y"], size=n)
        values = rng.normal(size=n)
        assert_tests_match_reference(values, labels, rng.integers(0, 2, size=n), 3, seed=6)

    def test_bool_and_non_binary_flags(self):
        rng = np.random.default_rng(24)
        labels = rng.choice(["a", "b", "c"], size=50)
        values = rng.normal(size=50)
        flags = rng.integers(-1, 3, size=50)  # a row is flagged when its flag is 1
        assert_tests_match_reference(values, labels, flags, 300, seed=7)
        assert_tests_match_reference(values, labels, flags == 1, 300, seed=7)

    def test_statistics_match_reference(self):
        rng = np.random.default_rng(25)
        for rows in (2, 5, 9, 17):
            table = rng.exponential(size=(rows, 3))
            table[0, 0] = 0.0
            assert chi2_of(table) == reference_chi_squared_statistic(table)
        assert chi2_of(np.zeros((3, 2))) == 0.0
        groups = [rng.normal(size=size) for size in (1, 4, 9, 300)]
        assert f_of(groups) == reference_anova_f_statistic(groups)
        ints = [rng.integers(0, 5, size=size) for size in (3, 7)]
        assert f_of(ints) == reference_anova_f_statistic(ints)

    def test_memory_stays_within_a_few_blocks(self):
        """A block holds 1 MiB of values, so peak memory does not grow with n_permutations."""
        rng = np.random.default_rng(26)
        labels = rng.choice(["a", "b", "c", "d"], size=20_000)
        flags = rng.integers(0, 2, size=20_000)
        values = rng.normal(size=2_000)
        groups = rng.choice(["a", "b", "c", "d", "e"], size=2_000)
        bound = 4 * 2**20
        for run in (
            lambda: permutation_chi2(labels, flags, n_permutations=2_000, seed=0),
            lambda: pairwise_permutation_tests(values, groups, n_permutations=2_000, seed=0),
        ):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound


    def test_pairwise_memory_is_flat_in_n_permutations(self):
        """The step-down maxima are counted per block: no (permutations, pairs)
        array is kept, so 66 pairs hold one block's worth however many blocks run."""
        rng = np.random.default_rng(29)
        labels = rng.choice([f"g{i:02d}" for i in range(12)], size=600)
        values = rng.normal(size=600)
        rows = _BLOCK_VALUES // 600
        peaks = []
        for n_permutations in (rows, 8 * rows):
            tracemalloc.start()
            try:
                pairwise_permutation_tests(values, labels, n_permutations=n_permutations, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] + 2**16

    def test_chi2_memory_is_flat_in_n_permutations(self):
        """Peak memory of one block of tables, however many blocks are drawn."""
        rng = np.random.default_rng(28)
        labels = rng.choice(["a", "b", "c", "d"], size=20_000)
        flags = rng.integers(0, 2, size=20_000)
        rows = _BLOCK_VALUES // 8
        peaks = []
        for n_permutations in (rows, 6 * rows):
            tracemalloc.start()
            try:
                permutation_chi2(labels, flags, n_permutations=n_permutations, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < peaks[0] + 2**16
        # one block's draws and statistic fit _BLOCK_VALUES values: 1.13 blocks
        # of float64 measured, 4.03 when only the tables did
        assert peaks[1] < 2 * 8 * _BLOCK_VALUES


class TestChi2CountSampler:
    """Drawing the flagged counts against shuffling the flags of every row."""

    TABLES = {
        "2x2": (np.repeat(["a", "b"], 30), np.repeat([1, 0, 1, 0], [12, 18, 18, 12])),
        "4 groups": (
            np.repeat(["a", "b", "c", "d"], [20, 15, 25, 10]),
            np.repeat([1, 0] * 4, [8, 12, 9, 6, 9, 16, 6, 4]),
        ),
        "one-member groups": (
            np.array(["a"] + ["b"] * 6 + ["c"] + ["d"] * 5),
            np.array([1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]),
        ),
        "all flagged": (np.repeat(["a", "b", "c"], [4, 7, 9]), np.ones(20, dtype=int)),
        "none flagged": (np.repeat(["a", "b", "c"], [4, 7, 9]), np.zeros(20, dtype=int)),
    }

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_agrees_with_row_shuffle(self, table):
        # two estimates of one p; four standard errors of one estimate, and
        # exact agreement where p is 1 (no permutation can move the table)
        labels, flags = self.TABLES[table]
        n = 2_000
        drawn = permutation_chi2(labels, flags, n, seed=10)
        shuffled = shuffle_permutation_chi2(labels, flags, n, seed=10)
        assert drawn.statistic == shuffled.statistic
        p = (drawn.p_value + shuffled.p_value) / 2
        assert abs(drawn.p_value - shuffled.p_value) <= 4 * np.sqrt(p * (1 - p) / n)

    def test_drawn_counts_have_hypergeometric_moments(self):
        # 100,000 draws over seven blocks: the means within four standard
        # errors, the variances within 3 % (about six standard errors)
        totals = np.array([1, 6, 40, 13])
        m, n = 25, 100_000
        draws = np.concatenate(list(_flagged_count_blocks(totals, m, n, seed=11)))
        assert draws.shape == (n, 4)
        assert (draws.sum(axis=1) == m).all()
        assert ((draws >= 0) & (draws <= totals)).all()
        share = totals / totals.sum()
        mean = m * share
        var = m * share * (1 - share) * (totals.sum() - m) / (totals.sum() - 1)
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - mean), 4 * np.sqrt(var / n))
        np.testing.assert_allclose(draws.var(axis=0), var, rtol=0.03)


class TestHolm:
    def test_hand_example(self):
        assert holm_correction([0.01, 0.04, 0.03]) == [0.03, 0.06, 0.06]

    def test_capped_at_one(self):
        assert holm_correction([0.6, 0.7]) == [1.0, 1.0]

    def test_single_p_unchanged(self):
        assert holm_correction([0.2]) == [0.2]

    def test_adjusted_never_below_raw(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(size=12).tolist()
        adj = holm_correction(ps)
        assert all(a >= p for a, p in zip(adj, ps))


def labelled_set(group_sizes, end_states, n_states=4):
    """One-transition trajectories tagged with a demographic group."""
    groups = [group for group, size in group_sizes.items() for _ in range(size)]
    ends = [end_states[group] for group in groups]
    return make_set(
        [[(0, 0, end)] for end in ends],
        [f"t{i:03d}" for i in range(len(groups))],
        [{"sex": group} for group in groups],
        [end == 0 for end in ends],
        n_states,
        1,
    )


class TestDisparity:
    def test_uniform_pruning_is_null(self):
        tset = labelled_set({"f": 20, "m": 20}, {"f": 1, "m": 2})
        # retain exactly half of each group
        retained = np.isin(np.arange(40), [*range(10), *range(20, 30)])
        res = pruning_uniformity(tset, retained, "sex", n_permutations=500, seed=0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert dict(res.groups) == {"f": 20, "m": 20}

    def test_skewed_pruning_detected(self):
        tset = labelled_set({"f": 20, "m": 20}, {"f": 1, "m": 2})
        retained = tset.demographics["sex"] == "m"
        res = pruning_uniformity(tset, retained, "sex", n_permutations=2000, seed=0)
        assert res.p_value == res.p_floor
        assert res.name == "pruning_uniformity[sex]"

    def test_mortality_axis_supported(self):
        tset = labelled_set({"f": 10, "m": 10}, {"f": 0, "m": 2})
        retained = np.isin(np.arange(20), range(5, 15))
        res = pruning_uniformity(
            tset, retained, "died_in_hospital", n_permutations=200, seed=0
        )
        assert dict(res.groups) == {"0": 10, "1": 10}

    def test_missing_attribute_named(self):
        tset = labelled_set({"f": 4, "m": 4}, {"f": 1, "m": 2})
        with pytest.raises(ParameterError, match="race"):
            pruning_uniformity(tset, np.ones(8, dtype=bool), "race", n_permutations=10)

    def test_per_trajectory_delta_hand_value(self):
        tset = make_set([[(0, 0, 1), (1, 0, 2)]], ["t"])
        r1 = RewardModel([0.9, 0.0, 0.0])  # initial state never enters the delta
        r2 = RewardModel([-0.9, 1.0, 0.5])
        assert _reward_deltas(tset, r1, r2).tolist() == [pytest.approx(0.75)]

    def test_reward_deltas_hold_one_block_of_steps(self, rows_400k):
        """Peak traced memory of _reward_deltas per row, on 400,000 rows: 25.2
        bytes with every step's delta gathered at once, 4.9 one block of
        trajectories at a time."""
        r1, r2 = RewardModel(np.linspace(-1, 1, 100)), RewardModel(np.linspace(1, -1, 100))
        assert traced_peak(lambda: _reward_deltas(rows_400k, r1, r2)) < 12 * 400_000

    def test_separated_groups_detected_with_posthoc(self):
        tset = labelled_set({"f": 12, "m": 12}, {"f": 1, "m": 2})
        r1 = RewardModel([0.0, 0.0, 0.0, 0.0])
        r2 = RewardModel([0.0, 1.0, 0.0, 0.0])  # only group f's end state moves
        omnibus, posthoc = reward_loss_disparity(
            tset, r1, r2, "sex", n_permutations=2000, seed=0
        )
        assert omnibus.p_value == omnibus.p_floor
        assert len(posthoc) == 1
        pair = posthoc[0]
        assert (pair.group_a, pair.group_b) == ("f", "m")
        assert pair.mean_difference == pytest.approx(1.0)
        assert pair.p_adjusted == pair.p_value  # one pair: nothing to adjust for

    def test_small_groups_dropped_with_warning(self):
        tset = labelled_set({"f": 8, "m": 8, "x": 1}, {"f": 1, "m": 2, "x": 3})
        r1 = RewardModel([0.0, 0.0, 0.0, 0.0])
        r2 = RewardModel([0.0, 0.5, 0.1, 0.9])
        with pytest.warns(UserWarning, match="fewer than 2.*x"):
            omnibus, _ = reward_loss_disparity(
                tset, r1, r2, "sex", n_permutations=200, seed=0
            )
        assert dict(omnibus.groups) == {"f": 8, "m": 8}

    def test_only_one_viable_group_rejected(self):
        tset = labelled_set({"f": 8, "x": 1}, {"f": 1, "x": 3})
        r1 = RewardModel([0.0, 0.0, 0.0, 0.0])
        r2 = RewardModel([0.0, 0.5, 0.1, 0.9])
        with pytest.warns(UserWarning):
            with pytest.raises(ParameterError, match="two groups"):
                reward_loss_disparity(tset, r1, r2, "sex", n_permutations=100)

    def test_retained_mask_restricts_population(self):
        tset = labelled_set({"f": 12, "m": 12}, {"f": 1, "m": 2})
        keep = np.isin(np.arange(24), [*range(8), *range(12, 20)])
        r1 = RewardModel([0.0, 0.0, 0.0, 0.0])
        r2 = RewardModel([0.0, 1.0, 0.0, 0.0])
        omnibus, _ = reward_loss_disparity(
            tset.subset(keep), r1, r2, "sex", n_permutations=200, seed=0
        )
        assert dict(omnibus.groups) == {"f": 8, "m": 8}


    def test_equals_the_one_permutation_at_a_time_oracles(self):
        rng = np.random.default_rng(8)
        sites = rng.choice(["a", "b", "c", "d"], size=41)
        blocks = []
        for _ in sites:
            path = rng.integers(0, 5, size=int(rng.integers(2, 6))).tolist()
            blocks.append([(s, 0, sp) for s, sp in zip(path, path[1:])])
        tset = make_set(
            blocks, [f"t{i:03d}" for i in range(len(sites))],
            [{"site": str(site)} for site in sites], n_states=5, n_actions=1,
        )
        r1, r2 = (RewardModel(rng.uniform(-1, 1, size=5)) for _ in range(2))
        values = _reward_deltas(tset, r1, r2).tolist()
        omnibus, posthoc = reward_loss_disparity(tset, r1, r2, "site", n_permutations=300, seed=3)
        assert omnibus == reference_permutation_anova(
            values, sites, 300, 3, name="reward_loss_disparity[site]"
        )
        assert posthoc == reference_pairwise_permutation_tests(values, sites, 300, 3)
        assert len(posthoc) == 6


class TestAllAttributes:
    """reward_loss_disparity_tests: every attribute of every run, one stream per value count."""

    @staticmethod
    def tagged_set(tags: dict):
        """41 random walks over 5 states with the given tag columns, and two rewards."""
        rng = np.random.default_rng(8)
        blocks = []
        for _ in range(41):
            path = rng.integers(0, 5, size=int(rng.integers(2, 6))).tolist()
            blocks.append([(s, 0, sp) for s, sp in zip(path, path[1:])])
        rows = [{tag: str(column[i]) for tag, column in tags.items()} for i in range(41)]
        tset = make_set(blocks, [f"t{i:03d}" for i in range(41)], rows, n_states=5, n_actions=1)
        r1, r2 = (RewardModel(rng.uniform(-1, 1, size=5)) for _ in range(2))
        return tset, r1, r2

    @staticmethod
    def streams(monkeypatch):
        """(seed, values, sets of groups) of each stream drawn, in order."""
        calls = []
        monte_carlo_p = analyze._monte_carlo_p

        def counting(families, n_permutations, seed):
            calls.append((seed, families[0].values.size, len(families)))
            return monte_carlo_p(families, n_permutations, seed)

        monkeypatch.setattr(analyze, "_monte_carlo_p", counting)
        return calls

    @staticmethod
    def assert_matches_oracles(results, tset, r1, r2):
        values = np.array(_reward_deltas(tset, r1, r2))
        for attribute, (omnibus, posthoc) in results.items():
            labels = tset.demographics[attribute].astype(str)
            kept = np.isin(labels, [g for g, size in omnibus.groups])
            v, g = values[kept].tolist(), labels[kept]
            assert omnibus == reference_permutation_anova(
                v, g, 300, 3, name=f"reward_loss_disparity[{attribute}]"
            )
            assert posthoc == reference_pairwise_permutation_tests(v, g, 300, 3)

    def test_equal_value_counts_draw_one_stream(self, monkeypatch):
        """Three attributes over all 41 values: every ANOVA and pair reads one stream."""
        rng = np.random.default_rng(9)
        tset, r1, r2 = self.tagged_set({
            "site": rng.choice(list("abcd"), size=41),
            "sex": np.array(["f", "m"])[np.arange(41) % 2],
            "arm": np.array(["x", "y"])[(np.arange(41) % 3 == 0).astype(int)],
        })
        calls = self.streams(monkeypatch)
        (results,), skipped = reward_loss_disparity_tests(
            tset, [(r1, r2)], ["site", "sex", "arm"], n_permutations=300, seed=3
        )
        assert list(results) == ["site", "sex", "arm"] and skipped == {}
        assert calls == [(3, 41, 3)]  # 3 ANOVAs and 8 pairs
        self.assert_matches_oracles(results, tset, r1, r2)

    def test_a_dropped_group_draws_its_own_stream(self, monkeypatch):
        sites = np.array(["a", "b"] * 20 + ["z"])  # z, a group of one, is dropped
        tset, r1, r2 = self.tagged_set({"site": sites, "sex": np.array(["f", "m"] * 20 + ["f"])})
        calls = self.streams(monkeypatch)
        with pytest.warns(UserWarning, match="fewer than 2.*z"):
            (results,), _ = reward_loss_disparity_tests(
                tset, [(r1, r2)], ["site", "sex"], n_permutations=300, seed=3
            )
        assert dict(results["site"][0].groups) == {"a": 20, "b": 20}
        assert calls == [(3, 40, 1), (3, 41, 1)]  # 40 values for site, 41 for sex
        self.assert_matches_oracles(results, tset, r1, r2)

    def test_a_subset_of_the_attributes(self, monkeypatch):
        rng = np.random.default_rng(10)
        tset, r1, r2 = self.tagged_set({
            "site": rng.choice(list("abc"), size=41), "sex": rng.choice(list("fm"), size=41),
        })
        calls = self.streams(monkeypatch)
        (results,), _ = reward_loss_disparity_tests(tset, [(r1, r2)], ["sex"], 300, 3)
        assert list(results) == ["sex"] and calls == [(3, 41, 1)]
        self.assert_matches_oracles(results, tset, r1, r2)
        assert results["sex"] == reward_loss_disparity(tset, r1, r2, "sex", 300, 3)

    def test_every_run_shares_the_stream(self, monkeypatch):
        """Runs of the same trajectories, as a sweep's legs are, draw one stream
        between them, and each run's results are what it gives alone."""
        rng = np.random.default_rng(11)
        tset, r1, r2 = self.tagged_set({
            "site": rng.choice(list("abc"), size=41), "sex": rng.choice(list("fm"), size=41),
        })
        r3 = RewardModel(rng.uniform(-1, 1, size=5))
        calls = self.streams(monkeypatch)
        both, _ = reward_loss_disparity_tests(
            tset, [(r1, r2), (r1, r3)], ["site", "sex"], 300, 3
        )
        assert calls == [(3, 41, 4)]
        for run, (first, second) in zip(both, [(r1, r2), (r1, r3)]):
            (alone,), _ = reward_loss_disparity_tests(
                tset, [(first, second)], ["site", "sex"], 300, 3
            )
            assert run == alone
            self.assert_matches_oracles(run, tset, first, second)

    def test_an_untestable_attribute_is_skipped_and_the_rest_run(self):
        tset, r1, r2 = self.tagged_set({
            "site": np.array(["a"] * 40 + ["z"]), "sex": np.array(["f", "m"] * 20 + ["f"]),
        })
        with pytest.warns(UserWarning):
            (results,), skipped = reward_loss_disparity_tests(
                tset, [(r1, r2)], ["site", "race", "sex"], n_permutations=50, seed=3
            )
        assert list(results) == ["sex"]
        assert "two groups" in str(skipped["site"]) and "'race'" in str(skipped["race"])
        with pytest.raises(ParameterError, match="'race'"):
            reward_loss_disparity(tset, r1, r2, "race", n_permutations=50)

    def test_no_attributes_no_streams(self, monkeypatch):
        tset, r1, r2 = self.tagged_set({"site": np.array(["a", "b"] * 20 + ["a"])})
        calls = self.streams(monkeypatch)
        assert reward_loss_disparity_tests(tset, [(r1, r2)] * 2, [], 50, 3) == ([{}, {}], {})
        assert calls == []


class TestRewardDeltaRows:
    def fake_result(self):
        return SimpleNamespace(
            n_states=3,
            reward_stage1=RewardModel([0.0, 1.0, -1.0]),
            reward_stage2=RewardModel([0.0, 0.5, -1.0]),
            reward_delta=np.array([0.0, -0.5, 0.0]),
            policy_stage1=DeterministicPolicy([0, 1, 0]),
            policy_stage2=DeterministicPolicy([0, 1, 1]),
            policy_agreement=np.array([True, True, False]),
        )

    def test_one_row_per_state(self):
        table = reward_delta_by_state(self.fake_result())
        assert list(table) == ["state", "r1", "r2", "delta", "policy1", "policy2", "agree"]
        assert table["state"].tolist() == [0, 1, 2]
        assert {name: column[1].item() for name, column in table.items()} == {
            "state": 1,
            "r1": 1.0,
            "r2": 0.5,
            "delta": -0.5,
            "policy1": 1,
            "policy2": 1,
            "agree": True,
        }
        assert table["agree"][2].item() is False

    def test_corrupted_dominated_states_move_more(self):
        """States visited mostly by corrupted experts shift most under pruning.

        Pinned to early-stopped sga fits (150 epochs at lr0 0.5): fitted with
        lbfgs to the gradient tolerance, those states move less than the rest.
        """
        world = generate_world(40, 3, branching=4, seed=17, horizon=12)
        pop = generate_population(
            world,
            PopulationConfig(n_trajectories=400, corrupted_fraction=0.35, seed=2),
        )
        result = run_two_stage(
            pop.trajectories,
            IrlConfig(epochs=150, lr0=0.5, seed=0, optimizer="sga"),
            PruneConfig(retain_fraction=0.6),
        )
        tset = pop.trajectories
        corrupted = np.array([pop.corrupted[tid] for tid in tset.ids])

        def visits(keep):
            """Visits of the first and every next state by the kept trajectories."""
            states = np.concatenate(
                [tset.first_states[keep], tset.triples[np.repeat(keep, tset.lengths), 2]]
            )
            return np.bincount(states, minlength=world.n_states).astype(float)

        corrupted_visits = visits(corrupted)
        total_visits = visits(np.ones(len(tset), dtype=bool))
        dominated = corrupted_visits > (total_visits - corrupted_visits)
        visited = total_visits > 0
        assert (dominated & visited).any() and (~dominated & visited).any()
        moved = np.abs(result.reward_delta)
        assert moved[dominated & visited].mean() >= moved[~dominated & visited].mean()


class TestReportFiles:
    def make_results(self):
        labels = np.repeat(["a", "b"], 15)
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0, 1, 15), rng.normal(2, 1, 15)])
        omnibus = permutation_anova(values, labels, n_permutations=200, seed=0)
        posthoc = pairwise_permutation_tests(values, labels, n_permutations=200, seed=0)
        return omnibus, posthoc

    def test_json_report_carries_note_and_posthoc(self, tmp_path):
        omnibus, posthoc = self.make_results()
        path = tmp_path / "tests.json"
        write_tests_json([omnibus], path, posthoc={omnibus.name: posthoc})
        payload = json.loads(path.read_text())
        assert payload["note"] == f"{PERMUTATION_NOTE}; {POSTHOC_NOTE}"
        assert "step-down maxT" in payload["note"]
        entry = payload["tests"][0]
        assert entry["note"] == PERMUTATION_NOTE
        assert entry["p_floor"] == pytest.approx(1 / 201)
        assert list(entry["posthoc"][0]) == [
            "group_a", "group_b", "mean_difference", "p_adjusted", "p_value"]
        assert entry["posthoc"][0]["group_a"] == "a"

    def test_an_infinite_statistic_is_null_in_json_and_inf_in_csv(self, tmp_path):
        """Groups with no within-group variance have F = inf; JSON has no Infinity."""
        omnibus = permutation_anova([0.0, 0.0, 1.0, 1.0], ["a", "a", "b", "b"], 20, seed=0)
        assert omnibus.statistic == np.inf
        write_tests_json([omnibus], tmp_path / "tests.json")
        write_tests_csv([omnibus], tmp_path / "tests.csv")
        payload = read_json(tmp_path / "tests.json")
        assert payload["note"] == PERMUTATION_NOTE  # no posthoc rows, no note of theirs
        entry = payload["tests"][0]
        assert entry["statistic"] is None and entry["p_value"] == omnibus.p_value
        with open(tmp_path / "tests.csv") as fh:
            fh.readline()
            assert next(csv.DictReader(fh))["statistic"] == "inf"

    def test_csv_report_carries_note(self, tmp_path):
        omnibus, _ = self.make_results()
        path = tmp_path / "tests.csv"
        write_tests_csv([omnibus], path)
        text = path.read_text()
        assert text.startswith(f"# {PERMUTATION_NOTE}\n")
        with open(path) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert rows[0]["name"] == omnibus.name
        assert float(rows[0]["p_value"]) == omnibus.p_value
