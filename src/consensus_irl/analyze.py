"""Report surfaces: cluster feature tables, score deciles, disparity tests.

The cluster table, the deciles and the per-state reward comparison are each
built once as a table: a {column name: column} dict in CSV header order,
which the CSV writers pass to write_table unchanged.

Statistical tests use Monte Carlo permutation p-values in place of asymptotic
chi-squared / F distributions and Tukey's range test (pairwise permutation
with Holm correction stands in for the latter). Every emitted report states
this. The statistic definitions themselves are the classical ones, so the
permutation p converges to the textbook p when the asymptotics hold.

Each test draws its n permutations from one stream seeded by its seed, in
blocks, and computes the statistic of a whole block at once; the p-value is
the add-one estimate (1 + #{permuted >= observed}) / (1 + n), never below
1 / (n + 1). The ANOVA and pairwise tests shuffle the values, and their
blocks draw the stream exactly as one rng.permutation call per permutation
does. The chi-squared test reads only each group's flagged count, so it draws
those counts from their exact permutation distribution, the multivariate
hypergeometric given the table margins, and shuffles no row; its blocks draw
the stream exactly as one draw per permutation does. Either way the block
size changes no p-value.

A p-value depends only on its seed, the statistic and the values, so each
one is a self-contained job. test_reward_loss_disparity runs the ANOVA and
pairwise tests of one attribute as parallel jobs, one forked worker per CPU
the process may use, and the worker count changes no p-value.
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .mdp import RewardModel
from .prune import TrajectoryScores
from .table import write_json, write_table
from .trajectories import TrajectorySet

PERMUTATION_NOTE = (
    "p-values are seeded Monte Carlo permutation estimates, "
    "not asymptotic chi-squared/F probabilities"
)
N_PERMUTATIONS = 10_000  # every test's default


# ---------------------------------------------------------------------------
# cluster feature tables


def cluster_report(
    cluster_stats: dict,
    reward: RewardModel,
    top_k: int = 25,
    baseline: dict | None = None,
) -> dict:
    """The best and worst top_k clusters by reward, as a table of columns.

    cluster_stats maps cluster index -> {"count", "means", "stds"} with
    feature statistics in original units. The table maps each column name to
    its column, in CSV order: side, rank, cluster, reward, count, then for
    each feature in sorted order its mean and std. A baseline is the report
    of the same clusters and top_k under another reward (the stage-1 report,
    for stage 2's); with one, each feature also gets delta_mean and
    delta_std, this report's column minus the baseline's, row for row.
    """
    clusters = sorted(cluster_stats)
    if not (1 <= top_k <= len(clusters)):
        raise ParameterError(
            f"top_k={top_k} out of range for {len(clusters)} clusters"
        )
    order = sorted(clusters, key=lambda c: (-reward.rewards[c], c))
    rank = np.r_[0:top_k, len(order) - top_k : len(order)]
    cluster = np.array(order, dtype=np.int64)[rank]
    picked = [cluster_stats[c] for c in cluster.tolist()]
    table = {
        "side": ["best"] * top_k + ["worst"] * top_k,
        "rank": rank,
        "cluster": cluster,
        "reward": reward.rewards[cluster],
        "count": np.array([st["count"] for st in picked], dtype=np.int64),
    }
    for f in sorted(picked[0]["means"]):
        for stat in ("mean", "std"):
            table[f"{f}_{stat}"] = np.array([st[stat + "s"][f] for st in picked], np.float64)
        if baseline is not None:
            for stat in ("mean", "std"):
                table[f"{f}_delta_{stat}"] = table[f"{f}_{stat}"] - baseline[f"{f}_{stat}"]
    return table


def write_cluster_report_csv(table: dict, path) -> None:
    write_table(path, list(table), list(table.values()))


# ---------------------------------------------------------------------------
# consensus-score deciles


def end_state_deciles(scores: TrajectoryScores) -> dict:
    """Mean end-state reward per consensus-score decile, as a table of columns.

    Trajectories are ranked by C ascending (worst consensus first, ties by
    id) and split into ten buckets whose sizes differ by at most one; bucket
    i covers the percentile band [10i, 10(i+1)).
    """
    if len(scores) < 10:
        raise ParameterError("need at least 10 scored trajectories for deciles")
    rewards = scores.end_state_reward[np.lexsort((np.array(scores.ids), scores.C))]
    buckets = np.array_split(rewards, 10)
    return {
        "bucket": np.arange(10),
        "percentile_low": np.arange(0, 100, 10),
        "percentile_high": np.arange(10, 110, 10),
        "mean_end_state_reward": np.array([float(bucket.mean()) for bucket in buckets]),
        "count": np.array([bucket.size for bucket in buckets]),
    }


def write_deciles_csv(table: dict, path) -> None:
    write_table(path, list(table), list(table.values()))


# ---------------------------------------------------------------------------
# permutation statistics


@dataclass
class TestResult:
    name: str
    statistic: float
    p_value: float
    n_permutations: int
    seed: int
    groups: list = field(default_factory=list)  # (label, size) pairs
    note: str = PERMUTATION_NOTE

    @property
    def p_floor(self) -> float:
        return 1.0 / (self.n_permutations + 1)


@dataclass
class PairwiseResult:
    group_a: str
    group_b: str
    mean_difference: float
    p_value: float
    p_holm: float


# Values in one block of permutations (1 MiB of float64). A test's memory does
# not grow with n_permutations, and a block is long enough that the Python
# work per block is small next to the shuffle itself.
_BLOCK_VALUES = 1 << 17


def _chi_squared_rows(tables: np.ndarray) -> np.ndarray:
    """Pearson chi-squared of every table in a (b, r, c) stack.

    Each table is summed as chi_squared_statistic sums one: its grand total
    and its contributions over the flattened table, row and column totals
    along their own axis. A table of all zeros gives 0.
    """
    b = len(tables)
    total = tables.reshape(b, -1).sum(axis=1)[:, None, None]
    # in place, so a block holds three tables' worth of values at most
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = tables.sum(axis=2, keepdims=True) * tables.sum(axis=1, keepdims=True)
        expected /= total
        contrib = np.subtract(tables, expected)
        np.square(contrib, out=contrib)
        contrib /= expected
    contrib[~(expected > 0)] = 0.0
    return contrib.reshape(b, -1).sum(axis=1)


def _anova_f_rows(rows: np.ndarray, sizes) -> np.ndarray:
    """One-way ANOVA F of every row of a (b, n) block.

    The groups are the consecutive slices of the given sizes. Each row is
    reduced in the order anova_f_statistic reduces one set of groups: group
    sums along the row, the between-group sum accumulated from 0 in group
    order. Zero within-group variance gives inf, or 0 when the group means
    are equal too.
    """
    k, n = len(sizes), rows.shape[1]
    grand = rows.mean(axis=1)
    ss_between = np.zeros(len(rows))
    ss_within = np.zeros(len(rows))
    start = 0
    for size in sizes:
        group = rows[:, start : start + size]
        start += size
        mean = group.mean(axis=1)
        # float_power calls libm pow like the numpy scalar `** 2` of the
        # one-set statistic; an array's `** 2` multiplies instead, which
        # rounds differently about once in a thousand
        ss_between += size * np.float_power(mean - grand, 2)
        ss_within += ((group - mean[:, None]) ** 2).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (ss_between / (k - 1)) / (ss_within / (n - k))
    return np.where(ss_within == 0.0, np.where(ss_between > 0, np.inf, 0.0), f)


def _mean_gap_rows(rows: np.ndarray, n_first: int) -> np.ndarray:
    """|mean of the first n_first values - mean of the rest| of every row."""
    return np.abs(rows[:, :n_first].mean(axis=1) - rows[:, n_first:].mean(axis=1))


def chi_squared_statistic(table) -> float:
    """Pearson chi-squared; cells with zero expected count contribute zero."""
    return float(_chi_squared_rows(np.asarray(table, dtype=float)[None])[0])


def anova_f_statistic(groups: list[np.ndarray]) -> float:
    """One-way ANOVA F. Zero within-group variance gives inf (or 0 at the null)."""
    rows = np.concatenate(groups)[None]
    return float(_anova_f_rows(rows, [len(g) for g in groups])[0])


def _canonical_order(labels: np.ndarray, values: np.ndarray):
    # sort rows so the permutation stream is independent of input row order
    order = np.lexsort((values, labels))
    return labels[order], values[order]


def _check_permutations(n_permutations: int) -> None:
    if n_permutations < 1:
        raise ParameterError(f"n_permutations must be at least 1, got {n_permutations}")


def _monte_carlo_p(batch_stat, x, observed, n_permutations: int, rng) -> float:
    """Add-one p-value (1 + #{perm >= observed}) / (1 + n) over permutations of x.

    The permutations are drawn in blocks of rows, and batch_stat maps a block
    to one statistic per row. rng.permuted on the rows of a block of copies
    of x draws from the stream exactly as one rng.permutation(x) call per row
    does, so the rows are the permutations, in order, that one call at a time
    would give.
    """
    block = np.empty((min(n_permutations, max(1, _BLOCK_VALUES // x.size)), x.size), x.dtype)
    hits = 0
    for start in range(0, n_permutations, len(block)):
        rows = block[: n_permutations - start]
        rows[:] = x
        rng.permuted(rows, axis=1, out=rows)
        hits += int(np.count_nonzero(batch_stat(rows) >= observed - 1e-12))
    return (1 + hits) / (1 + n_permutations)


class _PermutationJob(NamedTuple):
    """One Monte Carlo p-value and everything it depends on.

    stat maps a block of permuted rows of values to one statistic per row,
    and the permutations come from the stream seeded by seed alone. So a
    job's p-value is the same whichever process evaluates it, and in
    whatever order next to other jobs.
    """

    stat: Callable[[np.ndarray], np.ndarray]
    values: np.ndarray
    observed: float
    n_permutations: int
    seed: int | np.random.SeedSequence

    def p_value(self) -> float:
        rng = np.random.default_rng(self.seed)
        return _monte_carlo_p(self.stat, self.values, self.observed, self.n_permutations, rng)


def _checked_values(values, labels, n_permutations: int):
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if values.shape != labels.shape:
        raise ParameterError("values and labels must have equal length")
    _check_permutations(n_permutations)
    return values, labels


def _anova_job(values, labels, n_permutations: int, seed):
    """The permutation ANOVA's job, and its (label, size) groups."""
    values, labels = _checked_values(values, labels, n_permutations)
    cats, codes = np.unique(labels, return_inverse=True)
    if len(cats) < 2:
        raise ParameterError("need at least two groups")
    codes, values = _canonical_order(codes, values)
    sizes = np.bincount(codes, minlength=len(cats))
    stat = partial(_anova_f_rows, sizes=sizes)
    observed = float(stat(values[None])[0])
    groups = [(str(c), int(s)) for c, s in zip(cats, sizes)]
    return _PermutationJob(stat, values, observed, n_permutations, seed), groups


def _pairwise_jobs(values, labels, n_permutations: int, seed):
    """One job per pair of groups, and each pair's (a, b, mean a - mean b).

    The pairs are the sorted labels' pairs in order, and each job draws from
    its own child of SeedSequence(seed).
    """
    values, labels = _checked_values(values, labels, n_permutations)
    # with counts, np.unique sorts rather than hashing, the path that imports numpy.ma
    cats = sorted(np.unique(labels, return_counts=True)[0].tolist())
    pairs = [(a, b) for i, a in enumerate(cats) for b in cats[i + 1 :]]
    seeds = np.random.SeedSequence(seed).spawn(len(pairs))
    differences, jobs = [], []
    for (a, b), ss in zip(pairs, seeds):
        va = np.sort(values[labels == a])
        vb = np.sort(values[labels == b])
        difference = va.mean() - vb.mean()
        differences.append((a, b, difference))
        stat = partial(_mean_gap_rows, n_first=len(va))
        pooled = np.concatenate([va, vb])
        jobs.append(_PermutationJob(stat, pooled, abs(difference), n_permutations, ss))
    return differences, jobs


def _pairwise_results(differences, p_values) -> list[PairwiseResult]:
    adjusted = holm_correction(p_values)
    return [
        PairwiseResult(str(a), str(b), float(d), float(p), float(ph))
        for (a, b, d), p, ph in zip(differences, p_values, adjusted)
    ]


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _p_values(jobs: list[_PermutationJob]) -> list[float]:
    """Every job's p-value, in order, from one forked worker per usable CPU.

    The largest jobs are submitted first, so a small one finishes last. With
    one CPU, or where fork is not available, the same jobs run inline. The
    pool's modules are imported here so that importing the package does not
    pay for them.
    """
    workers = min(_worker_count(), len(jobs))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # not spawn: a spawned worker imports numpy and this package
            # again, which costs about what the parallel tests save
            context = multiprocessing.get_context("fork")
            largest_first = sorted(range(len(jobs)), key=lambda i: -jobs[i].values.size)
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                futures = {i: pool.submit(jobs[i].p_value) for i in largest_first}
                return [futures[i].result() for i in range(len(jobs))]
    return [job.p_value() for job in jobs]


def _flagged_count_blocks(totals, m: int, n_permutations: int, seed: int):
    """Per-group flagged counts of n_permutations permuted flag columns, in blocks.

    Permuting m flags over groups of the given totals leaves the flagged
    counts multivariate hypergeometric, so each (b, k) block is drawn from
    that distribution directly. A block's draws and the statistic's
    temporaries (the (b, k, 2) tables, expected counts, contributions and
    their masks) come to under 8 b k values, kept within _BLOCK_VALUES. The
    "marginals" method draws the stream the same way whatever the block size
    ("count" does not), so the blocks are the draws that one call per
    permutation would give, in order.
    """
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_VALUES // (8 * len(totals)))
    for start in range(0, n_permutations, block):
        size = min(block, n_permutations - start)
        yield rng.multivariate_hypergeometric(totals, m, size=size, method="marginals")


def permutation_chi2(
    labels, flags, n_permutations: int = N_PERMUTATIONS, seed: int = 0, name: str = "chi2"
) -> TestResult:
    """Independence test of a categorical label against a binary flag.

    The statistic is Pearson chi-squared on the labels x {flag, not-flag}
    contingency table, where a row is flagged when its flag equals 1. The
    statistic reads only each label's flagged count, and under permuted flags
    those counts are multivariate hypergeometric given the margins (the label
    totals and the number flagged). So the p-value draws the counts from that
    exact permutation distribution instead of shuffling rows, and depends on
    the rows only through the margins: the add-one estimate
    (1 + #{drawn >= observed}) / (1 + n).
    """
    labels = np.asarray(labels)
    flags = np.asarray(flags, dtype=int)
    if labels.shape != flags.shape:
        raise ParameterError("labels and flags must have equal length")
    _check_permutations(n_permutations)
    cats, codes = np.unique(labels, return_inverse=True)
    k = len(cats)
    if k < 2:
        raise ParameterError("need at least two categories")
    totals = np.bincount(codes, minlength=k)
    ones = np.bincount(codes[flags == 1], minlength=k)

    def stat(ones):
        return _chi_squared_rows(np.stack([ones, totals - ones], axis=2, dtype=float))

    observed = float(stat(ones[None])[0])
    blocks = _flagged_count_blocks(totals, int(ones.sum()), n_permutations, seed)
    hits = sum(int(np.count_nonzero(stat(drawn) >= observed - 1e-12)) for drawn in blocks)
    p = (1 + hits) / (1 + n_permutations)
    groups = [(str(c), int(t)) for c, t in zip(cats, totals)]
    return TestResult(name, observed, p, n_permutations, seed, groups)


def permutation_anova(
    values, labels, n_permutations: int = N_PERMUTATIONS, seed: int = 0, name: str = "anova"
) -> TestResult:
    """One-way ANOVA with a Monte Carlo permutation p-value."""
    job, groups = _anova_job(values, labels, n_permutations, seed)
    return TestResult(name, job.observed, job.p_value(), n_permutations, seed, groups)


def holm_correction(p_values: list[float]) -> list[float]:
    """Step-down Holm adjustment, order preserved."""
    m = len(p_values)
    order = np.argsort(p_values)
    adjusted = np.empty(m)
    running = 0.0
    for i, idx in enumerate(order):
        running = max(running, (m - i) * p_values[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted.tolist()


def pairwise_permutation_tests(
    values, labels, n_permutations: int = N_PERMUTATIONS, seed: int = 0
) -> list[PairwiseResult]:
    """Two-sided two-sample permutation tests for every pair of groups."""
    pairs, jobs = _pairwise_jobs(values, labels, n_permutations, seed)
    return _pairwise_results(pairs, [job.p_value() for job in jobs])


# ---------------------------------------------------------------------------
# disparity tests over trajectory sets


def _attribute_labels(trajectories: TrajectorySet, attribute: str) -> np.ndarray:
    if attribute == "died_in_hospital":
        return np.where(trajectories.died_in_hospital, "1", "0")
    column = trajectories.demographics.get(attribute)
    if column is None:
        column = np.full(len(trajectories), None, dtype=object)
    missing = np.flatnonzero(np.equal(column, None))
    if missing.size:
        raise ParameterError(
            f"trajectory {trajectories.ids[missing[0]]} is missing "
            f"demographic attribute {attribute!r}"
        )
    return np.array(column.tolist())


def test_pruning_uniformity(
    trajectories: TrajectorySet,
    retained,
    attribute: str,
    n_permutations: int = N_PERMUTATIONS,
    seed: int = 0,
) -> TestResult:
    """Is being pruned independent of a demographic attribute?

    retained is the bool mask of the retained trajectories, in set order.
    Builds the attribute x {pruned, retained} contingency table and tests
    independence by permutation chi-squared.
    """
    labels = _attribute_labels(trajectories, attribute)
    pruned = (~trajectories.require_mask(retained)).astype(int)
    return permutation_chi2(
        labels,
        pruned,
        n_permutations=n_permutations,
        seed=seed,
        name=f"pruning_uniformity[{attribute}]",
    )


def _reward_deltas(trajectories: TrajectorySet, reward1, reward2) -> np.ndarray:
    """Each trajectory's mean per-step change in reward over its visited next-states."""
    delta = reward2.rewards - reward1.rewards  # each step's difference, taken per state
    return trajectories.reduce_steps(lambda rows: delta[trajectories.id_column(rows, 2)], np.mean)


def test_reward_loss_disparity(
    trajectories: TrajectorySet,
    reward1: RewardModel,
    reward2: RewardModel,
    attribute: str,
    n_permutations: int = N_PERMUTATIONS,
    seed: int = 0,
) -> tuple[TestResult, list[PairwiseResult]]:
    """Does the stage-2 vs stage-1 reward change differ across groups?

    The per-trajectory effect is the mean over steps of R2(s') - R1(s').
    Omnibus: one-way ANOVA with permutation p. Posthoc: pairwise two-sample
    permutation tests, Holm-corrected. Groups with fewer than two members
    are dropped with a warning. All the p-values are computed as parallel
    jobs, and equal what permutation_anova and pairwise_permutation_tests
    return for the same values and labels.
    """
    labels = _attribute_labels(trajectories, attribute)
    values = _reward_deltas(trajectories, reward1, reward2)
    cats, counts = np.unique(labels, return_counts=True)
    small = [str(c) for c, n in zip(cats, counts) if n < 2]
    if small:
        warnings.warn(
            f"dropping groups with fewer than 2 members: {', '.join(small)}",
            stacklevel=2,
        )
        keep = ~np.isin(labels, small)
        labels, values = labels[keep], values[keep]
    if np.count_nonzero(counts >= 2) < 2:  # the groups kept
        raise ParameterError("need at least two groups with >= 2 members")
    anova, groups = _anova_job(values, labels, n_permutations, seed)
    pairs, pair_jobs = _pairwise_jobs(values, labels, n_permutations, seed)
    p_anova, *p_pairs = _p_values([anova, *pair_jobs])
    name = f"reward_loss_disparity[{attribute}]"
    omnibus = TestResult(name, anova.observed, p_anova, n_permutations, seed, groups)
    return omnibus, _pairwise_results(pairs, p_pairs)


# ---------------------------------------------------------------------------
# per-state comparison and report serialization


def reward_delta_by_state(result) -> dict:
    """Plot-ready per-state comparison of the two stages, as a table of columns."""
    return {
        "state": np.arange(result.n_states),
        "r1": result.reward_stage1.rewards,
        "r2": result.reward_stage2.rewards,
        "delta": result.reward_delta,
        "policy1": result.policy_stage1.actions,
        "policy2": result.policy_stage2.actions,
        "agree": result.policy_agreement,
    }


def write_tests_json(results, path, posthoc: dict | None = None) -> None:
    """JSON summary of test results; posthoc maps test name -> pairwise list."""
    payload = {"note": PERMUTATION_NOTE, "tests": []}
    for res in results:
        entry = dataclasses.asdict(res)
        entry["p_floor"] = res.p_floor
        if posthoc and res.name in posthoc:
            entry["posthoc"] = [dataclasses.asdict(p) for p in posthoc[res.name]]
        payload["tests"].append(entry)
    write_json(path, payload)


def write_tests_csv(results, path) -> None:
    header = ["name", "statistic", "p_value", "p_floor", "n_permutations", "seed", "groups"]
    columns = [
        [res.name for res in results],
        *(np.array([getattr(res, k) for res in results], dtype=np.float64)
          for k in ("statistic", "p_value", "p_floor")),
        *(np.array([getattr(res, k) for res in results], dtype=np.int64)
          for k in ("n_permutations", "seed")),
        [";".join(f"{label}:{size}" for label, size in res.groups) for res in results],
    ]
    write_table(path, header, columns, note=PERMUTATION_NOTE)
