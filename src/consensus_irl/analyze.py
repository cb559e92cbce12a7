"""Report surfaces: cluster feature tables, score deciles, disparity tests.

The cluster table, the deciles and the per-state reward comparison are each
built once as a table: a {column name: column} dict in CSV header order,
which the CSV writers pass to write_table unchanged.

Statistical tests use Monte Carlo permutation p-values in place of asymptotic
chi-squared / F distributions and Tukey's range test (pairwise permutation
tests with Westfall-Young step-down maxT adjustment stand in for the latter).
Every emitted report states this. The statistic definitions themselves are
the classical ones, so the permutation p converges to the textbook p when the
asymptotics hold.

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

The ANOVA and the pairwise tests of one set of groups read the same permuted
rows. Each pair's statistic is its standardized mean gap
|mean a - mean b| / sqrt(1/n_a + 1/n_b), and its raw p counts the rows whose
gap reaches the observed one. Its adjusted p is Westfall and Young's
step-down maxT (Resampling-Based Multiple Testing, 1993, Algorithm 2.8): the
pairs are ranked by observed gap, each is compared with the largest permuted
gap among itself and the pairs ranked below it, and the adjusted p-values are
made monotone in that rank. The null of every pairwise p is that all the
groups are exchangeable (subset pivotality), not only the two compared. A
permutation stream depends only on the seed and the number of values, so
every set of groups tested with one seed over the same number of values,
every attribute of every run of a command when none drops a group, shares one
stream: it draws each permutation once as positions, and each set of groups
gathers its own values through them. The sharing changes no p-value.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
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
POSTHOC_NOTE = (
    "posthoc p_value: permutation p of the standardized mean gap; p_adjusted: "
    "Westfall-Young step-down maxT; both under all groups exchangeable"
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
    p_adjusted: float


# Values in one block of permutations (1 MiB of float64). A test's memory does
# not grow with n_permutations, and a block is long enough that the Python
# work per block is small next to the shuffle itself.
_BLOCK_VALUES = 1 << 17


def _chi_squared_rows(tables: np.ndarray) -> np.ndarray:
    """Pearson chi-squared of every table in a (b, r, c) stack.

    Each table's grand total and its contributions are summed over the
    flattened table, its row and column totals along their own axis. Cells
    with zero expected count contribute zero, so a table of all zeros gives 0.
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
    reduced as the textbook formula reduces one set of groups: group sums
    along the row, the between-group sum accumulated from 0 in group order.
    Zero within-group variance gives inf, or 0 when the group means are
    equal too.
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


def _pair_gap_rows(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(b, pairs) standardized mean gaps |mean a - mean b| / sqrt(1/n_a + 1/n_b)
    of every row of a (b, n) block.

    The groups are the consecutive slices of the given sizes, and the pairs
    are every (a, b) with a before b, in order.
    """
    ends = np.cumsum(sizes)
    means = np.stack([rows[:, end - size : end].mean(axis=1) for end, size in zip(ends, sizes)], 1)
    a, b = np.triu_indices(len(sizes), 1)
    return np.abs(means[:, a] - means[:, b]) / np.sqrt(1.0 / sizes[a] + 1.0 / sizes[b])


def _canonical_order(labels: np.ndarray, values: np.ndarray):
    # sort rows so the permutation stream is independent of input row order
    order = np.lexsort((values, labels))
    return labels[order], values[order]


def _check_permutations(n_permutations: int) -> None:
    if n_permutations < 1:
        raise ParameterError(f"n_permutations must be at least 1, got {n_permutations}")


class _Family(NamedTuple):
    """The family of tests of one set of groups: its ANOVA and every pairwise test.

    values are in canonical order, so the groups are the consecutive slices
    of sizes, one per label. observed holds the F and then every pair's
    standardized gap, and rank orders the pairs by observed gap, largest
    first, the order in which step-down maxT visits them.
    """

    labels: list
    values: np.ndarray
    sizes: np.ndarray
    observed: np.ndarray
    rank: np.ndarray

    @classmethod
    def of(cls, values, labels) -> "_Family":
        values = np.asarray(values, dtype=float)
        labels = np.asarray(labels)
        if values.shape != labels.shape:
            raise ParameterError("values and labels must have equal length")
        cats, codes = np.unique(labels, return_inverse=True)
        if len(cats) < 2:
            raise ParameterError("need at least two groups")
        codes, values = _canonical_order(codes, values)
        sizes = np.bincount(codes, minlength=len(cats))
        observed = np.concatenate(
            [_anova_f_rows(values[None], sizes), _pair_gap_rows(values[None], sizes)[0]]
        )
        rank = np.argsort(-observed[1:], kind="stable")
        return cls(cats.tolist(), values, sizes, observed, rank)

    def hits(self, rows: np.ndarray) -> np.ndarray:
        """How many permuted rows reach each observed statistic: the F, every
        pair's gap, then every pair's successive maximum in rank order."""
        gaps = _pair_gap_rows(rows, self.sizes)
        # column j: the largest gap among the pairs ranked j and below
        successive = np.maximum.accumulate(gaps[:, self.rank[::-1]], axis=1)[:, ::-1]
        reached = np.column_stack([_anova_f_rows(rows, self.sizes), gaps, successive])
        bar = np.concatenate([self.observed, self.observed[1:][self.rank]])
        return np.count_nonzero(reached >= bar - 1e-12, axis=0)

    def results(self, p: np.ndarray, name: str, n_permutations: int, seed: int):
        """The omnibus TestResult and the PairwiseResults from the p of every hit count."""
        groups = [(str(c), int(s)) for c, s in zip(self.labels, self.sizes)]
        omnibus = TestResult(
            name, float(self.observed[0]), float(p[0]), n_permutations, seed, groups
        )
        n_pairs = len(self.rank)
        adjusted = np.empty(n_pairs)
        adjusted[self.rank] = np.maximum.accumulate(p[1 + n_pairs :])  # monotone in rank
        ends = np.cumsum(self.sizes)
        means = [self.values[end - size : end].mean() for end, size in zip(ends, self.sizes)]
        a, b = np.triu_indices(len(self.sizes), 1)
        pairs = [
            PairwiseResult(str(self.labels[i]), str(self.labels[j]), float(means[i] - means[j]),
                           float(p[1 + q]), float(adjusted[q]))
            for q, (i, j) in enumerate(zip(a.tolist(), b.tolist()))
        ]
        return omnibus, pairs


def _monte_carlo_p(families: list[_Family], n_permutations: int, seed) -> list[np.ndarray]:
    """Add-one p-values (1 + hits) / (1 + n) of families that share one stream
    of permutations, default_rng(seed).

    Every family has the same number of values. The permutations are drawn in
    blocks of rows. rng.permuted on the rows of a block of copies of x draws
    from the stream exactly as one rng.permutation(x) call per row does, so
    the rows are the permutations, in order, that one call at a time would
    give. It draws the same whatever the values are, so families that share
    the stream share one block of permuted positions, and each gathers its
    own values through it. A lone family permutes its values directly, which
    is faster than the gather.
    """
    rng = np.random.default_rng(seed)
    shared = len(families) > 1
    x = np.arange(families[0].values.size, dtype=np.intp) if shared else families[0].values
    # with the gathered block beside it, each shared row holds twice the values
    rows_per_block = max(1, _BLOCK_VALUES // (x.size * (2 if shared else 1)))
    block = np.empty((min(n_permutations, rows_per_block), x.size), x.dtype)
    gathered = np.empty(block.shape) if shared else None
    hits = [0] * len(families)
    for start in range(0, n_permutations, len(block)):
        rows = block[: n_permutations - start]
        rows[:] = x
        rng.permuted(rows, axis=1, out=rows)
        for i, family in enumerate(families):
            permuted = np.take(family.values, rows, out=gathered[: len(rows)]) if shared else rows
            hits[i] += family.hits(permuted)
    return [(1 + h) / (1 + n_permutations) for h in hits]


def _p_values(families: list[_Family], n_permutations: int, seed) -> list[np.ndarray]:
    """_monte_carlo_p of every family, in order: the families over the same
    number of values draw one stream."""
    _check_permutations(n_permutations)
    by_size = {}
    for i, family in enumerate(families):
        by_size.setdefault(family.values.size, []).append(i)
    p = [None] * len(families)
    for members in by_size.values():
        shared = _monte_carlo_p([families[i] for i in members], n_permutations, seed)
        for i, p_i in zip(members, shared):
            p[i] = p_i
    return p


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
    groups = _Family.of(values, labels)
    (p,) = _p_values([groups], n_permutations, seed)
    return groups.results(p, name, n_permutations, seed)[0]


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
    """Two-sided permutation tests of every pair of groups, step-down maxT adjusted.

    The pairs are the sorted labels' pairs in order. Their permutations are
    permutation_anova's, and so is the null: every group exchangeable.
    """
    groups = _Family.of(values, labels)
    (p,) = _p_values([groups], n_permutations, seed)
    return groups.results(p, "anova", n_permutations, seed)[1]


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


def _kept_rows(labels: np.ndarray) -> np.ndarray:
    """The rows of the groups of at least two members; the others are dropped
    with a warning."""
    cats, counts = np.unique(labels, return_counts=True)
    small = [str(c) for c, n in zip(cats, counts) if n < 2]
    if small:
        warnings.warn(
            f"dropping groups with fewer than 2 members: {', '.join(small)}",
            stacklevel=3,
        )
    if np.count_nonzero(counts >= 2) < 2:  # the groups kept
        raise ParameterError("need at least two groups with >= 2 members")
    return ~np.isin(labels, small)


def reward_loss_disparity_tests(
    trajectories: TrajectorySet,
    rewards,
    attributes,
    n_permutations: int = N_PERMUTATIONS,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """test_reward_loss_disparity of every attribute, for every run of these trajectories.

    rewards holds one (stage-1, stage-2) RewardModel pair per run; a sweep's
    runs share the trajectories and stage 1. Returns (results, skipped):
    results holds, per reward pair, a map of each attribute that can be
    tested to its (omnibus, pairwise) pair, in the order given; skipped maps
    each other attribute to the ParameterError that rules it out (a
    trajectory without the tag, or fewer than two groups with >= 2 members).
    Every test's p-values are computed together: the sets of groups over the
    same number of values, every attribute of every run when none drops a
    group, share one stream of permutations. Each result is what the
    attribute's test gives alone.
    """
    kept, skipped = {}, {}
    for attribute in attributes:
        try:
            labels = _attribute_labels(trajectories, attribute)
            kept[attribute] = labels, _kept_rows(labels)
        except ParameterError as exc:
            skipped[attribute] = exc
    if not kept:
        return [{} for _ in rewards], skipped
    families = [
        _Family.of(values[keep], labels[keep])
        for values in (_reward_deltas(trajectories, *pair) for pair in rewards)
        for labels, keep in kept.values()
    ]
    tested = zip(families, _p_values(families, n_permutations, seed))
    # each run takes the next len(kept) families: zip stops at the end of kept
    return [
        {
            attribute: family.results(
                p, f"reward_loss_disparity[{attribute}]", n_permutations, seed
            )
            for attribute, (family, p) in zip(kept, tested)
        }
        for _ in rewards
    ], skipped


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
    Omnibus: one-way ANOVA with permutation p. Posthoc: pairwise permutation
    tests of the standardized mean gaps, step-down maxT adjusted, on the
    ANOVA's permutations. Groups with fewer than two members are dropped with
    a warning. The one-attribute case of reward_loss_disparity_tests, equal
    to what permutation_anova and pairwise_permutation_tests return for the
    same values and labels.
    """
    (results,), skipped = reward_loss_disparity_tests(
        trajectories, [(reward1, reward2)], [attribute], n_permutations, seed
    )
    if skipped:
        raise skipped[attribute]
    return results[attribute]


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
    """JSON summary of test results; posthoc maps test name -> pairwise list.

    A statistic that is not finite (the F of groups with no within-group
    variance) is written as null, as JSON has no Infinity. With posthoc
    rows, the note names their method too.
    """
    payload = {"note": f"{PERMUTATION_NOTE}; {POSTHOC_NOTE}" if posthoc else PERMUTATION_NOTE,
               "tests": []}
    for res in results:
        entry = dataclasses.asdict(res)
        if not np.isfinite(res.statistic):
            entry["statistic"] = None
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
