"""Independent oracle computations the tests compare against.

Everything here deliberately avoids the package's own recursions: the
log-likelihood and visitation oracles enumerate paths literally, optimal
values come from brute-force policy enumeration, and exact p-values come
from scipy's distribution tails. Keeping these routes separate from the
implementation is the point; do not "simplify" them to call package code.
"""

import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats
from scipy.special import logsumexp

from consensus_irl.errors import CohortEmptyError, ParameterError, SchemaError
from consensus_irl.trajectories import TrajectorySet


def deterministic_kernel(n_states: int, n_actions: int, seed: int):
    """Random deterministic transition table; returns (probs, next_state)."""
    rng = np.random.default_rng(seed)
    nxt = rng.integers(0, n_states, size=(n_states, n_actions))
    probs = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            probs[s, a, nxt[s, a]] = 1.0
    return probs, nxt


def sample_deterministic_demos(nxt, n_demos: int, horizon: int, seed: int):
    """Uniform-random action demos rolled through a deterministic kernel."""
    n_states, n_actions = nxt.shape
    rng = np.random.default_rng(seed)
    demos = []
    for _ in range(n_demos):
        s = int(rng.integers(n_states))
        triples = np.empty((horizon, 3), dtype=np.int64)
        for t in range(horizon):
            a = int(rng.integers(n_actions))
            sp = int(nxt[s, a])
            triples[t] = (s, a, sp)
            s = sp
        demos.append(triples)
    return demos


def enumeration_objective(nxt, theta, demos, horizon: int) -> float:
    """Mean MaxEnt log-likelihood over demos by literal path enumeration.

    For a deterministic kernel the MaxEnt trajectory distribution from s0
    weights every length-horizon action sequence by exp(path reward). The
    initial state's reward appears in both the path weight and the partition
    function, so it cancels and only next-state rewards remain. The gradient
    of this mean log-likelihood is exactly (empirical - model) state
    visitation, with the initial state counted once on each side.
    """
    n_states, n_actions = nxt.shape
    logz = np.empty(n_states)
    for s0 in range(n_states):
        path_rewards = []
        for seq in itertools.product(range(n_actions), repeat=horizon):
            s, total = s0, 0.0
            for a in seq:
                s = nxt[s, a]
                total += theta[s]
            path_rewards.append(total)
        logz[s0] = logsumexp(path_rewards)
    total = 0.0
    for demo in demos:
        total += theta[demo[:, 2]].sum() - logz[int(demo[0, 0])]
    return total / len(demos)


def central_difference_gradient(fn, theta, h: float = 1e-5) -> np.ndarray:
    grad = np.empty_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        down = theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


def enumeration_visitation(probs, policy_probs, d0, horizon: int) -> np.ndarray:
    """Total expected state-visit mass, summed literally over every path."""
    n_states, n_actions, _ = probs.shape
    visits = np.zeros(n_states)

    def walk(s, t, weight):
        visits[s] += weight
        if t == horizon:
            return
        for a in range(n_actions):
            pa = policy_probs[t, s, a]
            if pa == 0.0:
                continue
            for sp in range(n_states):
                psp = probs[s, a, sp]
                if psp == 0.0:
                    continue
                walk(sp, t + 1, weight * pa * psp)

    for s0 in range(n_states):
        if d0[s0] > 0:
            walk(s0, 0, d0[s0])
    return visits


def gibbs_path_distribution(nxt, theta, s0: int, horizon: int):
    """Exact MaxEnt path probabilities for a deterministic kernel.

    Returns {action sequence: probability} over all length-horizon sequences.
    """
    n_states, n_actions = nxt.shape
    weights = {}
    for seq in itertools.product(range(n_actions), repeat=horizon):
        s, total = s0, 0.0
        for a in seq:
            s = nxt[s, a]
            total += theta[s]
        weights[seq] = total
    log_weights = np.array(list(weights.values()))
    z = logsumexp(log_weights)
    return {seq: float(np.exp(w - z)) for seq, w in weights.items()}


def policy_path_distribution(nxt, policy_probs, s0: int, horizon: int):
    """Path probabilities induced by a time-indexed policy on a deterministic kernel."""
    n_actions = policy_probs.shape[2]
    out = {}
    for seq in itertools.product(range(n_actions), repeat=horizon):
        s, p = s0, 1.0
        for t, a in enumerate(seq):
            p *= policy_probs[t, s, a]
            s = nxt[s, a]
        out[seq] = p
    return out


def brute_force_optimal_values(probs, rewards, horizon: int) -> np.ndarray:
    """Optimal start values by enumerating every time-varying Markov policy."""
    n_states, n_actions, _ = probs.shape
    idx = np.arange(n_states)
    best = np.full(n_states, -np.inf)
    for flat in itertools.product(range(n_actions), repeat=horizon * n_states):
        pol = np.array(flat).reshape(horizon, n_states)
        v = np.zeros(n_states)
        for t in range(horizon - 1, -1, -1):
            v = probs[idx, pol[t]] @ (rewards + v)
        best = np.maximum(best, v)
    return best


def exact_chi2_p(table) -> float:
    """Asymptotic Pearson chi-squared tail probability."""
    table = np.asarray(table, dtype=float)
    expected = table.sum(1, keepdims=True) * table.sum(0, keepdims=True) / table.sum()
    statistic = float(((table - expected) ** 2 / expected).sum())
    df = (table.shape[0] - 1) * (table.shape[1] - 1)
    return float(stats.chi2.sf(statistic, df))


def exact_anova_p(groups) -> float:
    """Exact F tail probability for one-way ANOVA."""
    k = len(groups)
    n = sum(len(g) for g in groups)
    grand = np.concatenate(groups).mean()
    ssb = sum(len(g) * (np.mean(g) - grand) ** 2 for g in groups)
    ssw = sum(float(np.sum((np.asarray(g) - np.mean(g)) ** 2)) for g in groups)
    f = (ssb / (k - 1)) / (ssw / (n - k))
    return float(stats.f.sf(f, k - 1, n - k))


def random_assignment_inertia(z, k: int, n_draws: int, seed: int) -> float:
    """Best within-cluster sum of squares over random row-to-cluster draws.

    Each draw assigns every row a uniform cluster label, places centroids at
    the resulting cluster means, and scores the partition. The minimum over
    draws is a weak baseline any sensible k-means fit must beat or match.
    """
    z = np.asarray(z, dtype=float)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(n_draws):
        labels = rng.integers(0, k, size=len(z))
        total = 0.0
        for c in range(k):
            members = z[labels == c]
            if len(members) == 0:
                continue
            total += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


def exact_randomization_chi2_2x2(table) -> float:
    """Exact permutation-null p for a 2x2 chi-squared test.

    Permuting the binary flag with margins fixed makes the flagged count in
    group A hypergeometric; enumerating it gives the exact distribution the
    Monte Carlo permutation p estimates (distinct from the asymptotic tail
    at small n).
    """
    table = np.asarray(table, dtype=float)
    n_a = int(table[0].sum())
    n_total = int(table.sum())
    n_flagged = int(table[:, 0].sum())

    def statistic(x):
        t = np.array([[x, n_a - x], [n_flagged - x, n_total - n_a - n_flagged + x]])
        expected = t.sum(1, keepdims=True) * t.sum(0, keepdims=True) / t.sum()
        return float(((t - expected) ** 2 / expected).sum())

    observed = statistic(int(table[0, 0]))
    lo = max(0, n_flagged - (n_total - n_a))
    hi = min(n_a, n_flagged)
    support = np.arange(lo, hi + 1)
    pmf = stats.hypergeom.pmf(support, n_total, n_flagged, n_a)
    keep = [statistic(int(x)) >= observed - 1e-12 for x in support]
    return float(pmf[keep].sum())


# ---------------------------------------------------------------------------
# CSV writing


def reference_write_table(path, header, columns, note=None) -> None:
    """The row-by-row csv.writer the package wrote its CSVs with before it
    formatted whole columns: each row goes to csv as a list, a float array's
    cells as the repr of each value, an integer array's as Python ints, and
    any other column's as they are."""

    def cells(column) -> list:
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            return list(map(repr, column.tolist()))
        return column.tolist() if isinstance(column, np.ndarray) else list(column)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        if note:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*map(cells, columns)))


# ---------------------------------------------------------------------------
# dense MaxEnt passes
#
# The package's soft backward and forward passes as they were before both
# went sparse and the log-sum-exp went inline: scipy's logsumexp over a dense
# Q and a dense einsum contraction with the full kernel. The forward pass must
# reproduce its oracle bit for bit. The backward pass adds Q's products in
# another order than the dense matvec, so it must reproduce
# reference_sparse_backward bit for bit and the dense recursion to rounding.


def reference_soft_backward(probs, rewards, horizon: int):
    """(pi_t(a|s) of shape (horizon, S, A), V_0) by the dense recursion."""
    n_states, n_actions, _ = probs.shape
    policy = np.empty((horizon, n_states, n_actions))
    v = np.zeros(n_states)
    for t in range(horizon - 1, -1, -1):
        q = probs @ (rewards + v)
        v = logsumexp(q, axis=1)
        policy[t] = np.exp(q - v[:, None])
    return policy, v


def reference_sparse_backward(probs, rewards, horizon: int):
    """(pi_t(a|s), V_0) with each Q_t(s, a) summed over the row's non-zeros.

    A plain loop: each (s, a) row adds its products P(s,a,s') x(s') in column
    order, starting from 0.0, skipping the zero entries. That is the order the
    package's O(nnz) backward pass adds them in.
    """
    n_states, n_actions, _ = probs.shape
    support = [
        [[(int(sp), float(probs[s, a, sp])) for sp in np.flatnonzero(probs[s, a])]
         for a in range(n_actions)]
        for s in range(n_states)
    ]
    policy = np.empty((horizon, n_states, n_actions))
    v = np.zeros(n_states)
    for t in range(horizon - 1, -1, -1):
        x = [float(value) for value in np.asarray(rewards, dtype=float) + v]
        q = np.zeros((n_states, n_actions))
        for s in range(n_states):
            for a in range(n_actions):
                total = 0.0
                for sp, p in support[s][a]:
                    total += p * x[sp]
                q[s, a] = total
        v = logsumexp(q, axis=1)
        policy[t] = np.exp(q - v[:, None])
    return policy, v


def reference_visitation(probs, policy_probs, d0, horizon: int) -> np.ndarray:
    """Total expected state visitation over t = 0..horizon by dense einsum."""
    d = np.asarray(d0, dtype=float)
    total = d.copy()
    for t in range(horizon):
        d = np.einsum("s,sa,sap->p", d, policy_probs[t], probs)
        total += d
    return total


# ---------------------------------------------------------------------------
# per-trajectory reference loops
#
# These are the package's per-trajectory implementations from before
# TrajectorySet became columnar, kept unchanged so that the vectorised code
# can be checked against them for exact (bitwise) equality. They take a
# TrajectorySet and loop over it one RefTrajectory record at a time.


@dataclass
class RefTrajectory:
    """One trajectory as the reference loops read it."""

    id: str
    triples: np.ndarray
    demographics: dict
    died_in_hospital: bool

    @property
    def states(self) -> np.ndarray:
        """The initial state followed by every next_state."""
        return np.concatenate(([self.triples[0, 0]], self.triples[:, 2]))

    @property
    def end_state(self) -> int:
        return int(self.triples[-1, 2])


def reference_trajectories(tset) -> list[RefTrajectory]:
    """The set split into one record per trajectory, a step count at a time."""
    records, start = [], 0
    for i, tid in enumerate(tset.ids):
        stop = start + int(tset.lengths[i])
        tags = {t: col[i] for t, col in tset.demographics.items() if col[i] is not None}
        died = bool(tset.died_in_hospital[i])
        records.append(RefTrajectory(tid, tset.triples[start:stop], tags, died))
        start = stop
    return records


def reference_estimate_transitions(trajectories, n_states, n_actions):
    """(probs, visit_counts) of the empirical kernel, unseen (s, a) self-looping."""
    counts = np.zeros((n_states, n_actions, n_states))
    for tr in reference_trajectories(trajectories):
        s, a, sp = tr.triples[:, 0], tr.triples[:, 1], tr.triples[:, 2]
        np.add.at(counts, (s, a, sp), 1)
    visit = counts.sum(axis=2)
    probs = np.zeros_like(counts)
    seen = visit > 0
    probs[seen] = counts[seen] / visit[seen, None]
    unseen_s, unseen_a = np.nonzero(~seen)
    probs[unseen_s, unseen_a, unseen_s] = 1.0
    return probs, visit.astype(np.int64)


def reference_state_visitation(trajectories, n_states) -> np.ndarray:
    """Mean per-trajectory visit counts of the initial state and every next state."""
    counts = np.zeros(n_states)
    n = 0
    for tr in reference_trajectories(trajectories):
        np.add.at(counts, tr.states, 1)
        n += 1
    return counts / n


def reference_initial_distribution(trajectories, n_states) -> np.ndarray:
    d0 = np.zeros(n_states)
    n = 0
    for tr in reference_trajectories(trajectories):
        d0[tr.triples[0, 0]] += 1
        n += 1
    return d0 / n


def reference_log_likelihood(trajectory, policy_actions, probs):
    """(log-likelihood of the on-policy steps, no step on-policy)."""
    s = trajectory.triples[:, 0]
    a = trajectory.triples[:, 1]
    sp = trajectory.triples[:, 2]
    on_policy = policy_actions[s] == a
    if not on_policy.any():
        return 0.0, True
    p = probs[s[on_policy], a[on_policy], sp[on_policy]]
    if np.any(p == 0.0):
        return float("-inf"), False
    return float(np.log(p).sum()), False


def reference_scores(trajectories, probs, rewards, policy_actions) -> list[tuple]:
    """(id, L, C, log-likelihood, end-state reward, fully off-policy) per trajectory."""
    table = probs @ rewards
    rows = []
    for tr in reference_trajectories(trajectories):
        s = tr.triples[:, 0]
        a = tr.triples[:, 1]
        gaps = table[s, policy_actions[s]] - table[s, a]
        L = float(gaps.mean())
        ll, off_policy = reference_log_likelihood(tr, policy_actions, probs)
        end = float(rewards[tr.end_state])
        rows.append((tr.id, L, float(math.exp(-L)), ll, end, off_policy))
    return rows


def reference_select_retained(scores, config) -> tuple[list[str], list[str]]:
    """The id-list selection: (retained ids, pruned ids), each in the order of scores.

    Deviation ranks by sorted(key=(-C, id)), likelihood keeps the ids whose
    log-likelihood (floored at the most negative float) reaches the cutoff,
    and random draws rng.choice over the sorted ids.
    """
    rows = list(zip(scores.ids, scores.C.tolist(), scores.log_likelihood.tolist()))
    if not rows:
        raise CohortEmptyError("no scores to select from")
    n = len(rows)
    if config.method == "deviation":
        ranked = sorted(rows, key=lambda row: (-row[1], row[0]))
        retained = {tid for tid, _, _ in ranked[: math.ceil(config.retain_fraction * n)]}
    elif config.method == "likelihood":
        sentinel = np.finfo(float).min
        lls = np.array([max(ll, sentinel) for _, _, ll in rows])
        if config.likelihood_threshold is not None:
            cutoff = math.log(config.likelihood_threshold)
        else:
            p = config.likelihood_percentile
            if p is None:
                p = 100.0 * config.retain_fraction
            cutoff = float(np.percentile(lls, 100.0 - p))
        retained = {row[0] for row, ll in zip(rows, lls) if ll >= cutoff}
    else:
        rng = np.random.default_rng(config.seed)
        ids = sorted(tid for tid, _, _ in rows)
        picked = rng.choice(n, size=math.ceil(config.retain_fraction * n), replace=False)
        retained = {ids[i] for i in picked}
    if not retained:
        raise CohortEmptyError("selection retained zero trajectories")
    return (
        [tid for tid, _, _ in rows if tid in retained],
        [tid for tid, _, _ in rows if tid not in retained],
    )


def reference_subset(trajectories, ids) -> list:
    keep = set(ids)
    return [tr for tr in reference_trajectories(trajectories) if tr.id in keep]


def reference_reward_delta(trajectory, rewards1, rewards2) -> float:
    sp = trajectory.triples[:, 2]
    return float(np.mean(rewards2[sp] - rewards1[sp]))


def reference_population(world, config):
    """The per-step population sampler: one rng.choice call per draw.

    Returns (triples of shape (N, H, 3), ids, corrupted flags, demographics
    as {tag: list}, died flags). The policies come from the package's
    finite_horizon_values; what this oracle pins is the sampling stream.
    """
    from consensus_irl.synth import DEATH_REWARD_CUTOFF, finite_horizon_values

    def boltzmann(q, beta):
        z = beta * q
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    horizon, q0 = world.horizon, world.optimal_q
    expert_policy = boltzmann(q0, config.expert_beta)
    if config.corruption_mode == "random_policy":
        bad_policy = np.full_like(expert_policy, 1.0 / world.n_actions)
    elif config.corruption_mode == "negated_reward":
        _, q_bad = finite_horizon_values(world.kernel, -world.rewards, horizon)
        bad_policy = boltzmann(q_bad, config.expert_beta)
    else:
        bad_policy = boltzmann(q0, config.corruption_beta)

    n = config.n_trajectories
    n_corrupt = math.ceil(config.corrupted_fraction * n)
    root = np.random.SeedSequence(config.seed)
    member_ss, demo_ss, *traj_ss = root.spawn(n + 2)
    member_rng = np.random.default_rng(member_ss)
    corrupt_idx = set(member_rng.permutation(n)[:n_corrupt].tolist())
    demo_rng = np.random.default_rng(demo_ss)

    triples = np.empty((n, horizon, 3), dtype=np.int64)
    demographics = {tag.name: [] for tag in config.demographics}
    died = []
    for i in range(n):
        is_bad = i in corrupt_idx
        policy = bad_policy if is_bad else expert_policy
        rng = np.random.default_rng(traj_ss[i])
        s = int(rng.choice(world.n_states, p=world.initial_distribution))
        for t in range(horizon):
            a = int(rng.choice(world.n_actions, p=policy[s]))
            sp = int(rng.choice(world.n_states, p=world.kernel.probs[s, a]))
            triples[i, t] = (s, a, sp)
            s = sp
        for tag in config.demographics:
            dist = tag.probs
            if is_bad and tag.corrupted_probs is not None:
                dist = tag.corrupted_probs
            demographics[tag.name].append(str(demo_rng.choice(tag.categories, p=dist)))
        died.append(bool(world.rewards[s] <= DEATH_REWARD_CUTOFF))
    ids = [f"t{i:05d}" for i in range(n)]
    return triples, ids, [i in corrupt_idx for i in range(n)], demographics, died


# ---------------------------------------------------------------------------
# one-permutation-at-a-time tests
#
# The package's permutation tests as they were before they drew their
# permutations in blocks: one draw and one scalar statistic per permutation.
# The block-batched tests must return results equal to these (==), so every
# seed, stream, hit count and p-value is unchanged. ANOVA and pairwise draw
# one rng.permutation of all the values per permutation, so the pairwise tests
# read the ANOVA's permutations; chi-squared draws its flagged counts
# from the multivariate hypergeometric, and shuffle_permutation_chi2 keeps
# the flag shuffle it drew before, for comparing the two samplers.


def reference_chi_squared_statistic(table) -> float:
    """Pearson chi-squared; cells with zero expected count contribute zero."""
    table = np.asarray(table, dtype=float)
    total = table.sum()
    if total == 0:
        return 0.0
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / total
    with np.errstate(invalid="ignore", divide="ignore"):
        contrib = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    return float(contrib.sum())


def reference_anova_f_statistic(groups) -> float:
    """One-way ANOVA F. Zero within-group variance gives inf (or 0 at the null)."""
    k = len(groups)
    n = sum(len(g) for g in groups)
    grand = np.concatenate(groups).mean()
    ss_between = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ss_within = sum(float(((g - g.mean()) ** 2).sum()) for g in groups)
    if ss_within == 0.0:
        return float("inf") if ss_between > 0 else 0.0
    return float((ss_between / (k - 1)) / (ss_within / (n - k)))


def _reference_canonical_order(labels, values):
    order = np.lexsort((values, labels))
    return labels[order], values[order]


def reference_permutation_chi2(labels, flags, n_permutations=10_000, seed=0, name="chi2"):
    """One multivariate hypergeometric draw of the flagged counts per permutation."""
    from consensus_irl.analyze import TestResult

    labels = np.asarray(labels)
    flags = np.asarray(flags, dtype=int)
    cats, codes = np.unique(labels, return_inverse=True)
    k = len(cats)
    totals = np.bincount(codes, minlength=k)

    def stat(ones):
        return reference_chi_squared_statistic(np.stack([ones, totals - ones], axis=1))

    ones = np.bincount(codes[flags == 1], minlength=k)
    observed = stat(ones)
    m = int(ones.sum())
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        drawn = rng.multivariate_hypergeometric(totals, m, method="marginals")
        hits += stat(drawn) >= observed - 1e-12
    p = (1 + hits) / (1 + n_permutations)
    groups = [(str(c), int(t)) for c, t in zip(cats, totals)]
    return TestResult(name, observed, float(p), n_permutations, seed, groups)


def shuffle_permutation_chi2(labels, flags, n_permutations=10_000, seed=0, name="chi2"):
    """The chi-squared test as it was before it drew table counts: one
    rng.permutation of the canonically ordered flags per permutation."""
    from consensus_irl.analyze import TestResult

    labels = np.asarray(labels)
    flags = np.asarray(flags, dtype=int)
    cats, codes = np.unique(labels, return_inverse=True)
    codes, flags = _reference_canonical_order(codes, flags)
    k = len(cats)
    totals = np.bincount(codes, minlength=k)

    def stat(fl):
        ones = np.bincount(codes[fl == 1], minlength=k)
        return reference_chi_squared_statistic(np.stack([ones, totals - ones], axis=1))

    observed = stat(flags)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        hits += stat(rng.permutation(flags)) >= observed - 1e-12
    p = (1 + hits) / (1 + n_permutations)
    groups = [(str(c), int(t)) for c, t in zip(cats, totals)]
    return TestResult(name, observed, float(p), n_permutations, seed, groups)


def reference_permutation_anova(values, labels, n_permutations=10_000, seed=0, name="anova"):
    from consensus_irl.analyze import TestResult

    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    cats, codes = np.unique(labels, return_inverse=True)
    codes, values = _reference_canonical_order(codes, values)

    def stat(v):
        return reference_anova_f_statistic([v[codes == c] for c in range(len(cats))])

    observed = stat(values)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        hits += stat(rng.permutation(values)) >= observed - 1e-12
    p = (1 + hits) / (1 + n_permutations)
    sizes = np.bincount(codes, minlength=len(cats))
    groups = [(str(c), int(s)) for c, s in zip(cats, sizes)]
    return TestResult(name, observed, float(p), n_permutations, seed, groups)


def _reference_step_down(gaps, observed, order, reached):
    """Westfall-Young step-down maxT: add each pair's exceedance of the
    largest gap among it and the pairs ranked below it to reached."""
    for j in range(len(order)):
        largest = max(gaps[q] for q in order[j:])
        reached[j] += largest >= observed[order[j]] - 1e-12


def _reference_pair_gaps(v, codes, cats):
    """Every pair's |mean a - mean b| / sqrt(1/n_a + 1/n_b), pairs in order."""
    groups = [v[codes == c] for c in range(len(cats))]
    return [
        abs(groups[a].mean() - groups[b].mean())
        / math.sqrt(1 / len(groups[a]) + 1 / len(groups[b]))
        for a in range(len(cats)) for b in range(a + 1, len(cats))
    ]


def _reference_pairwise_results(cats, values, codes, raw, stepped, order):
    from consensus_irl.analyze import PairwiseResult

    adjusted = [0.0] * len(order)
    running = 0.0
    for j, q in enumerate(order):  # monotone from the largest observed gap down
        running = max(running, stepped[j])
        adjusted[q] = running
    pairs = [(a, b) for a in range(len(cats)) for b in range(a + 1, len(cats))]
    return [
        PairwiseResult(str(cats[a]), str(cats[b]),
                       float(values[codes == a].mean() - values[codes == b].mean()),
                       float(p), float(p_adj))
        for (a, b), p, p_adj in zip(pairs, raw, adjusted)
    ]


def reference_pairwise_permutation_tests(values, labels, n_permutations=10_000, seed=0):
    """Step-down maxT on one rng.permutation of all the values per permutation.

    Every pair's statistic is its standardized mean gap; a pair's raw p
    counts the permutations whose gap reaches the observed one, and its
    adjusted p those whose largest gap, over the pair and the pairs with a
    smaller observed gap, does.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    cats, codes = np.unique(labels, return_inverse=True)
    codes, values = _reference_canonical_order(codes, values)
    observed = _reference_pair_gaps(values, codes, cats)
    order = sorted(range(len(observed)), key=lambda q: -observed[q])
    raw, stepped = [0] * len(observed), [0] * len(observed)
    rng = np.random.default_rng(seed)
    for _ in range(n_permutations):
        gaps = _reference_pair_gaps(rng.permutation(values), codes, cats)
        for q in range(len(gaps)):
            raw[q] += gaps[q] >= observed[q] - 1e-12
        _reference_step_down(gaps, observed, order, stepped)
    p_raw = [(1 + h) / (1 + n_permutations) for h in raw]
    p_stepped = [(1 + h) / (1 + n_permutations) for h in stepped]
    return _reference_pairwise_results(cats, values, codes, p_raw, p_stepped, order)


def exact_pairwise_maxt(values, labels):
    """The exact step-down maxT p-values, over every distinct relabelling of the values.

    Each assignment of the group labels to the values, with the group sizes
    kept, is equally likely under the null that all groups are exchangeable;
    there are n! / (n_1! ... n_k!) of them, and the observed one is among
    them. The p-values are the shares of assignments that reach the observed
    statistics, with no add-one.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    cats, codes = np.unique(labels, return_inverse=True)
    observed = _reference_pair_gaps(values, codes, cats)
    order = sorted(range(len(observed)), key=lambda q: -observed[q])
    raw, stepped = [0] * len(observed), [0] * len(observed)
    relabellings = set(itertools.permutations(codes.tolist()))
    for relabelled in relabellings:
        gaps = _reference_pair_gaps(values, np.array(relabelled), cats)
        for q in range(len(gaps)):
            raw[q] += gaps[q] >= observed[q] - 1e-12
        _reference_step_down(gaps, observed, order, stepped)
    count = len(relabellings)
    return _reference_pairwise_results(
        cats, values, codes, [h / count for h in raw], [h / count for h in stepped], order
    ), count


# The package's k-means as it was before it ran in row chunks: k-means++
# seeding over whole-row distance sums, then one (n, k, d) broadcast per
# distance table and one boolean mask per cluster per round. fit_state_space
# and assign_states must return results equal to these (==), byte for byte.


def reference_squared_distances(z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) table of squared Euclidean distances
    return ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def reference_kmeans_pp_init(z: np.ndarray, k: int, rng) -> np.ndarray:
    n = z.shape[0]
    centers = np.empty((k, z.shape[1]))
    centers[0] = z[rng.integers(n)]
    d2 = ((z - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0:
            centers[j] = z[rng.integers(n)]
            continue
        centers[j] = z[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((z - centers[j]) ** 2).sum(axis=1))
    return centers


def reference_lloyd(z: np.ndarray, centers: np.ndarray, max_iterations=300, reltol=1e-6):
    inertia = np.inf
    assign = None
    for _ in range(max_iterations):
        d2 = reference_squared_distances(z, centers)
        assign = d2.argmin(axis=1)
        new_inertia = float(d2[np.arange(len(z)), assign].sum())
        for j in range(centers.shape[0]):
            members = z[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its center
                far = d2[np.arange(len(z)), assign].argmax()
                centers[j] = z[far]
        if inertia - new_inertia <= reltol * max(new_inertia, 1e-300):
            inertia = new_inertia
            break
        inertia = new_inertia
    d2 = reference_squared_distances(z, centers)
    assign = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(z)), assign].sum())
    return centers, assign, inertia


def reference_assign_states(rows, model) -> np.ndarray:
    """Nearest retained centroid per row, lowest id on ties."""
    z = model.standardize(rows)
    retained = model.retained_ids
    d2 = reference_squared_distances(z, model.centroids[retained])
    picked = d2.argmin(axis=1)  # argmin takes the first minimum: lowest id wins
    return np.array([retained[i] for i in picked], dtype=np.int64)


def reference_fit_state_space(rows, k, min_size, seed, n_restarts=1):
    """fit_state_space (features named f0, f1, ...) over the reference rounds."""
    from consensus_irl.discretize import ClusterModel

    rows = np.asarray(rows, dtype=float)
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    used = stds > 0
    z = (rows[:, used] - means[used]) / stds[used]
    best = None
    for child in np.random.SeedSequence(seed).spawn(n_restarts):
        rng = np.random.default_rng(child)
        fit = reference_lloyd(z, reference_kmeans_pp_init(z, k, rng))
        if best is None or fit[2] < best[2]:
            best = fit
    centers, assign, inertia = best
    counts = np.bincount(assign, minlength=k)
    dropped = {c for c in range(k) if counts[c] < min_size}
    names = [f"f{j}" for j in range(rows.shape[1])]
    model = ClusterModel(centers, names, means, stds, used, counts, dropped, {}, inertia, seed)
    states = reference_assign_states(rows, model)
    for c in model.retained_ids:
        members = rows[states == c]
        if len(members):
            model.feature_stats[c] = {
                "count": int(len(members)),
                "means": {f: float(members[:, j].mean()) for j, f in enumerate(names)},
                "stds": {f: float(members[:, j].std()) for j, f in enumerate(names)},
            }
    return model


# ---------------------------------------------------------------------------
# the clinical ingest path as one row object per CSV row, kept as it was
# before subjects became column blocks: every step loops over RawRecord rows.
# The codec is the package's own; the row handling, the state assignment and
# the chaining, one subject at a time, are the reference.


@dataclass
class RawRecord:
    """One time-stamped observation row for one subject."""

    subject_id: str
    timestamp: int
    features: dict  # feature name -> float or None (missing)
    treatment_flags: set = field(default_factory=set)
    demographics: dict = field(default_factory=dict)
    died_in_hospital: bool = False


def _reference_check_sorted(records, path=None) -> None:
    ts = [r.timestamp for r in records]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        where = f"{path}: " if path else ""
        raise SchemaError(
            f"{where}subject {records[0].subject_id}: timestamps must be strictly increasing"
        )


def reference_impute_series(records: list[RawRecord], normals: dict) -> list[RawRecord]:
    """Fill missing feature values: LOCF after the first measurement, the
    normal-value table before it.

    Observed values are never altered, and the operation is idempotent.
    Raises a schema error naming the feature if a normal value is needed
    but absent from the table.
    """
    _reference_check_sorted(records)
    names = sorted({f for r in records for f in r.features})
    last_seen: dict = {}
    out = []
    for rec in records:
        filled = {}
        for name in names:
            value = rec.features.get(name)
            if value is not None:
                last_seen[name] = value
                filled[name] = value
            elif name in last_seen:
                filled[name] = last_seen[name]
            else:
                if name not in normals:
                    raise SchemaError(
                        f"feature {name!r} missing from the normal-value table"
                    )
                filled[name] = normals[name]
        out.append(replace(rec, features=filled))
    return out


def reference_filter_outliers(records: list[RawRecord], bounds: dict) -> tuple[list[RawRecord], dict]:
    """Drop rows with any observed feature outside its inclusive [lo, hi] bound.

    Returns (kept rows, per-feature drop counts). Missing values never
    trigger a drop. Raises if nothing survives.
    """
    for name, (lo, hi) in bounds.items():
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ParameterError(f"bounds for {name!r} must be finite with lo < hi")
    report: Counter = Counter()
    kept = []
    for rec in records:
        violations = [
            name
            for name, (lo, hi) in bounds.items()
            if rec.features.get(name) is not None
            and not (lo <= rec.features[name] <= hi)
        ]
        if violations:
            report.update(violations)
        else:
            kept.append(rec)
    if records and not kept:
        raise CohortEmptyError("outlier filtering removed every record")
    return kept, dict(report)


def reference_encode_actions(records: list[RawRecord], codec) -> np.ndarray:
    """Action index per record, in record order."""
    return np.array([codec.encode(rec.treatment_flags) for rec in records], dtype=np.int64)


def reference_regroup_demographics(
    subjects: dict, relabel: dict, min_share: float = 0.01, other_label: str = "other"
) -> dict:
    """Relabel demographic categories and collapse rare ones.

    subjects maps subject id -> record list; relabel maps tag name ->
    {old category -> new category}. After relabeling, categories held by
    fewer than min_share of subjects collapse into other_label. Shares are
    computed per subject, not per row.
    """
    if not (0.0 <= min_share < 1.0):
        raise ParameterError("min_share must be in [0, 1)")

    def mapped(tag, value):
        return relabel.get(tag, {}).get(value, value)

    n = len(subjects)
    counts: dict = {}
    for records in subjects.values():
        rec = records[0]
        for tag, value in rec.demographics.items():
            counts.setdefault(tag, Counter())[mapped(tag, value)] += 1
    rare = {
        tag: {cat for cat, c in ctr.items() if c / n < min_share}
        for tag, ctr in counts.items()
    }

    out = {}
    for sid, records in subjects.items():
        new_records = []
        for rec in records:
            demo = {}
            for tag, value in rec.demographics.items():
                cat = mapped(tag, value)
                if cat in rare.get(tag, ()):
                    cat = other_label
                demo[tag] = cat
            new_records.append(replace(rec, demographics=demo))
        out[sid] = new_records
    return out


def _reference_number(cell) -> float:
    value = float(cell)
    if not math.isfinite(value):  # k-means would drop a nan column as zero-variance
        raise ValueError(cell)
    return value


def _reference_optional_number(cell):
    return None if cell in ("", None) else _reference_number(cell)


def _reference_flag(cell) -> bool:
    if cell in ("", "0", None):
        return False
    if cell == "1":
        return True
    raise ValueError(cell)


def _reference_binary(cell) -> bool:
    value = int(cell)
    if value not in (0, 1):
        raise ValueError(cell)
    return bool(value)


def _reference_bad_cell(path, row, cells) -> SchemaError:
    """The error for a CSV row one of whose cells did not parse.

    cells holds (column, parse, kind) for every parsed column; the error names
    the file, the subject and the first column whose cell does not parse.
    """
    for column, parse, kind in cells:
        try:
            parse(row[column])
        except (TypeError, ValueError):
            return SchemaError(
                f"{path}: subject {row['subject_id']}: {column} {row[column]!r} is not {kind}"
            )
    return SchemaError(f"{path}: subject {row['subject_id']}: malformed row")


def reference_load_records_csv(
    path, features: list[str], flags: list[str], demographics: list[str]
) -> dict:
    """Read the raw-record CSV into {subject_id: [RawRecord, ...]} sorted by time.

    Expected columns: subject_id, timestamp (an integer), one numeric column
    per feature (empty cell = missing), one column per treatment flag (empty,
    0 or 1), one column per demographic tag, died_in_hospital (0 or 1).
    """
    cells = [
        ("timestamp", int, "an integer"),
        ("died_in_hospital", _reference_binary, "0 or 1"),
        *((name, _reference_optional_number, "a finite number") for name in features),
        *((name, _reference_flag, "empty, 0 or 1") for name in flags),
    ]
    subjects: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("records CSV has no header row")
        needed = ["subject_id", "timestamp", "died_in_hospital"] + features + flags + demographics
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise SchemaError("records CSV missing columns: " + ", ".join(missing))
        for row in reader:
            try:
                rec = RawRecord(
                    subject_id=row["subject_id"],
                    timestamp=int(row["timestamp"]),
                    features={name: _reference_optional_number(row[name]) for name in features},
                    treatment_flags={name for name in flags if _reference_flag(row[name])},
                    demographics={name: row[name] for name in demographics},
                    died_in_hospital=_reference_binary(row["died_in_hospital"]),
                )
            except (TypeError, ValueError):
                raise _reference_bad_cell(path, row, cells) from None
            subjects.setdefault(rec.subject_id, []).append(rec)
    for records in subjects.values():
        records.sort(key=lambda r: r.timestamp)
        _reference_check_sorted(records, path)
    if not subjects:
        raise CohortEmptyError("records CSV contains no rows")
    return subjects


def reference_prepare_subjects(
    subjects: dict, normals: dict, bounds: dict, codec
) -> tuple[dict, dict]:
    """Filter outliers, impute, and encode actions for every subject.

    Outlier rows are dropped before imputation so extreme observed values
    never propagate forward into imputed ones. Subjects whose rows are all
    outliers are dropped (counted in the report rather than raising).
    Returns ({subject_id: (records, actions)}, drop report).
    """
    prepared = {}
    report: Counter = Counter()
    dropped_subjects = 0
    for sid in sorted(subjects):
        try:
            kept, drops = reference_filter_outliers(subjects[sid], bounds)
        except CohortEmptyError:
            dropped_subjects += 1
            continue
        report.update(drops)
        full = reference_impute_series(kept, normals)
        actions = reference_encode_actions(full, codec)
        prepared[sid] = (full, actions)
    if not prepared:
        raise CohortEmptyError("no subjects survived outlier filtering")
    out_report = dict(report)
    out_report["subjects_dropped"] = dropped_subjects
    return prepared, out_report


def reference_write_prepared_csv(prepared: dict, features: list[str], path) -> None:
    """Emit fully-valued rows with encoded actions, ready for clustering."""
    demo_tags = sorted(
        {t for records, _ in prepared.values() for t in records[0].demographics}
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["subject_id", "timestamp"]
            + features
            + ["action"]
            + demo_tags
            + ["died_in_hospital"]
        )
        for sid in sorted(prepared):
            records, actions = prepared[sid]
            for rec, action in zip(records, actions):
                row = [sid, rec.timestamp]
                row += [repr(float(rec.features[f])) for f in features]
                row.append(int(action))
                row += [rec.demographics.get(t, "") for t in demo_tags]
                row.append(int(rec.died_in_hospital))
                writer.writerow(row)


def reference_read_prepared_csv(path, features: list[str]) -> dict:
    """Inverse of write_prepared_csv: {subject_id: (records, actions)}.

    Each subject's rows must come in strictly increasing timestamp order, as
    write_prepared_csv writes them.
    """
    subjects: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("prepared CSV has no header row")
        core = ["subject_id", "timestamp", "action", "died_in_hospital"]
        missing = [c for c in core + features if c not in reader.fieldnames]
        if missing:
            raise SchemaError("prepared CSV missing columns: " + ", ".join(missing))
        demo_tags = [c for c in reader.fieldnames if c not in core and c not in features]
        cells = [
            ("timestamp", int, "an integer"),
            ("action", int, "an integer"),
            ("died_in_hospital", _reference_binary, "0 or 1"),
            *((f, _reference_number, "a finite number") for f in features),
        ]
        for row in reader:
            try:
                rec = RawRecord(
                    subject_id=row["subject_id"],
                    timestamp=int(row["timestamp"]),
                    features={f: _reference_number(row[f]) for f in features},
                    treatment_flags=set(),
                    demographics={t: row[t] for t in demo_tags},
                    died_in_hospital=_reference_binary(row["died_in_hospital"]),
                )
                action = int(row["action"])
            except (TypeError, ValueError):
                raise _reference_bad_cell(path, row, cells) from None
            records, actions = subjects.setdefault(rec.subject_id, ([], []))
            records.append(rec)
            actions.append(action)
    if not subjects:
        raise CohortEmptyError("prepared CSV contains no rows")
    for records, _ in subjects.values():
        _reference_check_sorted(records, path)
    return {
        sid: (records, np.array(actions, dtype=np.int64))
        for sid, (records, actions) in subjects.items()
    }


def reference_feature_matrix(prepared: dict, features: list[str]) -> tuple[np.ndarray, dict]:
    """Stack prepared records into a row matrix; remember each subject's rows.

    Returns (matrix, {subject_id: slice}) with subjects in sorted order.
    """
    blocks = []
    index = {}
    start = 0
    for sid in sorted(prepared):
        records, _ = prepared[sid]
        block = np.array(
            [[rec.features[f] for f in features] for rec in records], dtype=float
        )
        blocks.append(block)
        index[sid] = slice(start, start + len(records))
        start += len(records)
    if not blocks:
        raise CohortEmptyError("no prepared subjects")
    return np.vstack(blocks), index


def reference_trajectories_from_prepared(prepared: dict, model, features: list[str]):
    """(TrajectorySet, report): assign states, then chain one subject at a time.

    Subjects enter in sorted id order; one with fewer than two rows forms no
    transition and is counted as excluded_short. n_actions is one more than
    the largest action of any subject; the tags are those of the kept subjects.
    """
    rows, index = reference_feature_matrix(prepared, features)
    states = reference_assign_states(rows, model)
    n_actions = int(max(actions.max() for _, actions in prepared.values())) + 1
    triples, lengths, ids, tags, died = [], [], [], [], []
    for sid in sorted(prepared):
        records, actions = prepared[sid]
        seq = states[index[sid]]
        if len(seq) < 2:
            continue
        for t in range(len(seq) - 1):
            triples.append((int(seq[t]), int(actions[t]), int(seq[t + 1])))
        lengths.append(len(seq) - 1)
        ids.append(str(sid))
        tags.append(records[0].demographics)
        died.append(bool(records[0].died_in_hospital))
    if not ids:
        raise CohortEmptyError("no subject has two or more time steps")
    names = sorted({t for carried in tags for t in carried})
    tset = TrajectorySet(
        np.array(triples, dtype=np.int64), lengths, ids, model.k, n_actions,
        {t: [carried.get(t) for carried in tags] for t in names}, died,
    )
    return tset, {"excluded_short": len(prepared) - len(ids)}
