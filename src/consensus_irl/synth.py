"""Ground-truth random MDPs and mixed expert populations.

Worlds are garnet-style: every (s, a) row spreads its probability over a
fixed number of uniformly chosen successor states with Dirichlet weights, so
the true kernel is a TransitionModel kept as its non-zeros. Planning, policy
values and sampling work from them without an (S, A, S) array, to the bits of
the dense computations, and world.json stores them as they are: the sorted
flat cells (s*A + a)*S + s' and their probabilities. The true reward marks a
small set of good (+1) and bad (-1) states with the rest near zero. Expert
populations mix Boltzmann-rational demonstrators with a corrupted subset
(random actions, negated reward, or degraded temperature), each trajectory
carrying a ground-truth corruption label so pruning quality can be measured
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParameterError, SchemaError
from .mdp import ROW_SUM_TOL, DeterministicPolicy, TransitionModel
from .table import BINARY, read_json, read_table, write_json, write_table
from .trajectories import TrajectorySet, id_dtype

CORRUPTION_MODES = ("random_policy", "negated_reward", "low_temperature")

# synthetic subjects "die" when they end in a clearly bad true-reward state
DEATH_REWARD_CUTOFF = -0.5


def finite_horizon_values(kernel: TransitionModel, rewards: np.ndarray, horizon: int):
    """Hard-max value iteration with rewards collected on arrival.

    Returns (v0, q0): the optimal state values and action values at the
    first step of an undiscounted horizon-step episode. Each step's Q is the
    kernel's blockwise dense product (TransitionModel.expect), the bits of
    the whole dense kernel @ (R + V).
    """
    v = np.zeros(kernel.n_states)
    q = None
    for _ in range(horizon):
        q = kernel.expect(rewards + v)
        v = q.max(axis=1)
    return v, q


@dataclass
class SyntheticWorld:
    """A random tabular MDP with known reward and optimal behavior; its true
    kernel is a TransitionModel, kept as its non-zeros, with no visits."""

    n_states: int
    n_actions: int
    branching: int
    kernel: TransitionModel
    rewards: np.ndarray
    optimal_policy: DeterministicPolicy
    optimal_q: np.ndarray
    horizon: int
    initial_distribution: np.ndarray
    seed: int

    def to_json(self, path) -> None:
        """world.json: each field under its own name, on one line with sorted keys; the
        optimal policy as its actions, and the kernel as TransitionModel's own cells
        and values in place of a kernel key."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        kernel, policy = payload.pop("kernel"), payload.pop("optimal_policy")
        write_json(path, {**payload, "cells": kernel.cells, "values": kernel.values,
                          "optimal_policy": policy.actions}, indent=None)

    @classmethod
    def from_json(cls, path) -> "SyntheticWorld":
        p = read_json(path)
        n_states, n_actions = p["n_states"], p["n_actions"]
        arrays = _world_arrays(p, n_states, n_actions)
        kernel = TransitionModel(n_states, n_actions, arrays.pop("cells"), arrays.pop("values"),
                                 np.zeros((n_states, n_actions), dtype=np.int64))
        policy = DeterministicPolicy(arrays.pop("optimal_policy"))
        return cls(n_states, n_actions, p["branching"], kernel, optimal_policy=policy,
                   horizon=p["horizon"], seed=p["seed"], **arrays)


def _world_arrays(p: dict, n_states: int, n_actions: int) -> dict:
    """world.json's values, cells, rewards, optimal_policy, optimal_q and
    initial_distribution as json.load's lists make them, each checked against the
    world's own shape, one cell per value: SchemaError names the first that is not
    of its shape, holds a number that is not finite, a cell that is not an integer
    or an action outside [0, n_actions), or is not a probability vector.
    TransitionModel checks that the cells and values make a kernel."""
    nnz = (len(p["values"]),)
    shapes = {"values": nnz, "cells": nnz, "rewards": (n_states,), "optimal_policy": (n_states,),
              "optimal_q": (n_states, n_actions), "initial_distribution": (n_states,)}
    arrays = {key: np.array(p[key]) for key in shapes}
    for key, array in arrays.items():
        numbers = array.dtype.kind in "iuf"  # not a null, a string or a bool
        if array.shape != shapes[key] or not (numbers and np.isfinite(array).all()):
            raise SchemaError(f"world {key} must hold {shapes[key]} finite numbers")
    if arrays["cells"].size and arrays["cells"].dtype.kind != "i":  # [] reads as float
        raise SchemaError("world cells must hold integers")
    policy, start = arrays["optimal_policy"], arrays["initial_distribution"]
    if policy.dtype.kind != "i" or not ((policy >= 0) & (policy < n_actions)).all():
        raise SchemaError(f"world optimal_policy must hold actions in [0, {n_actions})")
    if (start < 0).any() or abs(start.sum() - 1.0) > ROW_SUM_TOL:
        raise SchemaError("world initial_distribution must be a probability vector")
    return arrays


@dataclass
class DemographicTag:
    """Categorical tag sampled per trajectory.

    corrupted_probs, when given, replaces the category distribution for
    corrupted trajectories; by default tags are independent of corruption.
    """

    name: str
    categories: list[str]
    probs: list[float]
    corrupted_probs: list[float] | None = None

    def __post_init__(self):
        for dist in (self.probs, self.corrupted_probs):
            if dist is None:
                continue
            d = np.asarray(dist, dtype=float)
            valid = np.isfinite(d).all() and (d >= 0).all()
            if not (valid and len(d) == len(self.categories) > 0):
                raise ParameterError(
                    f"tag {self.name}: need one finite non-negative probability per category"
                )
            if abs(d.sum() - 1.0) > 1e-9:
                raise ParameterError(f"tag {self.name}: distribution must sum to 1")


def load_demographic_tags(path) -> list[DemographicTag]:
    """DemographicTags from a JSON list of {name, categories, probs[, corrupted_probs]}.

    An error names the file and, for a bad entry, its index in the list.
    """
    entries = read_json(path, expect=list)
    keys = [f.name for f in fields(DemographicTag)]
    tags = []
    for i, entry in enumerate(entries):
        where = f"{path}: demographic tag {i}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} is not a JSON object")
        unknown = sorted(set(entry) - set(keys))
        if unknown:
            raise SchemaError(f"{where} has unknown key {unknown[0]!r}; keys are {keys}")
        missing = [k for k in ("name", "categories", "probs") if k not in entry]
        if missing:
            raise SchemaError(f"{where} is missing key {missing[0]!r}")
        for key in ("categories", "probs", "corrupted_probs"):
            value = entry.get(key)
            if not isinstance(value, list) and not (key == "corrupted_probs" and value is None):
                raise SchemaError(f"{where}: {key} must be a JSON list, got {value!r}")
        try:
            tags.append(DemographicTag(**entry))
        except (TypeError, ValueError) as exc:  # a probability that is not a number, ...
            raise SchemaError(f"{where}: {exc}") from None
    return tags


@dataclass
class PopulationConfig:
    n_trajectories: int = 2000
    expert_beta: float = 5.0
    corrupted_fraction: float = 0.3
    corruption_mode: str = "random_policy"
    corruption_beta: float = 0.5  # only used by low_temperature
    demographics: list[DemographicTag] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.corrupted_fraction <= 1.0):
            raise ParameterError("corrupted_fraction must be in [0, 1]")
        if self.corruption_mode not in CORRUPTION_MODES:
            raise ParameterError(f"unknown corruption mode {self.corruption_mode!r}")
        if self.n_trajectories < 1:
            raise ParameterError("n_trajectories must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class LabeledPopulation:
    trajectories: TrajectorySet
    corrupted: dict[str, bool]

    def write_labels_csv(self, path) -> None:
        ids = self.trajectories.ids
        corrupted = np.array([self.corrupted[t] for t in ids], dtype=np.int64)
        write_table(path, ["trajectory_id", "corrupted"], [ids, corrupted])


def read_labels_csv(path) -> dict[str, bool]:
    """{trajectory id: corrupted}: one row per id, and every corrupted cell 0 or 1."""
    table = read_table(path, "trajectory_id", {"corrupted": BINARY}, one_row=True)
    return dict(zip(table.ids, table.columns["corrupted"].tolist()))


def generate_world(
    n_states: int, n_actions: int, branching: int, seed: int, horizon: int = 20
) -> SyntheticWorld:
    """Garnet-style random MDP with ground-truth reward and optimal policy.

    Each (s, a) row places Dirichlet(1) probabilities on `branching`
    uniformly chosen successors, drawn row by row in (s, a) order; the
    kernel keeps each row's values at its successors in sorted order. About
    10% of states get reward +1, 10% get -1, the rest 0, with a small
    uniform jitter; the optimal policy is the first step of hard-max value
    iteration at the given horizon.
    """
    if branching > n_states:
        raise ParameterError("branching factor cannot exceed n_states")
    if n_states < 2 or n_actions < 1 or branching < 1:
        raise ParameterError("need n_states >= 2, n_actions >= 1, branching >= 1")
    rng = np.random.default_rng(seed)
    n_rows = n_states * n_actions
    successors = np.empty((n_rows, branching), dtype=np.int64)
    weights = np.empty((n_rows, branching))
    for row in range(n_rows):
        successors[row] = rng.choice(n_states, size=branching, replace=False)
        weights[row] = rng.dirichlet(np.ones(branching))
    order = np.argsort(successors, axis=1)
    cells = np.arange(n_rows)[:, None] * n_states + np.take_along_axis(successors, order, axis=1)
    kernel = TransitionModel(
        n_states, n_actions, cells.ravel(), np.take_along_axis(weights, order, axis=1).ravel(),
        np.zeros((n_states, n_actions), dtype=np.int64),
    )

    n_special = max(1, round(0.1 * n_states))
    order = rng.permutation(n_states)
    rewards = np.zeros(n_states)
    rewards[order[:n_special]] = 1.0
    rewards[order[n_special : 2 * n_special]] = -1.0
    rewards = np.clip(rewards + rng.uniform(-0.05, 0.05, size=n_states), -1.0, 1.0)

    _, q0 = finite_horizon_values(kernel, rewards, horizon)
    return SyntheticWorld(
        n_states=n_states,
        n_actions=n_actions,
        branching=branching,
        kernel=kernel,
        rewards=rewards,
        optimal_policy=DeterministicPolicy(np.argmax(q0, axis=1)),
        optimal_q=q0,
        horizon=horizon,
        initial_distribution=np.full(n_states, 1.0 / n_states),
        seed=seed,
    )


def _boltzmann(q: np.ndarray, beta: float) -> np.ndarray:
    z = beta * q
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cdf_rows(p: np.ndarray) -> np.ndarray:
    """Each row's cumulative table as numpy's Generator.choice builds it."""
    cdf = np.cumsum(p, axis=-1)
    # the totals copied out: dividing by a view of cdf's own last column would
    # make numpy buffer a whole copy of the table
    cdf /= cdf[..., -1:].copy()
    return cdf


def _inverse_cdf(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index choice(p=...) draws from uniform u[i] in the table cdf[rows[i]].

    choice returns searchsorted(cdf, u, side="right"): the number of entries
    of the non-decreasing row that are <= u. A binary search over all rows at
    once finds that count with no temporary wider than len(rows), each probe
    one take from the flat table.
    """
    width = cdf.shape[1]
    flat, before = cdf.ravel(), rows * width - 1  # flat[before + j] is cdf[rows, j - 1]
    count = np.zeros(len(rows), dtype=np.int64)
    step = 1 << (width.bit_length() - 1)
    while step:
        probe = np.minimum(count + step, width)
        count = np.where(flat.take(before + probe) <= u, probe, count)
        step >>= 1
    return count


_MASK32, _MASK64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _spawned_uniforms(seed: int, keys: np.ndarray, k: int) -> np.ndarray:
    """Row i: default_rng(SeedSequence(seed, spawn_key=(keys[i],))).random(k), bit for bit.

    numpy's SeedSequence hash and PCG64 seeding and stepping, run over all
    children at once: the hash in uint32 columns, one per child, and the
    128-bit generator state in two uint64 limbs. Each key must fit one uint32.
    """
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # a spawned sequence pads its run entropy to the pool size, then appends its key
    words += [0] * (4 - len(words))
    entropy = [np.full(len(keys), w, dtype=np.uint32) for w in words]
    entropy.append(np.asarray(keys, dtype=np.uint32))
    constant = 0x43B0D7E5  # the hash constant, advanced on every hashmix

    def hashmix(value, multiplier=0x931E8875):
        nonlocal constant
        value = value ^ np.uint32(constant)
        constant = constant * multiplier & _MASK32
        value = value * np.uint32(constant)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return result ^ (result >> np.uint32(16))

    m32 = np.uint64(_MASK32)
    mult_high, mult_low = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)

    def mul_hi(a, b):  # high 64 bits of the 128-bit product of uint64 a and b
        a1, a0, b1, b0 = a >> np.uint64(32), a & m32, b >> np.uint64(32), b & m32
        cross = a1 * b0 + ((a0 * b0) >> np.uint64(32))
        low = (cross & m32) + a0 * b1
        return a1 * b1 + (cross >> np.uint64(32)) + (low >> np.uint64(32))

    def add(high, low, inc_high, inc_low):
        low = low + inc_low
        return high + inc_high + (low < inc_low).astype(np.uint64), low

    def step(high, low):  # state * multiplier + increment, mod 2**128
        high = mul_hi(low, mult_low) + high * mult_low + low * mult_high
        return add(high, low * mult_low, inc_high, inc_low)

    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[i]) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight words cycling over the pool, paired low first
        constant = 0x8B51F9DD
        state32 = [hashmix(pool[i % 4], 0x58F38DED).astype(np.uint64) for i in range(8)]
        seed_high, seed_low, seq_high, seq_low = (
            state32[j] | (state32[j + 1] << np.uint64(32)) for j in range(0, 8, 2)
        )
        # pcg64 srandom: inc = seq << 1 | 1, step from 0, add the seed, step
        inc_high = (seq_high << np.uint64(1)) | (seq_low >> np.uint64(63))
        inc_low = (seq_low << np.uint64(1)) | np.uint64(1)
        high, low = step(*add(inc_high, inc_low, seed_high, seed_low))
        out = np.empty((k, len(keys)))
        for j in range(k):  # each output: step, then XSL-RR of the new state
            high, low = step(high, low)
            x, rot = high ^ low, high >> np.uint64(58)
            x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
            out[j] = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return out.T


_SAMPLE_BLOCK = 4096  # trajectories sampled together


def generate_population(world: SyntheticWorld, config: PopulationConfig) -> LabeledPopulation:
    """Sample a mixed expert population with ground-truth corruption labels.

    ceil(corrupted_fraction * N) trajectories come from the corruption-mode
    policy; the rest follow a stationary Boltzmann(beta) policy over the
    true optimal action values. Ids, labels, and demographic tags are
    deterministic under the config seed.

    The stream: children of the seed's SeedSequence, as numpy's spawn numbers
    them, the first choosing the corrupted members, the second drawing the tags
    (trajectory by trajectory, tag by tag), and child i + 2 belonging to
    trajectory i. Trajectory i takes 1 + 2H uniforms from default_rng(its
    child), in order s0, then a_t and s_{t+1} for each step t, and turns each
    into a value by the inverse CDF of numpy's Generator.choice. Every
    trajectory thus gets exactly what one rng.choice(n, p=...) call per draw
    would give it, while a block of _SAMPLE_BLOCK trajectories advances
    together one step at a time. Each block draws only its own children's
    uniforms, so what sampling holds beyond the result is one block's draws,
    not N's, and since every trajectory has its own stream the blocks change
    no value.

    The trajectory streams are not made by one default_rng call each:
    _spawned_uniforms runs SeedSequence's integer hash and PCG64's 128-bit
    recurrence over a block's children at once, in uint32 and uint64 arrays. A spawn
    key then has to fit one uint32 word, which holds for any population that
    fits in memory. Those recurrences are numpy's, not ours, so
    tests/test_synth.py's oracle checks the stream bit for bit against the
    installed numpy's default_rng.
    """
    horizon, q0 = world.horizon, world.optimal_q
    expert_policy = _boltzmann(q0, config.expert_beta)

    if config.corruption_mode == "random_policy":
        bad_policy = np.full_like(expert_policy, 1.0 / world.n_actions)
    elif config.corruption_mode == "negated_reward":
        _, q_bad = finite_horizon_values(world.kernel, -world.rewards, horizon)
        bad_policy = _boltzmann(q_bad, config.expert_beta)
    else:
        bad_policy = _boltzmann(q0, config.corruption_beta)

    n, n_states, n_actions = config.n_trajectories, world.n_states, world.n_actions
    n_corrupt = math.ceil(config.corrupted_fraction * n)
    root = np.random.SeedSequence(config.seed)
    member_ss, demo_ss = root.spawn(2)
    bad = np.zeros(n, dtype=bool)
    bad[np.random.default_rng(member_ss).permutation(n)[:n_corrupt]] = True

    # policy rows: the expert's for states 0..S-1, then the corrupted policy's
    policy_cdf = _cdf_rows(np.concatenate([expert_policy, bad_policy]))
    triples, last = _sample_steps(world, policy_cdf, bad, int(config.seed))
    died = world.rewards[last] <= DEATH_REWARD_CUTOFF

    tag_uniforms = np.random.default_rng(demo_ss).random((n, len(config.demographics)))
    demographics = {}
    for j, tag in enumerate(config.demographics):
        corrupted = tag.probs if tag.corrupted_probs is None else tag.corrupted_probs
        cdf = _cdf_rows(np.array([tag.probs, corrupted]))
        labels = np.array([str(c) for c in np.asarray(tag.categories)], dtype=object)
        demographics[tag.name] = labels[_inverse_cdf(cdf, bad.astype(int), tag_uniforms[:, j])]

    ids = [f"t{i:05d}" for i in range(n)]
    tset = TrajectorySet(
        triples.reshape(n * horizon, 3),
        np.full(n, horizon),
        ids,
        n_states,
        n_actions,
        demographics,
        died,
    )
    return LabeledPopulation(tset, dict(zip(ids, bad.tolist())))


def _step_table(kernel: TransitionModel):
    """(cumulative table, successors): row s*A + a holds the cumulative table of
    the kernel's (s, a) row over its non-zeros, as _cdf_rows builds it, and the
    successor s' of each entry; a row shorter than the longest is padded at its end.

    Over the dense row, choice(p=...) draws the count of entries <= u, which
    is always the column of a non-zero: np.cumsum adds the zeros exactly, so
    the dense table's value at each non-zero is the sparse table's, and the
    values between two non-zeros repeat the lower one. So the dense draw is the
    successor of entry k, k the count of the sparse row's entries <= u; the
    padding repeats the row's total, 1.0, which no u in [0, 1) reaches.
    """
    rows, cols = np.divmod(kernel.cells, kernel.n_states)
    lengths = np.bincount(rows, minlength=kernel.n_states * kernel.n_actions)
    at = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    weights = np.zeros((len(lengths), lengths.max()))
    successors = np.zeros(weights.shape, dtype=np.int64)
    weights[rows, at], successors[rows, at] = kernel.values, cols
    return _cdf_rows(weights), successors


def _sample_steps(world: SyntheticWorld, policy_cdf, bad, seed: int):
    """Every trajectory's (horizon, 3) triples and its final state, sampled as
    generate_population describes. The triples are drawn into the set's own
    narrow ids, the id_dtype of the largest state or action id the world has
    (int16 up to 2**15 states and actions, int32 beyond), so the set keeps them
    with no copy; the kernel's cumulative table and a block's draws go when it
    returns, before the set is built."""
    n, horizon, n_states, n_actions = len(bad), world.horizon, world.n_states, world.n_actions
    step_cdf, successors = _step_table(world.kernel)
    start_cdf = _cdf_rows(world.initial_distribution[None])
    triples = np.empty((n, horizon, 3), dtype=id_dtype(max(n_states, n_actions) - 1))
    last = np.empty(n, dtype=np.int64)  # each trajectory's final state
    for lo in range(0, n, _SAMPLE_BLOCK):
        hi = min(lo + _SAMPLE_BLOCK, n)
        uniforms = _spawned_uniforms(seed, np.arange(lo + 2, hi + 2), 1 + 2 * horizon)
        s = _inverse_cdf(start_cdf, np.zeros(hi - lo, int), uniforms[:, 0])
        for t in range(horizon):
            a = _inverse_cdf(policy_cdf, bad[lo:hi] * n_states + s, uniforms[:, 1 + 2 * t])
            row = s * n_actions + a
            sp = successors[row, _inverse_cdf(step_cdf, row, uniforms[:, 2 + 2 * t])]
            triples[lo:hi, t, 0], triples[lo:hi, t, 1], triples[lo:hi, t, 2] = s, a, sp
            s = sp
        last[lo:hi] = s
    return triples, last


def policy_value(world: SyntheticWorld, actions: np.ndarray, horizon: int | None = None) -> float:
    """Expected true-reward return of a stationary deterministic policy.

    Only the chosen actions' rows are made dense, as one (S, S) kernel: the
    product keeps the shape, and so the bits, that it always had.
    """
    horizon = horizon if horizon is not None else world.horizon
    n_states = world.n_states
    bins, cols, vals = world.kernel.nonzero  # bins a*S + s
    s = bins % n_states
    chosen = bins // n_states == np.asarray(actions, dtype=int)[s]
    kernel = np.zeros((n_states, n_states))
    kernel[s[chosen], cols[chosen]] = vals[chosen]
    v = np.zeros(n_states)
    for _ in range(horizon):
        v = kernel @ (world.rewards + v)
    return float(world.initial_distribution @ v)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, len(x)])
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def _spearman_rho(x, y) -> float:
    """Spearman's rank correlation, nan when either input is constant.

    The Pearson correlation of average ranks, computed by the same numpy
    route as scipy.stats.spearmanr (1.17), so the value is the same to the
    last bit without importing scipy.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 2 or (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    return float(np.corrcoef(np.vstack([_average_ranks(x), _average_ranks(y)]))[1, 0])


def evaluate_recovery(world: SyntheticWorld, result, labels: dict[str, bool]) -> dict:
    """Recovery metrics of a two-stage run against the synthetic ground truth.

    Spearman correlation of each stage's learned reward with the true reward,
    plus the standard expected-value-difference protocol: each learned reward
    is turned into a policy by finite-horizon planning under the true kernel,
    agreement is the per-state match of that plan with the true optimal
    policy, and EVD is the true-reward value it gives up. Precision/recall of
    the pruned set are measured against the corruption labels of the scored
    trajectories; labels must name every one of them. A metric that is
    undefined (a Spearman correlation against a constant reward, precision
    with nothing pruned, recall with nothing corrupted) is None.
    """
    if result.reward_stage1.n_states != world.n_states:
        raise ParameterError("result and world disagree on n_states")
    true_value = policy_value(world, world.optimal_policy.actions)

    def stage_metrics(reward):
        rho = _spearman_rho(reward.rewards, world.rewards)
        _, q0 = finite_horizon_values(world.kernel, reward.rewards, world.horizon)
        plan = np.argmax(q0, axis=1)
        agree = float(np.mean(plan == world.optimal_policy.actions))
        evd = true_value - policy_value(world, plan)
        return rho, agree, float(evd)

    s1, a1, e1 = stage_metrics(result.reward_stage1)
    s2, a2, e2 = stage_metrics(result.reward_stage2)

    pruned = ~result.retained
    corrupted = np.array([labels[t] for t in result.scores.ids], dtype=bool)
    hit, n_pruned, n_corrupted = (int(m.sum()) for m in (pruned & corrupted, pruned, corrupted))
    precision = hit / n_pruned if n_pruned else None
    recall = hit / n_corrupted if n_corrupted else None
    return {
        "spearman_stage1": None if np.isnan(s1) else s1,
        "spearman_stage2": None if np.isnan(s2) else s2,
        "policy_agreement_stage1": a1,
        "policy_agreement_stage2": a2,
        "evd_stage1": e1,
        "evd_stage2": e2,
        "prune_precision": precision,
        "prune_recall": recall,
    }
