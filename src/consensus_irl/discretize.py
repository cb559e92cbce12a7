"""Discrete state space over feature rows via seeded k-means.

Features are z-scored before clustering so mixed units cannot dominate the
metric, centers are seeded with k-means++ under a fixed generator, and Lloyd
iterations stop at a relative inertia change below 1e-6 (or 300 rounds).
Clusters smaller than min_size are marked dropped; their rows re-assign to
the nearest retained center rather than disappearing, which keeps trajectory
chains intact. State ids are centroid indices and stay stable across the
drop, so a model fitted with k=200 can emit states with gaps in the id
range.

Each Lloyd round finds the nearest center, chunk by chunk through reused
(chunk, k) buffers, of only the rows whose triangle-inequality bounds cannot
show that their center stays; it then recomputes each center as the mean of
its cluster's contiguous slice of the rows in one stable sort by assignment.
Both reproduce the plain broadcast-and-mask computation to the bit: the same
distances, the same first-minimum ties, the same rows summed in the same
order. So a fitted model and its state assignments depend neither on the
chunk size nor on which rows the bounds spared.

The prepared cohort becomes trajectories in columns: one feature matrix over
every subject's rows in sorted id order, one state per row, one action
column. Each row but a subject's last starts a step, (state, action, state of
the next row), so the triples are three gathers over the rows and no subject
is chained on its own.
"""

from __future__ import annotations

import inspect
import warnings

import numpy as np

from .errors import CohortEmptyError, ParameterError, SchemaError
from .table import read_json, write_json
from .trajectories import TrajectorySet

MAX_LLOYD_ITERATIONS = 300
INERTIA_RELTOL = 1e-6
# rows per distance chunk: the two (chunk, k) float buffers take 0.8 MiB at
# k = 200, and smaller chunks gained nothing more on a 2-core VM
_CHUNK_ROWS = 512


class ClusterModel:
    """Fitted k-means state space with scaling and per-cluster statistics."""

    def __init__(
        self,
        centroids: np.ndarray,
        feature_names: list[str],
        feature_means: np.ndarray,
        feature_stds: np.ndarray,
        used: np.ndarray,
        member_counts: np.ndarray,
        dropped_cluster_ids: set,
        feature_stats: dict,
        inertia: float,
        seed: int,
    ):
        self.centroids = np.asarray(centroids, dtype=float)
        self.feature_names = list(feature_names)
        self.feature_means = np.asarray(feature_means, dtype=float)
        self.feature_stds = np.asarray(feature_stds, dtype=float)
        self.used = np.asarray(used, dtype=bool)
        self.member_counts = np.asarray(member_counts, dtype=np.int64)
        self.dropped_cluster_ids = set(int(c) for c in dropped_cluster_ids)
        self.feature_stats = {int(c): st for c, st in feature_stats.items()}
        self.inertia = float(inertia)
        self.seed = seed
        if not np.all(np.isfinite(self.centroids)):
            raise ParameterError("centroids must be finite")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def retained_ids(self) -> list[int]:
        return [c for c in range(self.k) if c not in self.dropped_cluster_ids]

    @property
    def excluded_features(self) -> list[str]:
        return [n for n, u in zip(self.feature_names, self.used) if not u]

    def standardize(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.feature_names):
            raise SchemaError(
                f"expected rows with {len(self.feature_names)} features, "
                f"got shape {rows.shape}"
            )
        z = (rows[:, self.used] - self.feature_means[self.used]) / self.feature_stds[self.used]
        return z

    def centroids_original_units(self) -> np.ndarray:
        """Centers mapped back to original units (used features only)."""
        return self.centroids * self.feature_stds[self.used] + self.feature_means[self.used]

    def to_json(self, path) -> None:
        """One JSON object whose keys are the constructor's parameters."""
        payload = {name: getattr(self, name) for name in inspect.signature(type(self)).parameters}
        write_json(path, {
            **payload,
            "used": self.used.astype(int),  # 1 and 0, not true and false
            "dropped_cluster_ids": sorted(self.dropped_cluster_ids),
            "feature_stats": {str(c): st for c, st in self.feature_stats.items()},  # sorted as text
        }, indent=None)

    @classmethod
    def from_json(cls, path) -> "ClusterModel":
        payload = read_json(path)
        return cls(**{name: payload[name] for name in inspect.signature(cls).parameters})


def _nearest(z: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest center per row (the first on ties), its squared distance, and the
    smallest squared distance to any other center (inf with one center).

    numpy's `((z[:, None] - centers) ** 2).sum(axis=2)` adds fewer than eight
    terms left to right, so narrow rows accumulate the squares feature by
    feature from 0 up and every distance matches that sum to the bit. It adds
    eight or more pairwise, so wider rows take that very expression, one row
    chunk at a time.
    """
    n, d = z.shape
    assign = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    second = np.empty(n)
    acc = np.empty((min(n, _CHUNK_ROWS), len(centers)))
    term = np.empty_like(acc)
    columns = np.ascontiguousarray(centers.T)
    index = np.arange(len(acc))
    for lo in range(0, n, _CHUNK_ROWS):
        rows = z[lo : lo + _CHUNK_ROWS]
        m = len(rows)
        a, t = acc[:m], term[:m]
        if d < 8:
            np.square(np.subtract(rows[:, :1], columns[0], out=a), out=a)
            for f in range(1, d):
                a += np.square(np.subtract(rows[:, f : f + 1], columns[f], out=t), out=t)
        else:
            a[...] = ((rows[:, None, :] - centers) ** 2).sum(axis=2)
        picked = a.argmin(axis=1)
        assign[lo : lo + m] = picked
        best[lo : lo + m] = a[index[:m], picked]
        a[index[:m], picked] = np.inf
        second[lo : lo + m] = a.min(axis=1)
    return assign, best, second


def _row_distances(z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's squared distance to its center: one center per row, or one for all.

    The same subtractions, squares and sums in the same order as _nearest, so
    each equals the entry _nearest computes for that row and center to the bit.
    """
    if z.shape[1] < 8:
        d2 = np.square(z[:, 0] - centers[..., 0])
        for f in range(1, z.shape[1]):
            d2 += np.square(z[:, f] - centers[..., f])
        return d2
    return ((z[:, None, :] - centers[..., None, :]) ** 2).sum(axis=2)[:, 0]


def _slices(labels: np.ndarray, k: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Stable order that groups labels 0..k-1, and each label's [lo, hi) in it.

    `x[order][lo:hi]` holds the rows of `x[labels == j]` in the same order.
    """
    # numpy sorts 8- and 16-bit keys stably by radix: 0.12 ms for 28k labels
    # against 2.0 ms as int64 (2-core x86-64 VM)
    order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=k))]).tolist()
    return order, list(zip(bounds[:-1], bounds[1:]))


def _kmeans_pp_init(z: np.ndarray, k: int, rng) -> np.ndarray:
    n = z.shape[0]
    centers = np.empty((k, z.shape[1]))
    centers[0] = z[rng.integers(n)]
    d2 = _row_distances(z, centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total == 0:
            centers[j] = z[rng.integers(n)]
            continue
        centers[j] = z[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _row_distances(z, centers[j]))
    return centers


def _lloyd(z: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd rounds from the given centers: (centers, assignment, inertia).

    Hamerly's bounds (*Making k-means even faster*, 2010) spare most rows the
    distances to all k centers. A round computes every row's squared distance
    to its own center with _nearest's expression (_row_distances). A row keeps
    its center when that distance is below, by more than `margin`, either
    - its lower bound on the distance to every other center: the runner-up
      distance of its last full pass, less the largest move of any other
      center since; or
    - half the distance from its center to the nearest other center.
    Only the other rows go through _nearest, which resets their bounds. A
    cluster whose members did not change keeps its center, since their mean
    would come out the same.

    The margin keeps every bit. Centers are means of rows or rows, so no
    distance, move or center gap exceeds 2r, r the largest row norm. A
    computed distance over d features, and so each move and gap, is within
    (d + 3)u * 2r of the true one (u = 2**-53); each subtraction from a
    non-negative bound adds at most u * 2r, and a negative bound clears no
    row. A bound is at most MAX_LLOYD_ITERATIONS rounds old, so
    4(d + 4)(MAX_LLOYD_ITERATIONS + 2)u * r covers its error and the own
    distance's twice over. A row that clears it is strictly nearer its own
    center than any other in _nearest's arithmetic too, so _nearest would pick
    that center, tie or no tie. The rows kept pass on the very squared
    distances _nearest computes, so the inertia, the empty-cluster re-seed and
    the convergence test see a full pass's bits.
    """
    n, d = z.shape
    r = float(np.sqrt(np.square(z).sum(axis=1).max()))
    margin = 4 * (d + 4) * (MAX_LLOYD_ITERATIONS + 2) * (np.finfo(float).eps / 2) * r
    assign = np.zeros(n, dtype=np.intp)
    lower = np.zeros(n)  # no bound yet: every row takes the first full pass
    previous = centers.copy()
    stale = np.ones(len(centers), dtype=bool)  # clusters whose members changed

    def assignment_round() -> np.ndarray:
        moves = np.sqrt(np.square(centers - previous).sum(axis=1))
        previous[...] = centers
        # a row's bound falls by the largest move of a center other than its own
        runner_up, first = np.argsort(moves)[-2:]
        lower[...] -= np.where(assign == first, moves[runner_up], moves[first])
        gaps = np.sqrt(np.square(centers[:, None, :] - centers).sum(axis=2))
        np.fill_diagonal(gaps, np.inf)
        half = gaps.min(axis=1) / 2
        best = _row_distances(z, centers[assign])
        unsure = np.flatnonzero(np.sqrt(best) + margin >= np.maximum(lower, half[assign]))
        picked, nearest, second = _nearest(z[unsure], centers)
        left = assign[unsure]
        moved = picked != left
        stale[left[moved]] = stale[picked[moved]] = True
        assign[unsure], best[unsure], lower[unsure] = picked, nearest, np.sqrt(second)
        return best

    inertia = np.inf
    for _ in range(MAX_LLOYD_ITERATIONS):
        best = assignment_round()
        new_inertia = float(best.sum())
        order, slices = _slices(assign, len(centers))
        zs = z[order]
        for j, (lo, hi) in enumerate(slices):
            if hi == lo:
                # re-seed an empty cluster at the point farthest from its center
                centers[j] = z[best.argmax()]
            elif stale[j]:
                centers[j] = zs[lo:hi].mean(axis=0)
        stale[...] = False
        if inertia - new_inertia <= INERTIA_RELTOL * max(new_inertia, 1e-300):
            inertia = new_inertia
            break
        inertia = new_inertia
    best = assignment_round()
    return centers, assign, float(best.sum())


def fit_state_space(
    rows,
    k: int = 200,
    min_size: int = 10,
    seed: int = 0,
    feature_names: list[str] | None = None,
    n_restarts: int = 1,
) -> ClusterModel:
    """Fit the k-means state space over feature rows.

    Zero-variance features are excluded with a warning (they carry no
    clustering signal and would divide by zero under z-scoring). The best of
    n_restarts seeded runs by inertia wins.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ParameterError("rows must be a 2-D array")
    n, d = rows.shape
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(d)]
    if len(feature_names) != d:
        raise ParameterError("feature_names length must match row width")
    if k < 2:
        raise ParameterError("k must be >= 2")
    if n < k:
        raise ParameterError(f"need at least k={k} rows, got {n}")
    if n_restarts < 1:
        raise ParameterError("n_restarts must be >= 1")

    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    used = stds > 0
    if not used.any():
        raise ParameterError("every feature has zero variance")
    if not used.all():
        dead = [feature_names[j] for j in range(d) if not used[j]]
        warnings.warn(
            "excluding zero-variance features: " + ", ".join(dead), stacklevel=2
        )
    z = (rows[:, used] - means[used]) / stds[used]

    best = None
    for child in np.random.SeedSequence(seed).spawn(n_restarts):
        rng = np.random.default_rng(child)
        centers, assign, inertia = _lloyd(z, _kmeans_pp_init(z, k, rng))
        if best is None or inertia < best[2]:
            best = (centers, assign, inertia)
    centers, assign, inertia = best

    member_counts = np.bincount(assign, minlength=k)
    dropped = {int(c) for c in range(k) if member_counts[c] < min_size}
    if len(dropped) == k:
        raise ParameterError(
            f"every cluster has fewer than min_size={min_size} members"
        )

    model = ClusterModel(
        centroids=centers,
        feature_names=feature_names,
        feature_means=means,
        feature_stds=stds,
        used=used,
        member_counts=member_counts,
        dropped_cluster_ids=dropped,
        feature_stats={},
        inertia=inertia,
        seed=seed,
    )
    # statistics in original units over the post-reassignment membership,
    # which is what downstream cluster tables describe. A row whose nearest
    # center is retained keeps it, since each distance does not depend on the
    # other centers, so only the dropped clusters' rows are assigned again
    states = assign.astype(np.int64)
    moved = np.isin(assign, sorted(dropped))
    if moved.any():
        states[moved] = assign_states(rows[moved], model)
    order, slices = _slices(states, k)
    sorted_rows = rows[order]
    stats = {}
    for c in model.retained_ids:
        members = sorted_rows[slice(*slices[c])]
        if len(members) == 0:
            continue
        stats[c] = {
            "count": int(len(members)),
            "means": {
                feature_names[j]: float(members[:, j].mean()) for j in range(d)
            },
            "stds": {
                feature_names[j]: float(members[:, j].std()) for j in range(d)
            },
        }
    model.feature_stats = stats
    return model


def assign_states(rows, model: ClusterModel) -> np.ndarray:
    """Nearest retained centroid per row, lowest id on ties."""
    z = model.standardize(rows)
    retained = model.retained_ids
    if not retained:
        raise CohortEmptyError("model has no retained clusters")
    picked, _, _ = _nearest(z, model.centroids[retained])  # first minimum: lowest id wins
    return np.asarray(retained, dtype=np.int64)[picked]


def feature_matrix(prepared: dict, features: list[str]) -> tuple[np.ndarray, dict]:
    """Stack prepared records into a row matrix; remember each subject's rows.

    Returns (matrix, {subject_id: slice}) with subjects in sorted order.
    """
    sids = sorted(prepared)
    if not sids:
        raise CohortEmptyError("no prepared subjects")
    ends = np.cumsum([len(prepared[sid][0]) for sid in sids]).tolist()
    rows = np.empty((ends[-1], len(features)))
    for j, name in enumerate(features):
        rows[:, j] = np.concatenate([prepared[sid][0].features[name] for sid in sids])
    index = {sid: slice(lo, hi) for sid, lo, hi in zip(sids, [0, *ends], ends)}
    return rows, index


def trajectories_from_prepared(
    prepared: dict, model: ClusterModel, features: list[str]
) -> tuple[TrajectorySet, dict]:
    """Assign every prepared row a state, then chain each subject's rows.

    A row and its action start a step that ends in the state of the next
    row, unless it is its subject's last row. So a subject with one row has
    no transition: it is left out, and the report counts it as
    excluded_short. Ids enter the set in sorted order; n_actions is one more
    than the largest action of any subject, and the tags are those of the
    subjects kept.
    """
    rows, index = feature_matrix(prepared, features)
    states = assign_states(rows, model)
    for sid, (records, acts) in prepared.items():
        if len(acts) != len(records):
            raise SchemaError(f"subject {sid}: needs one action per row")
    actions = np.concatenate([prepared[sid][1] for sid in index])
    starts = np.ones(len(states), dtype=bool)
    starts[[span.stop - 1 for span in index.values()]] = False
    at = np.flatnonzero(starts)
    kept = [sid for sid, span in index.items() if span.stop - span.start >= 2]
    if not kept:
        raise CohortEmptyError("no subject has two or more time steps")
    records = [prepared[sid][0] for sid in kept]
    tags = {t for r in records for t in r.demographics}
    tset = TrajectorySet(
        np.stack([states[at], actions[at], states[at + 1]], axis=1),
        [len(r) - 1 for r in records],
        [str(sid) for sid in kept],
        model.k,
        int(actions.max()) + 1,
        {t: [r.demographics.get(t) for r in records] for t in tags},
        [r.died_in_hospital for r in records],
    )
    return tset, {"excluded_short": len(index) - len(kept)}
