"""Chunked, bound-pruned k-means against the broadcast-and-mask rounds it replaced.

Every fit and assignment must equal the reference in tests/oracles.py byte
for byte: centroids, inertia, member counts, dropped ids, per-cluster
feature statistics and state ids. The bounds must also spare most rows the
full distance pass once the centers settle.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from consensus_irl import ClusterModel, assign_states, fit_state_space
from consensus_irl import discretize
from consensus_irl.discretize import _CHUNK_ROWS, _kmeans_pp_init, _nearest, _row_distances

from oracles import (
    reference_assign_states,
    reference_fit_state_space,
    reference_kmeans_pp_init,
    reference_squared_distances,
)


def assert_same_fit(rows, k, min_size=1, seed=0, n_restarts=1):
    got = fit_state_space(rows, k=k, min_size=min_size, seed=seed, n_restarts=n_restarts)
    want = reference_fit_state_space(rows, k, min_size, seed, n_restarts)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.inertia == want.inertia
    assert np.array_equal(got.member_counts, want.member_counts)
    assert got.dropped_cluster_ids == want.dropped_cluster_ids
    assert got.feature_stats == want.feature_stats
    assert np.array_equal(assign_states(rows, got), reference_assign_states(rows, want))
    return got


def tally_nearest(monkeypatch) -> dict:
    """Count _nearest's calls, the rows it gets and its exact runner-up ties."""
    tally = {"calls": 0, "rows": 0, "ties": 0}
    nearest = discretize._nearest

    def counting(z, centers):
        assign, best, second = nearest(z, centers)
        tally["calls"] += 1
        tally["rows"] += len(z)
        tally["ties"] += int((best == second).sum())
        return assign, best, second

    monkeypatch.setattr(discretize, "_nearest", counting)
    return tally


def scaled_normal(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * rng.uniform(0.5, 20.0, size=d) + rng.normal(size=d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 9, 12])
def test_nearest_matches_broadcast_distances(d):
    rng = np.random.default_rng(d)
    z = rng.normal(size=(3 * _CHUNK_ROWS + 5, d))
    centers = rng.normal(size=(17, d))
    centers[5] = centers[2]  # an exact tie: the lower index must win
    assign, best, second = _nearest(z, centers)
    d2 = reference_squared_distances(z, centers)
    want = d2.argmin(axis=1)
    assert np.array_equal(assign, want)
    assert best.tobytes() == d2[np.arange(len(z)), want].tobytes()
    assert not (assign == 5).any()
    # the runner-up is the nearest other center, so a tie gives it the best distance
    assert second.tobytes() == np.sort(d2, axis=1)[:, 1].tobytes()
    assert (second[np.isin(want, [2, 5])] == best[np.isin(want, [2, 5])]).all()
    # the distances to one center per row, or to one center, are the same entries
    assert _row_distances(z, centers[assign]).tobytes() == best.tobytes()
    assert _row_distances(z, centers[3]).tobytes() == d2[:, 3].tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 12])
def test_seeding_matches_reference(d):
    spread = scaled_normal(700, d, seed=50 + d)
    # three distinct rows: after three seeds every distance is 0
    few = spread[:3][np.random.default_rng(d).integers(0, 3, size=200)]
    for z in (spread, few):
        for seed in range(3):
            got = _kmeans_pp_init(z, 12, np.random.default_rng(seed))
            want = reference_kmeans_pp_init(z, 12, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 11])
def test_fit_matches_reference_across_widths(d):
    assert_same_fit(scaled_normal(400, d, seed=d), k=7, min_size=5, seed=d)


@pytest.mark.parametrize("d", [1, 3])
def test_fit_matches_reference_on_tied_rows(d):
    rows = np.round(scaled_normal(600, d, seed=20 + d) / 5.0)  # few distinct values
    assert_same_fit(rows, k=9, min_size=3, seed=2)


def test_long_fit_on_rounded_rows_matches_reference(monkeypatch):
    # integer rows, most of them repeated: the fit takes 73 rounds, and some
    # rows lie exactly between two centers, which only a full pass may settle
    rows = np.round(scaled_normal(4000, 3, seed=7) / 4.0)
    assert len(np.unique(rows, axis=0)) < len(rows) / 2
    tally = tally_nearest(monkeypatch)
    assert_same_fit(rows, k=16, min_size=0, seed=7)
    assert tally["calls"] >= 50 and tally["ties"] > 0


@pytest.mark.parametrize("d", [1, 2])
def test_empty_clusters_reseed_as_the_reference_does(d):
    rng = np.random.default_rng(30 + d)
    rows = rng.normal(size=(3, d))[rng.integers(0, 3, size=120)]  # three distinct rows
    k = 6
    # k-means++ runs out of distinct rows, so round one starts with duplicate
    # centers and the later copy of each is empty
    z = (rows - rows.mean(axis=0)) / rows.std(axis=0)
    child = np.random.SeedSequence(4).spawn(1)[0]
    seeds = _kmeans_pp_init(z, k, np.random.default_rng(child))
    assert len(np.unique(seeds, axis=0)) < k
    model = assert_same_fit(rows, k=k, min_size=1, seed=4)
    assert (model.member_counts == 0).any()


@pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
@pytest.mark.parametrize("d", [1, 3])
def test_fit_matches_reference_around_the_chunk_size(n, d):
    assert_same_fit(scaled_normal(n, d, seed=n), k=6, min_size=20, seed=1)


@pytest.mark.parametrize("d", [3, 9])
def test_dropped_clusters_match_reference(d):
    # the statistics reassign the dropped clusters' rows to retained centers
    model = assert_same_fit(scaled_normal(300, d, seed=40 + d), k=20, min_size=15, seed=3)
    assert model.dropped_cluster_ids and model.feature_stats


def test_restarts_match_reference():
    assert_same_fit(scaled_normal(500, 3, seed=8), k=8, min_size=10, seed=5, n_restarts=4)


def test_zero_variance_feature_matches_reference():
    rows = np.column_stack([scaled_normal(300, 2, seed=9), np.full(300, 4.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_same_fit(rows, k=5, min_size=1, seed=3)


def test_assignment_ties_match_reference():
    # integer rows halfway between integer centroids are equidistant from two
    rng = np.random.default_rng(0)
    rows = rng.integers(-6, 7, size=(2 * _CHUNK_ROWS + 3, 2)).astype(float)
    centroids = np.array([[-4, 0], [0, 0], [4, 0], [0, 4], [0, -4], [2, 2], [-2, -2.0]])
    for dropped in (set(), {1}, {0, 5}):
        model = ClusterModel(
            centroids=centroids,
            feature_names=["x", "y"],
            feature_means=np.zeros(2),
            feature_stds=np.ones(2),
            used=np.array([True, True]),
            member_counts=np.full(len(centroids), 10),
            dropped_cluster_ids=dropped,
            feature_stats={},
            inertia=0.0,
            seed=0,
        )
        states = assign_states(rows, model)
        assert states.dtype == np.int64
        assert np.array_equal(states, reference_assign_states(rows, model))
        assert not np.isin(states, list(dropped)).any()


def test_fit_temporaries_stay_small_at_clinical_shape(monkeypatch):
    # about the benchmark cohort: 28k rows of 3 vitals, k = 80. One (n, k, d)
    # distance temporary alone would be 54 MB; a round needs only the
    # (chunk, k) buffers and a few copies of the rows.
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(28_000, 3)) * [15.0, 20.0, 1.5] + [70.0, 85.0, 2.0]
    monkeypatch.setattr(discretize, "MAX_LLOYD_ITERATIONS", 3)  # the peak is per round
    tracemalloc.start()
    try:
        fit_state_space(rows, k=80, min_size=10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_bounds_spare_most_rows_the_full_pass(monkeypatch):
    # clinical-shaped: 28k rows of 3 vitals in discrete regimes with small
    # noise, k = 80. Every row takes the first pass; after that only the rows
    # whose bounds cannot keep them on their center take one.
    rng = np.random.default_rng(1)
    regimes = np.array(
        [[bp, hr, lactate] for bp in (43, 55, 67, 79, 88) for hr in (50, 65, 80, 95, 110)
         for lactate in (1.0, 2.0, 3.0, 4.0)],
        dtype=float,
    )
    rows = regimes[rng.integers(len(regimes), size=28_000)]
    rows += rng.normal(size=rows.shape) * [2.0, 3.0, 0.15]
    tally = tally_nearest(monkeypatch)
    fit_state_space(rows, k=80, min_size=0, seed=1)  # min_size 0: every call is a round
    assert tally["calls"] > 10
    assert tally["rows"] < 0.5 * len(rows) * tally["calls"], tally
