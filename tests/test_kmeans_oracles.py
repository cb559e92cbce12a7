"""Chunked k-means against the broadcast-and-mask rounds it replaced.

Every fit and assignment must equal the reference in tests/oracles.py byte
for byte: centroids, inertia, member counts, dropped ids, per-cluster
feature statistics and state ids.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from consensus_irl import ClusterModel, assign_states, fit_state_space
from consensus_irl import discretize
from consensus_irl.discretize import _CHUNK_ROWS, _kmeans_pp_init, _nearest

from oracles import (
    reference_assign_states,
    reference_fit_state_space,
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


def scaled_normal(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * rng.uniform(0.5, 20.0, size=d) + rng.normal(size=d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 9, 12])
def test_nearest_matches_broadcast_distances(d):
    rng = np.random.default_rng(d)
    z = rng.normal(size=(3 * _CHUNK_ROWS + 5, d))
    centers = rng.normal(size=(17, d))
    centers[5] = centers[2]  # an exact tie: the lower index must win
    assign, best = _nearest(z, centers)
    d2 = reference_squared_distances(z, centers)
    want = d2.argmin(axis=1)
    assert np.array_equal(assign, want)
    assert best.tobytes() == d2[np.arange(len(z)), want].tobytes()
    assert not (assign == 5).any()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 11])
def test_fit_matches_reference_across_widths(d):
    assert_same_fit(scaled_normal(400, d, seed=d), k=7, min_size=5, seed=d)


@pytest.mark.parametrize("d", [1, 3])
def test_fit_matches_reference_on_tied_rows(d):
    rows = np.round(scaled_normal(600, d, seed=20 + d) / 5.0)  # few distinct values
    assert_same_fit(rows, k=9, min_size=3, seed=2)


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
