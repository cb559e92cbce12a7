"""State-space fitting, assignment, and trajectory chaining tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from consensus_irl import (
    ClusterModel,
    CohortEmptyError,
    ParameterError,
    SchemaError,
    SubjectRecords,
    assign_states,
    fit_state_space,
)
from consensus_irl.discretize import feature_matrix, trajectories_from_prepared

from oracles import random_assignment_inertia, reference_trajectories


def two_blobs(seed=0, n_per=40, spread=0.05):
    rng = np.random.default_rng(seed)
    lo = rng.normal([0.0, 0.0], spread, size=(n_per, 2))
    hi = rng.normal([10.0, 10.0], spread, size=(n_per, 2))
    return np.vstack([lo, hi])


def hand_model(centroids, dropped=()):
    """1-D model with identity scaling so distances read off directly."""
    centroids = np.asarray(centroids, dtype=float).reshape(-1, 1)
    k = len(centroids)
    return ClusterModel(
        centroids=centroids,
        feature_names=["x"],
        feature_means=np.zeros(1),
        feature_stds=np.ones(1),
        used=np.array([True]),
        member_counts=np.full(k, 10),
        dropped_cluster_ids=set(dropped),
        feature_stats={},
        inertia=0.0,
        seed=0,
    )


class TestFit:
    def test_two_blobs_recover_blob_means(self):
        rows = two_blobs()
        model = fit_state_space(rows, k=2, min_size=1, seed=3)
        got = model.centroids_original_units()
        got = got[np.argsort(got[:, 0])]
        want = np.array([rows[:40].mean(axis=0), rows[40:].mean(axis=0)])
        assert np.abs(got - want).max() < 1e-9

    def test_three_gaussians_beat_random_assignments(self):
        rng = np.random.default_rng(7)
        rows = np.vstack(
            [
                rng.normal([0, 0], 0.5, size=(34, 2)),
                rng.normal([5, 0], 0.5, size=(33, 2)),
                rng.normal([0, 5], 0.5, size=(33, 2)),
            ]
        )
        model = fit_state_space(rows, k=3, min_size=1, seed=1)
        z = model.standardize(rows)
        baseline = random_assignment_inertia(z, 3, 1000, seed=99)
        assert model.inertia <= baseline

    def test_member_counts_sum_to_rows(self):
        rows = two_blobs(seed=5)
        model = fit_state_space(rows, k=4, min_size=1, seed=2)
        assert model.member_counts.sum() == len(rows)

    def test_small_clusters_dropped(self):
        rows = np.vstack([two_blobs(seed=2), [[100.0, 100.0]]])
        model = fit_state_space(rows, k=3, min_size=5, seed=0)
        assert model.dropped_cluster_ids
        assert len(model.retained_ids) == 3 - len(model.dropped_cluster_ids)
        # feature_stats covers only retained clusters, over all 81 rows
        assert set(model.feature_stats) == set(model.retained_ids)
        assert sum(st["count"] for st in model.feature_stats.values()) == len(rows)

    def test_more_restarts_never_hurt(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(60, 3))
        one = fit_state_space(rows, k=5, min_size=1, seed=4, n_restarts=1)
        many = fit_state_space(rows, k=5, min_size=1, seed=4, n_restarts=8)
        assert many.inertia <= one.inertia

    @pytest.mark.parametrize("n_restarts", [0, -1])
    def test_fewer_than_one_restart_rejected(self, n_restarts):
        with pytest.raises(ParameterError, match="n_restarts must be >= 1"):
            fit_state_space(two_blobs(seed=3), k=2, min_size=1, n_restarts=n_restarts)

    def test_fit_is_deterministic(self):
        rows = two_blobs(seed=9)
        a = fit_state_space(rows, k=3, min_size=1, seed=6, n_restarts=3)
        b = fit_state_space(rows, k=3, min_size=1, seed=6, n_restarts=3)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.member_counts, b.member_counts)
        assert a.inertia == b.inertia
        assert a.dropped_cluster_ids == b.dropped_cluster_ids

    def test_zero_variance_feature_excluded_with_warning(self):
        rows = two_blobs(seed=1)
        rows = np.column_stack([rows, np.full(len(rows), 7.0)])
        names = ["a", "b", "const"]
        with pytest.warns(UserWarning, match="zero-variance.*const"):
            model = fit_state_space(rows, k=2, min_size=1, seed=0, feature_names=names)
        assert model.excluded_features == ["const"]
        assert model.centroids.shape[1] == 2
        assert np.isfinite(model.standardize(rows)).all()

    def test_all_zero_variance_rejected(self):
        rows = np.full((10, 2), 3.0)
        with pytest.raises(ParameterError, match="zero variance"):
            fit_state_space(rows, k=2, min_size=1)

    def test_k_below_two_rejected(self):
        with pytest.raises(ParameterError, match="k"):
            fit_state_space(two_blobs(), k=1, min_size=1)

    def test_fewer_rows_than_k_rejected(self):
        rows = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(ParameterError, match="rows"):
            fit_state_space(rows, k=5, min_size=1)

    def test_feature_name_length_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="feature_names"):
            fit_state_space(two_blobs(), k=2, min_size=1, feature_names=["only_one"])

    def test_non_2d_rows_rejected(self):
        with pytest.raises(ParameterError, match="2-D"):
            fit_state_space(np.arange(6.0), k=2, min_size=1)

    def test_everything_dropped_rejected(self):
        rows = np.random.default_rng(3).normal(size=(4, 2))
        with pytest.raises(ParameterError, match="min_size"):
            fit_state_space(rows, k=2, min_size=10)


class TestAssign:
    def test_rows_at_centroids_map_to_them(self):
        model = fit_state_space(two_blobs(seed=4), k=2, min_size=1, seed=8)
        coords = model.centroids_original_units()
        assert assign_states(coords, model).tolist() == model.retained_ids

    def test_equidistant_tie_takes_lowest_id(self):
        model = hand_model([10.0, 20.0, -1.0, 30.0, 40.0, 1.0])
        assert assign_states([[0.0]], model)[0] == 2
        assert assign_states([[0.5]], model)[0] == 5

    def test_dropped_nearest_falls_back_to_retained(self):
        model = hand_model([0.0, 5.0, -7.0, 9.0, 0.5], dropped={0})
        # nearest overall is the dropped centroid 0; nearest retained is 4
        assert assign_states([[0.1]], model)[0] == 4

    def test_assignment_is_per_row(self):
        model = fit_state_space(two_blobs(seed=6), k=2, min_size=1, seed=1)
        rows = two_blobs(seed=12)
        states = assign_states(rows, model)
        perm = np.random.default_rng(0).permutation(len(rows))
        assert np.array_equal(assign_states(rows[perm], model), states[perm])
        assert np.array_equal(assign_states(rows, model), states)

    def test_wrong_width_rejected(self):
        model = fit_state_space(two_blobs(), k=2, min_size=1)
        with pytest.raises(SchemaError, match="features"):
            assign_states(np.zeros((3, 5)), model)

    def test_no_retained_clusters_rejected(self):
        model = hand_model([0.0, 1.0], dropped={0, 1})
        with pytest.raises(CohortEmptyError):
            assign_states([[0.0]], model)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rows = np.vstack([two_blobs(seed=2), [[100.0, 100.0]]])
        rows = np.column_stack([rows, np.full(len(rows), 1.0)])
        with pytest.warns(UserWarning):
            model = fit_state_space(
                rows, k=3, min_size=5, seed=5, feature_names=["a", "b", "c"]
            )
        path = tmp_path / "model.json"
        model.to_json(path)
        loaded = ClusterModel.from_json(path)
        assert np.array_equal(loaded.centroids, model.centroids)
        assert np.array_equal(loaded.feature_means, model.feature_means)
        assert np.array_equal(loaded.feature_stds, model.feature_stds)
        assert np.array_equal(loaded.used, model.used)
        assert np.array_equal(loaded.member_counts, model.member_counts)
        assert loaded.dropped_cluster_ids == model.dropped_cluster_ids
        assert loaded.feature_stats == model.feature_stats
        assert loaded.inertia == model.inertia
        assert loaded.seed == model.seed
        assert np.array_equal(assign_states(rows, loaded), assign_states(rows, model))

    def test_round_trip_is_byte_stable(self, tmp_path):
        model = fit_state_space(two_blobs(seed=8), k=2, min_size=1, seed=2)
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        model.to_json(first)
        ClusterModel.from_json(first).to_json(second)
        assert first.read_bytes() == second.read_bytes()


def chain(seqs, actions=None, tags=None, died=None):
    """trajectories_from_prepared over subjects whose rows sit at these states.

    The model puts state s at x = s, so a row at x = s is assigned state s.
    Actions default to 0 on every row.
    """
    prepared = {}
    for sid, states in seqs.items():
        records = SubjectRecords(
            subject_id=sid,
            timestamps=np.arange(len(states)),
            features={"x": np.asarray(states, dtype=float)},
            demographics=(tags or {}).get(sid, {}),
            died_in_hospital=(died or {}).get(sid, False),
        )
        acts = [0] * len(states) if actions is None else actions[sid]
        prepared[sid] = (records, np.asarray(acts, dtype=np.int64))
    return trajectories_from_prepared(prepared, hand_model(np.arange(10)), ["x"])


class TestChaining:
    def test_three_step_subject_chains_two_transitions(self):
        tset, report = chain({"p": [3, 3, 9]}, {"p": [0, 2, 7]})
        assert tset.triples.tolist() == [[3, 0, 3], [3, 2, 9]]
        assert tset.lengths.tolist() == [2]
        assert (tset.n_states, tset.n_actions) == (10, 8)
        assert report == {"excluded_short": 0}

    def test_chained_ids_are_stored_narrow(self):
        tset, _ = chain({"p": [3, 3, 9], "q": [1, 2]}, {"p": [0, 2, 7], "q": [1, 1]})
        assert tset.triples.dtype == np.int16
        assert tset.triples.tolist() == [[3, 0, 3], [3, 2, 9], [1, 1, 2]]

    def test_last_rows_action_starts_no_step(self):
        with_seven, _ = chain({"p": [3, 3, 9]}, {"p": [0, 2, 7]})
        with_one, _ = chain({"p": [3, 3, 9]}, {"p": [0, 2, 1]})
        assert np.array_equal(with_seven.triples, with_one.triples)
        assert (with_seven.n_actions, with_one.n_actions) == (8, 3)

    def test_single_step_subject_excluded_and_counted(self):
        tset, report = chain({"a": [1, 2, 0], "b": [4]}, {"a": [0, 1, 1], "b": [1]})
        assert tset.ids == ["a"]
        assert tset.triples.tolist() == [[1, 0, 2], [2, 1, 0]]
        assert report == {"excluded_short": 1}

    def test_all_subjects_short_rejected(self):
        with pytest.raises(CohortEmptyError):
            chain({"a": [1], "b": [2]})

    def test_subjects_enter_sorted(self):
        tset, _ = chain({"s9": [0, 1], "s1": [1, 2], "s5": [2, 0]})
        assert tset.ids == ["s1", "s5", "s9"]
        assert tset.triples.tolist() == [[1, 0, 2], [2, 0, 0], [0, 0, 1]]

    def test_metadata_attached_with_defaults(self):
        tset, _ = chain(
            {"a": [0, 1], "b": [1, 0], "c": [5]},
            {"a": [0, 0], "b": [1, 1], "c": [6]},
            {"a": {"sex": "female"}, "c": {"ward": "icu"}},
            {"a": True},
        )
        assert tset.ids == ["a", "b"]
        assert [tr.demographics for tr in reference_trajectories(tset)] == [{"sex": "female"}, {}]
        assert tset.died_in_hospital.tolist() == [True, False]
        # c is left out, so its tag is not a tag of the set; its action still counts
        assert tset.demographic_tags() == ["sex"]
        assert tset.n_actions == 7

    def test_one_action_per_row_required(self):
        with pytest.raises(SchemaError, match="subject p: needs one action per row"):
            chain({"p": [3, 3, 9]}, {"p": [0, 2]})

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    def test_every_trajectory_is_chained(self, seqs):
        assume(any(len(s) >= 2 for s in seqs))
        state_seqs = {f"s{i}": s for i, s in enumerate(seqs)}
        tset, report = chain(state_seqs)
        assert report["excluded_short"] == sum(len(s) < 2 for s in seqs)
        assert len(tset) == len(seqs) - report["excluded_short"]
        for tr in reference_trajectories(tset):
            src = state_seqs[tr.id]
            assert tr.triples.tolist() == [[s, 0, sp] for s, sp in zip(src, src[1:])]
            assert np.array_equal(tr.triples[1:, 0], tr.triples[:-1, 2]), "triples must chain"


def make_prepared():
    """Two subjects with hand-picked vitals near opposite blob centers."""

    def rec(sid, hr, mbp):
        return SubjectRecords(
            subject_id=sid,
            timestamps=np.arange(len(hr)),
            features={"heart_rate": hr, "mean_bp": mbp},
            demographics={"sex": "male" if sid == "p1" else "female"},
            died_in_hospital=(sid == "p2"),
        )

    return {
        "p2": (rec("p2", [120.0, 118.0], [50.0, 52.0]), np.array([2, 0])),
        "p1": (rec("p1", [70.0, 72.0, 71.0], [90.0, 88.0, 91.0]), np.array([0, 1, 0])),
    }


class TestPreparedPath:
    def test_feature_matrix_orders_and_indexes(self):
        prepared = make_prepared()
        rows, index = feature_matrix(prepared, ["heart_rate", "mean_bp"])
        assert list(index) == ["p1", "p2"]
        assert rows.shape == (5, 2)
        assert rows[index["p1"]].tolist() == [[70, 90], [72, 88], [71, 91]]
        assert rows[index["p2"]].tolist() == [[120, 50], [118, 52]]
        assert rows.flags.c_contiguous and rows.dtype == np.float64

    def test_feature_matrix_without_features_keeps_its_rows(self):
        rows, index = feature_matrix(make_prepared(), [])
        assert rows.shape == (5, 0)
        assert index == {"p1": slice(0, 3), "p2": slice(3, 5)}

    def test_feature_matrix_empty_rejected(self):
        with pytest.raises(CohortEmptyError):
            feature_matrix({}, ["heart_rate"])

    def test_prepared_records_to_trajectories(self):
        prepared = make_prepared()
        features = ["heart_rate", "mean_bp"]
        rows, index = feature_matrix(prepared, features)
        model = fit_state_space(rows, k=2, min_size=1, seed=0)
        tset, report = trajectories_from_prepared(prepared, model, features)

        assert report == {"excluded_short": 0}
        assert tset.n_states == model.k
        assert tset.n_actions == 3  # max action id 2 observed
        states = assign_states(rows, model)
        assert tset.ids == ["p1", "p2"]
        p1 = reference_trajectories(tset)[0].triples
        assert np.array_equal(p1[:, 0], states[index["p1"]][:-1])
        assert np.array_equal(p1[:, 2], states[index["p1"]][1:])
        assert np.array_equal(p1[:, 1], [0, 1])
        assert tset.died_in_hospital.tolist() == [False, True]
        assert reference_trajectories(tset)[0].demographics == {"sex": "male"}
