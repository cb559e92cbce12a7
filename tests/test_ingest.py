"""Record loading, imputation, outlier filtering, and action encoding tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_irl import (
    ActionCodec,
    CohortEmptyError,
    InputError,
    ParameterError,
    SchemaError,
    SubjectRecords,
    hypotension_codec,
    regroup_demographics,
    sepsis_codec,
)
from consensus_irl.ingest import (
    load_bounds,
    load_normal_values,
    load_records_csv,
    load_relabel,
    prepare_subjects,
    read_prepared_csv,
    write_prepared_csv,
)


def series(sid, values, feature="heart_rate", start=0):
    return SubjectRecords(sid, np.arange(start, start + len(values)), {feature: values})


def prepare_one(records, normals=None, bounds=None, codec=None):
    """prepare_subjects over a cohort of this one subject: (records, actions, report)."""
    prepared, report = prepare_subjects(
        {records.subject_id: records}, normals or {}, bounds or {}, codec or hypotension_codec()
    )
    return (*prepared[records.subject_id], report)


def impute(records, normals):
    return prepare_one(records, normals)[0]


def values(records, feature="heart_rate"):
    return records.features[feature].tolist()


def same_rows(a, b):
    """Equal timestamps and equal feature and flag columns (NaN equal to NaN)."""
    assert a.timestamps.tolist() == b.timestamps.tolist()
    assert a.features.keys() == b.features.keys()
    for name in a.features:
        np.testing.assert_array_equal(a.features[name], b.features[name])
    assert a.treatment_flags.keys() == b.treatment_flags.keys()
    for name in a.treatment_flags:
        assert a.treatment_flags[name].tolist() == b.treatment_flags[name].tolist()
    return True


class TestSubjectRecords:
    def test_columns_take_their_dtypes(self):
        recs = SubjectRecords("p", [3, 7], {"hr": [None, 80]}, {"vaso": [0, 1]}, {"sex": "f"}, 1)
        assert recs.timestamps.dtype == np.int64 and len(recs) == 2
        assert np.isnan(recs.features["hr"][0]) and recs.features["hr"][1] == 80.0
        assert recs.treatment_flags["vaso"].tolist() == [False, True]
        assert recs.died_in_hospital is True

    @pytest.mark.parametrize(
        "timestamps, features",
        [([], {}), ([0, 1], {"hr": [1.0]}), ([[0, 1]], {})],
    )
    def test_malformed_columns_rejected(self, timestamps, features):
        with pytest.raises(SchemaError, match="subject p: no rows, or a column of another length"):
            SubjectRecords("p", timestamps, features)

    def test_unequal_flag_column_rejected(self):
        with pytest.raises(SchemaError, match="a column of another length"):
            SubjectRecords("p", [0, 1], {}, {"vaso": [True]})


class TestImpute:
    def test_normal_then_carry_forward(self):
        recs = series("p", [None, 80.0, None, 90.0])
        out = impute(recs, {"heart_rate": 75.0})
        assert values(out) == [75.0, 80.0, 80.0, 90.0]

    def test_fully_observed_unchanged(self):
        recs = series("p", [60.0, 61.0, 62.0])
        out = impute(recs, {})
        assert values(out) == [60.0, 61.0, 62.0]

    def test_all_missing_uses_normal_throughout(self):
        recs = series("p", [None] * 4, feature="temperature")
        out = impute(recs, {"temperature": 36.9})
        assert values(out, "temperature") == [36.9] * 4

    def test_missing_normal_names_the_feature(self):
        recs = series("p", [None, 70.0], feature="lactate")
        with pytest.raises(SchemaError, match="lactate"):
            impute(recs, {"heart_rate": 75.0})

    def test_features_imputed_independently(self):
        recs = SubjectRecords("p", [0, 1], {"hr": [50.0, None], "bp": [None, 90.0]})
        out = impute(recs, {"bp": 85.0})
        assert values(out, "hr") == [50.0, 50.0]
        assert values(out, "bp") == [85.0, 90.0]

    def test_unsorted_timestamps_rejected(self):
        # the block checks its order once, on construction, before any step runs
        with pytest.raises(InputError, match="subject p: timestamps must be strictly increasing"):
            SubjectRecords("p", [1, 0], {"hr": [1.0, 2.0]})
        with pytest.raises(InputError, match="increasing"):
            SubjectRecords("p", [0, 0], {"hr": [1.0, 2.0]})

    def test_later_gap_carries_the_latest_observation(self):
        recs = series("p", [None, 60.0, None, None, 70.0, None, 71.0, None])
        out = impute(recs, {"heart_rate": 75.0})
        assert values(out) == [75.0, 60.0, 60.0, 60.0, 70.0, 70.0, 71.0, 71.0]

    def test_normal_needed_only_before_the_first_observation(self):
        recs = series("p", [61.0, None, None], feature="lactate")
        assert values(impute(recs, {}), "lactate") == [61.0, 61.0, 61.0]

    def test_input_records_not_mutated(self):
        recs = series("p", [None, 80.0])
        impute(recs, {"heart_rate": 75.0})
        assert np.isnan(recs.features["heart_rate"][0])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(st.none(), st.floats(-100, 100, allow_nan=False)),
            min_size=1,
            max_size=10,
        )
    )
    def test_idempotent_and_observation_preserving(self, vals):
        recs = series("p", vals)
        normals = {"heart_rate": 75.0}
        once = impute(recs, normals)
        twice = impute(once, normals)
        assert values(once) == values(twice)
        for raw, filled in zip(vals, values(once)):
            assert not np.isnan(filled)
            if raw is not None:
                assert filled == raw


class TestFilterOutliers:
    BOUNDS = {"heart_rate": (20.0, 300.0)}
    NORMALS = {"heart_rate": 75.0, "hr": 75.0, "bp": 85.0}

    def kept(self, records, bounds=None):
        """The subject's rows after filtering (and imputation), and the drop report."""
        kept, _, report = prepare_one(records, self.NORMALS, bounds or self.BOUNDS)
        return kept, report

    def test_out_of_range_row_dropped_and_counted(self):
        recs = series("p", [80.0, 9999.0])
        kept, report = self.kept(recs)
        assert values(kept) == [80.0]
        assert report == {"heart_rate": 1, "subjects_dropped": 0}

    def test_all_in_range_is_identity(self):
        recs = series("p", [80.0, 90.0])
        kept, report = self.kept(recs)
        assert same_rows(kept, recs)
        assert report == {"subjects_dropped": 0}

    def test_bounds_are_inclusive(self):
        recs = series("p", [20.0, 300.0])
        kept, report = self.kept(recs)
        assert len(kept) == 2
        assert report == {"subjects_dropped": 0}

    def test_missing_value_never_drops(self):
        recs = series("p", [None, 50.0])
        kept, _ = self.kept(recs)
        assert len(kept) == 2

    def test_idempotent(self):
        recs = series("p", [10.0, 80.0, 400.0, 90.0])
        once, _ = self.kept(recs)
        twice, again = self.kept(once)
        assert same_rows(twice, once)
        assert again == {"subjects_dropped": 0}

    def test_dropped_rows_leave_every_column(self):
        recs = SubjectRecords(
            "p", [0, 3, 5], {"heart_rate": [80.0, 9999.0, 90.0], "bp": [1.0, 2.0, None]},
            {"vaso": [True, False, True]}, {"sex": "f"}, True,
        )
        codec = ActionCodec("x", ["none", "vaso"], [(frozenset(), 0), (frozenset({"vaso"}), 1)])
        kept, actions, _ = prepare_one(recs, self.NORMALS, self.BOUNDS, codec)
        assert kept.timestamps.tolist() == [0, 5]
        assert values(kept) == [80.0, 90.0]
        # the dropped row's bp is not carried forward: the one before it is
        assert values(kept, "bp") == [1.0, 1.0]
        assert kept.treatment_flags["vaso"].tolist() == [True, True]
        assert actions.tolist() == [1, 1]
        assert kept.demographics == {"sex": "f"} and kept.died_in_hospital is True
        assert len(recs) == 3 and values(recs) == [80.0, 9999.0, 90.0]  # input unchanged

    def test_row_violating_two_features_counted_per_feature(self):
        recs = SubjectRecords("p", [0], {"hr": [1000.0], "bp": [-5.0]})
        bounds = {"hr": (20.0, 300.0), "bp": (0.0, 200.0)}
        with pytest.raises(CohortEmptyError):
            self.kept(recs, bounds)
        recs = SubjectRecords("p", [0, 1], {"hr": [1000.0, 80.0], "bp": [-5.0, 90.0]})
        kept, report = self.kept(recs, bounds)
        assert len(kept) == 1
        assert report == {"hr": 1, "bp": 1, "subjects_dropped": 0}

    def test_everything_dropped_rejected(self):
        with pytest.raises(CohortEmptyError):
            self.kept(series("p", [9999.0]))

    @pytest.mark.parametrize(
        "bad", [(300.0, 20.0), (50.0, 50.0), (float("nan"), 100.0), (0.0, float("inf"))]
    )
    def test_malformed_bounds_rejected(self, bad):
        with pytest.raises(ParameterError, match="bounds"):
            self.kept(series("p", [80.0]), {"heart_rate": bad})


class TestActionCodec:
    def test_hypotension_no_treatment(self):
        assert hypotension_codec().encode(set()) == 0

    def test_hypotension_singletons(self):
        codec = hypotension_codec()
        assert codec.encode({"vasopressors"}) == 1
        assert codec.encode({"bolus_epinephrine"}) == 2

    def test_hypotension_combined_pair(self):
        assert hypotension_codec().encode({"vasopressors", "bolus_epinephrine"}) == 3

    def test_sepsis_antibiotics(self):
        codec = sepsis_codec()
        assert codec.n_actions == 5
        assert codec.encode({"antibiotics"}) == codec.labels.index("antibiotics")

    def test_unknown_flag_named_in_error(self):
        with pytest.raises(SchemaError, match="leeches"):
            hypotension_codec().encode({"leeches"})

    def test_unmapped_combination_resolves_by_priority(self):
        # sepsis has no combined entries, so the first declared entry whose
        # flags are contained in the observation wins
        codec = sepsis_codec()
        assert codec.encode({"ventilation", "antibiotics"}) == 1
        assert codec.encode({"vasoactive", "glucocorticoids"}) == 2

    def test_actions_one_index_per_record(self):
        recs = SubjectRecords(
            "p", [0, 1, 2], {},
            {"vasopressors": [False, True, True], "bolus_epinephrine": [False, False, True]},
        )
        _, actions, _ = prepare_one(recs)
        assert actions.tolist() == [0, 1, 3]
        assert actions.dtype == np.int64

    def test_each_pattern_encoded_once_per_cohort_in_order_of_first_use(self):
        seen = []

        class Recording(ActionCodec):
            def encode(self, flags):
                seen.append(frozenset(flags))
                return super().encode(flags)

        reference = hypotension_codec()
        codec = Recording(reference.condition, reference.labels, reference.entries)
        cohort = {
            "p": SubjectRecords(
                "p", range(4), {},
                {"bolus_epinephrine": [1, 0, 1, 0], "vasopressors": [1, 0, 1, 1]},
            ),
            # q lacks the vasopressors column: it is off on every q row
            "q": SubjectRecords("q", range(3), {}, {"bolus_epinephrine": [0, 1, 1]}),
        }
        prepared, _ = prepare_subjects(cohort, {}, {}, codec)
        assert prepared["p"][1].tolist() == [3, 0, 3, 1]
        assert prepared["q"][1].tolist() == [0, 2, 2]
        assert seen == [
            {"vasopressors", "bolus_epinephrine"}, set(), {"vasopressors"}, {"bolus_epinephrine"},
        ]

    def test_actions_without_flag_columns(self):
        recs = series("p", [80.0, 81.0, 82.0])
        assert prepare_one(recs)[1].tolist() == [0, 0, 0]

    def test_codec_needs_two_actions(self):
        with pytest.raises(ParameterError, match="2 actions"):
            ActionCodec("x", ["only"], [(frozenset(), 0)])

    def test_codec_index_bounds_checked(self):
        with pytest.raises(ParameterError, match="out of range"):
            ActionCodec("x", ["a", "b"], [(frozenset(), 5)])

    def test_codec_json_round_trip(self, tmp_path):
        path = tmp_path / "codec.json"
        path.write_text(
            '{"condition": "hypotension",'
            ' "labels": ["no_treatment", "vasopressors", "bolus_epinephrine", "combined"],'
            ' "mapping": ['
            '  {"flags": [], "label": "no_treatment"},'
            '  {"flags": ["vasopressors"], "action": 1},'
            '  {"flags": ["bolus_epinephrine"], "label": "bolus_epinephrine"},'
            '  {"flags": ["vasopressors", "bolus_epinephrine"], "label": "combined"}]}'
        )
        codec = ActionCodec.from_json(path)
        reference = hypotension_codec()
        for flags in [set(), {"vasopressors"}, {"bolus_epinephrine"},
                      {"vasopressors", "bolus_epinephrine"}]:
            assert codec.encode(flags) == reference.encode(flags)


def subject(sid, category, n_rows=1):
    features = {"hr": [80.0] * n_rows}
    return SubjectRecords(sid, range(n_rows), features, demographics={"race": category})


class TestRegroupDemographics:
    def test_rare_categories_collapse_to_other(self):
        subjects = {}
        for i in range(120):
            subjects[f"w{i}"] = subject(f"w{i}", "white")
        for i in range(78):
            subjects[f"b{i}"] = subject(f"b{i}", "black")
        subjects["a0"] = subject("a0", "asian")
        subjects["m0"] = subject("m0", "mystery")
        out = regroup_demographics(subjects, relabel={})
        assert out["w0"].demographics["race"] == "white"
        assert out["a0"].demographics["race"] == "other"
        assert out["m0"].demographics["race"] == "other"

    def test_relabel_applies_before_share_check(self):
        subjects = {
            "a": subject("a", "WHITE"),
            "b": subject("b", "white"),
            "c": subject("c", "black"),
        }
        out = regroup_demographics(
            subjects, relabel={"race": {"WHITE": "white"}}, min_share=0.5
        )
        # merged white count is 2/3, black alone is 1/3 < 0.5
        assert out["a"].demographics["race"] == "white"
        assert out["b"].demographics["race"] == "white"
        assert out["c"].demographics["race"] == "other"

    def test_shares_counted_per_subject_not_per_row(self):
        subjects = {
            "a": subject("a", "common"),
            "b": subject("b", "common"),
            "c": subject("c", "rare", n_rows=50),
        }
        out = regroup_demographics(subjects, relabel={}, min_share=0.34)
        assert out["c"].demographics["race"] == "other"
        assert len(out["c"]) == 50

    def test_min_share_validated(self):
        with pytest.raises(ParameterError, match="min_share"):
            regroup_demographics({"a": subject("a", "x")}, {}, min_share=1.0)

    def test_input_not_mutated(self):
        subjects = {"a": subject("a", "solo"), "b": subject("b", "duo")}
        regroup_demographics(subjects, relabel={}, min_share=0.9)
        assert subjects["a"].demographics["race"] == "solo"


RAW_CSV = """subject_id,timestamp,heart_rate,mean_bp,vasopressors,bolus_epinephrine,sex,died_in_hospital
p2,0,120,55,1,0,female,1
p1,5,72,,0,0,male,0
p1,0,70,90,0,0,male,0
p1,10,,88,1,1,male,0
"""


class TestRecordsCsv:
    def test_load_parses_and_sorts(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV)
        subjects = load_records_csv(
            path,
            features=["heart_rate", "mean_bp"],
            flags=["vasopressors", "bolus_epinephrine"],
            demographics=["sex"],
        )
        assert sorted(subjects) == ["p1", "p2"]
        p1 = subjects["p1"]
        assert p1.timestamps.tolist() == [0, 5, 10]
        np.testing.assert_array_equal(p1.features["heart_rate"], [70.0, 72.0, np.nan])
        np.testing.assert_array_equal(p1.features["mean_bp"], [90.0, np.nan, 88.0])
        assert p1.treatment_flags["vasopressors"].tolist() == [False, False, True]
        assert p1.treatment_flags["bolus_epinephrine"].tolist() == [False, False, True]
        assert p1.demographics == {"sex": "male"}
        assert p1.died_in_hospital is False
        assert subjects["p2"].died_in_hospital is True

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV)
        with pytest.raises(SchemaError, match="lactate"):
            load_records_csv(path, ["lactate"], [], [])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("subject_id,timestamp,died_in_hospital\n")
        with pytest.raises(CohortEmptyError):
            load_records_csv(path, [], [], [])

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("p1,5,72,,", "p1,5,72,abc,", "subject p1: mean_bp 'abc' is not a finite number"),
            ("p1,5,72,,", "p1,5,inf,,", "subject p1: heart_rate 'inf' is not a finite number"),
            ("p1,5,72,", "p1,5.5,72,", "subject p1: timestamp '5.5' is not an integer"),
            ("p1,5,72,", "p1,x,72,", "subject p1: timestamp 'x' is not an integer"),
            ("female,1", "female,2", "subject p2: died_in_hospital '2' is not 0 or 1"),
            ("female,1", "female,yes", "subject p2: died_in_hospital 'yes' is not 0 or 1"),
            ("55,1,0,", "55,yes,0,", "subject p2: vasopressors 'yes' is not empty, 0 or 1"),
            ("55,1,0,", "55,1,2,", "subject p2: bolus_epinephrine '2' is not empty, 0 or 1"),
        ],
    )
    def test_bad_cell_is_a_schema_error_naming_file_subject_and_column(
        self, tmp_path, old, new, named
    ):
        assert old in RAW_CSV
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV.replace(old, new, 1))
        with pytest.raises(SchemaError) as exc:
            load_records_csv(
                path,
                features=["heart_rate", "mean_bp"],
                flags=["vasopressors", "bolus_epinephrine"],
                demographics=["sex"],
            )
        assert str(exc.value) == f"{path}: {named}"

    def test_empty_flag_cell_is_unset(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV.replace("p2,0,120,55,1,0,", "p2,0,120,55,,1,"))
        subjects = load_records_csv(path, [], ["vasopressors", "bolus_epinephrine"], [])
        flags = subjects["p2"].treatment_flags
        assert flags["vasopressors"].tolist() == [False]
        assert flags["bolus_epinephrine"].tolist() == [True]

    def test_repeated_timestamp_names_file_and_subject(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV.replace("p1,10,", "p1,5,"))
        with pytest.raises(SchemaError, match=r"raw\.csv: subject p1: timestamps must be strictly"):
            load_records_csv(path, [], [], [])

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("p1,5,72,,0,0,male,0", "p1,5,72,,0,0,female,0",
             "subject p1: sex differs between rows"),
            ("p1,10,,88,1,1,male,0", "p1,10,,88,1,1,male,1",
             "subject p1: died_in_hospital differs between rows"),
        ],
    )
    def test_subject_level_fields_must_agree(self, tmp_path, old, new, named):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV.replace(old, new, 1))
        with pytest.raises(SchemaError, match=f"^{path}: {named}"):
            load_records_csv(path, ["heart_rate"], [], ["sex"])

    @pytest.mark.parametrize(
        "load, text, named",
        [
            (load_normal_values, '{"hr": NaN}', "not valid JSON: NaN is not a finite number"),
            (load_normal_values, '{"hr": [75]}', "normal value for 'hr' is not a finite number"),
            (load_bounds, '{"hr": [20, 300, 400]}', "bound for 'hr' is not a [lo, hi] pair"),
            (load_bounds, '{"hr": ["low", 300]}', "bound for 'hr' is not a [lo, hi] pair"),
            (load_relabel, '{"race": "white"}', "regroup mapping for 'race' is not a JSON object"),
            (load_relabel, '{"race": ["ab"]}', "regroup mapping for 'race' is not a JSON object"),
            (load_bounds, '{"hr": [20, 300]', "not valid JSON"),
            (load_normal_values, "[75]", "must hold a JSON object"),
            (ActionCodec.from_json, '{"labels": ["a", "b"], "mapping": []}',
             "codec is missing key 'condition'"),
            (ActionCodec.from_json,
             '{"labels": ["a", "b"], "mapping": [{"flags": [], "action": "x"}]}',
             "codec mapping entry, bad label or action"),
            (ActionCodec.from_json, '{"condition": "c", "labels": ["a", "b"], "mapping": ["x"]}',
             "codec mapping entry, bad label or action"),
        ],
    )
    def test_bad_json_side_file_names_file_and_key(self, tmp_path, load, text, named):
        path = tmp_path / "side.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}: ") and named in str(exc.value)

    def test_normals_and_bounds_loaders(self, tmp_path):
        normals = tmp_path / "normals.json"
        normals.write_text('{"heart_rate": 75, "mean_bp": 85.5}')
        assert load_normal_values(normals) == {"heart_rate": 75.0, "mean_bp": 85.5}
        bounds = tmp_path / "bounds.json"
        bounds.write_text('{"heart_rate": [20, 300]}')
        assert load_bounds(bounds) == {"heart_rate": (20.0, 300.0)}


class TestPrepareSubjects:
    NORMALS = {"heart_rate": 75.0}
    BOUNDS = {"heart_rate": (20.0, 300.0)}

    def test_outliers_removed_before_imputation(self):
        # the out-of-range observation at t=0 must not be carried forward;
        # the survivor imputes from the normal table instead
        recs = SubjectRecords("p", [0, 1], {"heart_rate": [9999.0, None]})
        prepared, report = prepare_subjects(
            {"p": recs}, self.NORMALS, self.BOUNDS, hypotension_codec()
        )
        filled, actions = prepared["p"]
        assert values(filled) == [75.0]
        assert actions.tolist() == [0]
        assert report == {"heart_rate": 1, "subjects_dropped": 0}

    def test_subject_with_no_survivors_dropped_not_fatal(self):
        cohort = {
            "gone": SubjectRecords("gone", [0, 1], {"heart_rate": [9999.0, 5.0]}),
            "kept": SubjectRecords("kept", [0], {"heart_rate": [80.0]}),
        }
        prepared, report = prepare_subjects(
            cohort, self.NORMALS, self.BOUNDS, hypotension_codec()
        )
        assert list(prepared) == ["kept"]
        # a dropped subject's rows count only in subjects_dropped
        assert report == {"subjects_dropped": 1}

    def test_carry_forward_stops_at_each_subject(self):
        # b's first rows are unobserved: they take the normal value, not a's last one
        cohort = {
            "a": SubjectRecords("a", [0, 1], {"heart_rate": [60.0, None]}),
            "b": SubjectRecords("b", [0, 1, 2], {"heart_rate": [None, None, 90.0]}),
        }
        prepared, _ = prepare_subjects(cohort, self.NORMALS, self.BOUNDS, hypotension_codec())
        assert values(prepared["a"][0]) == [60.0, 60.0]
        assert values(prepared["b"][0]) == [75.0, 75.0, 90.0]

    def test_feature_of_some_subjects_needs_no_normal_for_the_rest(self):
        cohort = {
            "a": SubjectRecords("a", [0, 1], {"heart_rate": [60.0, None], "lactate": [1.5, None]}),
            "b": SubjectRecords("b", [0], {"heart_rate": [70.0]}),
        }
        prepared, _ = prepare_subjects(cohort, {}, self.BOUNDS, hypotension_codec())
        assert values(prepared["a"][0], "lactate") == [1.5, 1.5]
        assert list(prepared["b"][0].features) == ["heart_rate"]
        cohort["a"].features["lactate"][0] = np.nan
        with pytest.raises(SchemaError, match="'lactate' missing from the normal-value table"):
            prepare_subjects(cohort, {}, self.BOUNDS, hypotension_codec())

    def test_empty_cohort_after_filtering_rejected(self):
        cohort = {"gone": SubjectRecords("gone", [0], {"heart_rate": [9999.0]})}
        with pytest.raises(CohortEmptyError):
            prepare_subjects(cohort, self.NORMALS, self.BOUNDS, hypotension_codec())

    def test_prepared_csv_round_trip(self, tmp_path):
        recs = {
            "p1": SubjectRecords(
                "p1", [0, 4], {"heart_rate": [None, 81.25]},
                {"vasopressors": [False, True]}, {"sex": "male"},
            ),
            "p2": SubjectRecords(
                "p2", [0], {"heart_rate": [1.0 / 3.0]},
                demographics={"sex": "female"}, died_in_hospital=True,
            ),
        }
        prepared, _ = prepare_subjects(
            recs, self.NORMALS, {"heart_rate": (0.0, 300.0)}, hypotension_codec()
        )
        path = tmp_path / "prepared.csv"
        write_prepared_csv(prepared, ["heart_rate"], path)
        loaded = read_prepared_csv(path, ["heart_rate"])

        assert sorted(loaded) == ["p1", "p2"]
        for sid in loaded:
            got_recs, got_actions = loaded[sid]
            want_recs, want_actions = prepared[sid]
            assert np.array_equal(got_actions, want_actions)
            assert got_recs.timestamps.tolist() == want_recs.timestamps.tolist()
            assert values(got_recs) == values(want_recs)
            assert got_recs.demographics == want_recs.demographics
            assert got_recs.died_in_hospital is want_recs.died_in_hospital
            assert got_recs.treatment_flags == {}
        assert values(loaded["p1"][0]) == [75.0, 81.25]
        assert loaded["p1"][1].tolist() == [0, 1]

    def test_no_step_changes_its_input(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV)
        features, flags = ["heart_rate", "mean_bp"], ["vasopressors", "bolus_epinephrine"]
        subjects = load_records_csv(path, features, flags, ["sex"])

        def snapshot():
            return {
                sid: (r.timestamps.tolist(), {k: v.tolist() for k, v in r.features.items()},
                      {k: v.tolist() for k, v in r.treatment_flags.items()},
                      dict(r.demographics), r.died_in_hospital)
                for sid, r in subjects.items()
            }

        before = snapshot()
        regroup_demographics(subjects, {"sex": {"male": "m"}}, min_share=0.6)
        bounds = {"heart_rate": (20.0, 71.0)}  # drops p1's second row and all of p2
        prepare_subjects(subjects, {"heart_rate": 75.0, "mean_bp": 85.0}, bounds,
                         hypotension_codec())
        assert repr(snapshot()) == repr(before)  # repr: NaN equal to NaN

    PREPARED_CSV = (
        "subject_id,timestamp,heart_rate,action,sex,died_in_hospital\n"
        "p1,0,80.5,0,male,0\n"
        "p1,1,81.0,1,male,0\n"
        "p2,0,60.0,2,female,1\n"
    )

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("p1,1,81.0,", "p1,1,abc,", "subject p1: heart_rate 'abc' is not a finite number"),
            ("p1,1,81.0,", "p1,1,,", "subject p1: heart_rate '' is not a finite number"),
            ("p1,1,81.0,", "p1,1,nan,", "subject p1: heart_rate 'nan' is not a finite number"),
            ("p1,1,81.0,", "p1,one,81.0,", "subject p1: timestamp 'one' is not an integer"),
            ("60.0,2,", "60.0,2.0,", "subject p2: action '2.0' is not an integer"),
            ("female,1", "female,2", "subject p2: died_in_hospital '2' is not 0 or 1"),
        ],
    )
    def test_read_prepared_bad_cell_is_a_schema_error(self, tmp_path, old, new, named):
        assert old in self.PREPARED_CSV
        path = tmp_path / "prepared.csv"
        path.write_text(self.PREPARED_CSV.replace(old, new, 1))
        with pytest.raises(SchemaError) as exc:
            read_prepared_csv(path, ["heart_rate"])
        assert str(exc.value) == f"{path}: {named}"

    @pytest.mark.parametrize("second", ["p1,0,", "p1,-1,"])
    def test_read_prepared_rejects_unordered_timestamps(self, tmp_path, second):
        path = tmp_path / "prepared.csv"
        path.write_text(self.PREPARED_CSV.replace("p1,1,", second, 1))
        with pytest.raises(SchemaError, match="subject p1: timestamps must be strictly increasing"):
            read_prepared_csv(path, ["heart_rate"])

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("p1,1,81.0,1,male,0", "p1,1,81.0,1,female,0", "subject p1: sex differs between rows"),
            ("p1,1,81.0,1,male,0", "p1,1,81.0,1,male,1",
             "subject p1: died_in_hospital differs between rows"),
        ],
    )
    def test_read_prepared_subject_level_fields_must_agree(self, tmp_path, old, new, named):
        path = tmp_path / "prepared.csv"
        path.write_text(self.PREPARED_CSV.replace(old, new, 1))
        with pytest.raises(SchemaError, match=f"^{path}: {named}"):
            read_prepared_csv(path, ["heart_rate"])

    def test_read_prepared_missing_column_rejected(self, tmp_path):
        path = tmp_path / "prepared.csv"
        path.write_text("subject_id,timestamp,died_in_hospital\np,0,0\n")
        with pytest.raises(SchemaError, match="action"):
            read_prepared_csv(path, [])
