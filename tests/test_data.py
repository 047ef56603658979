import json
import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idspipe import data
from idspipe.config import ClassifierConfig, ExperimentConfig, SelectionConfig
from idspipe.data import (
    ATTACK23,
    ATTACK_CATEGORY,
    CATEGORY5,
    CONTINUOUS,
    DISCRETE,
    Dataset,
    FeatureSchema,
    FoldPlan,
    NORMAL,
    NSLKDD_SCHEMA,
    REFERENCE_ATTACK_COUNTS,
    _format_value,
    encode,
    json_line,
    json_text,
    map_labels,
    parse_records,
    read_dataset,
    reference_sample_counts,
    sample_indices,
    serialize_records,
    stratified_folds,
)
from idspipe.discretize import CutPointList, DiscretizationModel, apply_discretizer
from idspipe.errors import ParseError, SamplingError, SchemaError, UnknownLabelError
from idspipe.synth import synthetic_lines

from conftest import class_counts, columns_of, cross_validate, same_dataset, toy_dataset

# Authentic first record of the standard train split (43 fields, with the
# trailing difficulty score).
REAL_LINE = (
    "0,tcp,ftp_data,SF,491,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,2,0,0,0,0,"
    "1,0,0,150,25,0.17,0.03,0.17,0,0,0,0.05,0,normal,20"
)


def make_line(label="neptune", difficulty=None, n_fields=41):
    fields = ["0"] * n_fields
    if n_fields >= 4:
        fields[1], fields[2], fields[3] = "tcp", "http", "SF"
    fields.append(label)
    if difficulty is not None:
        fields.append(str(difficulty))
    return ",".join(fields)


class TestSchema:
    def test_standard_schema_shape(self):
        assert len(NSLKDD_SCHEMA) == 41
        discrete = [i for i in range(1, 42) if NSLKDD_SCHEMA.kind(i) == DISCRETE]
        assert discrete == [2, 3, 4, 7, 12, 21, 22]

    def test_standard_schema_names(self):
        assert NSLKDD_SCHEMA.name(2) == "protocol-type"
        assert NSLKDD_SCHEMA.kind(2) == DISCRETE
        assert NSLKDD_SCHEMA.name(5) == "src-bytes"
        assert NSLKDD_SCHEMA.kind(5) == CONTINUOUS
        assert NSLKDD_SCHEMA.name(20) == "num-outbound-cmds"
        assert NSLKDD_SCHEMA.name(41) == "dst-host-srv-rerror-rate"

    def test_all_discrete_variant(self):
        flat = NSLKDD_SCHEMA.all_discrete()
        assert [n for n, _ in flat.features] == [n for n, _ in NSLKDD_SCHEMA.features]
        assert flat.continuous_indices == ()


class TestParse:
    def test_42_field_line(self):
        ds = parse_records([make_line("neptune")])
        assert len(ds) == 1
        assert ds.labels[0] == "neptune"
        assert ds.granularity == ATTACK23

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="expected 42 or 43 fields"):
            parse_records([",".join(["0"] * 40)])

    def test_line_number_in_error(self):
        lines = [make_line(), ",".join(["0"] * 40)]
        with pytest.raises(ParseError, match="line 2"):
            parse_records(lines)

    def test_difficulty_column_dropped(self):
        ds = parse_records([REAL_LINE])
        assert len(ds) == 1
        assert ds.labels[0] == "normal"
        assert ds.column(5)[0] == 491.0
        assert ds.column(34)[0] == pytest.approx(0.17)
        # difficulty (the 43rd field) is nowhere in the record
        assert len(ds.codes) == len(ds.vocabs) == 41

    def test_non_numeric_continuous(self):
        bad = make_line().split(",")
        bad[4] = "oops"  # src-bytes
        with pytest.raises(ParseError, match="not numeric"):
            parse_records([",".join(bad)])

    def test_unknown_label_accepted_verbatim(self):
        ds = parse_records([make_line("mystery_attack")])
        assert ds.labels[0] == "mystery_attack"

    def test_blank_lines_skipped(self):
        ds = parse_records([make_line(), "", make_line("back"), "\n"])
        assert len(ds) == 2

    def test_roundtrip(self):
        lines = [REAL_LINE, make_line("neptune", 15), make_line("rootkit")]
        ds = parse_records(lines)
        again = parse_records(list(serialize_records(ds)))
        assert same_dataset(again, ds)


# Two continuous and two discrete features, for record files drawn at random.
SMALL_SCHEMA = FeatureSchema(
    (("c1", CONTINUOUS), ("d1", DISCRETE), ("c2", CONTINUOUS), ("d2", DISCRETE))
)
FLOAT_TEXTS = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "1", "1.0", ".5", "-3", "1e3", "0.10", "+2"]),
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
WORDS = st.sampled_from(["tcp", "udp", "SF", "0", "0.0", "1", "private"])


@st.composite
def record_files(draw):
    """Lines of SMALL_SCHEMA records, some with a difficulty field, and blank lines."""
    record = st.tuples(FLOAT_TEXTS, WORDS, FLOAT_TEXTS, WORDS, WORDS).map(",".join)
    line = st.one_of(
        record,
        st.tuples(record, st.integers(0, 21).map(str)).map(",".join),
        st.sampled_from(["", "  ", "\n"]),
    )
    return draw(st.lists(line, max_size=12))


def coding(ds):
    """Codes, vocabularies with their Python types, and labels of ``ds``."""
    return (
        [c.tolist() for c in ds.codes],
        [[(type(v), repr(v)) for v in vocab] for vocab in ds.vocabs],
        ds.label_codes.tolist(),
        ds.label_vocab,
    )


def bad_field(text):
    """A record whose src-bytes field (feature 5) is ``text``."""
    fields = make_line().split(",")
    fields[4] = text
    return ",".join(fields)


class TestBlockParse:
    @given(lines=record_files(), features=st.sets(st.integers(1, 4)))
    @settings(max_examples=150, deadline=None)
    def test_blocks_of_any_size_code_as_one_block(self, lines, features):
        whole = parse_records(lines, SMALL_SCHEMA)
        for block in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data, "_BLOCK_LINES", block)
                assert coding(parse_records(lines, SMALL_SCHEMA)) == coding(whole)
                kept = parse_records(lines, SMALL_SCHEMA, features=features)
            assert same_dataset(kept, whole.project(features))
            assert coding(kept) == coding(whole.project(features))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (",".join(["0"] * 40), "line 8: expected 42 or 43 fields, got 40"),
            (bad_field("oops"), "line 8: feature 5 (src-bytes) is not numeric: 'oops'"),
            (bad_field("inf"), "line 8: feature 5 is not finite: 'inf'"),
            (bad_field("nan"), "line 8: feature 5 is not finite: 'nan'"),
        ],
        ids=["field-count", "non-numeric", "infinite", "nan"],
    )
    def test_a_fault_in_a_later_block_names_its_line(self, monkeypatch, bad, message):
        monkeypatch.setattr(data, "_BLOCK_LINES", 3)
        good = make_line()
        lines = [good, "", good, good, good, "", good, bad, good, good]  # bad in block 2
        with pytest.raises(ParseError) as info:
            parse_records(lines)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "second_fault, message",
        [
            (5, "line 2: feature 5 (src-bytes) is not numeric"),
            (3, "line 3: expected 42 or 43 fields"),
        ],
        ids=["field-count-in-a-later-block", "field-count-in-the-same-block"],
    )
    def test_the_first_faulty_block_reports_its_error(
        self, monkeypatch, second_fault, message
    ):
        # within a block, every line's field count is checked before its fields
        monkeypatch.setattr(data, "_BLOCK_LINES", 3)
        lines = [make_line()] * 6
        lines[1] = bad_field("oops")
        lines[second_fault - 1] = ",".join(["0"] * 40)
        with pytest.raises(ParseError) as info:
            parse_records(lines)
        assert str(info.value).startswith(message)

    def test_peak_memory_is_bounded_by_the_result(self):
        lines = synthetic_lines(data._BLOCK_LINES, seed=5) * 8
        tracemalloc.start()
        try:
            ds = parse_records(lines)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == 8 * data._BLOCK_LINES
        result = sum(c.nbytes for c in ds.codes) + ds.label_codes.nbytes
        # holding every line's fields at once peaks at over 5x the result
        assert peak < 3 * result

    def test_projected_read_equals_a_projection(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("\n".join(synthetic_lines(50, seed=3)) + "\n")
        features = [23, 2, 5, 41, 2]
        projected = read_dataset(path, features)
        assert same_dataset(projected, read_dataset(path).project(features))
        assert coding(projected) == coding(read_dataset(path).project(features))
        assert [n for n, _ in projected.schema.features] == [
            NSLKDD_SCHEMA.name(i) for i in (2, 5, 23, 41)
        ]

    @pytest.mark.parametrize("features", [[0], [3, 42], [-1]])
    def test_feature_outside_the_schema_is_a_schema_error(self, features):
        with pytest.raises(SchemaError, match="outside schema"):
            parse_records([make_line()], features=features)

    def test_dropped_features_are_still_checked(self):
        with pytest.raises(ParseError, match="line 1: feature 5"):
            parse_records([bad_field("oops")], features=[2])
        with pytest.raises(ParseError, match="line 2: expected"):
            parse_records([make_line(), ",".join(["0"] * 40)], features=[2])


class TestMapLabels:
    def test_category_examples(self):
        ds = parse_records(
            [make_line("neptune"), make_line("normal"), make_line("rootkit")]
        )
        mapped = map_labels(ds)
        assert list(mapped.labels) == ["Dos", "normal", "U2R"]
        assert mapped.granularity == CATEGORY5

    def test_unknown_label_fails(self):
        ds = parse_records([make_line("zergrush")])
        with pytest.raises(UnknownLabelError, match="zergrush"):
            map_labels(ds)

    def test_wrong_direction_rejected(self):
        ds = map_labels(parse_records([make_line("smurf")]))
        with pytest.raises(ValueError):
            map_labels(ds)

    def test_values_preserved(self):
        lines = [make_line(lbl) for lbl in ("back", "teardrop", "satan", "spy")]
        ds = parse_records(lines)
        mapped = map_labels(ds)
        assert len(mapped) == len(ds)
        for a, b in zip(columns_of(ds), columns_of(mapped)):
            assert np.array_equal(a, b)

    def test_full_category_map(self):
        # spot checks across all four categories
        assert ATTACK_CATEGORY["neptune"] == "Dos"
        assert ATTACK_CATEGORY["satan"] == "Probe"
        assert ATTACK_CATEGORY["spy"] == "R2L"
        assert ATTACK_CATEGORY["perl"] == "U2R"
        assert len(ATTACK_CATEGORY) == 22


class TestStratifiedFolds:
    def test_balanced_binary(self):
        ds = toy_dataset([["x"] * 100], ["a"] * 50 + ["b"] * 50)
        plan = stratified_folds(ds, 10, seed=3)
        for fold in range(10):
            idx = plan.test_indices(fold)
            labels = ds.labels[idx]
            assert (labels == "a").sum() == 5
            assert (labels == "b").sum() == 5

    def test_singleton_class_in_one_fold(self):
        labels = ["common"] * 99 + ["spy"]
        ds = toy_dataset([["x"] * 100], labels)
        plan = stratified_folds(ds, 10, seed=0)
        spy_folds = {int(plan.assignments[i]) for i in range(100) if labels[i] == "spy"}
        assert len(spy_folds) == 1

    def test_deterministic(self):
        ds = toy_dataset([["x"] * 60], ["a"] * 30 + ["b"] * 20 + ["c"] * 10)
        a = stratified_folds(ds, 10, seed=9)
        b = stratified_folds(ds, 10, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_seed_changes_assignment(self):
        ds = toy_dataset([["x"] * 60], ["a"] * 30 + ["b"] * 30)
        a = stratified_folds(ds, 10, seed=1)
        b = stratified_folds(ds, 10, seed=2)
        assert not np.array_equal(a.assignments, b.assignments)

    def test_bad_k(self):
        ds = toy_dataset([["x"] * 5], ["a"] * 5)
        with pytest.raises(ValueError):
            stratified_folds(ds, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_folds(ds, 6, seed=0)

    @given(
        labels=st.lists(st.sampled_from("abcd"), min_size=2, max_size=80),
        k=st.integers(2, 10),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_fold_invariants(self, labels, k, seed):
        if k > len(labels):
            k = len(labels)
        ds = toy_dataset([["x"] * len(labels)], labels)
        plan = stratified_folds(ds, k, seed)
        # partition: every record in exactly one fold
        assert sorted(
            i for f in range(k) for i in plan.test_indices(f).tolist()
        ) == list(range(len(labels)))
        # every fold non-empty when records >= k
        assert all(len(plan.test_indices(f)) > 0 for f in range(k))
        # per-class fold counts differ by at most 1
        for lbl in set(labels):
            counts = [
                int((ds.labels[plan.test_indices(f)] == lbl).sum()) for f in range(k)
            ]
            assert max(counts) - min(counts) <= 1
            # classes rarer than k hit exactly that many distinct folds
            if labels.count(lbl) < k:
                assert sum(1 for c in counts if c > 0) == labels.count(lbl)

    @given(
        labels=st.lists(st.sampled_from("abcd"), min_size=2, max_size=80),
        k=st.integers(2, 10),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_record_dealing(self, labels, k, seed):
        k = min(k, len(labels))
        ds = toy_dataset([["x"] * len(labels)], labels)
        rng = np.random.default_rng(seed)
        expected = np.empty(len(labels), dtype=np.int64)
        offset = 0
        for label in sorted(set(labels)):
            idx = np.flatnonzero(ds.labels == label)
            idx = idx[rng.permutation(len(idx))]
            for j, record_idx in enumerate(idx):
                expected[record_idx] = (offset + j) % k
            offset += len(idx)
        assert stratified_folds(ds, k, seed).assignments.tolist() == expected.tolist()

    def test_plan_payload_roundtrip(self):
        ds = toy_dataset([["x"] * 20], ["a"] * 12 + ["b"] * 8)
        plan = stratified_folds(ds, 4, seed=5)
        payload = json.loads(json.dumps(plan.to_payload()))
        again = FoldPlan(payload["k"], np.asarray(payload["assignments"]))
        assert again.k == plan.k
        assert np.array_equal(again.assignments, plan.assignments)


class TestMatchDistribution:
    def test_exact_histogram(self):
        labels = ["a"] * 40 + ["b"] * 25 + ["c"] * 5
        ds = toy_dataset([list(range(70))], labels)
        out = ds.subset(sample_indices(ds, {"a": 10, "b": 5, "c": 5}, seed=4))
        assert class_counts(out) == {"a": 10, "b": 5, "c": 5}

    def test_identity_when_target_is_full_histogram(self):
        labels = ["a"] * 7 + ["b"] * 3
        ds = toy_dataset([list(range(10))], labels)
        out = ds.subset(sample_indices(ds, {"a": 7, "b": 3}, seed=11))
        assert same_dataset(out, ds)

    def test_shortfall_error_names_label(self):
        ds = toy_dataset([["x"] * 6], ["neptune"] * 6)
        with pytest.raises(SamplingError, match="neptune.*short by 1"):
            sample_indices(ds, {"neptune": 7}, seed=0)

    def test_deterministic(self):
        labels = ["a"] * 50 + ["b"] * 50
        ds = toy_dataset([list(range(100))], labels)
        one = sample_indices(ds, {"a": 20, "b": 10}, seed=8)
        two = sample_indices(ds, {"a": 20, "b": 10}, seed=8)
        assert np.array_equal(one, two)

    def test_labels_not_in_target_excluded(self):
        labels = ["a"] * 5 + ["b"] * 5
        ds = toy_dataset([list(range(10))], labels)
        out = ds.subset(sample_indices(ds, {"a": 3}, seed=0))
        assert class_counts(out) == {"a": 3}

    def test_reference_counts_sum(self):
        counts = reference_sample_counts()
        assert sum(REFERENCE_ATTACK_COUNTS.values()) == 29540
        assert sum(counts.values()) == 62984
        assert counts["neptune"] == 20750
        assert counts["spy"] == 1


class TestJsonText:
    def test_named_cases(self):
        # both writers load back to the value; a machine record is one line,
        # even when a string holds a line break
        for value in (
            {},
            [],
            {"a": [], "b": {}, "c": [[]]},
            {"é": "ü\n\"", "ascii": "x"},
            [1, True, None, False, -0.0, 1.5, 1e-300, 1e300],
            {"t": [[0.25, 0.5], [np.float64(0.1)]]},
        ):
            line = json_line(value)
            assert line.endswith("\n") and line.count("\n") == 1
            assert json.loads(line) == value
            assert json.loads(json_text(value)) == value

    def test_numpy_int_is_not_json(self):
        for write in (json_text, json_line):
            with pytest.raises(TypeError):
                write({"n": np.int64(1)})
            with pytest.raises(TypeError):
                write([0.5, np.int64(1)])


# Finite floats, without -0.0: a continuous column is coded by numeric value,
# so -0.0 and 0.0 are one value (see test_negative_zero_is_written_as_zero).
FLOATS = st.one_of(
    st.sampled_from([0.1, 1e-07, 3.0, 0.0, 2.5e10, -4.75]),
    st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda v: v != 0.0 or math.copysign(1.0, v) > 0
    ),
)
VALUES = {
    "float": FLOATS,
    "str": st.sampled_from(["tcp", "SF", "0.10", "private"]),
    "int": st.integers(-5, 10**6),
}


@st.composite
def raw_tables(draw):
    """Raw columns of mixed kinds, labels (one may be unknown) and kept rows."""
    n = draw(st.integers(0, 25))
    kinds, columns = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(sorted(VALUES)))
        columns.append(draw(st.lists(VALUES[kind], min_size=n, max_size=n)))
        kinds.append(CONTINUOUS if kind == "float" else DISCRETE)
    labels = draw(
        st.lists(st.sampled_from([*ATTACK_CATEGORY, NORMAL, "mystery"]), min_size=n, max_size=n)
    )
    kept = [i for i in range(n) if draw(st.booleans())]
    return columns, kinds, labels, kept


def reference_lines(columns, labels):
    """CSV lines formatted cell by cell."""
    return [
        ",".join([_format_value(col[i]) for col in columns] + [str(labels[i])])
        for i in range(len(labels))
    ]


class TestEncode:
    @given(
        st.one_of(
            st.lists(st.one_of(st.sampled_from(["tcp", "SF", "0.10", ""]), st.text(max_size=3))),
            st.lists(st.integers(-3, 3)),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_object_values_code_as_np_unique_does(self, values):
        values = np.asarray(values, dtype=object)
        vocab, codes = np.unique(values, return_inverse=True)
        got_codes, got_vocab = encode(values)
        assert got_vocab == tuple(vocab.tolist())
        assert got_codes.dtype == np.int64 and got_codes.tolist() == codes.tolist()


class TestCodeIndexedWriter:
    @given(raw_tables(), st.lists(FLOATS, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_lines_equal_a_per_cell_reference(self, table, cuts):
        columns, kinds, labels, kept = table
        ds = toy_dataset(columns, labels, kinds=kinds)
        sub = ds.subset(kept)  # keeps the full vocabularies
        sub_columns = [[col[i] for i in kept] for col in columns]
        sub_labels = [labels[i] for i in kept]
        assert list(serialize_records(ds)) == reference_lines(columns, labels)
        assert list(serialize_records(sub)) == reference_lines(sub_columns, sub_labels)

        cut_lists = tuple(
            CutPointList(i, tuple(sorted(set(cuts)))) for i in ds.schema.continuous_indices
        )
        binned = apply_discretizer(DiscretizationModel(ds.schema, cut_lists), sub)
        binned_columns = [
            [bisect_right(sorted(set(cuts)), v) for v in col] if kind == CONTINUOUS else col
            for col, kind in zip(sub_columns, kinds)
        ]
        assert list(serialize_records(binned)) == reference_lines(binned_columns, sub_labels)

    def test_negative_zero_is_written_as_zero(self):
        ds = toy_dataset([[-0.0, 0.0, 1.5]], ["a", "b", "a"], kinds=[CONTINUOUS])
        assert list(serialize_records(ds)) == ["0.0,a", "0.0,b", "1.5,a"]

    @given(raw_tables())
    @settings(max_examples=100, deadline=None)
    def test_map_labels_equals_a_per_record_reference(self, table):
        columns, kinds, labels, kept = table
        sub = toy_dataset(columns, labels, kinds=kinds).subset(kept)
        sub_labels = [labels[i] for i in kept]
        if "mystery" in sub_labels:
            with pytest.raises(UnknownLabelError, match="mystery"):
                map_labels(sub)
            return
        mapped = map_labels(sub)
        assert mapped.labels.tolist() == [
            lbl if lbl == NORMAL else ATTACK_CATEGORY[lbl] for lbl in sub_labels
        ]
        assert mapped.label_set() == tuple(sorted(set(mapped.labels.tolist())))
        assert list(serialize_records(mapped)) == reference_lines(
            [[col[i] for i in kept] for col in columns], mapped.labels.tolist()
        )


@pytest.fixture
def validated(monkeypatch):
    """Every dataset that runs ``Dataset.__post_init__`` from here on, in order."""
    validate = Dataset.__post_init__
    seen = []

    def recorded(self):
        seen.append(self)
        validate(self)

    monkeypatch.setattr(Dataset, "__post_init__", recorded)
    return seen


class TestDerivedDatasets:
    def test_cross_validation_validates_no_derived_dataset(self, validated):
        labels = ["a", "b", "c"] * 12
        ds = toy_dataset(
            [labels, [float(i % 5) for i in range(36)], list(range(36))],
            labels,
            kinds=[DISCRETE, CONTINUOUS, DISCRETE],
        )
        validated.clear()
        config = ExperimentConfig(
            discretization="fold-safe",
            selection=SelectionConfig(method="cfs-greedy"),
            classifier=ClassifierConfig(boost=True, rounds=3),
        )
        report = cross_validate(ds, config, k=4, seed=0)
        assert report.matrix.total == len(ds)
        # every fold's subsets, projections and recodings skip validation
        assert validated == []

    def test_direct_construction_and_label_mapping_still_validate(self, validated):
        mapped = map_labels(toy_dataset([["x", "y"]], ["normal", "smurf"]))
        mapped.subset([1]).project([1])
        assert [ds.granularity for ds in validated] == [ATTACK23, CATEGORY5]
        with pytest.raises(SchemaError):
            toy_dataset([[1.0, float("nan")]], ["a", "b"], kinds=[CONTINUOUS])

    def test_derived_dataset_keeps_its_parent_intact(self):
        ds = toy_dataset([["x", "y", "z"], [1, 2, 3]], ["a", "b", "a"])
        sub = ds.subset([2, 0])
        proj = ds.project([2])
        assert list(sub.labels) == ["a", "a"] and list(sub.column(2)) == [3, 1]
        assert len(proj.schema) == 1 and list(proj.column(1)) == [1, 2, 3]
        assert list(ds.column(1)) == ["x", "y", "z"] and len(ds.schema) == 2
        assert sub.vocabs == ds.vocabs and proj.vocabs == (ds.vocabs[1],)
