import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idspipe.config import ClassifierConfig, ExperimentConfig, SelectionConfig
from idspipe.data import (
    ATTACK23,
    ATTACK_CATEGORY,
    CATEGORY5,
    CONTINUOUS,
    DISCRETE,
    Dataset,
    FoldPlan,
    NORMAL,
    NSLKDD_SCHEMA,
    REFERENCE_ATTACK_COUNTS,
    _format_value,
    encode,
    json_text,
    map_labels,
    parse_records,
    reference_sample_counts,
    sample_indices,
    serialize_records,
    stratified_folds,
)
from idspipe.discretize import CutPointList, DiscretizationModel, apply_discretizer
from idspipe.errors import ParseError, SamplingError, SchemaError, UnknownLabelError
from idspipe.evaluate import cross_validate

from conftest import columns_of, toy_dataset

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
        assert NSLKDD_SCHEMA.discrete_indices == (2, 3, 4, 7, 12, 21, 22)

    def test_standard_schema_names(self):
        assert NSLKDD_SCHEMA.name(2) == "protocol-type"
        assert NSLKDD_SCHEMA.kind(2) == DISCRETE
        assert NSLKDD_SCHEMA.name(5) == "src-bytes"
        assert NSLKDD_SCHEMA.kind(5) == CONTINUOUS
        assert NSLKDD_SCHEMA.name(20) == "num-outbound-cmds"
        assert NSLKDD_SCHEMA.name(41) == "dst-host-srv-rerror-rate"

    def test_all_discrete_variant(self):
        flat = NSLKDD_SCHEMA.all_discrete()
        assert flat.names == NSLKDD_SCHEMA.names
        assert flat.continuous_indices == ()


class TestParse:
    def test_42_field_line(self):
        ds = parse_records([make_line("neptune")])
        assert len(ds) == 1
        assert ds.labels[0] == "neptune"
        assert ds.granularity == ATTACK23
        assert ds.weights[0] == 1.0

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
        assert again == ds


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

    def test_values_and_weights_preserved(self):
        lines = [make_line(lbl) for lbl in ("back", "teardrop", "satan", "spy")]
        ds = parse_records(lines)
        mapped = map_labels(ds)
        assert len(mapped) == len(ds)
        for a, b in zip(columns_of(ds), columns_of(mapped)):
            assert np.array_equal(a, b)
        assert np.array_equal(ds.weights, mapped.weights)

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
        assert out.class_counts() == {"a": 10, "b": 5, "c": 5}

    def test_identity_when_target_is_full_histogram(self):
        labels = ["a"] * 7 + ["b"] * 3
        ds = toy_dataset([list(range(10))], labels)
        out = ds.subset(sample_indices(ds, {"a": 7, "b": 3}, seed=11))
        assert out == ds

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
        assert out.class_counts() == {"a": 3}

    def test_reference_counts_sum(self):
        counts = reference_sample_counts()
        assert sum(REFERENCE_ATTACK_COUNTS.values()) == 29540
        assert sum(counts.values()) == 62984
        assert counts["neptune"] == 20750
        assert counts["spy"] == 1


# JSON values of every kind ``json_text`` formats or hands to ``json.dumps``.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and infinities included
    | st.sampled_from([-0.0, 0.0, 1e-300, 1e300])
    | st.floats().map(np.float64)
    | st.text()
)
json_values = st.recursive(
    json_scalars | st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=5)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=30,
)


class TestJsonText:
    @given(json_values)
    @settings(max_examples=300, deadline=None)
    def test_equals_indented_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_named_cases(self):
        for value in (
            {},
            [],
            {"a": [], "b": {}, "c": ()},
            {"é": "ü\n\"", "ascii": "x"},
            [1, True, None, False, -0.0, 1.5],
            {"t": [[0.25, 0.5], [np.float64(0.1)]]},
            {"nan": [1.0, float("nan")], "inf": float("inf"), "-inf": [-float("inf")]},
            {1: "int key", 2: [0.5]},
        ):
            assert json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"

    def test_numpy_int_is_not_json(self):
        with pytest.raises(TypeError):
            json_text({"n": np.int64(1)})
        with pytest.raises(TypeError):
            json_text([0.5, np.int64(1)])


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
