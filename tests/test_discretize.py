import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idspipe import discretize
from idspipe.data import CONTINUOUS, DISCRETE
from idspipe.discretize import (
    CutPointList,
    DiscretizationModel,
    apply_discretizer,
    entropy,
    fit_discretizer,
    mdlp_cuts,
    segment_entropies,
)
from idspipe.errors import SchemaError

from conftest import columns_of, toy_dataset


# --- independent oracle: exhaustive-midpoint recursive MDL splitting -------

def oracle_entropy(labels):
    n = len(labels)
    return -sum((c / n) * math.log2(c / n) for c in Counter(labels).values())


def oracle_mdlp(values, labels):
    pairs = sorted(zip(values, labels), key=lambda p: p[0])
    return sorted(_oracle_rec(pairs))


def _oracle_rec(pairs):
    ys = [y for _, y in pairs]
    n = len(pairs)
    distinct = sorted({v for v, _ in pairs})
    if len(distinct) < 2:
        return []
    best = None
    for mid in [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]:
        left = [(v, y) for v, y in pairs if v < mid]
        right = [(v, y) for v, y in pairs if v >= mid]
        e = (
            len(left) * oracle_entropy([y for _, y in left])
            + len(right) * oracle_entropy([y for _, y in right])
        ) / n
        if best is None or e < best[1]:
            best = (mid, e, left, right)
    mid, e, left, right = best
    h_parent = oracle_entropy(ys)
    h1 = oracle_entropy([y for _, y in left])
    h2 = oracle_entropy([y for _, y in right])
    gain = h_parent - e
    k = len(set(ys))
    k1 = len({y for _, y in left})
    k2 = len({y for _, y in right})
    delta = math.log2(3**k - 2) - (k * h_parent - k1 * h1 - k2 * h2)
    if gain <= (math.log2(n - 1) + delta) / n:
        return []
    return [mid] + _oracle_rec(left) + _oracle_rec(right)


mdlp_arrays = st.integers(1, 50).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.one_of(st.integers(0, 8).map(float), st.floats(0, 5, width=16)),
            min_size=n,
            max_size=n,
        ),
        st.lists(st.sampled_from("abc"), min_size=n, max_size=n),
    )
)


# --- reference MDLP loop: np.add.at counts, one cumsum per block ------------

def reference_row_entropies(counts):
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    p = counts / safe
    terms = np.where(counts > 0, p * np.log2(np.where(counts > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


def reference_mdlp_cuts(values, labels):
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if values.size == 0:
        return []
    _, y = np.unique(labels, return_inverse=True)
    n_classes = int(y.max()) + 1
    order = np.argsort(values, kind="stable")
    v_sorted = values[order]
    y_sorted = y[order]
    group_starts = np.flatnonzero(np.concatenate(([True], np.diff(v_sorted) > 0)))
    group_values = v_sorted[group_starts]
    group_id = np.cumsum(np.concatenate(([0], (np.diff(v_sorted) > 0).astype(int))))
    group_counts = np.zeros((len(group_values), n_classes), dtype=float)
    np.add.at(group_counts, (group_id, y_sorted), 1.0)
    group_pure = (group_counts > 0).sum(axis=1) == 1
    group_class = group_counts.argmax(axis=1)
    cuts = []
    stack = [(0, len(group_values))]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        block = group_counts[lo:hi]
        total = block.sum(axis=0)
        n = total.sum()
        mask = ~(
            group_pure[lo : hi - 1]
            & group_pure[lo + 1 : hi]
            & (group_class[lo : hi - 1] == group_class[lo + 1 : hi])
        )
        if not mask.any():
            continue
        left = np.cumsum(block, axis=0)[:-1]
        right = total[None, :] - left
        n_left = left.sum(axis=1)
        n_right = n - n_left
        h_left = reference_row_entropies(left)
        h_right = reference_row_entropies(right)
        child_entropy = (n_left * h_left + n_right * h_right) / n
        cand = np.flatnonzero(mask)
        best = cand[np.argmin(child_entropy[cand])]
        h_parent = entropy(total)
        gain = h_parent - child_entropy[best]
        k = int((total > 0).sum())
        k1 = int((left[best] > 0).sum())
        k2 = int((right[best] > 0).sum())
        delta = math.log2(3**k - 2) - (k * h_parent - k1 * h_left[best] - k2 * h_right[best])
        if gain <= (math.log2(n - 1) + delta) / n:
            continue
        cuts.append(float((group_values[lo + best] + group_values[lo + best + 1]) / 2))
        stack.append((lo, lo + best + 1))
        stack.append((lo + best + 1, hi))
    return sorted(cuts)


@st.composite
def tied_class_columns(draw):
    """A class-dependent value column with heavy ties, 2 to 23 classes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes = draw(st.integers(2, 23))
    n = draw(st.integers(2, 400))
    y = rng.integers(0, n_classes, size=n)
    spread = draw(st.sampled_from([0.5, 1.0, 3.0]))
    noise = rng.integers(0, draw(st.integers(1, 6)), size=n)
    values = np.round((y * spread + noise) * draw(st.sampled_from([1.0, 0.1, 1 / 3])), 3)
    return values.tolist(), [f"class{v}" for v in y]


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy({"a": 1, "b": 1}) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert entropy({"a": 4}) == 0.0

    def test_three_one_split(self):
        assert entropy({"a": 3, "b": 1}) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_zero_mass_labels_ignored(self):
        assert entropy({"a": 3, "b": 1, "c": 0}) == entropy({"a": 3, "b": 1})

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            entropy({"a": 0.0, "b": 0.0})
        with pytest.raises(ValueError):
            entropy({})

    def test_negative_errors(self):
        with pytest.raises(ValueError):
            entropy({"a": -1.0})

    def test_fractional_weights(self):
        # weighted counts behave like scaled integer counts
        assert entropy({"a": 1.5, "b": 0.5}) == pytest.approx(
            entropy({"a": 3, "b": 1}), abs=1e-12
        )

    @given(
        counts=st.dictionaries(
            st.sampled_from("abcdef"),
            st.floats(0, 100, allow_nan=False),
            min_size=1,
            max_size=6,
        ).filter(lambda d: sum(d.values()) > 0)
    )
    @settings(max_examples=100)
    def test_permutation_and_scale_invariance(self, counts):
        values = list(counts.values())
        h = entropy(counts)
        assert h == pytest.approx(entropy(list(reversed(values))), abs=1e-12)
        assert h == pytest.approx(entropy([2 * v for v in values]), abs=1e-12)
        positive = sum(1 for v in values if v > 0)
        assert -1e-12 <= h <= math.log2(positive) + 1e-12

    @given(
        st.lists(
            st.lists(st.integers(1, 10**6), min_size=1, max_size=300), min_size=1, max_size=8
        )
    )
    @settings(max_examples=100)
    def test_segment_entropies_equal_entropy_of_each_segment(self, segments):
        # segments longer than 128 take numpy's recursive pairwise sum
        counts = np.concatenate([np.asarray(s, dtype=float) for s in segments])
        lengths = np.array([len(s) for s in segments])
        totals = np.array([sum(s) for s in segments], dtype=float)
        got = segment_entropies(counts, lengths, totals)
        assert [h.hex() for h in got.tolist()] == [entropy(s).hex() for s in segments]

    def test_segment_entropies_scalar_total(self):
        got = segment_entropies(np.array([1.0, 3.0, 2.0, 2.0, 4.0]), np.array([2, 2, 1]), 4)
        assert got.tolist() == [entropy([1, 3]), 1.0, 0.0]


class TestMdlpCuts:
    def test_clean_split_accepted(self):
        # gain 1.0 beats the MDL cost (log2(3) + log2(7) - 2) / 4
        assert mdlp_cuts([1, 2, 3, 4], ["a", "a", "b", "b"]) == [2.5]

    def test_alternating_rejected(self):
        assert mdlp_cuts([1, 2, 3, 4], ["a", "b", "a", "b"]) == []

    def test_constant_values(self):
        assert mdlp_cuts([5, 5, 5, 5], ["a", "b", "a", "b"]) == []

    def test_degenerate_inputs(self):
        assert mdlp_cuts([], []) == []
        assert mdlp_cuts([1.0], ["a"]) == []
        assert mdlp_cuts([1, 2, 3], ["a", "a", "a"]) == []

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            mdlp_cuts([1, 2], ["a"])

    def test_recursive_splits(self):
        values = list(range(12))
        labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        cuts = mdlp_cuts(values, labels)
        assert cuts == [3.5, 7.5]
        assert cuts == oracle_mdlp(values, labels)

    @given(mdlp_arrays)
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_oracle(self, arrays):
        values, labels = arrays
        assert mdlp_cuts(values, labels) == oracle_mdlp(values, labels)

    @given(tied_class_columns())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_reference_loop(self, column):
        values, labels = column
        cuts = mdlp_cuts(values, labels)
        expected = reference_mdlp_cuts(values, labels)
        assert [c.hex() for c in cuts] == [c.hex() for c in expected]

    @given(mdlp_arrays)
    @settings(max_examples=100, deadline=None)
    def test_boundary_point_property(self, arrays):
        values, labels = arrays
        cuts = mdlp_cuts(values, labels)
        by_value = {}
        for v, y in zip(values, labels):
            by_value.setdefault(float(v), set()).add(y)
        distinct = sorted(by_value)
        for cut in cuts:
            below = max(v for v in distinct if v < cut)
            above = min(v for v in distinct if v > cut)
            assert below < cut < above
            # not a split inside a run of one pure class
            assert by_value[below] != by_value[above] or len(by_value[below]) > 1


def cuts_of(model, index):
    """The cut list of 1-based feature ``index``."""
    [cpl] = [c for c in model.cut_lists if c.feature_index == index]
    return cpl


def bins_of(cuts, values):
    """Bin of each value under one feature's cut points, by apply_discretizer."""
    ds = toy_dataset([values], ["a"] * len(values), kinds=[CONTINUOUS])
    model = DiscretizationModel(ds.schema, (CutPointList(1, tuple(cuts)),))
    return [int(b) for b in columns_of(apply_discretizer(model, ds))[0]]


class TestCutPointList:
    def test_bin_convention(self):
        # left-closed: cuts[i-1] <= v < cuts[i]
        assert bins_of([2.5], [1.0, 2.5, 99.0]) == [0, 1, 1]

    def test_empty_cuts_single_bin(self):
        assert CutPointList(1, ()).n_bins == 1
        assert bins_of([], [-100.0, 100.0]) == [0, 0]

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            CutPointList(1, (1.0, 1.0))


@st.composite
def continuous_datasets(draw):
    """1 to 8 continuous columns of differing split depths, 1 to 300 records.

    Columns are constant, class-free noise, or class-dependent with heavy
    ties or with many distinct values (deep recursion); 2 to 23 classes.
    Returns the dataset and the records a fit sees: all of them, or all but
    one class's, so that class is absent from the fit's labels.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes = draw(st.integers(2, 23))
    n = draw(st.integers(1, 300))
    y = rng.integers(0, n_classes, size=n)
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["constant", "noise", "tied", "fine"]))
        if kind == "constant":
            values = np.full(n, draw(st.sampled_from([0.0, -1.5, 7.0])))
        elif kind == "noise":
            values = rng.integers(0, draw(st.integers(1, 40)), size=n).astype(float)
        elif kind == "tied":
            noise = rng.integers(0, draw(st.integers(1, 6)), size=n)
            values = np.round((y * draw(st.sampled_from([0.5, 1.0, 3.0])) + noise) / 3, 3)
        else:
            values = y * draw(st.sampled_from([0.1, 1.0])) + rng.normal(size=n)
        columns.append(values.tolist())
    ds = toy_dataset(
        columns, [f"class{v}" for v in y], kinds=[CONTINUOUS] * len(columns)
    )
    rows = np.arange(n)
    if draw(st.booleans()) and len(set(y.tolist())) > 1:
        rows = rows[y != y[draw(st.integers(0, n - 1))]]
    return ds, rows


class TestFitApply:
    def kinds(self, n_cont, n_disc=0):
        return [CONTINUOUS] * n_cont + [DISCRETE] * n_disc

    def test_constant_feature_single_bin(self):
        # feature 2: gain 0.918 beats the MDL cost (log2(5) + 0.971) / 6
        ds = toy_dataset(
            [[0.0] * 6, [1, 1, 2, 2, 3, 3]],
            ["a", "a", "a", "a", "b", "b"],
            kinds=self.kinds(2),
        )
        model = fit_discretizer(ds)
        assert cuts_of(model, 1).cuts == ()
        assert cuts_of(model, 2).cuts == (2.5,)

    def test_single_record(self):
        ds = toy_dataset([[3.7], [1.0]], ["a"], kinds=self.kinds(2))
        model = fit_discretizer(ds)
        assert all(c.cuts == () for c in model.cut_lists)

    def test_fit_deterministic(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=40).tolist()
        labels = ["ab"[v] for v in rng.integers(0, 2, size=40)]
        ds = toy_dataset([vals], labels, kinds=self.kinds(1))
        assert fit_discretizer(ds).cut_lists == fit_discretizer(ds).cut_lists

    @given(st.lists(tied_class_columns(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_cuts_equal_per_column_mdlp_cuts(self, columns):
        n = min(len(values) for values, _ in columns)
        labels = columns[0][1][:n]
        ds = toy_dataset(
            [values[:n] for values, _ in columns], labels, kinds=self.kinds(len(columns))
        )
        model = fit_discretizer(ds)
        for idx, (values, _) in enumerate(columns, start=1):
            expected = mdlp_cuts(values[:n], labels)
            assert [c.hex() for c in cuts_of(model, idx).cuts] == [c.hex() for c in expected]

    @given(continuous_datasets(), st.sampled_from([1, 7, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_fit_equals_reference_loop_per_column(self, dataset, batch):
        # every level scores 1, about 7 or up to 1024 candidate cuts at a time
        ds, rows = dataset
        train = ds.subset(rows)
        with mock.patch.object(discretize, "_BATCH", batch):
            model = fit_discretizer(train)
        labels = train.labels
        for idx in train.schema.continuous_indices:
            expected = reference_mdlp_cuts(train.column(idx), labels)
            assert [c.hex() for c in cuts_of(model, idx).cuts] == [c.hex() for c in expected]

    def test_apply_bins_and_passthrough(self):
        ds = toy_dataset(
            [[1.0, 2.5, 9.0], ["u", "v", "u"]],
            ["a", "b", "b"],
            kinds=[CONTINUOUS, DISCRETE],
        )
        model = DiscretizationModel(
            schema=ds.schema, cut_lists=(CutPointList(1, (2.5,)),)
        )
        out = apply_discretizer(model, ds)
        assert out.column(1).tolist() == [0, 1, 1]
        assert out.column(2).tolist() == ["u", "v", "u"]
        assert out.schema.continuous_indices == ()
        assert np.array_equal(out.labels, ds.labels)

    def test_out_of_range_clamps_to_edge_bins(self):
        ds = toy_dataset([[i / 2 for i in range(8)]], ["a"] * 4 + ["b"] * 4,
                         kinds=self.kinds(1))
        model = fit_discretizer(ds)
        probe = toy_dataset([[-50.0, 50.0]], ["a", "b"], kinds=self.kinds(1))
        out = apply_discretizer(model, probe)
        n_bins = cuts_of(model, 1).n_bins
        assert out.column(1).tolist() == [0, n_bins - 1]

    def test_already_discrete_is_identity(self):
        ds = toy_dataset(
            [[0.0, 1.0, 2.0, 3.0]], ["a", "a", "b", "b"], kinds=self.kinds(1)
        )
        once = apply_discretizer(fit_discretizer(ds), ds)
        refit = fit_discretizer(once)
        twice = apply_discretizer(refit, once)
        assert all(c.cuts == () for c in refit.cut_lists)  # nothing left to split
        for a, b in zip(columns_of(once), columns_of(twice)):
            assert np.array_equal(a, b)

    def test_schema_mismatch(self):
        ds = toy_dataset([[1.0, 2.0]], ["a", "b"], kinds=self.kinds(1))
        model = fit_discretizer(ds)
        other = toy_dataset([["x", "y"]], ["a", "b"])
        with pytest.raises(SchemaError):
            apply_discretizer(model, other)

    def test_model_roundtrip(self):
        ds = toy_dataset(
            [[0.25, 1.5, 2.75, 4.0], ["p", "q", "p", "q"]],
            ["a", "a", "b", "b"],
            kinds=[CONTINUOUS, DISCRETE],
        )
        model = fit_discretizer(ds)
        again = DiscretizationModel.from_payload(json.loads(model.to_json()))
        assert again == model
        assert again.to_json() == model.to_json()
