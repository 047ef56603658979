import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idspipe import select
from idspipe.data import encode
from idspipe.discretize import entropy
from idspipe.errors import SchemaError
from idspipe.select import (
    BEST_FIRST_STALE_LIMIT,
    CorrelationCache,
    FeatureSubset,
    RankedFeatures,
    SelectionResult,
    _extension_merits,
    _greedy_path,
    best_first_search,
    cfs_merit,
    gain_ratio,
    greedy_forward_search,
    info_gain,
    rank_threshold,
    run_selection,
    symmetrical_uncertainty,
)

from conftest import toy_dataset


# --- direct probability-based oracles --------------------------------------

def oracle_entropy(column):
    n = len(column)
    return -sum((c / n) * math.log2(c / n) for c in Counter(column).values())


def oracle_ig(x, y):
    n = len(x)
    h_y = oracle_entropy(y)
    cond = 0.0
    for xv, count in Counter(x).items():
        subset = [yi for xi, yi in zip(x, y) if xi == xv]
        cond += (count / n) * oracle_entropy(subset)
    return h_y - cond


def oracle_su(a, b):
    ha, hb = oracle_entropy(a), oracle_entropy(b)
    if ha == 0 or hb == 0:
        return 0.0
    return 2.0 * oracle_ig(a, b) / (ha + hb)


# --- table oracle: one (value, class) contingency table per measure --------
#
# The shipped kernels (select._su_scores for symmetrical uncertainty,
# select._class_scores for information gain and gain ratio) score many
# tables at once; these score one table at a time with one entropy() call
# per row, and must agree with the kernels bit for bit.

@dataclass(eq=False)
class ContingencyTable:
    """Joint counts over (feature value, class label) pairs."""

    counts: np.ndarray

    @classmethod
    def from_columns(cls, x, y):
        (xc, xv), (yc, yv) = encode(x), encode(y)
        return cls.from_codes(xc, len(xv), yc, len(yv))

    @classmethod
    def from_codes(cls, xc, nx, yc, ny):
        """Table of two code arrays over vocabularies of sizes ``nx`` and ``ny``."""
        joint = np.bincount(xc * ny + yc, minlength=nx * ny).astype(float)
        return cls(counts=joint.reshape(nx, ny))

    @property
    def total(self):
        return float(self.counts.sum())

    @property
    def row_totals(self):
        return self.counts.sum(axis=1)

    @property
    def col_totals(self):
        return self.counts.sum(axis=0)


def table_conditional_entropy(table):
    """H(Y|X) where rows of the table index X values."""
    h = 0.0
    for row in table.counts:
        if row.sum() > 0:
            h += (row.sum() / table.total) * entropy(row)
    return h


def table_ig(table):
    return entropy(table.col_totals) - table_conditional_entropy(table)


def table_gain_ratio(table):
    hx = entropy(table.row_totals)
    return 0.0 if hx == 0.0 else table_ig(table) / hx


def table_su(table):
    """Zero if either marginal is constant; joint counts summed in sorted order."""
    ha, hb = entropy(table.row_totals), entropy(table.col_totals)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    joint = np.sort(table.counts.ravel())
    su = 2.0 * (ha + hb - entropy(joint[joint > 0])) / (ha + hb)
    return min(1.0, max(0.0, su))


TABLE_SCORERS = {"ig": table_ig, "gainratio": table_gain_ratio, "su": table_su}


def table_su_of_columns(a, b):
    return table_su(ContingencyTable.from_columns(a, b))


class FixedCache:
    """Stand-in correlation cache with prescribed r values; unset pairs are NaN."""

    def __init__(self, cf, ff):
        n = 1 + max([*cf, *(j for pair in ff for j in pair)], default=0)
        self.class_su, self.table = np.zeros(n), np.full((n, n), np.nan)
        for i, v in cf.items():
            self.class_su[i] = v
        for (i, j), v in ff.items():
            self.table[i, j] = self.table[j, i] = v

    def su_arrays(self, members, among):
        return self.class_su, self.table


# --- merit oracle: the scalar pair loop over a fully filled SU table -------

def left_to_right(values):
    total = 0.0
    for v in values:
        total += float(v)
    return total


def oracle_merit(subset, class_su, table):
    """CFS merit k*rcf / sqrt(k + k(k-1)*rff), one correlation at a time.

    Correlations are added left to right over the sorted members and their
    pairs in ``combinations`` order, the order the package's vectorized
    merit must reproduce bit for bit.
    """
    indices = sorted(subset)
    k = len(indices)
    if k == 0:
        return 0.0
    rcf = left_to_right(class_su[i] for i in indices) / k
    if k == 1:
        return rcf
    pairs = list(combinations(indices, 2))
    rff = left_to_right(table[i, j] for i, j in pairs) / len(pairs)
    return k * rcf / math.sqrt(k + k * (k - 1) * rff)


def full_su(cache):
    """The cache's feature-class vector and its feature-feature table, every pair filled."""
    everything = range(1, cache.n_features + 1)
    return cache.su_arrays(everything, everything)


columns_pairs = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from("01234"), min_size=n, max_size=n),
        st.lists(st.sampled_from("abcde"), min_size=n, max_size=n),
    )
)


class TestScoring:
    def test_perfect_predictor(self):
        y = ["a", "b", "a", "b", "b"]
        assert info_gain(y, y) == pytest.approx(oracle_entropy(y), abs=1e-12)

    def test_independent_columns(self):
        x = ["0", "0", "1", "1"]
        y = ["a", "b", "a", "b"]
        assert info_gain(x, y) == pytest.approx(0.0, abs=1e-12)
        assert symmetrical_uncertainty(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        x = ["0", "0", "1", "1"]
        y = ["a", "b", "a", "a"]
        assert info_gain(x, y) == pytest.approx(0.3112781244591328, abs=1e-12)
        assert gain_ratio(x, y) == pytest.approx(0.3112781244591328, abs=1e-12)
        su = 2 * 0.3112781244591328 / (1 + 0.8112781244591328)
        assert symmetrical_uncertainty(x, y) == pytest.approx(su, abs=1e-12)
        assert round(su, 4) == 0.3437

    def test_empty_columns_error(self):
        with pytest.raises(ValueError):
            info_gain([], [])

    def test_gain_ratio_perfect(self):
        y = ["a", "b", "a", "b"]
        assert gain_ratio(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_gain_ratio_constant_feature(self):
        assert gain_ratio(["k"] * 4, ["a", "b", "a", "b"]) == 0.0

    def test_su_self_correlation(self):
        a = ["x", "y", "z", "x"]
        assert symmetrical_uncertainty(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_su_constant(self):
        assert symmetrical_uncertainty(["k"] * 3, ["a", "b", "a"]) == 0.0

    @given(columns_pairs)
    @settings(max_examples=150)
    def test_ig_symmetry_and_oracle(self, cols):
        x, y = cols
        assert abs(info_gain(x, y) - info_gain(y, x)) < 1e-12
        assert info_gain(x, y) == pytest.approx(oracle_ig(x, y), abs=1e-12)

    @given(columns_pairs)
    @settings(max_examples=150)
    def test_su_bounds_symmetry_oracle(self, cols):
        a, b = cols
        su = symmetrical_uncertainty(a, b)
        assert 0.0 <= su <= 1.0
        assert su == symmetrical_uncertainty(b, a)
        assert su == pytest.approx(oracle_su(a, b), abs=1e-12)

    @given(cols=columns_pairs, scorer=st.sampled_from(["ig", "gainratio", "su"]))
    @settings(max_examples=150)
    def test_column_scorers_hex_equal_table_scores(self, cols, scorer):
        x, y = cols
        score_fn = {"ig": info_gain, "gainratio": gain_ratio, "su": symmetrical_uncertainty}
        expected = TABLE_SCORERS[scorer](ContingencyTable.from_columns(x, y))
        assert score_fn[scorer](x, y).hex() == expected.hex()

    def test_columns_of_different_lengths_error(self):
        for score_fn in (info_gain, gain_ratio, symmetrical_uncertainty):
            with pytest.raises(ValueError, match="same length"):
                score_fn(["0", "1"], ["a"])

    @given(columns_pairs)
    @settings(max_examples=100)
    def test_contingency_marginals(self, cols):
        x, y = cols
        t = ContingencyTable.from_columns(x, y)
        assert t.total == len(x)
        assert t.row_totals.sum() == pytest.approx(t.total)
        assert t.col_totals.sum() == pytest.approx(t.total)
        assert (t.counts >= 0).all()


@st.composite
def wide_discrete_datasets(draw):
    """Discrete datasets with up to 15 values per column and 12 classes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    labels = [f"c{v}" for v in rng.integers(0, draw(st.integers(1, 12)), size=n)]
    columns = [
        rng.integers(0, draw(st.integers(1, 15)), size=n).tolist()
        for _ in range(draw(st.integers(2, 5)))
    ]
    return toy_dataset(columns, labels)


@st.composite
def redundant_discrete_datasets(draw, classes=None):
    """Wide discrete datasets with constant and duplicated columns.

    With ``classes``, each of that many classes labels at least one record.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if classes is None:
        n = draw(st.integers(1, 300))
        label_codes = rng.integers(0, draw(st.integers(1, 12)), size=n)
    else:
        n = draw(st.integers(classes, 300))
        label_codes = rng.permutation(
            np.concatenate([np.arange(classes), rng.integers(0, classes, size=n - classes)])
        )
    labels = [f"c{v}" for v in label_codes]
    columns = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["random", "constant", "duplicate"]))
        if kind == "constant":
            columns.append([draw(st.integers(0, 3))] * n)
        elif kind == "duplicate" and columns:
            columns.append(list(draw(st.sampled_from(columns))))
        else:
            columns.append(rng.integers(0, draw(st.integers(1, 15)), size=n).tolist())
    return toy_dataset(columns, labels)


class TestCorrelationCache:
    @given(wide_discrete_datasets())
    @settings(max_examples=100, deadline=None)
    def test_entries_bit_identical_to_symmetrical_uncertainty(self, ds):
        # every entry filled on its own
        cache = CorrelationCache(ds)
        n = len(ds.schema)
        for i in range(1, n + 1):
            class_su, table = cache.su_arrays([i], [])
            expected = table_su_of_columns(ds.column(i), ds.labels)
            assert float(class_su[i]).hex() == expected.hex()
            for j in range(1, n + 1):
                if j != i:
                    class_su, table = cache.su_arrays([i], [j])
                    expected = table_su_of_columns(ds.column(i), ds.column(j))
                    assert float(table[i, j]).hex() == expected.hex()

    @given(ds=redundant_discrete_datasets(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_fills_in_any_order_bit_identical(self, ds, data):
        # whole rows filled by su_arrays, in batches of 1 to all features
        # per bincount (the budget holds for every fill), between single
        # entries filled before and after
        n = len(ds.schema)
        everything = range(1, n + 1)
        budget = data.draw(st.sampled_from([1, len(ds), 3 * len(ds), 1 << 14]))
        with mock.patch.object(select, "_KEY_BUDGET", budget):
            cache = CorrelationCache(ds)
            pairs = st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4)
            for i, j in data.draw(pairs):
                cache.su_arrays([i], [j])
            order = data.draw(st.permutations(everything))
            cuts = sorted(data.draw(st.sets(st.integers(1, n), max_size=3)) | {n})
            for members in (order[a:b] for a, b in zip([0, *cuts], cuts)):
                class_su, table = cache.su_arrays(members, everything)
                assert not np.isnan(table[members]).any()
            for i, j in data.draw(pairs):
                cache.su_arrays([i], [j])
            for i in everything:
                expected = table_su_of_columns(ds.column(i), ds.labels)
                assert float(class_su[i]).hex() == expected.hex()
                for j in everything:
                    if j != i:
                        expected = table_su_of_columns(ds.column(i), ds.column(j))
                        assert float(table[i, j]).hex() == expected.hex()
                        assert float(cache.su_arrays([i], [j])[1][i, j]).hex() == expected.hex()


class TestCfsMerit:
    def test_singleton_equals_rcf(self):
        cache = FixedCache({7: 0.6}, {})
        assert cfs_merit([7], cache) == 0.6

    def test_two_features(self):
        cache = FixedCache({1: 0.5, 2: 0.5}, {(1, 2): 0.3})
        assert cfs_merit([1, 2], cache) == pytest.approx(1 / math.sqrt(2.6), abs=1e-12)
        assert cfs_merit([1, 2], cache) == pytest.approx(0.6202, abs=5e-5)

    def test_redundancy_penalty(self):
        duplicated = FixedCache({1: 0.5, 2: 0.5}, {(1, 2): 1.0})
        assert cfs_merit([1, 2], duplicated) == pytest.approx(0.5, abs=1e-12)
        # full redundancy scores below the partially correlated pair
        assert cfs_merit([1, 2], duplicated) < 1 / math.sqrt(2.6)

    def test_empty_subset(self):
        assert cfs_merit([], FixedCache({}, {})) == 0.0

    def test_accepts_feature_subset(self):
        cache = FixedCache({3: 0.4}, {})
        assert cfs_merit(FeatureSubset(indices=(3,)), cache) == 0.4

    @given(
        k=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200)
    def test_matches_direct_formula_and_permutation(self, k, seed):
        rng = np.random.default_rng(seed)
        indices = list(range(1, k + 1))
        cf = {i: float(rng.uniform(0, 1)) for i in indices}
        ff = {(i, j): float(rng.uniform(0, 1)) for i, j in combinations(indices, 2)}
        cache = FixedCache(cf, ff)
        rcf = sum(cf.values()) / k
        rff = (sum(ff.values()) / len(ff)) if ff else 0.0
        direct = k * rcf / math.sqrt(k + k * (k - 1) * rff)
        assert cfs_merit(indices, cache) == pytest.approx(direct, abs=1e-12)
        oracle = oracle_merit(indices, *cache.su_arrays((), ()))
        assert cfs_merit(indices, cache).hex() == oracle.hex()
        shuffled = list(indices)
        rng.shuffle(shuffled)
        assert cfs_merit(shuffled, cache) == cfs_merit(indices, cache)


def planted_dataset(seed=0, n=80, noise_features=4):
    """One feature equals the class; the rest are independent noise."""
    rng = np.random.default_rng(seed)
    labels = ["ab"[v] for v in rng.integers(0, 2, size=n)]
    cols = [list(labels)]
    for _ in range(noise_features):
        cols.append(rng.integers(0, 3, size=n).tolist())
    return toy_dataset(cols, labels)


def random_discrete_dataset(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 40))
    f = int(rng.integers(3, 6))
    cols = [rng.integers(0, 3, size=n).tolist() for _ in range(f)]
    labels = ["ab"[v] for v in rng.integers(0, 2, size=n)]
    return toy_dataset(cols, labels)


# --- reference search loops: one oracle merit per candidate ----------------

def reference_greedy_path(cache):
    arrays = full_su(cache)
    current, current_merit = [], 0.0
    remaining = list(range(1, cache.n_features + 1))
    path = []
    while remaining:
        best_i, best_merit = None, -math.inf
        for i in remaining:
            m = oracle_merit(current + [i], *arrays)
            if m > best_merit:
                best_i, best_merit = i, m
        if best_merit <= current_merit:
            break
        current.append(best_i)
        remaining.remove(best_i)
        current_merit = best_merit
        path.append((best_i, best_merit))
    return path


def reference_best_first(cache, stale_limit=BEST_FIRST_STALE_LIMIT):
    arrays = full_su(cache)
    heap, visited = [(0.0, ())], {()}
    best_subset, best_merit, stale = (), 0.0, 0
    while heap:
        neg_merit, subset = heapq.heappop(heap)
        if -neg_merit > best_merit:
            best_subset, best_merit, stale = subset, -neg_merit, 0
        else:
            stale += 1
            if stale >= stale_limit:
                break
        members = set(subset)
        for i in range(1, cache.n_features + 1):
            if i in members:
                continue
            child = tuple(sorted(members | {i}))
            if child in visited:
                continue
            visited.add(child)
            heapq.heappush(heap, (-oracle_merit(child, *arrays), child))
    return best_subset, best_merit


@st.composite
def tied_discrete_datasets(draw):
    """Small discrete datasets with constant and duplicated columns (ties)."""
    n = draw(st.integers(2, 30))
    cell = st.sampled_from("012")
    columns = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "constant", "duplicate"]))
        if kind == "constant":
            columns.append([draw(cell)] * n)
        elif kind == "duplicate" and columns:
            columns.append(list(draw(st.sampled_from(columns))))
        else:
            columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    return toy_dataset(columns, labels)


def hexes(merits):
    return [float(m).hex() for m in merits]


def oracle_su_arrays(ds):
    """Feature-class vector and feature-feature table from the table oracle alone."""
    n = len(ds.schema)
    class_su, table = np.zeros(n + 1), np.full((n + 1, n + 1), np.nan)
    for i in range(1, n + 1):
        class_su[i] = table_su_of_columns(ds.column(i), ds.labels)
        for j in range(1, n + 1):
            if j != i:
                table[i, j] = table_su_of_columns(ds.column(i), ds.column(j))
    return class_su, table


class TableCopies:
    """A correlation cache that keeps a copy of each table its su_arrays returns."""

    def __init__(self, cache):
        self.cache = cache
        self.tables = []

    def su_arrays(self, members, among):
        class_su, table = self.cache.su_arrays(members, among)
        self.tables.append(table.copy())
        return class_su, table


class TestOneMeritPath:
    @given(ds=tied_discrete_datasets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fills_and_merits_over_random_call_sequences(self, ds, data):
        # one cache takes su_arrays fills, merit steps and cfs_merit calls in
        # any order; every entry it holds is the oracle SU, every pair a
        # merit reads is filled, and every merit is the oracle merit
        n = len(ds.schema)
        oracle = oracle_su_arrays(ds)
        cache = CorrelationCache(ds)
        features = st.lists(st.integers(1, n), max_size=n)
        for _ in range(data.draw(st.integers(1, 6))):
            call = data.draw(st.sampled_from(["su_arrays", "_extension_merits", "cfs_merit"]))
            if call == "su_arrays":
                members, among = data.draw(features), data.draw(features)
                class_su, table = cache.su_arrays(members, among)
                assert not np.isnan(table[np.ix_(members, among)]).any()
            elif call == "_extension_merits":
                order = data.draw(st.permutations(range(1, n + 1)))
                k = data.draw(st.integers(0, n - 1))
                base = order[:k]
                candidates = order[k:][: data.draw(st.integers(1, n - k))]
                copies = TableCopies(cache)
                merits = _extension_merits(copies, base, candidates)
                (table,) = copies.tables
                for c in candidates:
                    pairs = list(combinations(sorted([*base, c]), 2))
                    assert not any(np.isnan(table[i, j]) for i, j in pairs)
                expected = [oracle_merit([*base, c], *oracle) for c in candidates]
                assert hexes(merits) == hexes(expected)
            else:
                subset = data.draw(st.sets(st.integers(1, n)))
                assert cfs_merit(subset, cache).hex() == oracle_merit(subset, *oracle).hex()
            class_su, table = cache.su_arrays([], [])
            assert hexes(class_su[1:]) == hexes(oracle[0][1:])
            filled = ~np.isnan(table)
            np.fill_diagonal(filled, False)
            filled[0, :] = filled[:, 0] = False
            assert hexes(table[filled]) == hexes(oracle[1][filled])


class TestExtensionMerits:
    @given(ds=tied_discrete_datasets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_cfs_merit_on_datasets(self, ds, data):
        n = len(ds.schema)
        base = data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(0, n - 1))]
        candidates = [i for i in range(1, n + 1) if i not in base]
        # the oracle reads a fully filled cache; the merit step and
        # cfs_merit fill only the pairs they read, each in a fresh cache
        arrays = full_su(CorrelationCache(ds))
        expected = [oracle_merit(base + [i], *arrays) for i in candidates]
        got = _extension_merits(CorrelationCache(ds), base, candidates)
        assert all(type(m) is float for m in got)
        assert hexes(got) == hexes(expected)
        merits = [cfs_merit(base + [i], CorrelationCache(ds)) for i in candidates]
        assert hexes(merits) == hexes(expected)

    @given(k=st.integers(1, 12), seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_cfs_merit_on_fixed_cache(self, k, seed, data):
        rng = np.random.default_rng(seed)
        indices = list(range(1, k + 1))
        cache = FixedCache(
            {i: float(rng.uniform(0, 1)) for i in indices},
            {(i, j): float(rng.uniform(0, 1)) for i, j in combinations(indices, 2)},
        )
        base = data.draw(st.permutations(indices))[: data.draw(st.integers(0, k - 1))]
        candidates = [i for i in indices if i not in base]
        expected = [oracle_merit(base + [i], *cache.su_arrays((), ())) for i in candidates]
        assert hexes(_extension_merits(cache, base, candidates)) == hexes(expected)
        assert hexes(cfs_merit(base + [i], cache) for i in candidates) == hexes(expected)

    def test_no_candidates(self):
        assert _extension_merits(CorrelationCache(planted_dataset(0)), [1], []) == []

    @given(ds=tied_discrete_datasets())
    @settings(max_examples=150, deadline=None)
    def test_searches_equal_reference_loops(self, ds):
        path = _greedy_path(CorrelationCache(ds))
        expected = reference_greedy_path(CorrelationCache(ds))
        assert [i for i, _ in path] == [i for i, _ in expected]
        assert hexes(m for _, m in path) == hexes(m for _, m in expected)
        best = best_first_search(ds, CorrelationCache(ds))
        subset, merit = reference_best_first(CorrelationCache(ds))
        assert best.indices == subset
        assert best.merit.hex() == float(merit).hex()

    @pytest.mark.parametrize("seed", range(3))
    def test_searches_equal_reference_loops_on_long_paths(self, seed):
        # noisy copies of the class: the greedy path runs many steps
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=300)
        columns = [
            np.where(rng.random(300) < rng.uniform(0.2, 0.9), y, rng.integers(0, 4, size=300))
            for _ in range(14)
        ]
        ds = toy_dataset([c.tolist() for c in columns], ["abc"[v] for v in y])
        path = _greedy_path(CorrelationCache(ds))
        expected = reference_greedy_path(CorrelationCache(ds))
        assert len(path) > 3
        assert [(i, m.hex()) for i, m in path] == [(i, m.hex()) for i, m in expected]
        best = best_first_search(ds, CorrelationCache(ds))
        subset, merit = reference_best_first(CorrelationCache(ds))
        assert (best.indices, best.merit.hex()) == (subset, merit.hex())


class TestGreedySearch:
    def test_planted_feature_selected_first(self):
        for seed in range(5):
            ds = planted_dataset(seed)
            path = _greedy_path(CorrelationCache(ds))
            assert path[0][0] == 1

    def test_all_constant_features(self):
        ds = toy_dataset([["k"] * 6, ["m"] * 6], ["a", "b"] * 3)
        subset = greedy_forward_search(ds)
        assert subset.indices == ()
        assert subset.merit == 0.0

    def test_merit_strictly_increasing_along_path(self):
        for seed in (3, 14, 27):
            ds = random_discrete_dataset(seed)
            path = _greedy_path(CorrelationCache(ds))
            merits = [m for _, m in path]
            assert all(b > a for a, b in zip(merits, merits[1:]))

    def test_requires_discrete(self):
        from idspipe.data import CONTINUOUS

        ds = toy_dataset([[1.0, 2.0]], ["a", "b"], kinds=[CONTINUOUS])
        with pytest.raises(SchemaError):
            greedy_forward_search(ds)

    def test_deterministic(self):
        ds = random_discrete_dataset(5)
        assert greedy_forward_search(ds) == greedy_forward_search(ds)


class TestBestFirstSearch:
    def test_unique_optimum_matches_greedy(self):
        ds = planted_dataset(1)
        g = greedy_forward_search(ds)
        b = best_first_search(ds)
        assert g.indices == b.indices == (1,)
        assert b.merit == pytest.approx(g.merit)

    def test_escapes_greedy_trap(self):
        # Frozen random instance where one feature wins alone but a larger
        # subset carries strictly higher merit; confirmed by enumeration.
        ds = random_discrete_dataset(51)
        cache = CorrelationCache(ds)
        g = greedy_forward_search(ds, cache)
        b = best_first_search(ds, cache)
        assert g.indices == (1,)
        assert b.indices == (1, 2, 5)
        assert b.merit > g.merit
        n = len(ds.schema)
        exhaustive_best = max(
            (cfs_merit(list(c), cache), c)
            for r in range(1, n + 1)
            for c in combinations(range(1, n + 1), r)
        )
        assert b.indices == exhaustive_best[1]
        assert b.merit == pytest.approx(exhaustive_best[0], abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_never_below_greedy(self, seed):
        ds = random_discrete_dataset(seed)
        cache = CorrelationCache(ds)
        g = greedy_forward_search(ds, cache)
        b = best_first_search(ds, cache)
        assert b.merit >= g.merit - 1e-12
        # reported merit is consistent with a recomputation
        assert b.merit == pytest.approx(cfs_merit(b.indices, cache), abs=1e-12)

    def test_stale_limit_constant(self):
        assert BEST_FIRST_STALE_LIMIT == 5


class TestRankThreshold:
    def test_alpha_zero_keeps_everything(self):
        ds = planted_dataset(2, noise_features=3)
        ranked = rank_threshold(ds, "ig", 0.0)
        assert sorted(ranked.indices) == [1, 2, 3, 4]

    def test_alpha_one_keeps_argmax(self):
        ds = planted_dataset(2, noise_features=3)
        ranked = rank_threshold(ds, "ig", 1.0)
        assert ranked.indices == (1,)

    def test_all_zero_scores_empty(self):
        ds = toy_dataset([["k"] * 4, ["m"] * 4], ["a", "b", "a", "b"])
        assert rank_threshold(ds, "ig", 0.0).entries == ()

    def test_descending_with_index_ties(self):
        col = ["0", "0", "1", "1"]
        labels = ["a", "a", "b", "b"]
        noise = ["0", "1", "0", "1"]
        ds = toy_dataset([noise, col, col], labels)
        ranked = rank_threshold(ds, "ig", 0.0)
        assert ranked.indices == (2, 3, 1)  # equal scores order by index

    def test_include_restriction(self):
        ds = planted_dataset(4, noise_features=3)
        ranked = rank_threshold(ds, "ig", 0.0, include=[2, 3, 4])
        assert 1 not in ranked.indices

    @given(alpha=st.floats(0.01, 1.0), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_alpha_zero_is_superset(self, alpha, seed):
        ds = random_discrete_dataset(seed)
        everything = set(rank_threshold(ds, "ig", 0.0).indices)
        kept = set(rank_threshold(ds, "ig", alpha).indices)
        assert kept <= everything

    def test_invalid_inputs(self):
        ds = planted_dataset(0)
        with pytest.raises(ValueError):
            rank_threshold(ds, "nope", 0.5)
        with pytest.raises(ValueError):
            rank_threshold(ds, "ig", 1.5)

    @given(seed=st.integers(0, 50), scorer=st.sampled_from(["ig", "gainratio", "su"]))
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_raw_column_scorers(self, seed, scorer):
        # scored from codes sliced out of a larger dataset, so some
        # vocabulary values and classes are absent from the scored rows
        full = random_discrete_dataset(seed)
        ds = full.subset(np.arange(0, len(full), 2))
        expected = {
            i: TABLE_SCORERS[scorer](ContingencyTable.from_columns(ds.column(i), ds.labels))
            for i in range(1, len(ds.schema) + 1)
        }
        ranked = dict(rank_threshold(ds, scorer, 0.0).entries)
        assert ranked == (expected if max(expected.values()) > 0.0 else {})

    @given(
        # any class count up to 12, or exactly 1, 5 (category5) or 23 (attack23)
        full=st.sampled_from([None, 1, 5, 23]).flatmap(redundant_discrete_datasets),
        scorer=st.sampled_from(["ig", "gainratio", "su"]),
        step=st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_batched_scores_hex_equal_table_scores(self, full, scorer, step):
        # every step-th record, so some values (empty rows) and classes are
        # absent; constant columns and a single class are drawn too
        ds = full.subset(np.arange(0, len(full), step))
        features = list(range(1, len(ds.schema) + 1))
        expected = [
            TABLE_SCORERS[scorer](
                ContingencyTable.from_codes(
                    ds.codes[i - 1], len(ds.vocabs[i - 1]), ds.label_codes, len(ds.label_vocab)
                )
            ).hex()
            for i in features
        ]
        got = select._scores(
            [ds.codes[i - 1] for i in features],
            [len(ds.vocabs[i - 1]) for i in features],
            ds.label_codes,
            len(ds.label_vocab),
            scorer,
        )
        assert [s.hex() for s in got] == expected

    def test_gainratio_and_su_scorers_run(self):
        ds = planted_dataset(0)
        assert rank_threshold(ds, "gainratio", 0.3).indices[0] == 1
        assert rank_threshold(ds, "su", 0.3).indices[0] == 1


class TestHybrid:
    def test_union_of_cfs_and_ig(self):
        # feature 1 = class (CFS takes it); feature 2 = strong IG but
        # redundant within CFS; noise elsewhere
        rng = np.random.default_rng(10)
        n = 120
        labels = ["ab"[v] for v in rng.integers(0, 2, size=n)]
        informative = [
            lbl if rng.random() < 0.85 else "ab"[rng.integers(0, 2)] for lbl in labels
        ]
        noise = rng.integers(0, 2, size=n).tolist()
        ds = toy_dataset([list(labels), informative, noise], labels)
        union = run_selection(ds, "hybrid", alpha=0.3).subset
        cfs = greedy_forward_search(ds)
        assert set(cfs.indices) <= set(union.indices)
        assert 2 in union.indices  # picked up by the information-gain stage

    def test_empty_second_stage(self):
        ds = toy_dataset(
            [["a", "b", "a", "b"], ["k"] * 4, ["m"] * 4], ["a", "b", "a", "b"]
        )
        union = run_selection(ds, "hybrid", alpha=0.9).subset
        assert union.indices == greedy_forward_search(ds).indices

    def test_alpha_zero_takes_all(self):
        ds = planted_dataset(3, noise_features=4)
        union = run_selection(ds, "hybrid", alpha=0.0).subset
        assert union.indices == tuple(range(1, 6))


class TestSelectionResult:
    def test_dispatch_and_roundtrip(self):
        ds = planted_dataset(6, noise_features=3)
        for method in ("cfs-greedy", "cfs-bestfirst", "ig", "gainratio",
                       "correlation", "hybrid"):
            result = run_selection(ds, method, alpha=0.3)
            again = SelectionResult.from_payload(json.loads(result.to_json()))
            assert again.subset.indices == result.subset.indices
            assert again.to_json() == result.to_json()

    def test_hybrid_components_recorded(self):
        ds = planted_dataset(7, noise_features=3)
        result = run_selection(ds, "hybrid", alpha=0.2)
        assert "cfs" in result.components and "ig-added" in result.components
        assert set(result.subset.indices) == set(result.components["cfs"]) | set(
            result.components["ig-added"]
        )

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_selection(planted_dataset(0), "wrapper", 0.3)

    def test_ranked_features_validation(self):
        with pytest.raises(ValueError):
            RankedFeatures(entries=((1, 0.2), (2, 0.9)))
        with pytest.raises(ValueError):
            FeatureSubset(indices=(3, 1))
