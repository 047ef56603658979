"""Feature scoring and subset selection on fully discrete datasets.

Individual features are scored against the class by information gain, gain
ratio or symmetrical uncertainty; subsets are scored by the CFS merit
heuristic (high mean feature-class correlation, low mean feature-feature
intercorrelation, both measured as symmetrical uncertainty). Greedy-forward
and best-first searches optimize merit; the hybrid selector unions the
greedy CFS subset with top information-gain features drawn from the rest.

Each measure has one implementation. :func:`_su_scores` computes every
symmetrical uncertainty: the correlation cache's feature-feature pairs and
its feature-class row (the class is one more coded column), the ``su``
ranker and :func:`symmetrical_uncertainty`. :func:`_class_scores` computes
information gain and gain ratio. Both take their entropies from one
:func:`_entropies` pass over every column's value counts. The public column
scorers (:func:`info_gain`, :func:`gain_ratio`, :func:`symmetrical_uncertainty`)
code their two columns and call the same kernels as the selectors, and
:func:`_extension_merits` computes every CFS merit, :func:`cfs_merit`'s too.

:func:`fit_preprocessing` fits the discretizer, then one selection method,
on a dataset: the preprocessing of every CV fold and of the deployment fit.

Feature indices are 1-based relative to the dataset schema. Ties always
break toward the smallest feature index.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple

import numpy as np

from . import discretize
from .config import SELECTION_METHODS
from .data import Dataset, check_discrete, encode
from .selection import FeatureSubset, RankedFeatures, SelectionResult

BEST_FIRST_STALE_LIMIT = 5


# Scorers of a (feature value, class) table: information gain, gain ratio and
# symmetrical uncertainty.
_SCORERS = ("ig", "gainratio", "su")


def _entropies(counts: np.ndarray, cards, n: int) -> np.ndarray:
    """Entropy of each column: ``counts`` holds ``cards[f]`` value counts for column f.

    Each column's counts follow those of the columns before it and sum to
    ``n``. One :func:`segment_entropies` call over the positive counts, so
    each result equals :func:`entropy` of its column's counts.
    """
    positive = counts > 0
    lengths = np.bincount(np.repeat(np.arange(len(cards)), cards)[positive], minlength=len(cards))
    return discretize.segment_entropies(counts[positive].astype(float), lengths, n)


def _column_entropies(codes, cards) -> np.ndarray:
    """:func:`_entropies` of the code arrays ``codes`` over ``cards`` values each."""
    counts = np.concatenate([np.bincount(c, minlength=k) for c, k in zip(codes, cards)])
    return _entropies(counts, cards, len(codes[0]))


def _class_scores(codes, cards, yc: np.ndarray, ny: int, scorer: str) -> list[float]:
    """Information gain or gain ratio (``scorer``) of each feature's (value, class) table.

    Feature f takes the codes ``codes[f]`` over ``cards[f]`` values, and the
    classes ``yc`` take ``ny`` values. H(X) and H(Y) come from one
    :func:`_entropies` pass over the tables' value and class counts. H(Y|X)
    weights each value's class entropy by its share of the records and adds
    them left to right from 0.0, in value order. A constant feature has gain
    ratio 0.
    """
    n = len(yc)
    # every table's rows stacked, each row a (value, class) count vector
    joint = np.concatenate(
        [np.bincount(c * ny + yc, minlength=card * ny) for c, card in zip(codes, cards)]
    ).reshape(-1, ny)
    totals = joint.sum(axis=1)
    class_counts = joint[: cards[0]].sum(axis=0)
    *hx, hy = _entropies(np.concatenate([totals, class_counts]), [*cards, ny], n).tolist()
    live = totals > 0  # rows of values some record takes
    n_live = np.bincount(np.repeat(np.arange(len(codes)), cards)[live], minlength=len(codes))
    live_totals = totals[live].astype(float)
    rows = joint[live].astype(float)
    positive = rows > 0
    h_rows = discretize.segment_entropies(rows[positive], positive.sum(axis=1), live_totals)
    weighted = ((live_totals / float(n)) * h_rows).tolist()
    ends = np.cumsum(n_live).tolist()
    ig = [hy - _sum_left_to_right(weighted[a:b]) for a, b in zip([0, *ends], ends)]
    if scorer == "ig":
        return ig
    return [0.0 if h == 0.0 else g / h for g, h in zip(ig, hx)]


# Key entries counted by one bincount of _su_scores: enough records and
# features to amortize the call, few enough that the key buffer stays at
# 128 KiB.
_KEY_BUDGET = 1 << 14


def _su_scores(codes, cards, hx, yc: np.ndarray, ny: int, hy: float) -> np.ndarray:
    """Symmetrical uncertainty of each code array in ``codes`` with ``yc``.

    Column f takes the codes ``codes[f]`` over ``cards[f]`` values, with
    entropy ``hx[f]``; ``yc`` takes ``ny`` values, with entropy ``hy``. One
    joint count array holds every table: the cell of a record in column f's
    table is ``yc * width + offset_f + codes[f]``, where ``offset_f`` is the
    total card of the columns before f and ``width`` that of all. Bincounts
    of as many columns as the key buffer holds rows fill it. Each table's
    positive counts are summed in ascending order (one sort of ``(table,
    count)`` keys), so SU is bit-identical under swapping the two columns.
    SU with a constant column is 0.
    """
    su = np.zeros(len(codes))
    live = np.flatnonzero(hx > 0)
    if hy == 0.0 or not live.size:
        return su
    cards = cards[live]
    width = int(cards.sum())
    cell_base = yc * width
    joint = np.zeros(ny * width, dtype=np.int64)
    n = len(yc)
    keys = np.empty((min(live.size, max(1, _KEY_BUDGET // n)), n), dtype=np.int64)
    shifts = list(zip(live.tolist(), (np.cumsum(cards) - cards).tolist()))
    for start in range(0, len(shifts), len(keys)):
        batch = shifts[start : start + len(keys)]
        rows = keys[: len(batch)]
        for row, (f, offset) in zip(rows, batch):
            np.add(codes[f], offset, out=row)
        rows += cell_base
        joint += np.bincount(rows.ravel(), minlength=joint.size)
    cells = np.flatnonzero(joint)
    table = np.repeat(np.arange(live.size), cards)[cells % width]
    ordered = np.sort(table * (n + 1) + joint[cells])
    h_joint = discretize.segment_entropies(
        (ordered % (n + 1)).astype(float), np.bincount(table, minlength=live.size), n
    )
    h_sum = hx[live] + hy
    su[live] = np.clip(2.0 * (h_sum - h_joint) / h_sum, 0.0, 1.0)  # 2*IG/(H(X)+H(Y))
    return su


def _scores(codes, cards, yc: np.ndarray, ny: int, scorer: str) -> list[float]:
    """``scorer`` of each code array in ``codes`` against ``yc``."""
    if not codes:
        return []
    if len(yc) == 0:
        raise ValueError("contingency table is empty")
    if scorer != "su":
        return _class_scores(codes, cards, yc, ny, scorer)
    *hx, hy = _column_entropies([*codes, yc], [*cards, ny]).tolist()
    return _su_scores(codes, np.asarray(cards), np.array(hx), yc, ny, hy).tolist()


def _column_score(x, y, scorer: str) -> float:
    """``scorer`` of raw column ``x`` against raw column ``y``, by :func:`_scores`."""
    xc, xv = encode(x)
    yc, yv = encode(y)
    if len(xc) != len(yc):
        raise ValueError("columns must have the same length")
    if len(xc) == 0:
        raise ValueError("columns are empty")
    return _scores([xc], [len(xv)], yc, len(yv), scorer)[0]


def info_gain(x, y) -> float:
    """Mutual information IG(X;Y) = H(Y) - H(Y|X), in bits."""
    return _column_score(x, y, "ig")


def gain_ratio(x, y) -> float:
    """IG(X;Y) / H(X); zero for a constant feature."""
    return _column_score(x, y, "gainratio")


def symmetrical_uncertainty(a, b) -> float:
    """2*IG/(H(A)+H(B)), clamped to [0, 1]; zero if either side is constant.

    Bit-identical under swapping ``a`` and ``b``.
    """
    return _column_score(a, b, "su")


class CorrelationCache:
    """Symmetrical-uncertainty correlations for one discrete dataset.

    Feature-class values are computed when the cache is built. Feature-feature
    values live in a dense table indexed by 1-based feature numbers, filled
    by :meth:`su_arrays` only; entries are symmetric and lie in [0, 1].
    """

    def __init__(self, ds: Dataset):
        check_discrete(ds, "selection")
        if len(ds) == 0:
            raise ValueError("cannot correlate an empty dataset")
        self.n_features = len(ds.schema)
        self._codes = (None,) + ds.codes
        cards = [len(v) for v in ds.vocabs]
        ncls = len(ds.label_vocab)
        *h, hy = _column_entropies([*ds.codes, ds.label_codes], [*cards, ncls]).tolist()
        self._cards = np.array([0, *cards])
        self._h = np.array([0.0, *h])
        class_su = _su_scores(ds.codes, self._cards[1:], self._h[1:], ds.label_codes, ncls, hy)
        self._class_su = np.array([0.0, *class_su])
        self._ff = np.full((self.n_features + 1, self.n_features + 1), np.nan)
        self._ff[0, :] = self._ff[:, 0] = 0.0  # no feature 0
        np.fill_diagonal(self._ff, [1.0 if h > 0 else 0.0 for h in self._h])

    def _fill(self, i: int, js: np.ndarray) -> None:
        codes = [self._codes[j] for j in js.tolist()]
        row = (self._codes[i], self._cards[i], self._h[i])
        self._ff[i, js] = self._ff[js, i] = _su_scores(codes, self._cards[js], self._h[js], *row)

    def su_arrays(
        self, members: Iterable[int], among: Iterable[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature-class vector and feature-feature table, the pairs asked for filled.

        Each of ``members`` gets its missing pairs with ``among`` in one
        kernel call. Both arrays are indexed by 1-based feature number and
        are the cache's own arrays, not copies.
        """
        among = np.array(sorted(set(among)), dtype=np.int64)
        for i in members:
            missing = among[np.isnan(self._ff[i, among])]
            if missing.size:
                self._fill(i, missing)
        return self._class_su, self._ff


def _sum_left_to_right(values) -> float:
    # builtin sum() compensates its rounding on Python >= 3.12
    total = 0.0
    for v in values:
        total += v
    return total


def cfs_merit(subset, cache) -> float:
    """CFS merit k*rcf / sqrt(k + k(k-1)*rff) of a feature subset.

    ``subset`` may be a FeatureSubset or an iterable of 1-based indices;
    ``cache`` is anything exposing ``su_arrays(members, among)``. The merit
    is the searches' own :func:`_extension_merits` step over the sorted
    members, so it is bit-identical under permutation of the members and to
    the merit a search reports for the same subset.
    """
    indices = sorted(subset.indices if isinstance(subset, FeatureSubset) else subset)
    return _extension_merits(cache, indices[:-1], indices[-1:])[0] if indices else 0.0


def _extension_merits(cache, base, candidates) -> list[float]:
    """CFS merit of ``base + [i]`` for every candidate ``i``: the one merit implementation.

    ``cache`` exposes ``su_arrays(members, among)``. Each candidate subset's
    correlations are added left to right (the last column of ``np.cumsum``)
    over its sorted members and over its pairs in ``combinations`` order
    (``np.triu_indices``); ``np.sum`` adds pairwise and would change the low bits.
    """
    cands = np.asarray(candidates, dtype=np.int64)
    if cands.size == 0:
        return []
    class_su, table = cache.su_arrays(base, [*base, *candidates])
    k = len(base) + 1
    members = np.tile(np.asarray(base, dtype=np.int64), (cands.size, 1))
    members = np.sort(np.concatenate([members, cands[:, None]], axis=1), axis=1)
    rcf = np.cumsum(class_su[members], axis=1)[:, -1] / k
    if k == 1:
        return rcf.tolist()
    a, b = np.triu_indices(k, 1)
    rff = np.cumsum(table[members[:, a], members[:, b]], axis=1)[:, -1] / len(a)
    return (k * rcf / np.sqrt(k + k * (k - 1) * rff)).tolist()


def _greedy_path(cache: CorrelationCache) -> list[tuple[int, float]]:
    """Accepted (feature, merit) steps of the greedy forward search."""
    current: list[int] = []
    current_merit = 0.0
    remaining = list(range(1, cache.n_features + 1))
    path: list[tuple[int, float]] = []
    while remaining:
        merits = _extension_merits(cache, current, remaining)
        best = int(np.argmax(merits))  # the first maximum: ties go to the smallest index
        if merits[best] <= current_merit:
            break
        current.append(remaining.pop(best))
        current_merit = merits[best]
        path.append((current[-1], current_merit))
    return path


def greedy_forward_search(ds: Dataset, cache: CorrelationCache | None = None) -> FeatureSubset:
    """Grow a subset one feature at a time while CFS merit strictly improves."""
    check_discrete(ds, "selection")
    cache = cache or CorrelationCache(ds)
    path = _greedy_path(cache)
    indices = tuple(sorted(i for i, _ in path))
    merit = path[-1][1] if path else 0.0
    return FeatureSubset(indices=indices, merit=merit)


def best_first_search(ds: Dataset, cache: CorrelationCache | None = None) -> FeatureSubset:
    """Best-first search over subsets keyed by CFS merit.

    Expands the open subset with the highest merit, adding one feature at a
    time, and stops after ``BEST_FIRST_STALE_LIMIT`` consecutive non-improving
    expansions (or when the open list is exhausted).
    """
    check_discrete(ds, "selection")
    cache = cache or CorrelationCache(ds)
    start: tuple[int, ...] = ()
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, start)]
    visited = {start}
    best_subset, best_merit = start, 0.0
    stale = 0
    while heap:
        neg_merit, subset = heapq.heappop(heap)
        merit = -neg_merit
        if merit > best_merit:
            best_subset, best_merit = subset, merit
            stale = 0
        else:
            stale += 1
            if stale >= BEST_FIRST_STALE_LIMIT:
                break
        members = set(subset)
        candidates, children = [], []
        for i in range(1, cache.n_features + 1):
            if i in members:
                continue
            child = tuple(sorted(members | {i}))
            if child in visited:
                continue
            visited.add(child)
            candidates.append(i)
            children.append(child)
        for child, child_merit in zip(children, _extension_merits(cache, subset, candidates)):
            heapq.heappush(heap, (-child_merit, child))
    return FeatureSubset(indices=best_subset, merit=best_merit)


def rank_threshold(
    ds: Dataset,
    scorer: str,
    alpha: float,
    include: Iterable[int] | None = None,
) -> RankedFeatures:
    """Score features against the class and keep the top-scoring ones.

    Scores are normalized by the maximum score over the considered features;
    a feature is retained when its normalized score is at least ``alpha``.
    Returns retained features in descending raw-score order. An all-zero
    score vector yields an empty ranking.
    """
    check_discrete(ds, "selection")
    if scorer not in _SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}; expected one of {list(_SCORERS)}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    considered = (
        sorted(set(int(i) for i in include))
        if include is not None
        else list(range(1, len(ds.schema) + 1))
    )
    scores = _scores(
        [ds.codes[i - 1] for i in considered],
        [len(ds.vocabs[i - 1]) for i in considered],
        ds.label_codes,
        len(ds.label_vocab),
        scorer,
    )
    scored = list(zip(considered, scores))
    max_score = max((s for _, s in scored), default=0.0)
    if max_score <= 0.0:
        return RankedFeatures(entries=())
    kept = [(i, s) for i, s in scored if s / max_score >= alpha]
    kept.sort(key=lambda e: (-e[1], e[0]))
    return RankedFeatures(entries=tuple(kept))


def run_selection(ds: Dataset, method: str, alpha: float) -> SelectionResult:
    """Dispatch one of the named selection methods against a discrete dataset."""
    if method not in SELECTION_METHODS:
        raise ValueError(
            f"unknown selection method {method!r}; expected one of {SELECTION_METHODS}"
        )
    if method == "cfs-greedy":
        subset = greedy_forward_search(ds)
        return SelectionResult(method=method, alpha=None, subset=subset)
    if method == "cfs-bestfirst":
        subset = best_first_search(ds)
        return SelectionResult(method=method, alpha=None, subset=subset)
    if method == "hybrid":
        # Union of the greedy CFS subset and the information-gain leaders
        # among the features CFS left out.
        check_discrete(ds, "selection")
        cache = CorrelationCache(ds)
        cfs = greedy_forward_search(ds, cache)
        rest = [i for i in range(1, len(ds.schema) + 1) if i not in cfs.indices]
        ranked = rank_threshold(ds, "ig", alpha, include=rest)
        union = tuple(sorted(set(cfs.indices) | set(ranked.indices)))
        return SelectionResult(
            method=method,
            alpha=alpha,
            subset=FeatureSubset(indices=union, merit=cfs_merit(union, cache)),
            ranking=ranked,
            components={"cfs": cfs.indices, "ig-added": ranked.indices},
        )
    scorer = {"ig": "ig", "gainratio": "gainratio", "correlation": "su"}[method]
    ranked = rank_threshold(ds, scorer, alpha)
    subset = FeatureSubset(indices=tuple(sorted(ranked.indices)))
    return SelectionResult(method=method, alpha=alpha, subset=subset, ranking=ranked)


class Preprocessing(NamedTuple):
    """Discretizer and selection fitted on one dataset, and its reduced form."""

    discretizer: discretize.DiscretizationModel
    selection: SelectionResult
    reduced: Dataset  # discretized, projected onto the selected features

    def transform(self, ds: Dataset) -> Dataset:
        """Discretize ``ds``, then project it onto the selected features."""
        binned = discretize.apply_discretizer(self.discretizer, ds)
        return binned.project(self.selection.subset.indices)


def fit_preprocessing(ds: Dataset, config) -> Preprocessing:
    """Fit the configured discretizer, then the selection, on ``ds``."""
    dmodel = discretize.fit_discretizer(ds)
    dds = discretize.apply_discretizer(dmodel, ds)
    selection = run_selection(dds, config.selection.method, config.selection.alpha)
    return Preprocessing(dmodel, selection, dds.project(selection.subset.indices))
