"""Feature scoring and subset selection on fully discrete datasets.

Individual features are scored against the class by information gain, gain
ratio or symmetrical uncertainty; subsets are scored by the CFS merit
heuristic (high mean feature-class correlation, low mean feature-feature
intercorrelation, both measured as symmetrical uncertainty). Greedy-forward
and best-first searches optimize merit; the hybrid selector unions the
greedy CFS subset with top information-gain features drawn from the rest.

Feature indices are 1-based relative to the dataset schema. Ties always
break toward the smallest feature index.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .data import Dataset, check_discrete, encode, json_text
from .discretize import entropy

SELECTION_METHODS = (
    "cfs-greedy",
    "cfs-bestfirst",
    "ig",
    "gainratio",
    "correlation",
    "hybrid",
)

BEST_FIRST_STALE_LIMIT = 5


@dataclass(eq=False)
class ContingencyTable:
    """Joint counts over (feature value, class label) pairs."""

    counts: np.ndarray

    def __post_init__(self):
        if self.counts.ndim != 2:
            raise ValueError("contingency counts must be 2-dimensional")
        if (self.counts < 0).any():
            raise ValueError("contingency counts must be non-negative")
        if self.counts.sum() <= 0:
            raise ValueError("contingency table is empty")

    @classmethod
    def from_columns(cls, x, y) -> "ContingencyTable":
        xc, xv = encode(x)
        yc, yv = encode(y)
        if len(xc) != len(yc):
            raise ValueError("columns must have the same length")
        if len(xc) == 0:
            raise ValueError("columns are empty")
        return cls.from_codes(xc, len(xv), yc, len(yv))

    @classmethod
    def from_codes(cls, xc, nx: int, yc, ny: int) -> "ContingencyTable":
        """Table of two code arrays over vocabularies of sizes ``nx`` and ``ny``."""
        joint = np.bincount(xc * ny + yc, minlength=nx * ny).astype(float)
        return cls(counts=joint.reshape(nx, ny))

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def _conditional_entropy(table: ContingencyTable) -> float:
    """H(Y|X) where rows of the table index X values."""
    total = table.total
    h = 0.0
    for row in table.counts:
        row_total = row.sum()
        if row_total > 0:
            h += (row_total / total) * entropy(row)
    return h


def _ig_from_table(table: ContingencyTable) -> float:
    return entropy(table.col_totals) - _conditional_entropy(table)


def _gain_ratio_from_table(table: ContingencyTable) -> float:
    hx = entropy(table.row_totals)
    if hx == 0.0:
        return 0.0
    return _ig_from_table(table) / hx


def info_gain(x, y) -> float:
    """Mutual information IG(X;Y) = H(Y) - H(Y|X), in bits."""
    return _ig_from_table(ContingencyTable.from_columns(x, y))


def gain_ratio(x, y) -> float:
    """IG(X;Y) / H(X); zero for a constant feature."""
    return _gain_ratio_from_table(ContingencyTable.from_columns(x, y))


def _su_value(ha: float, hb: float, h_joint: float) -> float:
    """2*(H(A)+H(B)-H(A,B))/(H(A)+H(B)), clamped to [0, 1]."""
    su = 2.0 * (ha + hb - h_joint) / (ha + hb)
    return min(1.0, max(0.0, su))


def _su_from_table(table: ContingencyTable) -> float:
    """Symmetrical uncertainty of a table; zero if either marginal is constant.

    The joint entropy sums counts in sorted order, so the result is
    bit-identical under transposition of the table.
    """
    ha = entropy(table.row_totals)
    hb = entropy(table.col_totals)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    joint = np.sort(table.counts.ravel())
    return _su_value(ha, hb, entropy(joint[joint > 0]))


def symmetrical_uncertainty(a, b) -> float:
    """2*IG/(H(A)+H(B)), clamped to [0, 1]; zero if either side is constant."""
    return _su_from_table(ContingencyTable.from_columns(a, b))


class CorrelationCache:
    """Symmetrical-uncertainty correlations for one discrete dataset.

    Feature-class values are computed when the cache is built. Feature-feature
    values live in a dense table indexed by 1-based feature numbers, filled
    one row at a time by :meth:`su_arrays` or one entry at a time by
    :meth:`feature_feature`; entries are symmetric and lie in [0, 1].
    """

    def __init__(self, ds: Dataset):
        check_discrete(ds, "selection")
        if len(ds) == 0:
            raise ValueError("cannot correlate an empty dataset")
        self.n_features = len(ds.schema)
        self._codes = (None,) + ds.codes
        self._cards = (0,) + tuple(len(v) for v in ds.vocabs)
        # Marginal entropies from the same bincount as a contingency table's
        # row totals, so each is bitwise equal to entropy(table.row_totals).
        self._h = [0.0] + [
            entropy(np.bincount(c, minlength=n))
            for c, n in zip(self._codes[1:], self._cards[1:])
        ]
        ncls = len(ds.label_vocab)
        hy = entropy(np.bincount(ds.label_codes, minlength=ncls))
        self._class_su = np.array(
            [0.0]
            + [
                self._su(self._codes[i], self._h[i], ds.label_codes, ncls, hy)
                for i in range(1, self.n_features + 1)
            ]
        )
        self._ff = np.full((self.n_features + 1, self.n_features + 1), np.nan)
        self._ff[0, :] = self._ff[:, 0] = 0.0  # no feature 0
        np.fill_diagonal(self._ff, [1.0 if h > 0 else 0.0 for h in self._h])

    @staticmethod
    def _su(xc, hx: float, yc, ny: int, hy: float) -> float:
        """SU of two code arrays with known marginal entropies; ``ny`` codes ``yc``."""
        if hx == 0.0 or hy == 0.0:
            return 0.0
        joint = np.bincount(xc * ny + yc)
        # entropy() of the sorted positive counts, without its input checks:
        # the same float counts, total, p and sum, so the same bits
        c = np.sort(joint[joint > 0]).astype(float)
        p = c / c.sum()
        return _su_value(hx, hy, float(-(p * np.log2(p)).sum()))

    def _pair(self, i: int, j: int) -> float:
        su = self._su(self._codes[i], self._h[i], self._codes[j], self._cards[j], self._h[j])
        self._ff[i, j] = self._ff[j, i] = su
        return su

    def feature_class(self, i: int) -> float:
        return float(self._class_su[i])

    def feature_feature(self, i: int, j: int) -> float:
        su = self._ff[i, j]
        return self._pair(i, j) if np.isnan(su) else float(su)

    def su_arrays(self, members: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Feature-class vector and feature-feature table, rows of ``members`` filled.

        Both are indexed by 1-based feature number and are the cache's own
        arrays, not copies.
        """
        for i in members:
            for j in np.flatnonzero(np.isnan(self._ff[i])).tolist():
                self._pair(i, j)
        return self._class_su, self._ff


@dataclass(frozen=True)
class FeatureSubset:
    """Unordered selection outcome: sorted 1-based indices plus CFS merit."""

    indices: tuple[int, ...]
    merit: float = 0.0

    def __post_init__(self):
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("subset indices must be sorted and unique")


@dataclass(frozen=True)
class RankedFeatures:
    """(index, score) pairs in descending score order, ties by index."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        scores = [s for _, s in self.entries]
        if any(not math.isfinite(s) for s in scores):
            raise ValueError("ranked scores must be finite")
        keys = [(-s, i) for i, s in self.entries]
        if keys != sorted(keys):
            raise ValueError("entries must be sorted by descending score")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)


def _sum_left_to_right(values) -> float:
    # builtin sum() compensates its rounding on Python >= 3.12
    total = 0.0
    for v in values:
        total += v
    return total


def cfs_merit(subset, cache) -> float:
    """CFS merit k*rcf / sqrt(k + k(k-1)*rff) of a feature subset.

    ``subset`` may be a FeatureSubset or an iterable of 1-based indices;
    ``cache`` is anything exposing feature_class(i) and feature_feature(i, j).
    Correlations are added left to right over the sorted members and their
    pairs in ``combinations`` order, so the result is bit-identical under
    permutation of the members.
    """
    indices = sorted(subset.indices if isinstance(subset, FeatureSubset) else subset)
    k = len(indices)
    if k == 0:
        return 0.0
    rcf = _sum_left_to_right(cache.feature_class(i) for i in indices) / k
    if k == 1:
        return rcf
    pairs = list(combinations(indices, 2))
    rff = _sum_left_to_right(cache.feature_feature(i, j) for i, j in pairs) / len(pairs)
    return k * rcf / math.sqrt(k + k * (k - 1) * rff)


def _extension_merits(cache, base, candidates) -> list[float]:
    """``cfs_merit(base + [i], cache)`` for every candidate ``i``, bit for bit.

    ``cache`` exposes ``su_arrays(base)``. Each candidate subset's
    correlations are added left to right (the last column of ``np.cumsum``)
    over its sorted members and over its pairs in ``combinations`` order
    (``np.triu_indices``), exactly as cfs_merit adds them; ``np.sum`` adds
    pairwise and would change the low bits.
    """
    cands = np.asarray(candidates, dtype=np.int64)
    if cands.size == 0:
        return []
    class_su, table = cache.su_arrays(base)
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


def best_first_search(
    ds: Dataset,
    cache: CorrelationCache | None = None,
    stale_limit: int = BEST_FIRST_STALE_LIMIT,
) -> FeatureSubset:
    """Best-first search over subsets keyed by CFS merit.

    Expands the open subset with the highest merit, adding one feature at a
    time, and stops after ``stale_limit`` consecutive non-improving
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
            if stale >= stale_limit:
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


def _class_table(ds: Dataset, i: int) -> ContingencyTable:
    """(value, class) counts of feature i."""
    return ContingencyTable.from_codes(
        ds.codes[i - 1], len(ds.vocabs[i - 1]), ds.label_codes, len(ds.label_vocab)
    )


# Scores of one (feature value, class) table, by scorer name.
_SCORERS = {"ig": _ig_from_table, "gainratio": _gain_ratio_from_table, "su": _su_from_table}


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
    score_fn = _SCORERS[scorer]
    considered = (
        sorted(set(int(i) for i in include))
        if include is not None
        else list(range(1, len(ds.schema) + 1))
    )
    scored = [(i, float(score_fn(_class_table(ds, i)))) for i in considered]
    max_score = max((s for _, s in scored), default=0.0)
    if max_score <= 0.0:
        return RankedFeatures(entries=())
    kept = [(i, s) for i, s in scored if s / max_score >= alpha]
    kept.sort(key=lambda e: (-e[1], e[0]))
    return RankedFeatures(entries=tuple(kept))


@dataclass(frozen=True)
class SelectionResult:
    """Serializable outcome of one selection run."""

    method: str
    alpha: float | None
    subset: FeatureSubset
    ranking: RankedFeatures | None = None
    components: Mapping[str, tuple[int, ...]] | None = None

    def to_payload(self) -> dict:
        payload: dict = {
            "version": 1,
            "method": self.method,
            "alpha": self.alpha,
            "indices": list(self.subset.indices),
            "merit": self.subset.merit,
        }
        if self.ranking is not None:
            payload["ranking"] = [[i, s] for i, s in self.ranking.entries]
        if self.components is not None:
            payload["components"] = {k: list(v) for k, v in self.components.items()}
        return payload

    def to_json(self) -> str:
        return json_text(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SelectionResult":
        ranking = None
        if "ranking" in payload:
            ranking = RankedFeatures(
                entries=tuple((int(i), float(s)) for i, s in payload["ranking"])
            )
        components = None
        if "components" in payload:
            components = {
                str(k): tuple(int(i) for i in v)
                for k, v in payload["components"].items()
            }
        return cls(
            method=str(payload["method"]),
            alpha=None if payload.get("alpha") is None else float(payload["alpha"]),
            subset=FeatureSubset(
                indices=tuple(int(i) for i in payload["indices"]),
                merit=float(payload.get("merit", 0.0)),
            ),
            ranking=ranking,
            components=components,
        )


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
