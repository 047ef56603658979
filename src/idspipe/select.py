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
import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .data import Coding, Dataset, check_discrete, encode
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


def _su_from_table(table: ContingencyTable) -> float:
    """Symmetrical uncertainty via 2*(H(A)+H(B)-H(A,B))/(H(A)+H(B)).

    The joint entropy sums counts in sorted order, so the result is
    bit-identical under transposition of the table.
    """
    ha = entropy(table.row_totals)
    hb = entropy(table.col_totals)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    joint = np.sort(table.counts.ravel())
    h_joint = entropy(joint[joint > 0])
    su = 2.0 * (ha + hb - h_joint) / (ha + hb)
    return min(1.0, max(0.0, su))


def symmetrical_uncertainty(a, b) -> float:
    """2*IG/(H(A)+H(B)), clamped to [0, 1]; zero if either side is constant."""
    return _su_from_table(ContingencyTable.from_columns(a, b))


class CorrelationCache:
    """Memoized symmetrical-uncertainty correlations for one discrete dataset.

    Feature-class and feature-feature entries are computed on first use and
    shared across search steps; entries are symmetric and lie in [0, 1].
    """

    def __init__(self, ds: Dataset):
        check_discrete(ds, "selection")
        if len(ds) == 0:
            raise ValueError("cannot correlate an empty dataset")
        self.n_features = len(ds.schema)
        coding = ds.coding()
        self._codes = coding.columns
        self._cards = [len(v) for v in coding.vocabs]
        self._ycodes, self._ycard = coding.labels, len(coding.label_vocab)
        self._entropies: dict[int, float] = {}
        self._cf: dict[int, float] = {}
        self._ff: dict[tuple[int, int], float] = {}

    def _entropy_of(self, i: int) -> float:
        if i not in self._entropies:
            counts = np.bincount(self._codes[i - 1], minlength=self._cards[i - 1])
            self._entropies[i] = entropy(counts)
        return self._entropies[i]

    def _su_from_codes(self, xc, nx, yc, ny, hx, hy) -> float:
        if hx == 0.0 or hy == 0.0:
            return 0.0
        return _su_from_table(ContingencyTable.from_codes(xc, nx, yc, ny))

    def feature_class(self, i: int) -> float:
        if i not in self._cf:
            hy = entropy(np.bincount(self._ycodes, minlength=self._ycard))
            self._cf[i] = self._su_from_codes(
                self._codes[i - 1],
                self._cards[i - 1],
                self._ycodes,
                self._ycard,
                self._entropy_of(i),
                hy,
            )
        return self._cf[i]

    def feature_feature(self, i: int, j: int) -> float:
        if i == j:
            return 1.0 if self._entropy_of(i) > 0 else 0.0
        key = (min(i, j), max(i, j))
        if key not in self._ff:
            a, b = key
            self._ff[key] = self._su_from_codes(
                self._codes[a - 1],
                self._cards[a - 1],
                self._codes[b - 1],
                self._cards[b - 1],
                self._entropy_of(a),
                self._entropy_of(b),
            )
        return self._ff[key]


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


def cfs_merit(subset, cache) -> float:
    """CFS merit k*rcf / sqrt(k + k(k-1)*rff) of a feature subset.

    ``subset`` may be a FeatureSubset or an iterable of 1-based indices;
    ``cache`` is anything exposing feature_class(i) and feature_feature(i, j).
    The result is bit-identical under permutation of the members.
    """
    indices = sorted(subset.indices if isinstance(subset, FeatureSubset) else subset)
    k = len(indices)
    if k == 0:
        return 0.0
    rcf = sum(cache.feature_class(i) for i in indices) / k
    if k == 1:
        return rcf
    pairs = list(combinations(indices, 2))
    rff = sum(cache.feature_feature(i, j) for i, j in pairs) / len(pairs)
    return k * rcf / math.sqrt(k + k * (k - 1) * rff)


def _greedy_path(cache: CorrelationCache) -> list[tuple[int, float]]:
    """Accepted (feature, merit) steps of the greedy forward search."""
    current: list[int] = []
    current_merit = 0.0
    remaining = list(range(1, cache.n_features + 1))
    path: list[tuple[int, float]] = []
    while remaining:
        best_i = None
        best_merit = -math.inf
        for i in remaining:
            m = cfs_merit(current + [i], cache)
            if m > best_merit:
                best_i, best_merit = i, m
        if best_merit <= current_merit:
            break
        current.append(best_i)
        remaining.remove(best_i)
        current_merit = best_merit
        path.append((best_i, best_merit))
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
        for i in range(1, cache.n_features + 1):
            if i in members:
                continue
            child = tuple(sorted(members | {i}))
            if child in visited:
                continue
            visited.add(child)
            heapq.heappush(heap, (-cfs_merit(child, cache), child))
    return FeatureSubset(indices=best_subset, merit=best_merit)


def _class_table(coding: Coding, i: int) -> ContingencyTable:
    """(value, class) counts of feature i from a dataset's coding."""
    return ContingencyTable.from_codes(
        coding.columns[i - 1], len(coding.vocabs[i - 1]), coding.labels, len(coding.label_vocab)
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
    coding = ds.coding()
    scored = [(i, float(score_fn(_class_table(coding, i)))) for i in considered]
    max_score = max((s for _, s in scored), default=0.0)
    if max_score <= 0.0:
        return RankedFeatures(entries=())
    kept = [(i, s) for i, s in scored if s / max_score >= alpha]
    kept.sort(key=lambda e: (-e[1], e[0]))
    return RankedFeatures(entries=tuple(kept))


def hybrid_select(
    ds: Dataset, alpha: float, cache: CorrelationCache | None = None
) -> FeatureSubset:
    """Union of the greedy CFS subset and top information-gain leftovers."""
    return _hybrid_parts(ds, alpha, cache)[2]


def _hybrid_parts(
    ds: Dataset, alpha: float, cache: CorrelationCache | None = None
) -> tuple[FeatureSubset, RankedFeatures, FeatureSubset]:
    check_discrete(ds, "selection")
    cache = cache or CorrelationCache(ds)
    cfs = greedy_forward_search(ds, cache)
    rest = [i for i in range(1, len(ds.schema) + 1) if i not in cfs.indices]
    ranked = rank_threshold(ds, "ig", alpha, include=rest)
    union = tuple(sorted(set(cfs.indices) | set(ranked.indices)))
    return cfs, ranked, FeatureSubset(indices=union, merit=cfs_merit(union, cache))


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
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

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

    @classmethod
    def from_json(cls, text: str) -> "SelectionResult":
        return cls.from_payload(json.loads(text))


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
        cache = CorrelationCache(ds)
        cfs, ranked, union = _hybrid_parts(ds, alpha, cache)
        return SelectionResult(
            method=method,
            alpha=alpha,
            subset=union,
            ranking=ranked,
            components={"cfs": cfs.indices, "ig-added": ranked.indices},
        )
    scorer = {"ig": "ig", "gainratio": "gainratio", "correlation": "su"}[method]
    ranked = rank_threshold(ds, scorer, alpha)
    subset = FeatureSubset(indices=tuple(sorted(ranked.indices)))
    return SelectionResult(method=method, alpha=alpha, subset=subset, ranking=ranked)
