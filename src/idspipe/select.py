"""Feature scoring and subset selection on fully discrete datasets.

Individual features are scored against the class by information gain, gain
ratio or symmetrical uncertainty; subsets are scored by the CFS merit
heuristic (high mean feature-class correlation, low mean feature-feature
intercorrelation, both measured as symmetrical uncertainty). Greedy-forward
and best-first searches optimize merit; the hybrid selector unions the
greedy CFS subset with top information-gain features drawn from the rest.

Each measure has one implementation. :func:`_class_scores` scores features
against the class, for the rankers, the correlation cache and the public
column scorers (:func:`info_gain`, :func:`gain_ratio`,
:func:`symmetrical_uncertainty`, which code their two columns and call it);
``CorrelationCache._su_row`` computes the feature-feature correlations.

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
from .discretize import entropy, segment_entropies

SELECTION_METHODS = (
    "cfs-greedy",
    "cfs-bestfirst",
    "ig",
    "gainratio",
    "correlation",
    "hybrid",
)

BEST_FIRST_STALE_LIMIT = 5


def _su_value(ha: float, hb: float, h_joint: float) -> float:
    """2*(H(A)+H(B)-H(A,B))/(H(A)+H(B)), clamped to [0, 1]."""
    su = 2.0 * (ha + hb - h_joint) / (ha + hb)
    return min(1.0, max(0.0, su))


# Scorers of a (feature value, class) table: information gain, gain ratio and
# symmetrical uncertainty.
_SCORERS = ("ig", "gainratio", "su")


def _class_scores(codes, cards, label_codes: np.ndarray, ncls: int, scorer: str) -> list[float]:
    """``scorer`` of each feature's (value, class) table.

    Feature f takes the codes ``codes[f]`` over ``cards[f]`` values, and
    the records' classes are ``label_codes`` over ``ncls`` classes. This is
    the one implementation of each measure: the selectors, the correlation
    cache's feature-class row and the public column scorers all call it.

    Each table's row, marginal and cell entropies come from one
    :func:`segment_entropies` call each, which sums every entropy's terms
    as :func:`entropy` does. H(Y|X) weights each value's class entropy by
    its share of the records and adds the values' terms left to right from
    0.0, in value order. SU sums a table's positive counts in ascending
    order, so it is bit-identical under transposing the table. A constant
    feature scores 0 by gain ratio and SU, and so does every feature by SU
    when there is one class.
    """
    if not codes:
        return []
    n = len(label_codes)
    if n == 0:
        raise ValueError("contingency table is empty")
    # every table's rows stacked, each row a (value, class) count vector
    joint = np.concatenate(
        [
            np.bincount(c * ncls + label_codes, minlength=card * ncls)
            for c, card in zip(codes, cards)
        ]
    ).reshape(-1, ncls)
    table = np.repeat(np.arange(len(codes)), cards)  # the table of each row
    hy = entropy(np.bincount(label_codes, minlength=ncls))
    totals = joint.sum(axis=1)
    live = totals > 0  # rows of values some record takes
    n_live = np.bincount(table[live], minlength=len(codes))
    live_totals = totals[live].astype(float)
    hx = segment_entropies(live_totals, n_live, n).tolist()  # H(X) of each table
    if scorer == "su":
        # each table's positive counts in ascending order: one sort of
        # (table, count) keys
        cell_rows, cell_cols = np.nonzero(joint)
        cell_table = table[cell_rows]
        ordered = np.sort(cell_table * (n + 1) + joint[cell_rows, cell_cols])
        h_joint = segment_entropies(
            (ordered % (n + 1)).astype(float), np.bincount(cell_table, minlength=len(codes)), n
        ).tolist()
        return [
            0.0 if ha == 0.0 or hy == 0.0 else _su_value(ha, hy, hj)
            for ha, hj in zip(hx, h_joint)
        ]
    rows = joint[live].astype(float)
    positive = rows > 0
    h_rows = segment_entropies(rows[positive], positive.sum(axis=1), live_totals)
    weighted = ((live_totals / float(n)) * h_rows).tolist()
    ends = np.cumsum(n_live).tolist()
    ig = [hy - _sum_left_to_right(weighted[a:b]) for a, b in zip([0, *ends], ends)]
    if scorer == "ig":
        return ig
    return [0.0 if h == 0.0 else g / h for g, h in zip(ig, hx)]


def _column_score(x, y, scorer: str) -> float:
    """``scorer`` of raw column ``x`` against raw column ``y``, by :func:`_class_scores`."""
    xc, xv = encode(x)
    yc, yv = encode(y)
    if len(xc) != len(yc):
        raise ValueError("columns must have the same length")
    if len(xc) == 0:
        raise ValueError("columns are empty")
    return _class_scores([xc], [len(xv)], yc, len(yv), scorer)[0]


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


# Key entries counted by one bincount of CorrelationCache._su_row: enough
# records and features to amortize the call, few enough that the key buffer
# stays at 128 KiB.
_KEY_BUDGET = 1 << 14


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
        self._cards = np.array([0] + [len(v) for v in ds.vocabs])
        # Key rows of one bincount, rewritten by every _su_row call
        self._keys = np.empty((max(1, _KEY_BUDGET // len(ds)), len(ds)), dtype=np.int64)
        # Marginal entropies of the value counts, as _class_scores sums them
        self._h = np.array(
            [0.0]
            + [
                entropy(np.bincount(c, minlength=n))
                for c, n in zip(ds.codes, self._cards[1:].tolist())
            ]
        )
        class_su = _class_scores(
            ds.codes, self._cards[1:].tolist(), ds.label_codes, len(ds.label_vocab), "su"
        )
        self._class_su = np.array([0.0, *class_su])
        self._ff = np.full((self.n_features + 1, self.n_features + 1), np.nan)
        self._ff[0, :] = self._ff[:, 0] = 0.0  # no feature 0
        np.fill_diagonal(self._ff, [1.0 if h > 0 else 0.0 for h in self._h])

    def _su_row(self, xc: np.ndarray, nx: int, hx: float, js: np.ndarray) -> np.ndarray:
        """SU of the code array ``xc`` (``nx`` codes, entropy ``hx``) with each feature in ``js``.

        One joint count array holds every table: the cell of a record in
        feature j's table is ``xc * width + offset_j + code_j``, where
        ``offset_j`` is the total card of the features before j and
        ``width`` that of all. Bincounts of as many features as the key
        buffer holds rows fill it. Each table's positive counts are then
        sorted (one sort of ``(table, count)`` keys) and summed as
        ``entropy`` sums them; the counts of a table add up to the record
        count.
        """
        su = np.zeros(len(js))
        live = np.flatnonzero(self._h[js] > 0)
        if hx == 0.0 or not live.size:
            return su  # SU with a constant column is 0
        features = js[live]
        cards = self._cards[features]
        width = int(cards.sum())
        cell_base = xc * width
        joint = np.zeros(nx * width, dtype=np.int64)
        shifts = list(zip(features.tolist(), (np.cumsum(cards) - cards).tolist()))
        for start in range(0, len(shifts), len(self._keys)):
            batch = shifts[start : start + len(self._keys)]
            keys = self._keys[: len(batch)]
            for row, (j, offset) in zip(keys, batch):
                np.add(self._codes[j], offset, out=row)
            keys += cell_base
            joint += np.bincount(keys.ravel(), minlength=joint.size)
        cells = np.flatnonzero(joint)
        table = np.repeat(np.arange(len(features)), cards)[cells % width]
        n = len(xc)
        ordered = np.sort(table * (n + 1) + joint[cells])
        h_joint = segment_entropies(
            (ordered % (n + 1)).astype(float), np.bincount(table, minlength=len(features)), n
        )
        su[live] = [
            _su_value(hx, hj, h) for hj, h in zip(self._h[features].tolist(), h_joint.tolist())
        ]
        return su

    def _fill(self, i: int, js: np.ndarray) -> None:
        su = self._su_row(self._codes[i], int(self._cards[i]), float(self._h[i]), js)
        self._ff[i, js] = self._ff[js, i] = su

    def feature_class(self, i: int) -> float:
        return float(self._class_su[i])

    def feature_feature(self, i: int, j: int) -> float:
        if np.isnan(self._ff[i, j]):
            self._fill(i, np.array([j]))
        return float(self._ff[i, j])

    def su_arrays(self, members: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Feature-class vector and feature-feature table, rows of ``members`` filled.

        Both are indexed by 1-based feature number and are the cache's own
        arrays, not copies.
        """
        for i in members:
            missing = np.flatnonzero(np.isnan(self._ff[i]))
            if missing.size:
                self._fill(i, missing)
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
    scores = _class_scores(
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
