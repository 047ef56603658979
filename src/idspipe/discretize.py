"""Supervised entropy-minimization discretization with an MDL stopping rule.

Continuous features are split recursively at class-boundary midpoints; a
split is kept only when its information gain beats the minimum-description-
length cost of encoding it. Fitted cut points map values into bins with the
left-closed convention ``cuts[i-1] <= v < cuts[i]`` (bin 0 below the first
cut), so out-of-range values land in the first or last bin.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSchema, encode, json_text
from .errors import SchemaError


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a count distribution.

    Accepts a mapping label -> count or an array of counts; counts may be
    fractional (instance weights). Raises on an all-zero distribution.
    """
    if isinstance(class_counts, Mapping):
        counts = np.asarray(list(class_counts.values()), dtype=float)
    else:
        counts = np.asarray(class_counts, dtype=float)
    if counts.size and (counts < 0).any():
        raise ValueError("negative class counts")
    total = counts.sum()
    if not counts.size or total <= 0:
        raise ValueError("entropy undefined for an all-zero count distribution")
    p = counts[counts > 0] / total
    p = p[p > 0]  # counts tiny enough to underflow contribute nothing
    return float(-(p * np.log2(p)).sum())


def segment_entropies(counts: np.ndarray, lengths: np.ndarray, totals) -> np.ndarray:
    """:func:`entropy` of consecutive segments of a flat array of positive counts.

    Segment s is the next ``lengths[s]`` entries of ``counts`` and sums to
    ``totals[s]`` (or to ``totals``, a scalar). The terms of all segments
    are computed at once and each segment's are summed as one contiguous
    1-D array, as ``entropy`` sums them, so the results are bitwise equal.
    """
    p = counts / np.repeat(np.broadcast_to(totals, lengths.shape), lengths)
    terms = p * np.log2(p)
    ends = np.cumsum(lengths).tolist()
    return np.array([-np.add.reduce(terms[a:b]) for a, b in zip([0, *ends], ends)])


def _row_entropies(counts: np.ndarray) -> np.ndarray:
    """Entropy of each row of a (rows, classes) count matrix; empty rows -> 0."""
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / np.where(totals > 0, totals, 1.0)
    terms = np.where(counts > 0, p, 1.0)
    np.log2(terms, out=terms)
    terms *= p
    return -terms.sum(axis=1)


def mdlp_cuts(values, labels) -> list[float]:
    """Recursive binary MDL splitting of one continuous feature.

    Candidate thresholds are the midpoints between adjacent distinct values
    whose neighborhoods hold differing class labels: the entropy-minimizing
    cut always lies on such a class boundary (Fayyad & Irani 1993), so the
    other midpoints are never examined. Ties between equal-entropy
    candidates break toward the smallest threshold. Returns accepted
    thresholds in ascending order.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if values.shape[0] != labels.shape[0]:
        raise ValueError("values and labels must have the same length")
    if values.size == 0:
        return []
    codes, vocab = encode(values)
    y, classes = encode(labels)
    return _mdlp_cuts([(codes, vocab)], y, len(classes))[0]


def _stacked_groups(columns, y: np.ndarray, n_classes: int):
    """Distinct-value groups of all columns, stacked column after column.

    Returns each group's value, column and class counts (floats). One
    bincount per column fills one count table, so no key matrix of all
    columns is held.
    """
    sizes = [len(vocab) for _, vocab in columns]
    counts = np.empty((sum(sizes), n_classes), dtype=np.int64)
    start = 0
    for (codes, _), size in zip(columns, sizes):
        table = np.bincount(codes * n_classes + y, minlength=size * n_classes)
        counts[start : start + size] = table.reshape(size, n_classes)
        start += size
    present = counts.any(axis=1)
    values = np.concatenate([np.asarray(v, dtype=float) for _, v in columns])
    column = np.repeat(np.arange(len(columns)), sizes)
    return values[present], column[present], counts[present].astype(float)


# Candidate cuts scored together; bounds the temporaries of one level.
_BATCH = 1024


def _best_splits(prefix, boundaries, lo, hi, first, n_cand) -> np.ndarray:
    """The stacked group after which each block [lo, hi) splits, or -1 if MDL rejects it.

    A block's candidate cuts are ``boundaries[first : first + n_cand]``
    (at least one); ``prefix`` holds the class counts before each group.
    """
    block = np.repeat(np.arange(len(lo)), n_cand)
    start = np.cumsum(n_cand) - n_cand
    cand = boundaries[np.arange(len(block)) - start[block] + first[block]]

    total = prefix[hi] - prefix[lo]
    n = total.sum(axis=1)
    left = prefix[cand + 1] - prefix[lo][block]
    right = total[block] - left
    n_left = left.sum(axis=1)
    n_right = n[block] - n_left
    h_left, h_right = _row_entropies(np.concatenate([left, right])).reshape(2, -1)
    child_entropy = (n_left * h_left + n_right * h_right) / n[block]

    # The first minimum of each block, as np.argmin takes it.
    lowest = np.minimum.reduceat(child_entropy, start)
    hits = np.flatnonzero(child_entropy == lowest[block])
    b = hits[np.concatenate(([True], block[hits[1:]] != block[hits[:-1]]))]

    positive = total > 0
    k = positive.sum(axis=1)
    h_parent = segment_entropies(total[positive], k, n)
    gain = h_parent - child_entropy[b]
    k1 = (left[b] > 0).sum(axis=1)
    k2 = (right[b] > 0).sum(axis=1)
    keep = [
        g > (math.log2(nn - 1) + (math.log2(3**kk - 2) - (kk * hp - kk1 * hl - kk2 * hr))) / nn
        for g, nn, kk, hp, kk1, hl, kk2, hr in zip(
            gain.tolist(), n.tolist(), k.tolist(), h_parent.tolist(),
            k1.tolist(), h_left[b].tolist(), k2.tolist(), h_right[b].tolist(),
        )
    ]
    return np.where(keep, cand[b], -1)


def _mdlp_cuts(columns, y: np.ndarray, n_classes: int) -> list[list[float]]:
    """:func:`mdlp_cuts` of every column at once, one recursion level at a time.

    ``columns`` holds one ``(codes, vocab)`` pair per feature, ``vocab``
    ascending and ``vocab[codes]`` the values; ``y < n_classes`` are the
    class codes of the same records. Vocabulary values no record takes are
    dropped. Returns each column's cuts.
    """
    if not columns:
        return []
    group_values, group_column, group_counts = _stacked_groups(columns, y, n_classes)
    # prefix[g] = class counts of the stacked groups before g. Counts are
    # integers held in floats, so differences of prefix rows are exact.
    prefix = np.zeros((len(group_counts) + 1, n_classes))
    np.cumsum(group_counts, axis=0, out=prefix[1:])

    # Candidate cut after stacked group g (between g and g+1): every class
    # boundary, i.e. not between two pure groups of one class. Positions
    # between two columns are never inside a block.
    group_pure = (group_counts > 0).sum(axis=1) == 1
    group_class = group_counts.argmax(axis=1)
    boundaries = np.flatnonzero(
        ~(group_pure[:-1] & group_pure[1:] & (group_class[:-1] == group_class[1:]))
    )

    # Blocks [lo, hi) of stacked groups still to split; every column starts
    # as one. Each level scores whole blocks, about _BATCH candidates at a time.
    lo = np.searchsorted(group_column, np.arange(len(columns)))
    hi = np.searchsorted(group_column, np.arange(len(columns)), side="right")
    accepted = []
    while lo.size:
        first = np.searchsorted(boundaries, lo)
        n_cand = np.searchsorted(boundaries, hi - 1) - first
        splittable = n_cand > 0
        if not splittable.any():
            break
        lo, hi, first, n_cand = (a[splittable] for a in (lo, hi, first, n_cand))
        batch = (np.cumsum(n_cand) - n_cand) // _BATCH
        edges = [*np.flatnonzero(np.diff(batch, prepend=-1)).tolist(), len(lo)]
        best = np.concatenate(
            [
                _best_splits(prefix, boundaries, lo[s:e], hi[s:e], first[s:e], n_cand[s:e])
                for s, e in zip(edges, edges[1:])
            ]
        )
        keep = best >= 0
        cut = best[keep]
        accepted.append(cut)
        lo, hi = np.concatenate([lo[keep], cut + 1]), np.concatenate([cut + 1, hi[keep]])

    cuts = np.concatenate(accepted) if accepted else np.zeros(0, dtype=np.int64)
    values = (group_values[cuts] + group_values[cuts + 1]) / 2
    column = group_column[cuts]
    order = np.lexsort((values, column))
    bounds = np.searchsorted(column[order], np.arange(1, len(columns)))
    return [part.tolist() for part in np.split(values[order], bounds)]


@dataclass(frozen=True)
class CutPointList:
    """Ascending thresholds for one feature; empty list means a single bin."""

    feature_index: int
    cuts: tuple[float, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValueError("cut points must be strictly increasing")

    @property
    def n_bins(self) -> int:
        return len(self.cuts) + 1


@dataclass(frozen=True)
class DiscretizationModel:
    """Per-feature cut points covering every continuous feature of a schema."""

    schema: FeatureSchema
    cut_lists: tuple[CutPointList, ...]

    def __post_init__(self):
        covered = tuple(c.feature_index for c in self.cut_lists)
        if covered != self.schema.continuous_indices:
            raise SchemaError(
                "cut lists must cover exactly the schema's continuous features"
            )

    def to_payload(self) -> dict:
        return {
            "version": 1,
            "schema": self.schema.to_payload(),
            "cuts": {str(c.feature_index): list(c.cuts) for c in self.cut_lists},
        }

    def to_json(self) -> str:
        return json_text(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping) -> "DiscretizationModel":
        schema = FeatureSchema.from_payload(payload["schema"])
        cut_lists = tuple(
            CutPointList(idx, tuple(float(c) for c in payload["cuts"][str(idx)]))
            for idx in schema.continuous_indices
        )
        return cls(schema=schema, cut_lists=cut_lists)


def fit_discretizer(train: Dataset) -> DiscretizationModel:
    """Fit MDL cut points for every continuous feature against the labels."""
    if len(train) == 0:
        raise ValueError("cannot fit a discretizer on an empty dataset")
    # Class codes over the classes of the training rows only, as
    # encode(train.labels) gives them: a class column of zeros would change
    # the low bits of the MDLP entropy sums.
    present = np.bincount(train.label_codes, minlength=len(train.label_vocab)) > 0
    y = (np.cumsum(present) - 1)[train.label_codes]
    n_classes = int(present.sum())
    indices = train.schema.continuous_indices
    columns = [(train.codes[i - 1], train.vocabs[i - 1]) for i in indices]
    cuts = _mdlp_cuts(columns, y, n_classes)
    cut_lists = tuple(CutPointList(i, tuple(c)) for i, c in zip(indices, cuts))
    return DiscretizationModel(schema=train.schema, cut_lists=cut_lists)


def apply_discretizer(model: DiscretizationModel, ds: Dataset) -> Dataset:
    """Replace continuous values by bin indices; output is fully discrete.

    Each vocabulary value is binned once, and the codes pick the bins. The
    bins are the codes of a binned column, over the vocabulary of every bin
    number.
    """
    if ds.schema != model.schema:
        raise SchemaError("dataset schema does not match the discretization model")
    binned = {}
    for cpl in model.cut_lists:
        i = cpl.feature_index
        vocab = np.asarray(ds.vocabs[i - 1], dtype=float)
        bins = np.searchsorted(np.asarray(cpl.cuts), vocab, side="right").astype(np.int64)
        binned[i] = (bins[ds.codes[i - 1]], tuple(range(cpl.n_bins)))
    return ds.recode(ds.schema.all_discrete(), binned)
