"""Supervised entropy-minimization discretization with an MDL stopping rule.

Continuous features are split recursively at class-boundary midpoints; a
split is kept only when its information gain beats the minimum-description-
length cost of encoding it. Fitted cut points map values into bins with the
left-closed convention ``cuts[i-1] <= v < cuts[i]`` (bin 0 below the first
cut), so out-of-range values land in the first or last bin.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
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


def _row_entropies(counts: np.ndarray) -> np.ndarray:
    """Entropy of each row of a (rows, classes) count matrix; empty rows -> 0."""
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    p = counts / safe
    return -(p * np.log2(np.where(counts > 0, p, 1.0))).sum(axis=1)


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
    return _mdlp_cuts(codes, np.asarray(vocab, dtype=float), y, len(classes))


def _mdlp_cuts(
    codes: np.ndarray, vocab: np.ndarray, y: np.ndarray, n_classes: int
) -> list[float]:
    """:func:`mdlp_cuts` of one feature coded over an ascending vocabulary.

    ``vocab[codes]`` are the values (at least one), ``y < n_classes`` the
    class codes. Vocabulary values no record takes are dropped.
    """
    # Distinct-value groups with per-group class counts, and prefix[g] =
    # class counts of the groups before g. Counts are integers held in
    # floats, so differences of prefix rows are exact.
    counts = np.bincount(codes * n_classes + y, minlength=len(vocab) * n_classes)
    counts = counts.reshape(len(vocab), n_classes)
    present = counts.any(axis=1)
    group_values = vocab[present]
    group_counts = counts[present].astype(float)
    n_groups = len(group_values)
    prefix = np.zeros((n_groups + 1, n_classes))
    np.cumsum(group_counts, axis=0, out=prefix[1:])

    group_pure = (group_counts > 0).sum(axis=1) == 1
    group_class = group_counts.argmax(axis=1)

    cuts: list[float] = []
    stack = [(0, n_groups)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        # Candidate cut after group position p (between p and p+1): every
        # class boundary, i.e. not between two pure groups of one class.
        same_pure = (
            group_pure[lo : hi - 1]
            & group_pure[lo + 1 : hi]
            & (group_class[lo : hi - 1] == group_class[lo + 1 : hi])
        )
        cand = np.flatnonzero(~same_pure)
        if not cand.size:
            continue

        total = prefix[hi] - prefix[lo]
        n = total.sum()
        left = prefix[lo + 1 + cand] - prefix[lo]
        right = total[None, :] - left
        n_left = left.sum(axis=1)
        n_right = n - n_left
        h_left, h_right = _row_entropies(np.concatenate([left, right])).reshape(2, -1)
        child_entropy = (n_left * h_left + n_right * h_right) / n

        b = int(np.argmin(child_entropy))
        best = int(cand[b])

        h_parent = entropy(total)
        gain = h_parent - child_entropy[b]
        k = int((total > 0).sum())
        k1 = int((left[b] > 0).sum())
        k2 = int((right[b] > 0).sum())
        delta = math.log2(3**k - 2) - (k * h_parent - k1 * h_left[b] - k2 * h_right[b])
        if gain <= (math.log2(n - 1) + delta) / n:
            continue

        cuts.append(float((group_values[lo + best] + group_values[lo + best + 1]) / 2))
        stack.append((lo, lo + best + 1))
        stack.append((lo + best + 1, hi))
    return sorted(cuts)


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

    def bin_of(self, value: float) -> int:
        return bisect_right(self.cuts, value)


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

    def cuts_for(self, index: int) -> CutPointList:
        for c in self.cut_lists:
            if c.feature_index == index:
                return c
        raise KeyError(index)

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

    @classmethod
    def from_json(cls, text: str) -> "DiscretizationModel":
        return cls.from_payload(json.loads(text))


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
    cut_lists = []
    for idx in train.schema.continuous_indices:
        vocab = np.asarray(train.vocabs[idx - 1], dtype=float)
        cuts = _mdlp_cuts(train.codes[idx - 1], vocab, y, n_classes)
        cut_lists.append(CutPointList(idx, tuple(cuts)))
    return DiscretizationModel(schema=train.schema, cut_lists=tuple(cut_lists))


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
