"""Confusion matrices, per-class metrics, and the cross-validation driver.

Metrics follow the one-vs-rest convention per class (precision, recall,
F-measure, false positive rate) with zero-division cases defined as 0.
Cross-validation pools every held-out prediction into a single confusion
matrix; the weighted summary numbers are support-weighted means of the
per-class values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import classify, discretize, select
from .data import Dataset, FoldPlan, encode, json_text, stratified_folds, vocab_lookup
from .errors import UnknownLabelError


@dataclass(eq=False)
class ConfusionMatrix:
    """Counts[i][j] = records of true class i predicted as class j."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        c = len(self.labels)
        if self.counts.shape != (c, c):
            raise ValueError("confusion matrix shape must match the label set")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def support(self, label: str) -> int:
        return int(self.counts[self.labels.index(label)].sum())

    def to_payload(self) -> dict:
        return {
            "labels": list(self.labels),
            "counts": [[int(c) for c in row] for row in self.counts],
        }

    @classmethod
    def from_codes(cls, truths, preds, labels: tuple[str, ...]) -> "ConfusionMatrix":
        """Count (truth, prediction) pairs given as positions in ``labels``."""
        c = len(labels)
        counts = np.bincount(truths * c + preds, minlength=c * c).reshape(c, c)
        return cls(labels=labels, counts=counts)


def _label_codes(codes, vocab, labels: tuple[str, ...]) -> np.ndarray:
    """Position in ``labels`` of every coded value ``vocab[codes]``."""
    positions = vocab_lookup(vocab, labels)[codes]
    if (positions < 0).any():
        missing = vocab[codes[int(np.argmax(positions < 0))]]
        raise UnknownLabelError(f"label {missing!r} not in label set")
    return positions


def confusion(truths, preds, label_set: Sequence[str]) -> ConfusionMatrix:
    """Count (truth, prediction) pairs over a fixed label order."""
    labels = tuple(label_set)
    truths = list(truths)
    preds = list(preds)
    if len(truths) != len(preds):
        raise ValueError("truths and predictions differ in length")
    return ConfusionMatrix.from_codes(
        _label_codes(*encode(truths), labels), _label_codes(*encode(preds), labels), labels
    )


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f_measure: float
    fpr: float
    support: int

    def to_payload(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f_measure": self.f_measure,
            "fpr": self.fpr,
            "support": self.support,
        }


def per_class_metrics(m: ConfusionMatrix) -> dict[str, ClassMetrics]:
    """One-vs-rest precision/recall/F/FPR per class; 0/0 cases map to 0."""
    total = m.counts.sum()
    out: dict[str, ClassMetrics] = {}
    for i, label in enumerate(m.labels):
        tp = float(m.counts[i, i])
        fp = float(m.counts[:, i].sum() - tp)
        fn = float(m.counts[i, :].sum() - tp)
        tn = float(total - tp - fp - fn)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f_measure = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        fpr = fp / (fp + tn) if fp + tn > 0 else 0.0
        out[label] = ClassMetrics(
            precision=precision,
            recall=recall,
            f_measure=f_measure,
            fpr=fpr,
            support=int(tp + fn),
        )
    return out


@dataclass(frozen=True)
class WeightedMetrics:
    f_measure: float
    fpr: float

    def to_payload(self) -> dict:
        return {"f_measure": self.f_measure, "fpr": self.fpr}


def aggregate(per_class: Mapping[str, ClassMetrics]) -> WeightedMetrics:
    """Support-weighted mean of per-class F-measure and FPR."""
    supports = np.asarray([m.support for m in per_class.values()], dtype=float)
    total = supports.sum()
    if total <= 0:
        raise ValueError("cannot aggregate with zero total support")
    f = np.asarray([m.f_measure for m in per_class.values()])
    fpr = np.asarray([m.fpr for m in per_class.values()])
    return WeightedMetrics(
        f_measure=float((supports * f).sum() / total),
        fpr=float((supports * fpr).sum() / total),
    )


@dataclass(eq=False)
class EvaluationReport:
    """Pooled confusion matrix, metrics, and the pipeline descriptor."""

    matrix: ConfusionMatrix
    per_class: dict[str, ClassMetrics]
    weighted: WeightedMetrics
    descriptor: dict

    def to_payload(self) -> dict:
        return {
            "version": 1,
            "descriptor": self.descriptor,
            "matrix": self.matrix.to_payload(),
            "per_class": {
                lbl: m.to_payload() for lbl, m in sorted(self.per_class.items())
            },
            "weighted": self.weighted.to_payload(),
        }

    def to_json(self) -> str:
        return json_text(self.to_payload())

    @classmethod
    def from_matrix(cls, matrix: ConfusionMatrix, descriptor: dict) -> "EvaluationReport":
        per_class = per_class_metrics(matrix)
        return cls(
            matrix=matrix,
            per_class=per_class,
            weighted=aggregate(per_class),
            descriptor=descriptor,
        )

    def format_table(self) -> str:
        """Human-readable per-class and weighted metric table."""
        lines = []
        desc = self.descriptor
        if desc:
            sel = desc.get("selection", {})
            lines.append(
                "method={} features={} classifier={} k={} seed={}".format(
                    sel.get("method", "?"),
                    len(sel.get("features", [])) or "all",
                    desc.get("classifier", {}).get("type", "?"),
                    desc.get("cv", {}).get("k", "?"),
                    desc.get("cv", {}).get("seed", "?"),
                )
            )
        header = f"{'class':<18}{'support':>9}{'precision':>11}{'recall':>9}{'F':>9}{'FPR':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for lbl in self.matrix.labels:
            m = self.per_class[lbl]
            lines.append(
                f"{lbl:<18}{m.support:>9}{m.precision:>11.3f}{m.recall:>9.3f}"
                f"{m.f_measure:>9.3f}{m.fpr:>9.3f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'weighted':<18}{self.matrix.total:>9}{'':>11}{'':>9}"
            f"{self.weighted.f_measure:>9.3f}{self.weighted.fpr:>9.3f}"
        )
        return "\n".join(lines) + "\n"


def build_report(
    truths, preds, label_set: Sequence[str], descriptor: dict
) -> EvaluationReport:
    return EvaluationReport.from_matrix(confusion(truths, preds, label_set), descriptor)


class Preprocessing(NamedTuple):
    """Discretizer and selection fitted on one dataset, and its reduced form."""

    discretizer: discretize.DiscretizationModel
    selection: select.SelectionResult
    reduced: Dataset  # discretized, projected onto the selected features

    def transform(self, ds: Dataset) -> Dataset:
        """Discretize ``ds``, then project it onto the selected features."""
        binned = discretize.apply_discretizer(self.discretizer, ds)
        return binned.project(self.selection.subset.indices)


def fit_preprocessing(ds: Dataset, config) -> Preprocessing:
    """Fit the configured discretizer, then the selection, on ``ds``."""
    dmodel = discretize.fit_discretizer(ds)
    dds = discretize.apply_discretizer(dmodel, ds)
    selection = select.run_selection(dds, config.selection.method, config.selection.alpha)
    return Preprocessing(dmodel, selection, dds.project(selection.subset.indices))


def _fit_predict(
    train: Dataset, test: Dataset, label_set: Sequence[str], classifier
) -> np.ndarray:
    """Class index (into ``label_set``) predicted for every test record."""
    model = classify.train_classifier(train, classifier, label_set=label_set)
    return classify.ensemble_predict_batch(model, test)


def cross_validate(ds: Dataset, config, k: int, seed: int) -> EvaluationReport:
    """k-fold cross-validation of the configured pipeline on one dataset.

    ``config`` is an ExperimentConfig: discretization mode (``leaky`` fits
    the discretizer and selector once on the full dataset; ``fold-safe``
    refits them inside each training fold), selection method and alpha, and
    the classifier settings. Every record is predicted exactly once from a
    model that never saw it (up to the declared leakage mode).
    """
    plan = stratified_folds(ds, k, seed)
    return cross_validate_plan(ds, config, plan, seed=seed)


def cross_validate_plan(
    ds: Dataset,
    config,
    plan: FoldPlan,
    seed: int | None = None,
    fitted: Preprocessing | None = None,
) -> EvaluationReport:
    """Cross-validate against an explicit fold plan (pooled predictions).

    In leaky mode ``fitted`` is the preprocessing already fitted on ``ds``
    by :func:`fit_preprocessing`; it is fitted here when not given.
    """
    label_set = ds.label_set()
    preds = np.empty(len(ds), dtype=np.int64)
    fold_selections: list[list[int]] = []

    if config.discretization == "leaky":
        if fitted is None:
            fitted = fit_preprocessing(ds, config)
        _, selection, reduced = fitted
        for fold in range(plan.k):
            train_idx = plan.train_indices(fold)
            test_idx = plan.test_indices(fold)
            preds[test_idx] = _fit_predict(
                reduced.subset(train_idx),
                reduced.subset(test_idx),
                label_set,
                config.classifier,
            )
        selection_desc = {
            "method": selection.method,
            "alpha": selection.alpha,
            "features": list(selection.subset.indices),
        }
    elif config.discretization == "fold-safe":
        for fold in range(plan.k):
            train_idx = plan.train_indices(fold)
            test_idx = plan.test_indices(fold)
            fold_fit = fit_preprocessing(ds.subset(train_idx), config)
            fold_selections.append(list(fold_fit.selection.subset.indices))
            preds[test_idx] = _fit_predict(
                fold_fit.reduced,
                fold_fit.transform(ds.subset(test_idx)),
                label_set,
                config.classifier,
            )
        selection_desc = {
            "method": config.selection.method,
            "alpha": config.selection.alpha,
            "features": sorted(set().union(*fold_selections)) if fold_selections else [],
            "per_fold": fold_selections,
        }
    else:
        raise ValueError(f"unknown discretization mode {config.discretization!r}")

    descriptor = {
        "granularity": ds.granularity,
        "n_records": len(ds),
        "discretization": config.discretization,
        "selection": selection_desc,
        "classifier": {
            "type": config.classifier.kind,
            "rounds": config.classifier.rounds if config.classifier.boost else None,
            "smoothing": config.classifier.smoothing,
        },
        "cv": {"k": plan.k, "seed": seed},
    }
    truths = _label_codes(ds.label_codes, ds.label_vocab, label_set)
    matrix = ConfusionMatrix.from_codes(truths, preds, label_set)
    return EvaluationReport.from_matrix(matrix, descriptor)
