"""Confusion matrices, per-class metrics, and the cross-validation driver.

Metrics follow the one-vs-rest convention per class (precision, recall,
F-measure, false positive rate) with zero-division cases defined as 0.
Cross-validation pools every held-out prediction into a single confusion
matrix; the weighted summary numbers are support-weighted means of the
per-class values.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .data import Dataset, FoldPlan, json_text

if TYPE_CHECKING:
    from .select import Preprocessing


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

    def format_table(self) -> str:
        """Human-readable per-class and weighted metric table."""
        lines = []
        desc = self.descriptor
        if desc.get("mode") == "holdout":
            lines.append(
                f"mode=holdout model={desc['model']} features={len(desc['features'])}"
            )
        elif desc:
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


def build_report(truths, preds, labels: Sequence[str], descriptor: dict) -> EvaluationReport:
    """The report of ``preds`` against ``truths``, both class positions in ``labels``.

    The one constructor of an :class:`EvaluationReport`, for CV and ``eval``.
    """
    truths, preds = np.asarray(truths, dtype=np.int64), np.asarray(preds, dtype=np.int64)
    if truths.shape != preds.shape:
        raise ValueError("truths and predictions differ in length")
    matrix = ConfusionMatrix.from_codes(truths, preds, tuple(labels))
    per_class = per_class_metrics(matrix)
    return EvaluationReport(matrix, per_class, aggregate(per_class), descriptor)


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fold_share(fold_fn, folds):
    """``(None, results)`` of ``fold_fn`` over ``folds``, or the first failure's ``(fold, exc)``."""
    results = []
    for fold in folds:
        try:
            results.append(fold_fn(fold))
        except Exception as exc:
            return fold, exc
    return None, results


def _send_share(fd: int, fold_fn, folds) -> None:
    """Pickle a child's share of the folds into the pipe ``fd``."""
    failed, outcome = _fold_share(fold_fn, folds)
    try:
        payload = pickle.dumps((failed, outcome))
        pickle.loads(payload)  # an exception whose arguments do not round-trip fails here
    except Exception as exc:
        if failed is None:
            raise
        unsent = RuntimeError(
            f"fold {failed} raised {type(outcome).__name__}, which cannot be sent to "
            f"the parent process: {exc}"
        )
        payload = pickle.dumps((failed, unsent))
    with os.fdopen(fd, "wb") as fh:
        fh.write(payload)


def _receive_share(pid: int, fd: int, folds) -> tuple:
    """Read a child's pickled share from the pipe ``fd``, then reap the child."""
    try:
        with os.fdopen(fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        return folds[0], RuntimeError(
            f"the worker for folds {list(folds)} exited with status {code} "
            "before sending its results"
        )
    return pickle.loads(payload)


def _fork_share(fold_fn, folds) -> tuple[int, int] | None:
    """Fork a child that sends its share of ``folds`` into a pipe.

    Returns the child's pid and the pipe's read end, or None, with no
    descriptor left open, when no pipe or process can be made.
    """
    fds = ()
    try:
        fds = read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns on every fork of a process with native
            # threads (OpenBLAS starts some where numpy was imported before
            # idspipe); a child only computes, pickles and leaves through
            # os._exit
            warnings.filterwarnings(
                "ignore",
                r"This process .* is multi-threaded, use of fork\(\)",
                DeprecationWarning,
            )
            pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            _send_share(write, fold_fn, folds)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _map_folds(fold_fn, k: int) -> list:
    """``[fold_fn(0), ..., fold_fn(k - 1)]``, on one process per usable CPU.

    With ``n = min(k, usable_cpus())``, this process runs folds ``0, n,
    2n, ...`` and forks ``n - 1`` children; child ``w`` runs folds ``w, w + n,
    ...``, pickles its results into a pipe and leaves through ``os._exit``,
    so no exit hook or stdio buffer of the parent runs twice. A share whose
    fork fails runs here instead. Every child is reaped, also when this
    process's own share raises. A failed fold's exception is re-raised here;
    when several folds fail, it is the first in fold order, the one a single
    process would have raised.
    """
    n = min(k, usable_cpus())
    local = [0]  # the shares run in this process
    children = []
    shares = {}
    try:
        for w in range(1, n):
            forked = _fork_share(fold_fn, range(w, k, n))
            if forked is None:
                local.extend(range(w, n))
                break
            children.append((w, *forked))
        for w in local:
            shares[w] = _fold_share(fold_fn, range(w, k, n))
    finally:
        for w, pid, read in children:
            shares[w] = _receive_share(pid, read, range(w, k, n))
    failures = [(failed, exc) for failed, exc in shares.values() if failed is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results = [None] * k
    for w, (_, outcome) in shares.items():
        results[w::n] = outcome
    return results


def cross_validate_plan(
    ds: Dataset,
    config,
    plan: FoldPlan,
    seed: int | None = None,
    fitted: Preprocessing | None = None,
) -> EvaluationReport:
    """Cross-validate the configured pipeline against a fold plan (pooled predictions).

    ``config`` is an ExperimentConfig: discretization mode (``leaky`` fits
    the discretizer and selector once on the full dataset; ``fold-safe``
    refits them inside each training fold), selection method and alpha, and
    the classifier settings. Every record is predicted exactly once from a
    model that never saw it (up to the declared leakage mode).

    ``fitted`` is the preprocessing already fitted on ``ds`` by
    :func:`select.fit_preprocessing`; leaky mode uses it, and fits it here when
    not given. Every fold returns its predictions and the selection it
    predicted with, so the descriptor reads each method's own alpha. The folds
    run at once on the usable CPUs (:func:`_map_folds`).
    """
    # imported before _map_folds forks its workers, so no worker imports
    # them again
    from . import classify
    from .select import fit_preprocessing

    label_set = ds.label_set()
    leaky = config.discretization == "leaky"
    if leaky and fitted is None:
        fitted = fit_preprocessing(ds, config)

    def run_fold(fold):
        """Class index (into ``label_set``) of every test record, and the fold's selection."""
        train, test = plan.train_indices(fold), plan.test_indices(fold)
        if leaky:
            fold_fit = fitted
            train_set, test_set = fitted.reduced.subset(train), fitted.reduced.subset(test)
        else:
            fold_fit = fit_preprocessing(ds.subset(train), config)
            train_set, test_set = fold_fit.reduced, fold_fit.transform(ds.subset(test))
        model = classify.train_classifier(train_set, config.classifier, label_set=label_set)
        return classify.ensemble_predict_batch(model, test_set), fold_fit.selection

    preds = np.empty(len(ds), dtype=np.int64)
    selections = []
    for fold, (fold_preds, selection) in enumerate(_map_folds(run_fold, plan.k)):
        preds[plan.test_indices(fold)] = fold_preds
        selections.append(selection)

    per_fold = [list(s.subset.indices) for s in selections]
    selection_desc = {
        "method": selections[0].method,
        "alpha": selections[0].alpha,
        "features": sorted(set().union(*per_fold)),
    }
    if not leaky:
        selection_desc["per_fold"] = per_fold

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
    return build_report(ds.label_positions(label_set), preds, label_set, descriptor)
