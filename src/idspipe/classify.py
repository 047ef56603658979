"""Weight-aware discrete naive Bayes and AdaBoost.M1 boosting.

The base learner consumes record weights natively, so boosting reweights
rather than resamples. Conditional tables are Laplace-smoothed over each
feature's observed value domain plus one reserved slot for unseen values,
which keeps every stored probability positive.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator, Mapping, Sequence

import numpy as np

from .config import ClassifierConfig
from .data import Dataset, check_discrete
from .errors import DataError, SchemaError

DEFAULT_SMOOTHING = 1.0
DEFAULT_ROUNDS = 10

# Error floor standing in for a perfect round, and the vote assigned to a
# first round that is no better than chance; both keep vote weights finite.
ERROR_FLOOR = 1e-10
MIN_VOTE_WEIGHT = 1e-10

# Records scored per block: a block's score rows stay in cache while every
# feature's table rows are added to them. Smaller blocks pay more numpy call
# overhead per record.
SCORE_BLOCK = 4096


@dataclass(eq=False)
class NaiveBayesModel:
    """Smoothed class-conditional frequency tables over discrete features."""

    labels: tuple[str, ...]
    smoothing: float
    priors: np.ndarray
    feature_values: tuple[tuple, ...]
    cond: tuple[np.ndarray, ...]  # per feature: (n_values + 1, n_classes)
    # models fitted on one training set, or voting in one ensemble, share
    # this, so it is built once and finds a dataset's table rows once
    _rows: _RowLookup | None = field(default=None, repr=False)
    _log_priors: np.ndarray = field(init=False, repr=False)
    _log_cond: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self._log_priors = np.log(self.priors)
        self._log_cond = tuple(np.log(c) for c in self.cond)
        if self._rows is None:
            self._rows = _RowLookup(self.feature_values)

    @property
    def n_features(self) -> int:
        return len(self.feature_values)

    def log_posteriors(self, ds: Dataset) -> np.ndarray:
        """Unnormalized log posterior matrix (records x classes)."""
        return self.score_rows(self.record_rows(ds), len(ds))

    def record_rows(self, ds: Dataset) -> tuple[np.ndarray, ...]:
        """Table row of every record, per feature.

        Values are matched by their CSV text form, so a model fitted on
        in-memory bins (ints) reads the same bins back from a dataset CSV;
        values the model never saw take the reserved last row.
        """
        if len(ds.schema) != self.n_features:
            raise SchemaError(
                f"model has {self.n_features} features, dataset has {len(ds.schema)}"
            )
        lookups, rows = self._rows.find(ds)
        for f, lookup in enumerate(lookups):
            _checked_rows(lookup, len(self.cond[f]), f)
        return rows

    def score_rows(self, rows: Sequence[np.ndarray], n: int) -> np.ndarray:
        """Log prior plus every feature's log conditional for ``n`` records.

        ``rows[f]`` holds each record's row in feature f's table and must lie
        inside it: the code that builds row arrays checks them. Scores are
        filled block by block, adding the features in order, so every element
        sees the same additions as one whole-matrix pass.
        """
        scores = np.empty((n, len(self.labels)))
        for start in range(0, n, SCORE_BLOCK):
            block = scores[start : start + SCORE_BLOCK]
            block[:] = self._log_priors
            for table, feature_rows in zip(self._log_cond, rows):
                block += table.take(
                    feature_rows[start : start + SCORE_BLOCK], axis=0, mode="clip"
                )
        return scores

    def to_payload(self) -> dict:
        return {
            "version": 1,
            "labels": list(self.labels),
            "smoothing": self.smoothing,
            "priors": self.priors.tolist(),
            "features": [
                {"values": list(values), "cond": table.tolist()}
                for values, table in zip(self.feature_values, self.cond)
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "NaiveBayesModel":
        return cls(
            labels=tuple(payload["labels"]),
            smoothing=float(payload["smoothing"]),
            priors=np.asarray(payload["priors"], dtype=float),
            feature_values=tuple(tuple(f["values"]) for f in payload["features"]),
            cond=tuple(
                np.asarray(f["cond"], dtype=float) for f in payload["features"]
            ),
        )


class _RowLookup:
    """Per feature: a value's CSV text form -> its table row.

    Values without a row take the reserved one after the last. The rows found
    for the last dataset looked up are kept, read-only, so every model sharing
    the lookup scores that dataset without finding them again.
    """

    def __init__(self, feature_values: Sequence[tuple]):
        self.texts = tuple(tuple(map(str, values)) for values in feature_values)
        self.index = tuple({t: i for i, t in enumerate(texts)} for texts in self.texts)
        self._last: tuple[weakref.ref, tuple] | None = None

    def find(self, ds: Dataset) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per feature: the row of every vocabulary value, and of every record."""
        if self._last is None or self._last[0]() is not ds:
            lookups = tuple(
                np.asarray([index.get(str(v), len(texts)) for v in vocab], dtype=np.int64)
                for index, texts, vocab in zip(self.index, self.texts, ds.vocabs)
            )
            rows = tuple(lookup[codes] for lookup, codes in zip(lookups, ds.codes))
            for array in (*lookups, *rows):
                array.flags.writeable = False
            self._last = (weakref.ref(ds), (lookups, rows))
        return self._last[1]


def _checked_rows(rows: np.ndarray, n_rows: int, f: int) -> np.ndarray:
    """``rows`` unchanged; raises if one lies outside a table of ``n_rows`` rows."""
    if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
        raise DataError(f"naive Bayes feature {f + 1} indexes past its {n_rows} table rows")
    return rows


@dataclass(frozen=True, eq=False)
class _TrainingSet:
    """The weight-free parts of a naive Bayes fit, computed once per training set.

    Per feature: ``feature_values`` are the vocabulary values that occur, in
    vocabulary order, and ``rows`` is every record's row in the fitted table
    (the value's position in ``feature_values``).
    """

    labels: tuple[str, ...]
    y: np.ndarray
    feature_values: tuple[tuple, ...]
    value_rows: _RowLookup
    rows: tuple[np.ndarray, ...]

    @classmethod
    def of(
        cls, ds: Dataset, smoothing: float, label_set: Sequence[str] | None
    ) -> "_TrainingSet":
        """Every fit's checked training set; ``label_set`` as in train_naive_bayes."""
        check_discrete(ds, "classifier")
        if not 0 < smoothing < math.inf:
            raise ValueError("smoothing constant must be finite and positive")
        if len(ds) == 0:
            raise ValueError("cannot train on an empty dataset")
        labels = tuple(label_set) if label_set is not None else ds.label_set()
        y = ds.label_positions(labels)
        feature_values, rows = [], []
        for f, (codes, vocab) in enumerate(zip(ds.codes, ds.vocabs)):
            # a vocabulary may hold values no record of this dataset takes
            present = np.bincount(codes, minlength=len(vocab)) > 0
            feature_values.append(tuple(compress(vocab, present)))
            row_of_code = np.cumsum(present) - 1
            rows.append(_checked_rows(row_of_code[codes], len(feature_values[-1]) + 1, f))
        return cls(labels, y, tuple(feature_values), _RowLookup(feature_values), tuple(rows))


def train_naive_bayes(
    ds: Dataset,
    smoothing: float = DEFAULT_SMOOTHING,
    label_set: Sequence[str] | None = None,
) -> NaiveBayesModel:
    """Fit smoothed priors and per-feature conditionals, every record weighing 1.

    ``label_set`` fixes the declared class order (defaults to the sorted
    labels observed in ``ds``); classes without training mass keep smoothed
    statistics only.
    """
    ts = _TrainingSet.of(ds, smoothing, label_set)
    return _fit_naive_bayes(ts, np.ones(len(ds)), smoothing)


def _fit_naive_bayes(ts: _TrainingSet, w: np.ndarray, smoothing: float) -> NaiveBayesModel:
    """Smoothed tables over the vocabulary values that occur in the training set."""
    # normalize to mean weight 1 so smoothing strength is scale-invariant
    w = w * (len(w) / w.sum())
    total = w.sum()
    n_classes = len(ts.labels)
    class_mass = np.bincount(ts.y, weights=w, minlength=n_classes)
    priors = (class_mass + smoothing) / (total + smoothing * n_classes)

    cond = []
    for rows, values in zip(ts.rows, ts.feature_values):
        n_rows = len(values) + 1  # the last row, the unseen slot, counts nothing
        # each record's cell in the table, made per round: keeping every
        # feature's cells for a whole boost costs more in fresh memory pages
        # than this product costs each round
        cells = rows * n_classes + ts.y
        counts = np.bincount(cells, weights=w, minlength=n_rows * n_classes)
        counts = counts.reshape(n_rows, n_classes)
        cond.append((counts + smoothing) / (class_mass + smoothing * n_rows))
    return NaiveBayesModel(
        labels=ts.labels,
        smoothing=smoothing,
        priors=priors,
        feature_values=ts.feature_values,
        cond=tuple(cond),
        _rows=ts.value_rows,
    )


def nb_predict_batch(model: NaiveBayesModel, ds: Dataset) -> np.ndarray:
    """Argmax class index per record; ties break toward the first label."""
    return model.log_posteriors(ds).argmax(axis=1)


@dataclass(eq=False)
class EnsembleModel:
    """Sequence of (base model, vote weight) rounds sharing one label order."""

    labels: tuple[str, ...]
    rounds: tuple[tuple[NaiveBayesModel, float], ...]

    def __post_init__(self):
        if not self.rounds:
            raise ValueError("ensemble needs at least one round")
        if any(vote <= 0 for _, vote in self.rounds):
            raise ValueError("vote weights must be positive")
        # rounds whose values read the same share one lookup (models loaded
        # from a file hold equal but distinct ones)
        shared: dict[tuple, _RowLookup] = {}
        for model, _ in self.rounds:
            model._rows = shared.setdefault(model._rows.texts, model._rows)

    def vote_matrix(self, ds: Dataset) -> np.ndarray:
        """Summed vote weight per (record, class)."""
        votes = np.zeros((len(ds), len(self.labels)))
        rows = np.arange(len(ds))
        for model, vote in self.rounds:
            votes[rows, nb_predict_batch(model, ds)] += vote
        return votes

    def to_payload(self) -> dict:
        return {
            "version": 1,
            "labels": list(self.labels),
            "rounds": [
                {"vote_weight": float(vote), "model": model.to_payload()}
                for model, vote in self.rounds
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "EnsembleModel":
        return cls(
            labels=tuple(payload["labels"]),
            rounds=tuple(
                (NaiveBayesModel.from_payload(r["model"]), float(r["vote_weight"]))
                for r in payload["rounds"]
            ),
        )


@dataclass(frozen=True)
class BoostRound:
    """Diagnostics of one boosting round, exposed for auditing and tests."""

    model: NaiveBayesModel
    error: float
    vote_weight: float
    weights_after: np.ndarray
    kept: bool
    stopped: bool


def boost_rounds(
    ds: Dataset,
    rounds: int = DEFAULT_ROUNDS,
    smoothing: float = DEFAULT_SMOOTHING,
    label_set: Sequence[str] | None = None,
) -> Iterator[BoostRound]:
    """Yield AdaBoost.M1 rounds over a weight-aware naive Bayes learner.

    Weights start uniform at 1/N. A round with weighted error >= 1/2 stops
    boosting and is kept (with a minimal vote) only when it is the first; a
    perfect round is kept with a capped vote and also stops. Otherwise the
    misclassified records are upweighted by (1-e)/e and the distribution is
    renormalized.
    """
    if rounds < 1:
        raise ValueError("boosting needs at least one round")
    ts = _TrainingSet.of(ds, smoothing, label_set)
    n = len(ds)
    weights = np.full(n, 1.0 / n)
    for t in range(rounds):
        model = _fit_naive_bayes(ts, weights, smoothing)
        # every round's tables put a training record on the same rows, so the
        # rows found once score it as nb_predict_batch(model, ds) would
        mis = model.score_rows(ts.rows, n).argmax(axis=1) != ts.y
        error = float(weights[mis].sum())
        if error >= 0.5:
            yield BoostRound(model, error, MIN_VOTE_WEIGHT, weights.copy(), t == 0, True)
            return
        if error == 0.0:
            vote = math.log((1.0 - ERROR_FLOOR) / ERROR_FLOOR)
            yield BoostRound(model, error, vote, weights.copy(), True, True)
            return
        vote = math.log((1.0 - error) / error)
        weights = weights.copy()
        weights[mis] *= (1.0 - error) / error
        weights /= weights.sum()
        yield BoostRound(model, error, vote, weights, True, False)


def train_adaboost_m1(
    ds: Dataset,
    rounds: int = DEFAULT_ROUNDS,
    smoothing: float = DEFAULT_SMOOTHING,
    label_set: Sequence[str] | None = None,
) -> EnsembleModel:
    """Train an AdaBoost.M1 ensemble of naive Bayes models."""
    # boost_rounds always keeps its first round
    kept = [
        (info.model, info.vote_weight)
        for info in boost_rounds(ds, rounds=rounds, smoothing=smoothing, label_set=label_set)
        if info.kept
    ]
    return EnsembleModel(labels=kept[0][0].labels, rounds=tuple(kept))


def train_classifier(
    ds: Dataset, config: ClassifierConfig, label_set: Sequence[str] | None = None
) -> EnsembleModel:
    """Train the configured classifier; every trained classifier is an ensemble.

    Plain naive Bayes is the one-round case, with vote 1: a single round's
    weighted vote has the same argmax as the naive Bayes model itself.
    """
    if config.boost:
        return train_adaboost_m1(
            ds, rounds=config.rounds, smoothing=config.smoothing, label_set=label_set
        )
    model = train_naive_bayes(ds, smoothing=config.smoothing, label_set=label_set)
    return EnsembleModel(labels=model.labels, rounds=((model, 1.0),))


def ensemble_predict_batch(e: EnsembleModel, ds: Dataset) -> np.ndarray:
    """Argmax class index per record under the weighted hard vote.

    Ties break toward the first label.
    """
    return e.vote_matrix(ds).argmax(axis=1)
