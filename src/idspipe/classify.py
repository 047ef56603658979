"""Weight-aware discrete naive Bayes and AdaBoost.M1 boosting.

The base learner consumes record weights natively, so boosting reweights
rather than resamples. Conditional tables are Laplace-smoothed over each
feature's observed value domain plus one reserved slot for unseen values,
which keeps every stored probability positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator, Mapping, Sequence

import numpy as np

from .config import ClassifierConfig
from .data import Coding, Dataset, check_discrete, vocab_lookup
from .errors import SchemaError

DEFAULT_SMOOTHING = 1.0
DEFAULT_ROUNDS = 10

# Error floor standing in for a perfect round, and the vote assigned to a
# first round that is no better than chance; both keep vote weights finite.
ERROR_FLOOR = 1e-10
MIN_VOTE_WEIGHT = 1e-10


@dataclass(eq=False)
class NaiveBayesModel:
    """Smoothed class-conditional frequency tables over discrete features."""

    labels: tuple[str, ...]
    smoothing: float
    priors: np.ndarray
    feature_values: tuple[tuple, ...]
    cond: tuple[np.ndarray, ...]  # per feature: (n_values + 1, n_classes)
    _log_priors: np.ndarray = field(init=False, repr=False)
    _log_cond: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _rows: tuple[dict[str, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        self._log_priors = np.log(self.priors)
        self._log_cond = tuple(np.log(c) for c in self.cond)
        # values are matched by their CSV text form, so a model fitted on
        # in-memory bins (ints) reads the same bins back from a dataset CSV
        self._rows = tuple(
            {str(v): i for i, v in enumerate(values)} for values in self.feature_values
        )

    @property
    def n_features(self) -> int:
        return len(self.feature_values)

    def log_posteriors(self, ds: Dataset) -> np.ndarray:
        """Unnormalized log posterior matrix (records x classes)."""
        if len(ds.schema) != self.n_features:
            raise SchemaError(
                f"model has {self.n_features} features, dataset has {len(ds.schema)}"
            )
        coding = ds.coding()
        scores = np.tile(self._log_priors, (len(ds), 1))
        for f, (codes, vocab) in enumerate(zip(coding.columns, coding.vocabs)):
            # table row of every vocabulary code; values the model never saw
            # take the reserved last row
            index, unseen = self._rows[f], len(self.feature_values[f])
            rows = np.asarray([index.get(str(v), unseen) for v in vocab], dtype=np.int64)
            scores += self._log_cond[f][rows][codes]
        return scores

    def to_payload(self) -> dict:
        return {
            "version": 1,
            "labels": list(self.labels),
            "smoothing": self.smoothing,
            "priors": [float(p) for p in self.priors],
            "features": [
                {
                    "values": list(values),
                    "cond": [[float(p) for p in row] for row in table],
                }
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


def train_naive_bayes(
    ds: Dataset,
    smoothing: float = DEFAULT_SMOOTHING,
    label_set: Sequence[str] | None = None,
) -> NaiveBayesModel:
    """Fit smoothed priors and per-feature conditionals from weighted records.

    ``label_set`` fixes the declared class order (defaults to the sorted
    labels observed in ``ds``); classes without training mass keep smoothed
    statistics only.
    """
    check_discrete(ds, "classifier")
    if smoothing <= 0:
        raise ValueError("smoothing constant must be positive")
    w = np.asarray(ds.weights, dtype=float)
    if len(ds) == 0 or w.sum() <= 0:
        raise ValueError("cannot train on zero total weight")
    labels = tuple(label_set) if label_set is not None else ds.label_set()
    return _fit_naive_bayes(ds.coding(), _class_codes(ds, labels), w, labels, smoothing)


def _class_codes(ds: Dataset, labels: tuple[str, ...]) -> np.ndarray:
    """Position of every record's label in the declared class order."""
    coding = ds.coding()
    y = vocab_lookup(coding.label_vocab, labels)[coding.labels]
    if (y < 0).any():
        missing = ds.labels[int(np.argmax(y < 0))]
        raise ValueError(f"label {missing!r} not in the declared label set")
    return y


def _fit_naive_bayes(
    coding: Coding,
    y: np.ndarray,
    w: np.ndarray,
    labels: tuple[str, ...],
    smoothing: float,
) -> NaiveBayesModel:
    """Smoothed tables over the vocabulary values that occur in ``coding``."""
    # normalize to mean weight 1 so smoothing strength is scale-invariant
    w = w * (len(w) / w.sum())
    total = w.sum()
    n_classes = len(labels)
    class_mass = np.bincount(y, weights=w, minlength=n_classes)
    priors = (class_mass + smoothing) / (total + smoothing * n_classes)

    feature_values = []
    cond = []
    for codes, vocab in zip(coding.columns, coding.vocabs):
        counts = np.bincount(
            codes * n_classes + y, weights=w, minlength=len(vocab) * n_classes
        ).reshape(len(vocab), n_classes)
        # a coding of a larger dataset may hold values absent from this one
        present = np.bincount(codes, minlength=len(vocab)) > 0
        n_values = int(present.sum())
        counts = np.vstack([counts[present], np.zeros((1, n_classes))])  # unseen slot
        table = (counts + smoothing) / (class_mass + smoothing * (n_values + 1))
        feature_values.append(tuple(compress(vocab, present)))
        cond.append(table)
    return NaiveBayesModel(
        labels=labels,
        smoothing=smoothing,
        priors=priors,
        feature_values=tuple(feature_values),
        cond=tuple(cond),
    )


def nb_predict(model: NaiveBayesModel, ds: Dataset) -> np.ndarray:
    """Normalized posteriors (records x classes in ``model.labels`` order).

    Computed in log space: each row is shifted by its maximum before
    exponentiation.
    """
    scores = model.log_posteriors(ds)
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


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
    check_discrete(ds, "classifier")
    if rounds < 1:
        raise ValueError("boosting needs at least one round")
    if smoothing <= 0:
        raise ValueError("smoothing constant must be positive")
    n = len(ds)
    if n == 0:
        raise ValueError("cannot boost an empty dataset")
    labels = tuple(label_set) if label_set is not None else ds.label_set()
    coding = ds.coding()
    y = _class_codes(ds, labels)
    weights = np.full(n, 1.0 / n)
    for t in range(rounds):
        model = _fit_naive_bayes(coding, y, weights, labels, smoothing)
        predicted = nb_predict_batch(model, ds)
        mis = predicted != y
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
    labels = tuple(label_set) if label_set is not None else ds.label_set()
    kept: list[tuple[NaiveBayesModel, float]] = []
    for info in boost_rounds(ds, rounds=rounds, smoothing=smoothing, label_set=labels):
        if info.kept:
            kept.append((info.model, info.vote_weight))
    if not kept:
        raise RuntimeError("boosting produced no usable round")
    return EnsembleModel(labels=labels, rounds=tuple(kept))


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
