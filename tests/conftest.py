import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from idspipe.data import (
    ATTACK23,
    CONTINUOUS,
    DISCRETE,
    Dataset,
    FeatureSchema,
    stratified_folds,
)
from idspipe.evaluate import cross_validate_plan
from idspipe.synth import synthetic_lines


def columns_of(ds):
    """Every column of ``ds``, decoded."""
    return [ds.column(i) for i in range(1, len(ds.schema) + 1)]


def same_dataset(a, b):
    """Same schema, granularity, labels and decoded columns."""
    return (
        a.schema == b.schema
        and a.granularity == b.granularity
        and len(a) == len(b)
        and np.array_equal(a.labels, b.labels)
        and all(np.array_equal(x, y) for x, y in zip(columns_of(a), columns_of(b)))
    )


def class_counts(ds):
    """Records per label, for the labels some record takes."""
    return {str(label): count for label, count in Counter(ds.labels.tolist()).items()}


def cross_validate(ds, config, k, seed):
    """k-fold cross-validation of ``config`` on ``ds``, over its stratified fold plan."""
    return cross_validate_plan(ds, config, stratified_folds(ds, k, seed), seed=seed)


def nb_predict(model, ds):
    """Normalized posteriors (records x classes in ``model.labels`` order).

    Computed in log space: each row is shifted by its maximum before
    exponentiation.
    """
    scores = model.log_posteriors(ds)
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def toy_dataset(columns, labels, kinds=None, granularity=ATTACK23):
    """Build a small dataset from plain lists; discrete columns by default."""
    ncols = len(columns)
    if kinds is None:
        kinds = [DISCRETE] * ncols
    schema = FeatureSchema(
        tuple((f"f{i}", kinds[i - 1]) for i in range(1, ncols + 1))
    )
    arrays = tuple(
        np.asarray(col, dtype=float if kinds[i] == CONTINUOUS else object)
        for i, col in enumerate(columns)
    )
    return Dataset.from_columns(schema, arrays, np.asarray(labels, dtype=object), granularity)


@pytest.fixture(scope="session")
def synth_file(tmp_path_factory):
    """Synthetic NSL-format record file shared across CLI/pipeline tests."""
    path = tmp_path_factory.mktemp("synth") / "traffic.txt"
    path.write_text("\n".join(synthetic_lines(600, seed=42)) + "\n")
    return path


def find_kddtrain():
    env = os.environ.get("IDSPIPE_DATA")
    candidates = []
    if env:
        candidates.append(Path(env) / "KDDTrain+.txt")
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "KDDTrain+.txt")
    for c in candidates:
        if c.is_file():
            return c
    return None


@pytest.fixture(scope="session")
def kddtrain_path():
    path = find_kddtrain()
    if path is None:
        pytest.skip(
            "NSL-KDD KDDTrain+.txt not found; set IDSPIPE_DATA to its directory"
        )
    return path
