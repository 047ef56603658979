import os
from pathlib import Path

import numpy as np
import pytest

from idspipe.data import ATTACK23, CONTINUOUS, DISCRETE, Dataset, FeatureSchema
from idspipe.synth import synthetic_lines


def columns_of(ds):
    """Every column of ``ds``, decoded."""
    return [ds.column(i) for i in range(1, len(ds.schema) + 1)]


def toy_dataset(columns, labels, kinds=None, weights=None, granularity=ATTACK23):
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
    n = len(labels)
    return Dataset.from_columns(
        schema,
        arrays,
        np.asarray(labels, dtype=object),
        np.ones(n) if weights is None else weights,
        granularity,
    )


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
