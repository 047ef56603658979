"""The program names the benchmark's tracer (perfbench/tracer.py) wraps.

The tracer replaces public functions by name and reads per-layer metrics
through them; a renamed or bypassed function silently zeroes a metric.
"""

import importlib.util
import sys
from pathlib import Path

from idspipe import classify, cli, select
from idspipe.config import ClassifierConfig

from conftest import toy_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load("tracer")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attrs in tracer.TRACED.items()
        for attr in attrs
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
    assert callable(classify.boost_rounds)
    assert isinstance(select.CorrelationCache, type)


def test_traced_cli_commands_exist():
    assert set(load("layers").CLI_COMMANDS) <= set(cli.cli.commands)


def test_ensemble_predicts_through_module_level_nb_predict(monkeypatch):
    # classify.unseen_rate is read by wrapping classify.nb_predict_batch
    ds = toy_dataset([["x", "y", "x", "y"]], ["a", "a", "b", "b"])
    ensemble = classify.train_classifier(ds, ClassifierConfig(boost=False))
    seen = []
    predict = classify.nb_predict_batch
    monkeypatch.setattr(
        classify, "nb_predict_batch", lambda m, d: seen.append(m) or predict(m, d)
    )
    classify.ensemble_predict_batch(ensemble, ds)
    assert seen == [ensemble.rounds[0][0]]
