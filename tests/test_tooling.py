"""The program names the benchmark's tracer (perfbench/tracer.py) wraps.

The tracer replaces public functions by name and reads per-layer metrics
through them; a renamed or bypassed function silently zeroes a metric.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from idspipe import classify, cli, discretize, evaluate, select
from idspipe.config import ClassifierConfig, ExperimentConfig
from idspipe.data import CONTINUOUS, stratified_folds

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


def count_calls(monkeypatch, module, attr, calls):
    """Replace ``module.attr`` in every idspipe namespace, as the tracer does."""
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "idspipe":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)


def test_benchmark_spans_are_reached(monkeypatch):
    # select.greedy.s, select.cache_build.s and discretize.fit.s are read
    # through these names; an inlined call would zero them silently
    selection_calls, fit_calls = [], []
    count_calls(monkeypatch, select, "greedy_forward_search", selection_calls)

    class CountedCache(select.CorrelationCache):
        def __init__(self, ds):
            selection_calls.append("CorrelationCache")
            super().__init__(ds)

    monkeypatch.setattr(select, "CorrelationCache", CountedCache)
    rng = np.random.default_rng(0)
    labels = ["ab"[v] for v in rng.integers(0, 2, size=40)]
    ds = toy_dataset([list(labels), rng.integers(0, 3, size=40).tolist()], labels)
    select.run_selection(ds, "hybrid", 0.3)
    assert sorted(selection_calls) == ["CorrelationCache", "greedy_forward_search"]

    count_calls(monkeypatch, discretize, "fit_discretizer", fit_calls)
    values = [float(i % 7) + (lbl == "a") * 5 for i, lbl in enumerate(labels)]
    raw = toy_dataset([values], labels, kinds=[CONTINUOUS])
    plan = stratified_folds(raw, 4, seed=0)
    evaluate.cross_validate_plan(
        raw, ExperimentConfig(discretization="fold-safe"), plan, seed=0
    )
    assert fit_calls == ["fit_discretizer"] * plan.k
