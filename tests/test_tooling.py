"""The program names the benchmark's tracer (perfbench/tracer.py) wraps.

The tracer replaces public functions by name and reads per-layer metrics
through them; a renamed or bypassed function silently zeroes a metric.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np

import idspipe
from idspipe import classify, cli, data, discretize, evaluate, pipeline, select
from idspipe.config import ClassifierConfig, CrossValConfig, ExperimentConfig, PipelineConfig
from idspipe.data import CONTINUOUS, DISCRETE, stratified_folds

from conftest import toy_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(idspipe.__file__).resolve().parent


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
    selection_calls, fold_calls = [], []
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

    # fold-safe CV: discretize.fit.s, discretize.apply.s and select.cache_build.s
    count_calls(monkeypatch, discretize, "fit_discretizer", fold_calls)
    count_calls(monkeypatch, discretize, "apply_discretizer", fold_calls)
    selection_calls.clear()
    values = [float(i % 7) + (lbl == "a") * 5 for i, lbl in enumerate(labels)]
    raw = toy_dataset([values], labels, kinds=[CONTINUOUS])
    plan = stratified_folds(raw, 4, seed=0)
    evaluate.cross_validate_plan(
        raw, ExperimentConfig(discretization="fold-safe"), plan, seed=0
    )
    assert fold_calls.count("fit_discretizer") == plan.k
    assert fold_calls.count("apply_discretizer") == 2 * plan.k  # training and test fold
    assert selection_calls.count("CorrelationCache") == plan.k


def test_fold_safe_cv_codes_each_column_once(monkeypatch):
    # the folds slice the dataset's codes; encoding per fold would call
    # data.encode about k times per column
    calls = []
    count_calls(monkeypatch, data, "encode", calls)
    rng = np.random.default_rng(1)
    labels = ["abc"[v] for v in rng.integers(0, 3, size=60)]
    shifted = (rng.normal(size=60) + [2.0 * "abc".index(lbl) for lbl in labels]).tolist()
    ds = toy_dataset(
        [list(labels), rng.integers(0, 4, size=60).tolist(), shifted, rng.normal(size=60)],
        labels,
        kinds=[DISCRETE, DISCRETE, CONTINUOUS, CONTINUOUS],
    )
    config = ExperimentConfig(discretization="fold-safe", classifier=ClassifierConfig(rounds=3))
    k = 5
    report = evaluate.cross_validate(ds, config, k=k, seed=0)
    assert report.matrix.total == len(ds)
    # once per column and once for the labels, when the dataset was built
    assert len(calls) == len(ds.schema) + 1


def test_a_run_encodes_each_column_once(monkeypatch, synth_file, tmp_path):
    # a dataset is its coding: parsing encodes every column and the labels,
    # and nothing after it (sample, folds, fits, deployment) encodes again
    calls = []
    count_calls(monkeypatch, data, "encode", calls)
    config = PipelineConfig(
        input_path=str(synth_file),
        experiment=ExperimentConfig(discretization="leaky"),
        cv=CrossValConfig(k=3),
        output_dir=str(tmp_path / "run"),
    )
    assert config.granularity == data.ATTACK23
    result = pipeline.run_experiment(config)
    assert result.report.matrix.total == 600
    assert len(calls) == len(data.NSLKDD_SCHEMA) + 1


def used_names(tree: ast.Module) -> set[str]:
    """Names a module reads, including those inside quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations = [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= used_names(ast.parse(sub.value, mode="eval"))
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_package_exports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(exported) > 30
    assert [name for name in exported if not hasattr(idspipe, name)] == []
