"""The program names the benchmark's tracer (perfbench/tracer.py) wraps.

The tracer replaces public functions by name and reads per-layer metrics
through them; a renamed or bypassed function silently zeroes a metric.
"""

import ast
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import idspipe
from idspipe import classify, cli, data, discretize, evaluate, pipeline, select
from idspipe.config import ClassifierConfig, CrossValConfig, ExperimentConfig, PipelineConfig
from idspipe.data import CONTINUOUS, DISCRETE, stratified_folds

from conftest import cross_validate, toy_dataset

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

    # fold-safe CV: discretize.fit.s, discretize.apply.s and select.cache_build.s,
    # on one worker, so that every fold's calls are made, and counted, here
    monkeypatch.setattr(evaluate, "usable_cpus", lambda: 1)
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


def test_cv_and_eval_build_one_report_each(monkeypatch, tmp_path):
    # evaluate.report.s is read through evaluate.build_report, which both
    # cross-validation and the eval command call
    calls = []
    count_calls(monkeypatch, evaluate, "build_report", calls)
    ds = four_column_dataset()
    plan = stratified_folds(ds, 3, seed=0)
    evaluate.cross_validate_plan(ds, ExperimentConfig(), plan, seed=0)
    assert calls == ["build_report"]

    binned = discretize.apply_discretizer(discretize.fit_discretizer(ds), ds)
    data.write_dataset(binned, tmp_path / "d.csv")
    model = classify.train_classifier(binned, ClassifierConfig(boost=False))
    features = range(1, len(binned.schema) + 1)
    (tmp_path / "m.json").write_text(pipeline.model_json("nb", model, features))
    calls.clear()
    args = ["eval", tmp_path / "d.csv", "--model", tmp_path / "m.json", "--out", tmp_path / "r"]
    assert cli.main([str(a) for a in args]) == 0
    assert calls == ["build_report"]


@pytest.mark.parametrize("cpus, k", [(1, 4), (2, 4), (3, 4), (4, 3), (2, 2)])
def test_cv_forks_one_worker_per_usable_cpu(monkeypatch, cpus, k):
    # min(k, cpus) workers: this process and min(k, cpus) - 1 forked children
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)  # in this process, before the child exists
        return fork()

    monkeypatch.setattr(evaluate, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    ds = four_column_dataset()
    report = cross_validate(ds, ExperimentConfig(discretization="fold-safe"), k=k, seed=0)
    assert report.matrix.total == len(ds)
    assert len(forks) == min(k, cpus) - 1


def four_column_dataset():
    """Two discrete and two continuous columns over three classes, 60 records."""
    rng = np.random.default_rng(1)
    labels = ["abc"[v] for v in rng.integers(0, 3, size=60)]
    shifted = (rng.normal(size=60) + [2.0 * "abc".index(lbl) for lbl in labels]).tolist()
    return toy_dataset(
        [list(labels), rng.integers(0, 4, size=60).tolist(), shifted, rng.normal(size=60)],
        labels,
        kinds=[DISCRETE, DISCRETE, CONTINUOUS, CONTINUOUS],
    )


def test_fold_safe_cv_codes_each_column_once(monkeypatch):
    # the folds slice the dataset's codes; encoding per fold would call
    # data.encode about k times per column
    calls = []
    count_calls(monkeypatch, data, "encode", calls)
    ds = four_column_dataset()
    config = ExperimentConfig(discretization="fold-safe", classifier=ClassifierConfig(rounds=3))
    k = 5
    report = cross_validate(ds, config, k=k, seed=0)
    assert report.matrix.total == len(ds)
    # once per column and once for the labels, when the dataset was built
    assert len(calls) == len(ds.schema) + 1


def test_fits_and_correlations_run_batched_kernels(monkeypatch):
    # one MDLP worker call splits every continuous feature, and one SU
    # kernel call fills a whole cache row; a per-feature or per-pair loop
    # would call them once per feature or pair
    ds = four_column_dataset()
    calls = []
    count_calls(monkeypatch, discretize, "_mdlp_cuts", calls)
    model = discretize.fit_discretizer(ds)
    assert calls == ["_mdlp_cuts"]
    assert sum(len(c.cuts) for c in model.cut_lists) > 0

    binned = discretize.apply_discretizer(model, ds)
    fills = []
    fill = select.CorrelationCache._fill
    monkeypatch.setattr(
        select.CorrelationCache,
        "_fill",
        lambda self, i, js: fills.append((i, js.tolist())) or fill(self, i, js),
    )
    cache = select.CorrelationCache(binned)
    cache.su_arrays([2, 1, 3, 4])
    assert [i for i, _ in fills] == [2, 1, 3]  # row 4 is full by then
    fills.clear()
    cache = select.CorrelationCache(binned)
    cache.feature_feature(3, 1)
    select.greedy_forward_search(binned, cache)
    select.best_first_search(binned, cache)
    for i in range(1, 5):
        for j in range(1, 5):
            cache.feature_feature(i, j)
    pairs = [frozenset((i, j)) for i, js in fills for j in js]
    assert sorted(map(sorted, set(pairs))) == [[i, j] for i in range(1, 5) for j in range(i + 1, 5)]
    assert len(pairs) == len(set(pairs))  # each pair computed once


def test_measures_run_the_shipped_kernels(monkeypatch):
    # the public measures that acceptance criterion 1 checks are the kernel
    # the selectors run, not a second implementation of each measure
    calls = []
    count_calls(monkeypatch, select, "_class_scores", calls)
    x, y = ["0", "0", "1", "1"], ["a", "b", "a", "a"]
    for measure in (select.info_gain, select.gain_ratio, select.symmetrical_uncertainty):
        calls.clear()
        measure(x, y)
        assert calls == ["_class_scores"]

    # a hybrid fit builds one cache, whose feature-class row is the kernel's
    # SU, and ranks once by the kernel's information gain
    count_calls(monkeypatch, select, "rank_threshold", calls)

    class CountedCache(select.CorrelationCache):
        def __init__(self, ds):
            calls.append("CorrelationCache")
            super().__init__(ds)

    monkeypatch.setattr(select, "CorrelationCache", CountedCache)
    raw = four_column_dataset()
    binned = discretize.apply_discretizer(discretize.fit_discretizer(raw), raw)
    calls.clear()
    select.run_selection(binned, "hybrid", 0.3)
    assert calls == ["CorrelationCache", "_class_scores", "rank_threshold", "_class_scores"]


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # with filterwarnings = error, a deprecation warning raised in the
    # hypothesis plugin's report hook ends the session with INTERNALERROR,
    # hiding the example and every later test
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PERFBENCH.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


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
    report = pipeline.run_experiment(config)
    assert report.matrix.total == 600
    assert len(calls) == len(data.NSLKDD_SCHEMA) + 1


def test_train_and_eval_code_only_the_selected_columns(monkeypatch, synth_file, tmp_path):
    binned, selection = tmp_path / "disc" / "discretized.csv", tmp_path / "s.json"
    assert cli.main(["ingest", str(synth_file), "--out", str(tmp_path / "c.csv")]) == 0
    assert cli.main(["discretize", str(tmp_path / "c.csv"), "--out", str(binned.parent)]) == 0
    assert cli.main(["select", str(binned), "--out", str(selection)]) == 0
    model = tmp_path / "m.json"
    selected = len(data.read_json(selection, lambda p: p["indices"], "selection"))
    assert 0 < selected < len(data.NSLKDD_SCHEMA)
    calls = []
    count_calls(monkeypatch, data, "encode", calls)
    # the selected columns and the labels; eval's report counts class
    # positions, so it codes nothing more
    for args in (
        ["train", str(binned), "--selection", str(selection), "--out", str(model)],
        ["eval", str(binned), "--model", str(model), "--out", str(tmp_path / "r.json")],
    ):
        calls.clear()
        assert cli.main(args) == 0
        assert len(calls) == selected + 1


def test_reproduce_tables_parses_once(monkeypatch, synth_file, tmp_path):
    # both granularities share one parse; each grid row starts at the label map
    calls = []
    count_calls(monkeypatch, data, "parse_records", calls)
    written = pipeline.reproduce_tables(
        str(synth_file), str(tmp_path), rounds=2, sample=False, k=3
    )
    assert "per_attack_f.json" in written
    assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == 13  # grid rows
    assert calls == ["parse_records"]


def test_only_data_writes_json():
    # data.json_text and data.json_line are the package's JSON writers
    writers = {"dump", "dumps"}
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "data.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in writers
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "json"
                and writers & {alias.name for alias in node.names}
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_only_build_report_constructs_a_report():
    # CV and eval share evaluate.build_report; a second constructor would
    # bypass it and the evaluate.report.s span read through it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "evaluate.py":
            [builder] = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "build_report"
            ]
            allowed = {id(node) for node in ast.walk(builder)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == "EvaluationReport"
            ):
                where = "build_report" if id(node) in allowed else f"{path.name}:{node.lineno}"
                found.append(where)
    assert found == ["build_report"]


def test_a_dataset_holds_no_weights():
    # record weights belong to boosting alone: a dataset is its coding
    assert [f.name for f in dataclasses.fields(data.Dataset)] == [
        "schema", "codes", "vocabs", "label_codes", "label_vocab", "granularity",
    ]


def test_every_fit_is_checked_by_the_training_set_builder():
    # plain naive Bayes and boosting take their checks and label order from
    # _TrainingSet.of, not from copies of their own
    tree = ast.parse((PACKAGE / "classify.py").read_text())
    [training_set] = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "_TrainingSet"
    ]
    [builder] = [
        node for node in training_set.body
        if isinstance(node, ast.FunctionDef) and node.name == "of"
    ]
    inside = {id(node) for node in ast.walk(builder)}
    checks = {"check_discrete", "label_set"}
    found = [
        (ast.unparse(node.func).split(".")[-1], id(node) in inside)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in checks
    ]
    assert sorted(found) == [("check_discrete", True), ("label_set", True)]


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


BLAS_NAMES = {"dot", "vdot", "matmul", "einsum", "tensordot", "inner", "linalg"}


def test_no_blas_calls():
    # idspipe/__init__.py starts OpenBLAS with one thread; BLAS work would
    # need that default revisited
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in BLAS_NAMES
            ):
                found.append(f"{path.name}:{node.lineno} {node.func.id}()")
    assert found == []


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


def test_installed_command_exits_as_python_m_does():
    # the setuptools wrapper calls the script's function; naming main there
    # would bring back the interpreter teardown that the entry point skips
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PERFBENCH.parent / "pyproject.toml").read_text())["project"]
    [guard] = [
        node for node in ast.parse((PACKAGE / "cli.py").read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    [statement] = guard.body
    assert isinstance(statement.value, ast.Call)
    called = ast.unparse(statement.value.func)
    assert project["scripts"] == {"idspipe": f"idspipe.cli:{called}"}
    assert callable(getattr(cli, called))
