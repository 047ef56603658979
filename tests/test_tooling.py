"""The program names the benchmark's tracer (perfbench/tracer.py) wraps.

The tracer replaces public functions by name and reads per-layer metrics
through them; a renamed or bypassed function silently zeroes a metric.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import idspipe
from idspipe import classify, cli, data, discretize, evaluate, pipeline, select
from idspipe.config import ClassifierConfig, CrossValConfig, ExperimentConfig, PipelineConfig
from idspipe.data import CONTINUOUS, DISCRETE, stratified_folds

from conftest import cross_validate, toy_dataset
from test_cli import fresh_python

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
    cache.su_arrays([2, 1, 3, 4], range(1, 5))
    assert [i for i, _ in fills] == [2, 1, 3]  # row 4 is full by then
    fills.clear()
    cache = select.CorrelationCache(binned)
    cache.su_arrays([3], [1])
    select.greedy_forward_search(binned, cache)
    select.best_first_search(binned, cache)
    for i in range(1, 5):
        for j in range(1, 5):
            cache.su_arrays([i], [j])
    pairs = [frozenset((i, j)) for i, js in fills for j in js]
    assert sorted(map(sorted, set(pairs))) == [[i, j] for i in range(1, 5) for j in range(i + 1, 5)]
    assert len(pairs) == len(set(pairs))  # each pair computed once


def test_measures_run_the_shipped_kernels(monkeypatch):
    # the public measures that acceptance criterion 1 checks are the kernels
    # the selectors run: SU through _su_scores, information gain and gain
    # ratio through _class_scores, each with its entropies from one pass
    calls = []
    for name in ("_entropies", "_su_scores", "_class_scores", "rank_threshold"):
        count_calls(monkeypatch, select, name, calls)
    count_calls(monkeypatch, discretize, "entropy", calls)
    kernels = {
        "ig": ["_class_scores", "_entropies"],
        "gainratio": ["_class_scores", "_entropies"],
        "su": ["_entropies", "_su_scores"],
    }
    measures = {"ig": select.info_gain, "gainratio": select.gain_ratio,
                "su": select.symmetrical_uncertainty}
    raw = four_column_dataset()
    binned = discretize.apply_discretizer(discretize.fit_discretizer(raw), raw)
    for scorer, kernel in kernels.items():
        calls.clear()
        measures[scorer](["0", "0", "1", "1"], ["a", "b", "a", "a"])
        assert calls == kernel
        calls.clear()
        select.rank_threshold(binned, scorer, 0.3)
        assert calls == ["rank_threshold", *kernel]

    # a cache build takes every entropy from one pass, none from entropy(),
    # and its feature-class row from one SU kernel call
    calls.clear()
    cache = select.CorrelationCache(binned)
    assert calls == ["_entropies", "_su_scores"]
    calls.clear()
    cache.su_arrays(range(1, 5), range(1, 5))
    assert set(calls) == {"_su_scores"}

    # a hybrid fit builds one cache, fills the greedy search's rows through
    # the SU kernel and ranks once by information gain
    class CountedCache(select.CorrelationCache):
        def __init__(self, ds):
            calls.append("CorrelationCache")
            super().__init__(ds)

    monkeypatch.setattr(select, "CorrelationCache", CountedCache)
    calls.clear()
    select.run_selection(binned, "hybrid", 0.3)
    head, rows, tail = calls[:3], calls[3:-3], calls[-3:]
    assert head == ["CorrelationCache", "_entropies", "_su_scores"]
    assert rows and set(rows) == {"_su_scores"}
    assert tail == ["rank_threshold", *kernels["ig"]]


def test_the_test_cache_takes_the_cache_arguments():
    # a test double whose su_arrays took other arguments than the cache's
    # once let a merit read pairs no call had filled
    from test_select import FixedCache

    def parameters(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    assert parameters(FixedCache.su_arrays) == parameters(select.CorrelationCache.su_arrays)


def test_payload_decoders_take_numbers_through_json_number():
    # float() reads true as 1.0 and "2.5" as 2.5; data.json_number rejects
    # both, naming the key
    decoders, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in (
                "from_payload", "load_model_payload"
            ):
                decoders.append(f"{path.name}:{node.name}")
                calls += [
                    f"{path.name}:{call.lineno}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "float"
                ]
    assert {"classify.py:from_payload", "discretize.py:from_payload",
            "pipeline.py:load_model_payload", "selection.py:from_payload"} <= set(decoders)
    assert calls == []


def test_private_names_are_used_in_the_package():
    # a private module-level name that nothing in src/ reads is dead code
    # or a test helper left behind
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        read |= used_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [
                    t.id
                    for t in ast.walk(node)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                ]
            else:
                continue
            defined += [
                f"{name}:{t}" for t in targets if t.startswith("_") and not t.startswith("__")
            ]
    assert len(defined) > 40
    assert [d for d in defined if d.split(":")[1] not in read] == []


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
        PipelineConfig(
            str(synth_file),
            experiment=ExperimentConfig(classifier=ClassifierConfig(rounds=2)),
            cv=CrossValConfig(k=3),
            output_dir=str(tmp_path),
        )
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


def test_the_config_builder_builds_every_section():
    # a field holding a config dataclass that the builder does not recurse
    # into would keep a file's section as a plain dict
    module = idspipe.config
    classes = {
        obj for obj in vars(module).values()
        if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
    }
    assert len(classes) == 6
    for dc in classes:
        hints = typing.get_type_hints(dc)
        for f in dataclasses.fields(dc):
            held = [t for t in typing.get_args(hints[f.name]) or [hints[f.name]] if t in classes]
            assert module._section(f) is (held[0] if held else None), f"{dc.__name__}.{f.name}"


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
    # every public name comes from one name -> module table, on first access
    assert len(idspipe._EXPORTS) > 30
    assert idspipe.__all__ == sorted(idspipe._EXPORTS)
    differ = [
        name
        for name, module in idspipe._EXPORTS.items()
        if getattr(idspipe, name) is not getattr(importlib.import_module(f"idspipe.{module}"), name)
    ]
    assert differ == []
    with pytest.raises(AttributeError):
        idspipe.no_such_name
    code = "import idspipe, sys; print(sorted(m for m in sys.modules if 'idspipe' in m))"
    assert fresh_python(code) == "['idspipe']\n"


# The idspipe modules, besides cli, config and errors, that each command loads.
COMMAND_MODULES = {
    "ingest": {"data", "pipeline"},
    "discretize": {"data", "discretize"},
    "select": {"data", "discretize", "select", "selection"},
    "train": {"data", "selection", "classify", "pipeline"},
    "eval": {"data", "classify", "evaluate", "pipeline"},
}


def test_readme_names_the_modules_each_command_loads():
    heading = "idspipe modules besides `cli`, `config`, `errors`"
    lines = (PERFBENCH.parent / "README.md").read_text().splitlines()
    start = next(n for n, line in enumerate(lines) if heading in line)
    column = [cell.strip() for cell in lines[start].split("|")].index(heading)
    named = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2 :]):
        cells = line.split("|")
        named[cells[1].strip().strip("`")] = set(re.findall(r"`(\w+)`", cells[column]))
    assert named == {"--help": set(), **COMMAND_MODULES}


def in_fresh_process(*commands):
    """``[exit code, idspipe modules loaded, numpy loaded]`` after each command,
    run in turn through ``cli.main`` in one new interpreter."""
    code = f"""
import json, sys
from idspipe import cli
seen = []
for args in {[[str(a) for a in args] for args in commands]!r}:
    code = cli.main(args)
    loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("idspipe."))
    seen.append([code, loaded, "numpy" in sys.modules])
print(json.dumps(seen))
"""
    return json.loads(fresh_python(code).splitlines()[-1])


def test_each_command_imports_only_the_modules_it_runs(synth_file, tmp_path):
    base = ["cli", "config", "errors"]
    steps = [
        ["ingest", synth_file, "--out", tmp_path / "d.csv"],
        ["discretize", tmp_path / "d.csv", "--out", tmp_path / "disc"],
        ["select", tmp_path / "disc" / "discretized.csv", "--out", tmp_path / "s.json"],
        ["train", tmp_path / "disc" / "discretized.csv", "--selection", tmp_path / "s.json",
         "--rounds", "2", "--out", tmp_path / "m.json"],
        ["eval", tmp_path / "disc" / "discretized.csv", "--model", tmp_path / "m.json",
         "--out", tmp_path / "r.json"],
    ]
    for args in steps:  # one process per command, each reading the last one's output
        [[code, loaded, numpy]] = in_fresh_process(args)
        assert (args[0], code, loaded, numpy) == (
            args[0], 0, sorted(base + list(COMMAND_MODULES[args[0]])), True
        )

    # help and usage errors load no stage module and no numpy
    helps = [["--help"]] + [[name, "--help"] for name in cli.cli.commands]
    seen = in_fresh_process(*helps, ["run", "--input", "x", "--k", "1"])
    assert seen == [[0, base, False]] * len(helps) + [[1, base, False]]


def module_level_imports(tree: ast.Module) -> list[str]:
    """Modules a file imports outside its functions; relative ones start with a dot."""
    in_functions = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in in_functions:
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
    return found


@pytest.mark.parametrize("name", ["config.py", "errors.py"])
def test_cli_option_modules_import_neither_numpy_nor_idspipe(name):
    # cli imports these at start; each command loads the rest when it runs
    imported = module_level_imports(ast.parse((PACKAGE / name).read_text()))
    assert [m for m in imported if m.split(".")[0] in ("", "idspipe", "numpy")] == []


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
