import functools
import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from idspipe import evaluate
from idspipe.classify import train_classifier
from idspipe.cli import main
from idspipe.config import ClassifierConfig, ExperimentConfig, SelectionConfig
from idspipe.data import (
    ATTACK_CATEGORY,
    CONTINUOUS,
    DISCRETE,
    NORMAL,
    Dataset,
    FoldPlan,
    json_text,
    stratified_folds,
)
from idspipe.discretize import apply_discretizer, fit_discretizer
from idspipe.errors import UnknownLabelError
from idspipe.select import SELECTION_METHODS, run_selection
from idspipe.evaluate import (
    ConfusionMatrix,
    aggregate,
    build_report,
    cross_validate,
    cross_validate_plan,
    per_class_metrics,
)
from idspipe.pipeline import model_json

from idspipe.synth import synthetic_lines

from conftest import columns_of, toy_dataset

matrices = st.integers(2, 5).flatmap(
    lambda c: arrays(np.int64, (c, c), elements=st.integers(0, 40)).filter(
        lambda m: m.sum() > 0
    )
)


def matrix_of(counts):
    counts = np.asarray(counts, dtype=np.int64)
    labels = tuple(f"c{i}" for i in range(counts.shape[0]))
    return ConfusionMatrix(labels=labels, counts=counts)


def matrix_of_labels(truths, preds, labels):
    """The matrix counted from the labels' positions in ``labels``."""
    positions = [[labels.index(lbl) for lbl in column] for column in (truths, preds)]
    return ConfusionMatrix.from_codes(*np.asarray(positions, dtype=np.int64), labels)


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        truths = ["a", "b", "b", "c"]
        m = matrix_of_labels(truths, truths, ("a", "b", "c"))
        assert np.array_equal(m.counts, np.diag([1, 2, 1]))

    def test_empty_input(self):
        m = matrix_of_labels([], [], ("a", "b"))
        assert m.counts.sum() == 0

    def test_counted_example(self):
        m = matrix_of_labels(["a", "a", "b"], ["a", "b", "b"], ("a", "b"))
        assert m.counts.tolist() == [[1, 1], [0, 1]]

    @given(
        pairs=st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), max_size=60),
        order=st.permutations("abc"),
    )
    @settings(max_examples=60)
    def test_matches_pair_loop(self, pairs, order):
        expected = np.zeros((3, 3), dtype=np.int64)
        for t, p in pairs:
            expected[order.index(t), order.index(p)] += 1
        m = matrix_of_labels([t for t, _ in pairs], [p for _, p in pairs], tuple(order))
        assert m.counts.tolist() == expected.tolist()

    def test_row_sums_are_supports(self):
        m = matrix_of_labels(["a", "a", "b"], ["b", "b", "b"], ("a", "b"))
        assert m.support("a") == 2
        assert m.support("b") == 1
        assert m.total == 3


class TestPerClassMetrics:
    def test_diagonal_is_perfect(self):
        metrics = per_class_metrics(matrix_of(np.diag([5, 3, 2])))
        for m in metrics.values():
            assert m.precision == m.recall == m.f_measure == 1.0
            assert m.fpr == 0.0

    def test_worked_example(self):
        # class c0: TP=8, FN=2 (row), FP=2 (column)
        m = matrix_of([[8, 2], [2, 88]])
        metrics = per_class_metrics(m)["c0"]
        assert metrics.precision == pytest.approx(0.8, abs=1e-12)
        assert metrics.recall == pytest.approx(0.8, abs=1e-12)
        assert metrics.f_measure == pytest.approx(0.8, abs=1e-12)
        assert metrics.fpr == pytest.approx(2 / 90, abs=1e-12)

    def test_zero_support_conventions(self):
        m = matrix_of([[0, 0], [0, 7]])
        metrics = per_class_metrics(m)["c0"]
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f_measure == 0.0
        assert metrics.fpr == 0.0

    @given(matrices)
    @settings(max_examples=150)
    def test_matches_direct_arithmetic(self, counts):
        m = matrix_of(counts)
        total = counts.sum()
        metrics = per_class_metrics(m)
        for i, lbl in enumerate(m.labels):
            tp = counts[i, i]
            fp = counts[:, i].sum() - tp
            fn = counts[i, :].sum() - tp
            tn = total - tp - fp - fn
            got = metrics[lbl]
            assert tp + fp + fn + tn == total
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            fpr = fp / (fp + tn) if fp + tn else 0.0
            assert got.precision == pytest.approx(p, abs=1e-12)
            assert got.recall == pytest.approx(r, abs=1e-12)
            assert got.f_measure == pytest.approx(f, abs=1e-12)
            assert got.fpr == pytest.approx(fpr, abs=1e-12)
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    @given(matrices)
    @settings(max_examples=100)
    def test_micro_recall_equals_accuracy(self, counts):
        m = matrix_of(counts)
        metrics = per_class_metrics(m)
        micro_tp = sum(
            metrics[lbl].recall * metrics[lbl].support for lbl in m.labels
        )
        accuracy = np.trace(counts) / counts.sum()
        assert micro_tp / counts.sum() == pytest.approx(accuracy, abs=1e-9)


class TestAggregate:
    def test_constant_metric(self):
        m = matrix_of(np.diag([10, 30]))
        w = aggregate(per_class_metrics(m))
        assert w.f_measure == pytest.approx(1.0, abs=1e-12)

    def test_weighted_mean(self):
        from idspipe.evaluate import ClassMetrics

        per_class = {
            "big": ClassMetrics(1.0, 1.0, 1.0, 0.0, support=90),
            "small": ClassMetrics(0.0, 0.0, 0.0, 0.0, support=10),
        }
        assert aggregate(per_class).f_measure == pytest.approx(0.9, abs=1e-12)

    def test_zero_support_errors(self):
        from idspipe.evaluate import ClassMetrics

        with pytest.raises(ValueError):
            aggregate({"a": ClassMetrics(0, 0, 0, 0, support=0)})


def cv_config(boost=False, method="cfs-greedy", mode="leaky", rounds=3):
    return ExperimentConfig(
        discretization=mode,
        selection=SelectionConfig(method=method, alpha=0.3),
        classifier=ClassifierConfig(boost=boost, rounds=rounds),
    )


def cv_dataset(seed=0, n=120):
    rng = np.random.default_rng(seed)
    labels = ["abc"[v] for v in rng.integers(0, 3, size=n)]
    informative = [
        lbl if rng.random() < 0.8 else "abc"[rng.integers(0, 3)] for lbl in labels
    ]
    noisy = rng.normal(size=n).tolist()
    shifted = (rng.normal(size=n) + [{"a": 0, "b": 1.5, "c": 3}[l] for l in labels]).tolist()
    return toy_dataset(
        [informative, noisy, shifted],
        labels,
        kinds=["discrete", CONTINUOUS, CONTINUOUS],
    )


class TestCrossValidate:
    def test_every_record_predicted_once(self):
        ds = cv_dataset()
        report = cross_validate(ds, cv_config(), k=10, seed=0)
        assert report.matrix.total == len(ds)

    def test_perfectly_learnable(self):
        labels = ["a", "b"] * 30
        ds = toy_dataset([list(labels)], labels)
        report = cross_validate(ds, cv_config(), k=5, seed=1)
        assert report.weighted.f_measure == pytest.approx(1.0, abs=1e-12)
        assert report.weighted.fpr == 0.0

    def test_fold_relabeling_invariance(self):
        ds = cv_dataset(3)
        plan = stratified_folds(ds, 6, seed=4)
        report_a = cross_validate_plan(ds, cv_config(), plan, seed=4)
        perm = np.random.default_rng(0).permutation(6)
        relabeled = type(plan)(k=6, assignments=perm[plan.assignments])
        report_b = cross_validate_plan(ds, cv_config(), relabeled, seed=4)
        assert np.array_equal(report_a.matrix.counts, report_b.matrix.counts)

    def test_class_missing_from_training_fold(self):
        # one 'rare' record: its training folds lack the class entirely
        labels = ["a"] * 30 + ["b"] * 30 + ["rare"]
        ds = toy_dataset([["x"] * 61], labels)
        report = cross_validate(ds, cv_config(), k=5, seed=0)
        assert report.matrix.total == 61
        assert report.per_class["rare"].f_measure == 0.0

    def test_leaky_and_fold_safe_modes_run(self):
        ds = cv_dataset(5)
        leaky = cross_validate(ds, cv_config(mode="leaky"), k=4, seed=2)
        safe = cross_validate(ds, cv_config(mode="fold-safe"), k=4, seed=2)
        assert leaky.descriptor["discretization"] == "leaky"
        assert safe.descriptor["discretization"] == "fold-safe"
        assert "per_fold" in safe.descriptor["selection"]
        assert len(safe.descriptor["selection"]["per_fold"]) == 4

    def test_boosted_run_and_descriptor(self):
        ds = cv_dataset(6)
        report = cross_validate(ds, cv_config(boost=True), k=4, seed=3)
        assert report.descriptor["classifier"]["type"] == "adaboost-nb"
        assert report.matrix.total == len(ds)

    def test_deterministic(self):
        ds = cv_dataset(7)
        a = cross_validate(ds, cv_config(boost=True), k=5, seed=9)
        b = cross_validate(ds, cv_config(boost=True), k=5, seed=9)
        assert a.to_json() == b.to_json()


def workers(n):
    """Run cross-validation as if ``n`` CPUs were usable."""
    return mock.patch.object(evaluate, "usable_cpus", return_value=n)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgError(Exception):
    """Pickles, but does not unpickle: its one-argument ``args`` miss ``b``."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def failing_folds(bad, error=ValueError):
    """FoldPlan.train_indices raising ``error(f"bad fold {fold}")`` for every fold in ``bad``."""
    train_indices = FoldPlan.train_indices

    def train_or_fail(self, fold):
        if fold in bad:
            raise error(f"bad fold {fold}")
        return train_indices(self, fold)

    return mock.patch.object(FoldPlan, "train_indices", train_or_fail)


class TestFoldMap:
    """The folds of a CV run are split over up to one forked process per usable CPU."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(40, 90),
        k=st.integers(2, 5),
        mode=st.sampled_from(["leaky", "fold-safe"]),
        boost=st.booleans(),
        method=st.sampled_from(["cfs-greedy", "hybrid"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_report_and_selections_independent_of_workers(self, seed, n, k, mode, boost, method):
        # with k = 2, three usable CPUs still fork only one child
        ds = cv_dataset(seed, n=n)
        plan = stratified_folds(ds, k, seed)
        config = cv_config(boost=boost, method=method, mode=mode, rounds=2)
        texts = []
        for count in (1, 2, 3):
            with workers(count):
                texts.append(cross_validate_plan(ds, config, plan, seed=seed).to_json())
        assert texts[1] == texts[0] and texts[2] == texts[0]
        if mode == "fold-safe":
            assert len(json.loads(texts[0])["descriptor"]["selection"]["per_fold"]) == k
        assert_no_child_left()

    @pytest.mark.parametrize("exc_type", [ValueError, UnknownLabelError, KeyError])
    @pytest.mark.parametrize("mode", ["leaky", "fold-safe"])
    def test_child_error_is_raised_as_with_one_worker(self, exc_type, mode):
        # fold 1 runs in a child when there are two workers or more
        ds = cv_dataset(2)
        plan = stratified_folds(ds, 4, 0)
        raised = []
        for count in (1, 2, 3):
            with workers(count), failing_folds({1}, exc_type), pytest.raises(exc_type) as info:
                cross_validate_plan(ds, cv_config(mode=mode), plan, seed=0)
            raised.append((type(info.value), str(info.value)))
            assert_no_child_left()
        assert raised == [(exc_type, str(exc_type("bad fold 1")))] * 3

    def test_first_failing_fold_wins(self):
        # on two workers fold 2 fails in this process and fold 1 in the child
        ds = cv_dataset(2)
        plan = stratified_folds(ds, 4, 0)
        for count in (1, 2):
            with workers(count), failing_folds({1, 2}):
                with pytest.raises(ValueError, match="bad fold 1$"):
                    cross_validate_plan(ds, cv_config(), plan, seed=0)
            assert_no_child_left()

    def test_unpicklable_child_error_names_the_fold(self):
        ds = cv_dataset(2)
        plan = stratified_folds(ds, 4, 0)
        error = functools.partial(TwoArgError, "unpicklable")
        with workers(2), failing_folds({3}, error), pytest.raises(
            RuntimeError, match="^fold 3 raised TwoArgError, which cannot be sent"
        ):
            cross_validate_plan(ds, cv_config(), plan, seed=0)
        assert_no_child_left()

    @pytest.mark.parametrize("mode", ["leaky", "fold-safe"])
    def test_cli_exit_code_and_line_as_with_one_worker(self, tmp_path, capsys, mode):
        src = tmp_path / "traffic.txt"
        src.write_text("\n".join(synthetic_lines(200, seed=3)) + "\n")
        outcomes = []
        for count in (1, 2):
            args = ["run", "--input", str(src), "--sample", "none", "--no-boost", "--k", "4",
                    "--discretization", mode, "--out", str(tmp_path / f"o{count}")]
            with workers(count), failing_folds({1}):
                code = main(args)
            err = capsys.readouterr().err
            outcomes.append((code, err))
            assert_no_child_left()
        assert outcomes[0] == outcomes[1] == (2, "error: stage evaluate: bad fold 1\n")

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_platform_without_fork_runs_folds_here(self, monkeypatch, missing):
        # macOS has no sched_getaffinity, Windows neither call
        ds = cv_dataset(4)
        plan = stratified_folds(ds, 4, 0)
        with workers(1):
            expected = cross_validate_plan(ds, cv_config(mode="fold-safe"), plan, seed=0)
        monkeypatch.delattr(os, missing)
        assert evaluate.usable_cpus() == 1
        report = cross_validate_plan(ds, cv_config(mode="fold-safe"), plan, seed=0)
        assert report.to_json() == expected.to_json()

    @pytest.mark.parametrize("forks_made", [0, 1])
    def test_failed_fork_runs_the_share_here(self, monkeypatch, forks_made):
        # three workers: the first (forks_made = 0) or the second fork fails
        ds = cv_dataset(5)
        plan = stratified_folds(ds, 5, 0)
        config = cv_config(mode="fold-safe")
        with workers(1):
            expected = cross_validate_plan(ds, config, plan, seed=0).to_json()
        fork, forks = os.fork, []

        def fork_until_limit():
            if len(forks) == forks_made:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", fork_until_limit)
        fds = os.listdir("/proc/self/fd")
        with workers(3):
            assert cross_validate_plan(ds, config, plan, seed=0).to_json() == expected
        assert os.listdir("/proc/self/fd") == fds  # the failed fork's pipe is closed
        assert len(forks) == forks_made
        assert_no_child_left()

    def test_fork_warning_of_threaded_process_is_silenced(self, monkeypatch):
        # Python 3.12+ warns when a process with native threads forks, and
        # the test configuration turns warnings into errors
        fork = os.fork

        def warning_fork():
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                "may lead to deadlocks in the child.",
                DeprecationWarning,
            )
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        ds = cv_dataset(3)
        with workers(2):
            report = cross_validate(ds, cv_config(), k=4, seed=0)
        assert report.matrix.total == len(ds)
        assert_no_child_left()


class TestReportSerialization:
    def test_roundtrip(self):
        ds = cv_dataset(8)
        report = cross_validate(ds, cv_config(), k=4, seed=0)
        payload = json.loads(report.to_json())
        assert json_text(payload) == report.to_json()
        # the stored matrix and descriptor rebuild the whole report
        labels, counts = payload["matrix"]["labels"], np.asarray(payload["matrix"]["counts"])
        cells = np.repeat(np.arange(counts.size), counts.ravel())
        again = build_report(*np.divmod(cells, len(labels)), labels, payload["descriptor"])
        assert again.to_json() == report.to_json()
        assert np.array_equal(again.matrix.counts, report.matrix.counts)

    def test_format_table_contains_classes_and_weighted_row(self):
        report = build_report([0, 1, 0], [0, 1, 1], ("a", "b"), descriptor={})
        table = report.format_table()
        assert "weighted" in table
        assert "a" in table and "b" in table
        assert "FPR" in table


LABELS23 = sorted(ATTACK_CATEGORY) + [NORMAL]


@st.composite
def coded_training_folds(draw):
    """A training fold of a dataset: mixed columns, some constant.

    The fold slices the full dataset's codes, so its vocabularies may hold
    values and classes (out of a subset of the 23 labels) that no row of the
    fold takes; one class may be missing from the fold altogether.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 150))
    classes = rng.choice(LABELS23, size=draw(st.integers(2, 23)), replace=False)
    y = rng.integers(0, len(classes), size=n)
    kinds, columns = [], []
    for _ in range(draw(st.integers(1, 6))):
        kinds.append(draw(st.sampled_from([CONTINUOUS, DISCRETE])))
        noise = rng.integers(0, draw(st.integers(1, 6)), size=n)
        if draw(st.integers(0, 3)) == 0:
            noise, y_part = np.zeros(n, dtype=np.int64), 0  # a constant column
        else:
            y_part = y
        if kinds[-1] == CONTINUOUS:
            columns.append(np.round((y_part * 0.7 + noise) / 3, 3).tolist())
        else:
            columns.append([f"v{v}" for v in (y_part + noise) % 5])
    ds = toy_dataset(columns, classes[y].tolist(), kinds=kinds)
    keep = rng.random(n) < draw(st.sampled_from([0.5, 0.8, 1.0]))
    if draw(st.booleans()):
        keep &= y != y[0]  # the fold misses a class
    keep[rng.integers(0, n)] |= not keep.any()
    return ds.subset(np.flatnonzero(keep))


def recoded(ds):
    """The same records, encoded afresh from their decoded values."""
    return Dataset.from_columns(ds.schema, columns_of(ds), ds.labels, ds.granularity)


class TestCarriedCoding:
    @given(coded_training_folds(), st.sampled_from(SELECTION_METHODS), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_carried_coding_matches_a_fresh_one(self, fold, method, boost):
        model = fit_discretizer(fold)
        fresh_model = fit_discretizer(recoded(fold))
        assert [[c.hex() for c in cpl.cuts] for cpl in model.cut_lists] == [
            [c.hex() for c in cpl.cuts] for cpl in fresh_model.cut_lists
        ]

        binned = apply_discretizer(model, fold)
        for i, (codes, vocab) in enumerate(zip(binned.codes, binned.vocabs), 1):
            assert [vocab[c] for c in codes] == binned.column(i).tolist()
        for cpl in model.cut_lists:
            assert binned.vocabs[cpl.feature_index - 1] == tuple(range(cpl.n_bins))

        fresh = recoded(binned)
        selection = run_selection(binned, method, 0.3)
        fresh_selection = run_selection(fresh, method, 0.3)
        assert selection.to_json() == fresh_selection.to_json()
        assert selection.subset.merit.hex() == fresh_selection.subset.merit.hex()

        features = selection.subset.indices or (1,)
        label_set = fold.label_vocab
        config = ClassifierConfig(boost=boost, rounds=3)
        trained = train_classifier(binned.project(features), config, label_set)
        retrained = train_classifier(fresh.project(features), config, label_set)
        assert model_json(config.kind, trained, features) == model_json(
            config.kind, retrained, features
        )
