"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Criteria 1-6 are oracle/property checks that run in seconds with no data on
disk. Criteria 7-9 quantitatively reproduce the published desk-scale results
and need the real KDDTrain+ file (set IDSPIPE_DATA to its directory);
without it they report SKIP. Criterion 10 checks end-to-end determinism of
the reproduce-tables command.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from idspipe.classify import (
    boost_rounds,
    nb_predict,
    nb_predict_batch,
    train_adaboost_m1,
    train_naive_bayes,
)
from idspipe.config import (
    ClassifierConfig,
    DEFAULT_HYBRID_ALPHA,
    ExperimentConfig,
    SelectionConfig,
)
from idspipe.data import parse_records, reference_sample_counts, sample_indices
from idspipe.discretize import apply_discretizer, entropy, fit_discretizer, mdlp_cuts
from idspipe.evaluate import cross_validate, per_class_metrics
from idspipe.select import (
    CorrelationCache,
    best_first_search,
    cfs_merit,
    greedy_forward_search,
    info_gain,
    symmetrical_uncertainty,
    _greedy_path,
)
from idspipe.synth import synthetic_lines

from conftest import find_kddtrain, toy_dataset
from test_classify import HAND_COLUMNS, HAND_LABELS, oracle_posterior, weighted_fit
from test_discretize import oracle_mdlp
from test_select import FixedCache, oracle_entropy, oracle_ig, oracle_su, planted_dataset

# Published desk-scale reference values the reproduction is held against.
REFERENCE_GREEDY_SUBSET = {4, 5, 7, 8, 10, 12, 30, 35, 36, 37}
REFERENCE_WEIGHTED_F = 0.97  # published: 0.993
REFERENCE_WEIGHTED_FPR = 0.01  # published: 0.002
WALL_TIME_BUDGET_S = 15 * 60


@contextmanager
def criterion(num, title):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[criterion {num:2d}] SKIP — {title} ({exc})")
        raise
    except Exception:
        print(f"[criterion {num:2d}] FAIL — {title}")
        raise
    else:
        print(f"[criterion {num:2d}] PASS — {title}")


def test_criterion_01_entropy_ig_su_oracle_equivalence():
    with criterion(1, "entropy/IG/SU match brute-force evaluation; IG symmetric"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            x = [str(v) for v in rng.integers(0, rng.integers(1, 6), size=n)]
            y = [chr(97 + v) for v in rng.integers(0, rng.integers(1, 6), size=n)]
            assert abs(info_gain(x, y) - oracle_ig(x, y)) < 1e-12
            assert abs(info_gain(x, y) - info_gain(y, x)) < 1e-12
            assert abs(symmetrical_uncertainty(x, y) - oracle_su(x, y)) < 1e-12
            assert abs(entropy({v: x.count(v) for v in set(x)}) - oracle_entropy(x)) < 1e-12


def test_criterion_02_mdlp_oracle_equivalence():
    with criterion(2, "MDLP equals the exhaustive-midpoint recursive oracle"):
        assert mdlp_cuts([1, 2, 3, 4], ["a", "a", "b", "b"]) == [2.5]
        rng = np.random.default_rng(202)
        for _ in range(500):
            n = int(rng.integers(1, 51))
            if rng.random() < 0.5:
                values = rng.integers(0, 9, size=n).astype(float).tolist()
            else:
                values = np.round(rng.uniform(0, 5, size=n), 2).tolist()
            labels = [chr(97 + v) for v in rng.integers(0, rng.integers(1, 4), size=n)]
            assert mdlp_cuts(values, labels) == oracle_mdlp(values, labels)


def test_criterion_03_cfs_merit_and_greedy():
    with criterion(3, "CFS merit matches the direct formula; greedy finds planted feature"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            k = int(rng.integers(1, 11))
            indices = list(range(1, k + 1))
            cf = {i: float(rng.uniform(0, 1)) for i in indices}
            ff = {(i, j): float(rng.uniform(0, 1)) for i, j in combinations(indices, 2)}
            cache = FixedCache(cf, ff)
            rcf = sum(cf.values()) / k
            rff = (sum(ff.values()) / len(ff)) if ff else 0.0
            direct = k * rcf / math.sqrt(k + k * (k - 1) * rff)
            assert abs(cfs_merit(indices, cache) - direct) < 1e-12
            if k == 1:
                assert cfs_merit(indices, cache) == cf[1]
        hits = 0
        for seed in range(100):
            path = _greedy_path(CorrelationCache(planted_dataset(seed)))
            hits += path[0][0] == 1
        assert hits == 100


def test_criterion_04_adaboost_identities():
    with criterion(4, "AdaBoost reweighting identities and edge cases"):
        rng = np.random.default_rng(404)
        for trial in range(50):
            n = int(rng.integers(12, 40))
            labels = ["ab"[v] for v in rng.integers(0, 2, size=n)]
            informative = [
                l if rng.random() < 0.7 else "ab"[rng.integers(0, 2)] for l in labels
            ]
            ds = toy_dataset(
                [informative, rng.integers(0, 3, size=n).tolist()], labels
            )
            label_index = {lbl: i for i, lbl in enumerate(ds.label_set())}
            y = np.asarray([label_index[lbl] for lbl in ds.labels])
            for info in boost_rounds(ds, rounds=8):
                assert abs(info.weights_after.sum() - 1.0) < 1e-12
                if info.kept and not info.stopped:
                    predicted = nb_predict_batch(info.model, ds)
                    post_error = info.weights_after[predicted != y].sum()
                    assert abs(post_error - 0.5) < 1e-9
        # edge: perfectly separable -> eps = 0 on round one
        labels = ["a", "b"] * 20
        separable = toy_dataset([list(labels)], labels)
        assert len(train_adaboost_m1(separable, rounds=10).rounds) == 1
        # edge: balanced XOR -> eps = 0.5 exactly on round one
        xor = toy_dataset(
            [["0", "0", "1", "1"], ["0", "1", "0", "1"]], ["a", "b", "b", "a"]
        )
        assert len(train_adaboost_m1(xor, rounds=10).rounds) == 1


def test_criterion_05_naive_bayes_correctness():
    with criterion(5, "NB posteriors normalized, hand example exact, scale invariant"):
        ds = toy_dataset(HAND_COLUMNS, HAND_LABELS)
        model = train_naive_bayes(ds)
        assert model.labels == ("a", "b")
        queries = [("y", "q"), ("x", "p"), ("zzz", "q")]
        posteriors = nb_predict(model, toy_dataset(list(zip(*queries)), ["?"] * len(queries)))
        for values, post in zip(queries, posteriors):
            expected = oracle_posterior(values)
            assert abs(post.sum() - 1.0) < 1e-12
            for c, lbl in enumerate(model.labels):
                assert abs(post[c] - expected[lbl]) < 1e-12
        scaled = weighted_fit(ds, [3.0] * 4)
        assert np.allclose(model.priors, scaled.priors, atol=1e-12)
        for a, b in zip(model.cond, scaled.cond):
            assert np.allclose(a, b, atol=1e-12)
        rng = np.random.default_rng(505)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            ds = toy_dataset(
                [rng.integers(0, 3, size=n).tolist()],
                ["abc"[v] for v in rng.integers(0, 3, size=n)],
            )
            m = train_naive_bayes(ds)
            for post in nb_predict(m, ds.subset(range(min(n, 5)))):
                assert abs(post.sum() - 1.0) < 1e-12


def test_criterion_06_metric_arithmetic():
    with criterion(6, "per-class metrics match direct arithmetic; micro-recall = accuracy"):
        from idspipe.evaluate import ConfusionMatrix

        rng = np.random.default_rng(606)
        for _ in range(200):
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 40, size=(c, c)).astype(np.int64)
            if counts.sum() == 0:
                counts[0, 0] = 1
            m = ConfusionMatrix(
                labels=tuple(f"c{i}" for i in range(c)), counts=counts
            )
            total = counts.sum()
            metrics = per_class_metrics(m)
            for i, lbl in enumerate(m.labels):
                tp = counts[i, i]
                fp = counts[:, i].sum() - tp
                fn = counts[i, :].sum() - tp
                tn = total - tp - fp - fn
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f = 2 * p * r / (p + r) if p + r else 0.0
                fpr = fp / (fp + tn) if fp + tn else 0.0
                got = metrics[lbl]
                assert abs(got.precision - p) < 1e-12
                assert abs(got.recall - r) < 1e-12
                assert abs(got.f_measure - f) < 1e-12
                assert abs(got.fpr - fpr) < 1e-12
            micro = sum(metrics[l].recall * metrics[l].support for l in m.labels)
            assert abs(micro / total - np.trace(counts) / total) < 1e-9


# --- desk-scale quantitative reproduction (needs the real KDDTrain+) --------

_CACHE = {}


def _reference_sample():
    """Parsed 62,984-record reference sample, or None without the dataset."""
    if "sample" not in _CACHE:
        path = find_kddtrain()
        if path is None:
            _CACHE["sample"] = None
        else:
            with open(path, "r", encoding="utf-8") as fh:
                full = parse_records(fh)
            _CACHE["sample"] = full.subset(
                sample_indices(full, reference_sample_counts(), seed=0)
            )
    return _CACHE["sample"]


def _hybrid_reports():
    """Boosted and unboosted CV reports of the proposed pipeline, timed."""
    if "reports" not in _CACHE:
        sample = _reference_sample()
        start = time.monotonic()
        boosted = cross_validate(
            sample,
            ExperimentConfig(
                discretization="leaky",
                selection=SelectionConfig(method="hybrid", alpha=DEFAULT_HYBRID_ALPHA),
                classifier=ClassifierConfig(boost=True, rounds=10),
            ),
            k=10,
            seed=0,
        )
        elapsed = time.monotonic() - start
        unboosted = cross_validate(
            sample,
            ExperimentConfig(
                discretization="leaky",
                selection=SelectionConfig(method="hybrid", alpha=DEFAULT_HYBRID_ALPHA),
                classifier=ClassifierConfig(boost=False),
            ),
            k=10,
            seed=0,
        )
        _CACHE["reports"] = (boosted, unboosted, elapsed)
    return _CACHE["reports"]


def _require_dataset():
    if _reference_sample() is None:
        pytest.skip("KDDTrain+ not available; set IDSPIPE_DATA")


def test_criterion_07_proposed_pipeline_reproduction():
    with criterion(7, "proposed pipeline: weighted F >= 0.97, FPR <= 0.01, in budget"):
        _require_dataset()
        boosted, _, elapsed = _hybrid_reports()
        features = boosted.descriptor["selection"]["features"]
        print(
            f"    weighted F = {boosted.weighted.f_measure:.4f}, "
            f"FPR = {boosted.weighted.fpr:.4f}, "
            f"{len(features)} features {features}, "
            f"boosted CV wall time = {elapsed:.0f}s"
        )
        assert boosted.matrix.total == 62984
        assert boosted.weighted.f_measure >= REFERENCE_WEIGHTED_F
        assert boosted.weighted.fpr <= REFERENCE_WEIGHTED_FPR
        assert elapsed <= WALL_TIME_BUDGET_S


def test_criterion_08_boosting_per_attack_structure():
    with criterion(8, "boosting per-attack structure (teardrop/spy/perl, >=15 of 22)"):
        _require_dataset()
        boosted, unboosted, _ = _hybrid_reports()
        attacks = [lbl for lbl in boosted.matrix.labels if lbl != "normal"]
        assert len(attacks) == 22
        not_decreased = sum(
            boosted.per_class[a].f_measure >= unboosted.per_class[a].f_measure - 1e-12
            for a in attacks
        )
        print(
            "    boosting did not decrease F for "
            f"{not_decreased}/22 attacks; "
            f"teardrop F = {boosted.per_class['teardrop'].f_measure:.3f}, "
            f"spy F = {boosted.per_class['spy'].f_measure:.3f}, "
            f"perl F = {boosted.per_class['perl'].f_measure:.3f}"
        )
        assert not_decreased >= 15
        assert boosted.per_class["teardrop"].f_measure >= 0.99
        assert unboosted.per_class["teardrop"].f_measure >= 0.99
        assert boosted.per_class["spy"].f_measure == 0.0
        assert boosted.per_class["perl"].f_measure == 0.0


def test_criterion_09_greedy_vs_bestfirst():
    with criterion(9, "CFS+Greedy feature count <= CFS+BestFirst; overlap reported"):
        _require_dataset()
        reference_sample = _reference_sample()
        dds = apply_discretizer(fit_discretizer(reference_sample), reference_sample)
        cache = CorrelationCache(dds)
        greedy = greedy_forward_search(dds, cache)
        bestfirst = best_first_search(dds, cache)
        overlap = set(greedy.indices) & REFERENCE_GREEDY_SUBSET
        print(
            f"    greedy: {len(greedy.indices)} features {sorted(greedy.indices)}; "
            f"best-first: {len(bestfirst.indices)} features; "
            f"overlap with reference subset = {len(overlap)}/10"
        )
        assert len(greedy.indices) <= len(bestfirst.indices)
        if len(overlap) < 6:
            pytest.fail(
                f"greedy subset shares only {len(overlap)} features with the "
                f"reference selection {sorted(REFERENCE_GREEDY_SUBSET)}"
            )


def test_criterion_10_reproduce_tables_determinism(tmp_path):
    with criterion(10, "reproduce-tables twice with one seed: byte-identical outputs"):
        import contextlib
        import io

        from idspipe.cli import main

        src = tmp_path / "traffic.txt"
        src.write_text("\n".join(synthetic_lines(300, seed=9)) + "\n")
        args = [
            "reproduce-tables", str(src), "--no-sample",
            "--rounds", "2", "--k", "3", "--seed", "1",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(args + ["--out", str(tmp_path / "a")]) == 0
            assert main(args + ["--out", str(tmp_path / "b")]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir() if p.is_file())
        assert names  # the grid artifacts exist
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
