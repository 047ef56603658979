import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idspipe.classify import (
    ERROR_FLOOR,
    MIN_VOTE_WEIGHT,
    EnsembleModel,
    NaiveBayesModel,
    boost_rounds,
    ensemble_predict_batch,
    nb_predict_batch,
    train_adaboost_m1,
    train_classifier,
    train_naive_bayes,
)
from idspipe.config import ClassifierConfig
from idspipe import classify
from idspipe.data import DISCRETE, Dataset, FeatureSchema
from idspipe.errors import DataError
from idspipe.pipeline import load_model_payload, model_json

from conftest import columns_of, nb_predict, toy_dataset

# 4 records, 2 features, labels 3xa / 1xb; the worked example used throughout.
HAND_COLUMNS = [["x", "x", "y", "y"], ["p", "q", "p", "q"]]
HAND_LABELS = ["a", "a", "a", "b"]


def hand_dataset():
    return toy_dataset(HAND_COLUMNS, HAND_LABELS)


def weighted_fit(ds, weights, label_set=None):
    """The naive Bayes fit a boosting round makes, on records weighed by ``weights``."""
    smoothing = ClassifierConfig.smoothing
    ts = classify._TrainingSet.of(ds, smoothing, label_set)
    return classify._fit_naive_bayes(ts, np.asarray(weights, dtype=float), smoothing)


def oracle_posterior(record_values):
    """Explicit smoothed arithmetic for the 4-record example, pure Python."""
    # priors with Laplace over 2 classes
    prior = {"a": (3 + 1) / (4 + 2), "b": (1 + 1) / (4 + 2)}
    # per-feature conditionals: domain 2 values + 1 unseen slot
    counts = {
        0: {"a": {"x": 2, "y": 1}, "b": {"x": 0, "y": 1}},
        1: {"a": {"p": 2, "q": 1}, "b": {"p": 0, "q": 1}},
    }
    mass = {"a": 3, "b": 1}
    score = {}
    for cls in ("a", "b"):
        s = prior[cls]
        for f, value in enumerate(record_values):
            denom = mass[cls] + 1.0 * (2 + 1)
            s *= (counts[f][cls].get(value, 0) + 1.0) / denom
        score[cls] = s
    total = score["a"] + score["b"]
    return {cls: s / total for cls, s in score.items()}


def one_row(ds, i):
    """Record i of ``ds`` as a dataset of its own, coded afresh."""
    return toy_dataset([[col[i]] for col in columns_of(ds)], [ds.labels[i]])


def query(*values):
    """One unlabelled record with the given feature values."""
    return toy_dataset([[v] for v in values], ["?"])


def ensemble_text(ensemble):
    """The ensemble as ``model.json`` writes it."""
    return model_json("adaboost-nb", ensemble, [])


def random_dataset(seed, n=None, separable=False):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(12, 40))
    labels = ["ab"[v] for v in rng.integers(0, 2, size=n)]
    if separable:
        cols = [list(labels), rng.integers(0, 3, size=n).tolist()]
    else:
        cols = [
            rng.integers(0, 3, size=n).tolist(),
            rng.integers(0, 2, size=n).tolist(),
            rng.integers(0, 4, size=n).tolist(),
        ]
    return toy_dataset(cols, labels)


class TestTrainNaiveBayes:
    def test_smoothed_priors(self):
        model = train_naive_bayes(hand_dataset())
        assert model.labels == ("a", "b")
        assert model.priors[0] == pytest.approx((3 + 1) / (4 + 2), abs=1e-12)
        assert model.priors[1] == pytest.approx((1 + 1) / (4 + 2), abs=1e-12)

    def test_declared_label_set_smoothing(self):
        ds = toy_dataset([["x", "y"]], ["a", "a"])
        model = train_naive_bayes(ds, label_set=("a", "b"))
        assert model.priors[0] < 1.0
        assert model.priors[1] > 0.0
        assert model.priors.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weight_scale_invariance(self):
        base = train_naive_bayes(hand_dataset())
        doubled = weighted_fit(hand_dataset(), [2.0] * 4)
        assert np.allclose(base.priors, doubled.priors, atol=1e-12)
        for a, b in zip(base.cond, doubled.cond):
            assert np.allclose(a, b, atol=1e-12)

    def test_conditionals_normalized_and_positive(self):
        model = train_naive_bayes(hand_dataset())
        for table in model.cond:
            assert (table > 0).all()
            assert np.allclose(table.sum(axis=0), 1.0, atol=1e-12)

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="cannot train on an empty dataset"):
            train_naive_bayes(hand_dataset().subset([]))
        with pytest.raises(ValueError, match="cannot train on an empty dataset"):
            next(boost_rounds(hand_dataset().subset([])))

    @pytest.mark.parametrize("smoothing", [0.0, -1.0, math.nan, math.inf])
    def test_smoothing_must_be_finite_and_positive(self, smoothing):
        with pytest.raises(ValueError, match="smoothing constant must be finite and positive"):
            train_naive_bayes(hand_dataset(), smoothing=smoothing)
        with pytest.raises(ValueError, match="smoothing constant must be finite and positive"):
            next(boost_rounds(hand_dataset(), smoothing=smoothing))

    @pytest.mark.parametrize("smoothing", [1e308, 5e-324])
    def test_smoothing_that_rounds_a_probability_to_0_is_rejected(self, smoothing):
        # 1e308 overflows the denominators, so the priors would be 0; 5e-324
        # underflows the cells of absent values to 0
        message = re.escape(
            f"smoothing constant {smoothing!r} rounds a probability to 0 on 4 records"
        )
        with pytest.raises(ValueError, match=message):
            train_naive_bayes(hand_dataset(), smoothing=smoothing)
        with pytest.raises(ValueError, match=message):
            next(boost_rounds(hand_dataset(), smoothing=smoothing))

    def test_label_outside_declared_set(self):
        with pytest.raises(ValueError):
            train_naive_bayes(hand_dataset(), label_set=("a",))

    def test_deterministic(self):
        one = train_naive_bayes(random_dataset(3))
        two = train_naive_bayes(random_dataset(3))
        import json

        assert json.dumps(one.to_payload(), sort_keys=True) == json.dumps(
            two.to_payload(), sort_keys=True
        )


    def test_value_absent_from_training_rows_is_unseen(self):
        # "z" is in the vocabulary of the full dataset, not in the training
        # rows sliced from it
        full = toy_dataset(
            [HAND_COLUMNS[0] + ["z"], HAND_COLUMNS[1] + ["p"]], HAND_LABELS + ["b"]
        )
        train, test = full.subset([0, 1, 2, 3]), full.subset([4])
        model = train_naive_bayes(train)
        assert model.feature_values == (("x", "y"), ("p", "q"))
        assert [table.shape for table in model.cond] == [(3, 2), (3, 2)]
        scores = model.log_posteriors(test)[0]
        posterior = np.exp(scores - scores.max()) / np.exp(scores - scores.max()).sum()
        expected = oracle_posterior(("z", "p"))
        assert posterior.tolist() == pytest.approx([expected["a"], expected["b"]], abs=1e-12)


class TestNbPredict:
    def test_memorized_single_record(self):
        ds = toy_dataset([["x"], ["p"]], ["a"])
        model = train_naive_bayes(ds)
        [post] = nb_predict(model, one_row(ds, 0))
        assert model.labels[post.argmax()] == "a"

    def test_uninformative_features_recover_priors(self):
        # balanced classes and a feature seen equally in both: cancels out
        ds = toy_dataset([["u", "v", "u", "v"]], ["a", "a", "b", "b"])
        model = train_naive_bayes(ds)
        [post] = nb_predict(model, query("u"))
        assert model.labels == ("a", "b")
        assert post[0] == pytest.approx(post[1], abs=1e-12)
        assert post[0] == pytest.approx(model.priors[0], abs=1e-12)

    def test_hand_computed_posteriors(self):
        model = train_naive_bayes(hand_dataset())
        assert model.labels == ("a", "b")
        for values in (("y", "q"), ("x", "p"), ("x", "q"), ("y", "p")):
            [post] = nb_predict(model, query(*values))
            expected = oracle_posterior(values)
            assert post[0] == pytest.approx(expected["a"], abs=1e-12)
            assert post[1] == pytest.approx(expected["b"], abs=1e-12)

    def test_unseen_value_uses_reserved_slot(self):
        model = train_naive_bayes(hand_dataset())
        [post] = nb_predict(model, query("zzz", "q"))
        expected = oracle_posterior(("zzz", "q"))
        assert model.labels == ("a", "b")
        assert post[0] == pytest.approx(expected["a"], abs=1e-12)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_values_match_by_csv_text_form(self):
        # bins fitted in memory are ints; read back from a dataset CSV they are text
        model = train_naive_bayes(toy_dataset([[0, 1, 2, 10, 1, 0]], list("aabbba")))
        as_text = toy_dataset([["0", "1", "2", "10", "1", "0", "7"]], list("aabbbaa"))
        as_ints = toy_dataset([[0, 1, 2, 10, 1, 0, 7]], list("aabbbaa"))
        assert np.array_equal(model.log_posteriors(as_text), model.log_posteriors(as_ints))

    @pytest.mark.parametrize("seed", range(6))
    def test_posteriors_sum_to_one(self, seed):
        ds = random_dataset(seed)
        model = train_naive_bayes(ds)
        for i in range(min(len(ds), 10)):
            [post] = nb_predict(model, one_row(ds, i))
            assert post.sum() == pytest.approx(1.0, abs=1e-12)
        for post in nb_predict(model, ds):
            assert post.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_log_space_matches_direct_product(self, seed):
        ds = random_dataset(seed, n=20)
        model = train_naive_bayes(ds)
        for i in range(5):
            [post] = nb_predict(model, one_row(ds, i))
            direct = []
            for c in range(len(model.labels)):
                s = model.priors[c]
                for f, column in enumerate(columns_of(ds)):
                    values = model.feature_values[f]
                    value = column[i]
                    idx = values.index(value) if value in values else len(values)
                    s *= model.cond[f][idx, c]
                direct.append(s)
            total = sum(direct)
            for c in range(len(model.labels)):
                assert post[c] == pytest.approx(direct[c] / total, abs=1e-9)

    def test_batch_matches_single(self):
        ds = random_dataset(11)
        model = train_naive_bayes(ds)
        codes = nb_predict_batch(model, ds)
        for i in range(len(ds)):
            [post] = nb_predict(model, one_row(ds, i))
            assert codes[i] == post.argmax()


def unblocked_log_posteriors(model, ds):
    """Log prior plus each feature's log conditional, one feature at a time."""
    scores = np.tile(np.log(model.priors), (len(ds), 1))
    for f, column in enumerate(columns_of(ds)):
        values = [str(v) for v in model.feature_values[f]]
        rows = [values.index(str(v)) if str(v) in values else len(values) for v in column]
        scores += np.log(model.cond[f])[rows]
    return scores


class TestScoringKernel:
    @pytest.mark.parametrize("block, n", [(7, 30), (7, 7), (classify.SCORE_BLOCK, 4100)])
    def test_blocked_scores_equal_unblocked_bit_for_bit(self, monkeypatch, block, n):
        monkeypatch.setattr(classify, "SCORE_BLOCK", block)
        rng = np.random.default_rng(n)
        train = toy_dataset(
            [rng.integers(0, 4, size=60).tolist(), list(rng.choice(["tcp", "udp"], size=60)),
             rng.integers(0, 9, size=60).tolist()],
            ["abc"[v] for v in rng.integers(0, 3, size=60)],
        )
        model = train_naive_bayes(train)
        # values 4..5 and 9..10 never occur in training: reserved rows
        test = toy_dataset(
            [rng.integers(0, 6, size=n).tolist(), list(rng.choice(["tcp", "udp", "icmp"], size=n)),
             rng.integers(0, 11, size=n).tolist()],
            ["a"] * n,
        )
        scores = model.log_posteriors(test)
        assert scores.shape == (n, 3)
        assert np.array_equal(
            scores.view(np.int64), unblocked_log_posteriors(model, test).view(np.int64)
        )

    def test_model_without_features_scores_its_priors(self):
        model = train_naive_bayes(hand_dataset().project([]))
        scores = model.log_posteriors(hand_dataset().project([]))
        assert np.array_equal(scores, np.tile(np.log(model.priors), (4, 1)))

    def test_corrupted_row_index_raises_instead_of_clipping(self):
        model = train_naive_bayes(hand_dataset())
        model._rows.index[0]["x"] = 3  # one past the reserved row of a 3-row table
        with pytest.raises(IndexError):
            model.log_posteriors(hand_dataset())

    def test_table_shorter_than_its_values_raises(self):
        # two values need three rows: theirs and the unseen one
        payload = train_naive_bayes(hand_dataset()).to_payload()
        table = payload["features"][1]["cond"]
        for rows in (table[:2], table + [table[-1]]):
            payload["features"][1]["cond"] = rows
            with pytest.raises(DataError, match=f"feature 2 has {len(rows)} table rows"):
                NaiveBayesModel.from_payload(payload)


class TestAdaBoost:
    def test_perfect_round_stops_early(self):
        ds = random_dataset(0, separable=True)
        ensemble = train_adaboost_m1(ds, rounds=10)
        assert len(ensemble.rounds) == 1
        assert ensemble.rounds[0][1] > 20  # log((1-1e-10)/1e-10)

    def test_weak_first_round_kept_with_minimal_vote(self):
        # balanced XOR: every posterior ties, all records predicted as the
        # first label, so the round-1 weighted error is exactly 0.5
        ds = toy_dataset(
            [["0", "0", "1", "1"], ["0", "1", "0", "1"]], ["a", "b", "b", "a"]
        )
        rounds = list(boost_rounds(ds, rounds=10))
        assert len(rounds) == 1
        assert rounds[0].error >= 0.5
        assert rounds[0].kept and rounds[0].stopped
        ensemble = train_adaboost_m1(ds, rounds=10)
        assert len(ensemble.rounds) == 1
        assert ensemble.rounds[0][1] == pytest.approx(1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_reweighting_identities(self, seed):
        ds = random_dataset(seed)
        label_index = {lbl: i for i, lbl in enumerate(ds.label_set())}
        y = np.asarray([label_index[lbl] for lbl in ds.labels])
        for info in boost_rounds(ds, rounds=6):
            assert info.weights_after.sum() == pytest.approx(1.0, abs=1e-12)
            if info.kept and not info.stopped:
                # the just-trained hypothesis sits at chance on the new weights
                predicted = nb_predict_batch(info.model, ds)
                err = info.weights_after[predicted != y].sum()
                assert err == pytest.approx(0.5, abs=1e-9)
                assert info.vote_weight == pytest.approx(
                    math.log((1 - info.error) / info.error), abs=1e-12
                )

    def test_boosting_training_error_bound_and_bulk_improvement(self):
        # The hard guarantee is the classic bound: ensemble training error
        # <= prod_t 2*sqrt(e_t(1-e_t)). The comparison against the single
        # model holds in bulk but admits one-off exceptions on noisy data,
        # so it is asserted in aggregate over the seeded family.
        def learnable(seed, n=40):
            rng = np.random.default_rng(seed)
            labels = ["ab"[v] for v in rng.integers(0, 2, size=n)]
            f1 = [l if rng.random() < 0.75 else "ab"[rng.integers(0, 2)] for l in labels]
            f2 = [l if rng.random() < 0.65 else "ab"[rng.integers(0, 2)] for l in labels]
            return toy_dataset([f1, f2, rng.integers(0, 3, size=n).tolist()], labels)

        considered = 0
        not_worse = 0
        nb_errs, boost_errs = [], []
        for seed in range(40):
            ds = learnable(seed)
            label_index = {lbl: i for i, lbl in enumerate(ds.label_set())}
            y = np.asarray([label_index[lbl] for lbl in ds.labels])
            infos = list(boost_rounds(ds, rounds=10))
            if infos[0].error >= 0.5:
                continue
            considered += 1
            nb_err = (nb_predict_batch(infos[0].model, ds) != y).mean()
            ensemble = train_adaboost_m1(ds, rounds=10)
            boost_err = (ensemble_predict_batch(ensemble, ds) != y).mean()
            nb_errs.append(nb_err)
            boost_errs.append(boost_err)
            if boost_err <= nb_err + 1e-12:
                not_worse += 1
            effective = [i for i in infos if i.kept and not i.stopped]
            if infos[-1].stopped and infos[-1].error == 0.0:
                bound = 0.0
            else:
                bound = math.prod(
                    2 * math.sqrt(i.error * (1 - i.error)) for i in effective
                ) if effective else 1.0
            assert boost_err <= bound + 1e-9
        assert considered >= 20
        assert not_worse >= 0.8 * considered
        assert np.mean(boost_errs) <= np.mean(nb_errs) + 1e-12

    def test_deterministic_training(self):
        a = train_adaboost_m1(random_dataset(7), rounds=5)
        b = train_adaboost_m1(random_dataset(7), rounds=5)
        assert ensemble_text(a) == ensemble_text(b)


class TestEnsemblePredict:
    def nb_stub(self, value_to_label):
        """Single-feature NB over labels ``a`` and ``b``, trained to map each value
        to one label."""
        values = sorted(value_to_label)
        ds = toy_dataset([values], [value_to_label[v] for v in values])
        return train_naive_bayes(ds, label_set=("a", "b"))

    def test_single_round_equals_base_model(self):
        ds = random_dataset(2)
        model = train_naive_bayes(ds)
        ensemble = EnsembleModel(labels=model.labels, rounds=((model, 1.0),))
        assert np.array_equal(
            ensemble_predict_batch(ensemble, ds), nb_predict_batch(model, ds)
        )

    def test_heavier_round_wins(self):
        # the heavier round votes for the later label, which a tie would not pick
        m_a = self.nb_stub({"v": "a", "w": "a"})
        m_b = self.nb_stub({"v": "b", "w": "b"})
        ensemble = EnsembleModel(labels=("a", "b"), rounds=((m_a, 1.0), (m_b, 2.0)))
        assert ensemble.labels[ensemble_predict_batch(ensemble, query("v"))[0]] == "b"

    def test_majority_vote(self):
        m_a = self.nb_stub({"v": "a"})
        m_b = self.nb_stub({"v": "b"})
        ensemble = EnsembleModel(
            labels=("a", "b"), rounds=((m_a, 1.0), (m_a, 1.0), (m_b, 1.0))
        )
        assert ensemble.labels[ensemble_predict_batch(ensemble, query("v"))[0]] == "a"

    def test_tie_breaks_by_label_order(self):
        m_a = self.nb_stub({"v": "a"})
        m_b = self.nb_stub({"v": "b"})
        ensemble = EnsembleModel(labels=("a", "b"), rounds=((m_b, 1.0), (m_a, 1.0)))
        assert ensemble.labels[ensemble_predict_batch(ensemble, query("v"))[0]] == "a"

    def test_every_round_shares_the_ensembles_labels(self):
        m_a = self.nb_stub({"v": "a"})
        ds = toy_dataset([["v"]], ["a"])
        only_a = train_naive_bayes(ds)
        with pytest.raises(ValueError, match="round 2 labels differ from the ensemble's"):
            EnsembleModel(labels=("a", "b"), rounds=((m_a, 1.0), (only_a, 1.0)))

    def test_serialization_bit_identical_predictions(self):
        ds = random_dataset(9)
        ensemble = train_adaboost_m1(ds, rounds=4)
        text = model_json("adaboost-nb", ensemble, [1])
        kind, again, features = load_model_payload(json.loads(text))
        assert (kind, features) == ("adaboost-nb", [1])
        assert model_json(kind, again, features) == text
        assert np.array_equal(
            again.vote_matrix(ds), ensemble.vote_matrix(ds)
        )
        nb = train_naive_bayes(ds)
        nb_again = NaiveBayesModel.from_payload(nb.to_payload())
        assert np.array_equal(nb.log_posteriors(ds), nb_again.log_posteriors(ds))

    @pytest.mark.parametrize("loaded", [False, True], ids=["fitted", "loaded"])
    def test_rounds_find_a_datasets_rows_once(self, loaded):
        ds = random_dataset(9, n=60)
        ensemble = train_adaboost_m1(ds, rounds=4)
        if loaded:  # equal but distinct value lists in every round
            _, ensemble, _ = load_model_payload(json.loads(ensemble_text(ensemble)))
        assert len(ensemble.rounds) > 1
        other = ds.subset(np.arange(0, len(ds), 3))
        for scored in (ds, other, ds):
            found = [model.record_rows(scored) for model, _ in ensemble.rounds]
            assert all(rows is found[0] for rows in found)
            votes = np.zeros((len(scored), len(ensemble.labels)))
            for model, vote in ensemble.rounds:  # rows found afresh every round
                votes[np.arange(len(scored)), nb_predict_batch(model, recoded(scored))] += vote
            assert np.array_equal(ensemble.vote_matrix(scored), votes)


class TestTrainClassifier:
    def test_plain_nb_is_one_round_with_vote_one(self):
        ds = random_dataset(4)
        ensemble = train_classifier(ds, ClassifierConfig(boost=False, smoothing=0.5))
        model = train_naive_bayes(ds, smoothing=0.5)
        [(round_model, vote)] = ensemble.rounds
        assert vote == 1.0
        assert round_model.to_payload() == model.to_payload()
        assert ensemble.labels == model.labels

    def test_boosted_is_adaboost_m1(self):
        ds = random_dataset(5)
        ensemble = train_classifier(ds, ClassifierConfig(rounds=3), label_set=("a", "b"))
        reference = train_adaboost_m1(ds, rounds=3, label_set=("a", "b"))
        assert ensemble_text(ensemble) == ensemble_text(reference)


def recoded(ds):
    """The records of ``ds`` encoded afresh from their decoded values."""
    return Dataset.from_columns(ds.schema, columns_of(ds), ds.labels, ds.granularity)


def reference_adaboost(ds, rounds, labels):
    """AdaBoost.M1 that trains and predicts on freshly read columns each round."""
    y = np.asarray([labels.index(lbl) for lbl in ds.labels])
    weights = np.full(len(ds), 1.0 / len(ds))
    kept = []
    for t in range(rounds):
        model = weighted_fit(recoded(ds), weights, label_set=labels)
        mis = nb_predict_batch(model, recoded(ds)) != y
        error = float(weights[mis].sum())
        if error >= 0.5:
            if t == 0:
                kept.append((model, MIN_VOTE_WEIGHT))
            break
        if error == 0.0:
            kept.append((model, math.log((1.0 - ERROR_FLOOR) / ERROR_FLOOR)))
            break
        kept.append((model, math.log((1.0 - error) / error)))
        weights = weights.copy()
        weights[mis] *= (1.0 - error) / error
        weights /= weights.sum()
    return EnsembleModel(labels=labels, rounds=tuple(kept))


def reference_predict(ensemble, ds):
    votes = np.zeros((len(ds), len(ensemble.labels)))
    for model, vote in ensemble.rounds:
        votes[np.arange(len(ds)), nb_predict_batch(model, recoded(ds))] += vote
    return votes.argmax(axis=1)


@st.composite
def split_datasets(draw):
    """A dataset mixing object and int columns, and a row split of it."""
    n = draw(st.integers(4, 40))
    rows = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(rows)
        if draw(st.booleans()):
            columns.append(np.asarray(values, dtype=np.int64))
        else:
            columns.append(np.asarray(["tcp", "udp", "icmp", "SF"], dtype=object)[values])
    labels = np.asarray(draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n)), dtype=object)
    full = Dataset.from_columns(
        FeatureSchema(tuple((f"f{i}", DISCRETE) for i in range(1, len(columns) + 1))),
        columns,
        labels,
    )
    in_train = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    return full, np.flatnonzero(in_train), np.flatnonzero(np.logical_not(in_train))


class TestCodedPath:
    @given(split=split_datasets())
    @settings(max_examples=60, deadline=None)
    def test_plain_naive_bayes_is_boostings_first_round(self, split):
        full, train_idx, _ = split
        labels = full.label_set()
        train = full.subset(train_idx)
        plain = train_naive_bayes(train, label_set=labels)
        first = next(boost_rounds(train, rounds=1, label_set=labels)).model
        assert plain.labels == first.labels
        assert plain.feature_values == first.feature_values
        np.testing.assert_allclose(plain.priors, first.priors, rtol=1e-12)
        for a, b in zip(plain.cond, first.cond):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    @given(split=split_datasets(), rounds=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_boosting_matches_per_round_raw_reference(self, split, rounds):
        full, train_idx, test_idx = split
        labels = full.label_set()
        train, test = full.subset(train_idx), full.subset(test_idx)
        ensemble = train_adaboost_m1(train, rounds=rounds, label_set=labels)
        reference = reference_adaboost(recoded(train), rounds, labels)
        assert ensemble_text(ensemble) == ensemble_text(reference)
        assert np.array_equal(
            ensemble_predict_batch(ensemble, test), reference_predict(reference, test)
        )
