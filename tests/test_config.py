import math
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idspipe.config import (
    DISCRETIZATION_MODES,
    GRANULARITIES,
    SELECTION_METHODS,
    ClassifierConfig,
    CrossValConfig,
    ExperimentConfig,
    PipelineConfig,
    SampleConfig,
    SelectionConfig,
)

SEEDS = st.integers(0, 2**63 - 1)

# Valid values for every field of every config dataclass.
FIELD_VALUES = {
    SelectionConfig: {
        "method": st.sampled_from(SELECTION_METHODS),
        "alpha": st.floats(0, 1),
    },
    ClassifierConfig: {
        "boost": st.booleans(),
        "rounds": st.integers(1, 10**6),
        "smoothing": st.floats(0, exclude_min=True, allow_infinity=False),
    },
    CrossValConfig: {"k": st.integers(2, 10**6), "seed": SEEDS},
    SampleConfig: {"target": st.text(), "seed": SEEDS},
    ExperimentConfig: {
        "discretization": st.sampled_from(DISCRETIZATION_MODES),
        "selection": st.deferred(lambda: configs_of(SelectionConfig)),
        "classifier": st.deferred(lambda: configs_of(ClassifierConfig)),
    },
    PipelineConfig: {
        "input_path": st.text(),
        "granularity": st.sampled_from(GRANULARITIES),
        "sample": st.none() | st.deferred(lambda: configs_of(SampleConfig)),
        "experiment": st.deferred(lambda: configs_of(ExperimentConfig)),
        "cv": st.deferred(lambda: configs_of(CrossValConfig)),
        "output_dir": st.text(),
    },
}


def configs_of(dc):
    return st.builds(dc, **FIELD_VALUES[dc])


def test_the_strategies_cover_every_field():
    assert {dc: set(values) for dc, values in FIELD_VALUES.items()} == {
        dc: {f.name for f in fields(dc)} for dc in FIELD_VALUES
    }


@given(configs_of(PipelineConfig))
@settings(max_examples=200, deadline=None)
def test_a_config_round_trips_through_its_payload_and_json(config):
    payload = config.to_payload()
    assert PipelineConfig.from_payload(payload) == config
    assert PipelineConfig.from_json(config.to_json()) == config
    if config.sample is None:  # an absent sample reads as null
        del payload["sample"]
        assert PipelineConfig.from_payload(payload) == config


def payload_with(key, value):
    """A valid config payload with ``value`` at the dotted ``key``."""
    payload = {"input_path": "records.txt", "sample": {}}
    *sections, leaf = key.split(".")
    section = payload
    for name in sections:
        section = section.setdefault(name, {})
    section[leaf] = value
    return payload


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("experiment.classifier.boost", "false", "must be true or false, got 'false'"),
        ("experiment.classifier.boost", 0, "must be true or false, got 0"),
        ("experiment.classifier.rounds", 2.5, "must be an integer, got 2.5"),
        ("experiment.classifier.rounds", True, "must be an integer, got True"),
        ("cv.k", 3.0, "must be an integer, got 3.0"),
        ("cv.k", "3", "must be an integer, got '3'"),
        ("cv.seed", None, "must be an integer, got None"),
        ("sample.seed", 1.5, "must be an integer, got 1.5"),
        ("experiment.selection.alpha", True, "must be a number, got True"),
        ("experiment.selection.alpha", "0.5", "must be a number, got '0.5'"),
        ("experiment.classifier.smoothing", False, "must be a number, got False"),
        ("experiment.selection.method", 5, "must be a string, got 5"),
        ("experiment.discretization", None, "must be a string, got None"),
        ("granularity", ["attack23"], "must be a string, got ['attack23']"),
        ("input_path", 5, "must be a string, got 5"),
        ("output_dir", {}, "must be a string, got {}"),
        ("sample.target", 0, "must be a string, got 0"),
    ],
)
def test_a_leaf_of_another_json_type_names_its_key(key, value, message):
    with pytest.raises(ValueError) as caught:
        PipelineConfig.from_payload(payload_with(key, value))
    assert str(caught.value) == f"{key} {message}"


@pytest.mark.parametrize("key", ["experiment.selection.alpha", "experiment.classifier.smoothing"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_float_leaf_rejects_non_finite_values(key, value):
    with pytest.raises(ValueError):
        PipelineConfig.from_payload(payload_with(key, value))


def test_a_float_leaf_keeps_an_int_as_given():
    config = PipelineConfig.from_payload(payload_with("experiment.selection.alpha", 1))
    assert type(config.experiment.selection.alpha) is int
    assert '"alpha": 1,' in config.to_json()


def test_every_leaf_annotation_has_a_type_check():
    from idspipe.config import _LEAF_TYPES

    leaves = {
        f.type
        for dc in FIELD_VALUES
        for f in fields(dc)
        if not is_dataclass(f.default_factory) and f.name != "sample"
    }
    assert leaves <= set(_LEAF_TYPES)
