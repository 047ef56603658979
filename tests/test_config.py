from dataclasses import fields

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
