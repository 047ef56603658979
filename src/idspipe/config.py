"""Dataclass configuration for reproducible experiment runs.

A config file is a JSON object whose keys mirror these dataclasses; every
CLI flag overrides exactly one key. See README for the documented schema.
This module also owns the option vocabularies, and imports no other idspipe
module at module level, so the CLI can declare its options from it alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Mapping

ATTACK23 = "attack23"
CATEGORY5 = "category5"
GRANULARITIES = (ATTACK23, CATEGORY5)

SELECTION_METHODS = (
    "cfs-greedy",
    "cfs-bestfirst",
    "ig",
    "gainratio",
    "correlation",
    "hybrid",
)

DISCRETIZATION_MODES = ("leaky", "fold-safe")

# Default cutoff for the hybrid selector's second stage: a leftover feature
# is added when its information gain reaches this fraction of the best
# leftover's gain. Chosen so only the clearly informative tier joins the
# CFS subset; override with --alpha for sensitivity studies.
DEFAULT_HYBRID_ALPHA = 0.6


@dataclass(frozen=True)
class SelectionConfig:
    method: str = "hybrid"
    alpha: float = DEFAULT_HYBRID_ALPHA

    def __post_init__(self):
        if self.method not in SELECTION_METHODS:
            raise ValueError(
                f"selection.method must be one of {SELECTION_METHODS}, "
                f"got {self.method!r}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("selection.alpha must lie in [0, 1]")


@dataclass(frozen=True)
class ClassifierConfig:
    boost: bool = True
    rounds: int = 10
    smoothing: float = 1.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("classifier.rounds must be at least 1")
        if not 0 < self.smoothing < math.inf:
            raise ValueError("classifier.smoothing must be finite and positive")

    @property
    def kind(self) -> str:
        """Classifier type named in report descriptors and ``model.json``."""
        return "adaboost-nb" if self.boost else "nb"


@dataclass(frozen=True)
class CrossValConfig:
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("cv.k must be at least 2")
        if self.seed < 0:
            raise ValueError("cv.seed must be non-negative")


@dataclass(frozen=True)
class SampleConfig:
    """Optional distribution-matched sampling before the pipeline proper.

    ``target`` is either the literal ``reference`` (the built-in 62,984
    record histogram) or a path to a JSON file mapping label -> count.
    """

    target: str = "reference"
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("sample.seed must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything cross_validate needs: preprocessing + selection + learner."""

    discretization: str = "leaky"
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self):
        if self.discretization not in DISCRETIZATION_MODES:
            raise ValueError(
                f"discretization must be one of {DISCRETIZATION_MODES}, "
                f"got {self.discretization!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Full description of one experiment run."""

    input_path: str
    granularity: str = ATTACK23
    sample: SampleConfig | None = None
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    cv: CrossValConfig = field(default_factory=CrossValConfig)
    output_dir: str = "run-artifacts"

    def __post_init__(self):
        # a path-like input is held as its text, as config.json writes it
        object.__setattr__(self, "input_path", str(self.input_path))
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")

    def to_payload(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        from .data import json_text

        return json_text(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PipelineConfig":
        """Config from its JSON object; a key no dataclass field names is an error."""
        return _build(cls, payload)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        payload = json.loads(text)
        # A report's descriptor embeds the resolved config; accept it too.
        if isinstance(payload, Mapping) and "config" in payload.get("descriptor", {}):
            payload = payload["descriptor"]["config"]
        return cls.from_payload(payload)


# Sections that may be null, by field name; every other section is a field
# whose default_factory is a config dataclass.
_OPTIONAL_SECTIONS = {"sample": SampleConfig}

# Accepted and dropped: files written while MDLP still had that option hold it.
_IGNORED_KEYS = frozenset({"experiment.candidates"})


def _section(f) -> type | None:
    """The config dataclass field ``f`` holds, or None for a plain value."""
    if is_dataclass(f.default_factory):
        return f.default_factory
    return _OPTIONAL_SECTIONS.get(f.name)


def _build(dc, payload, path: str = ""):
    """``dc`` from its JSON object, built field by field in declaration order.

    A missing or empty object reads as ``{}``, and a missing section as its
    defaults; an optional section given as null stays None. ``path``
    prefixes key names in errors (``"experiment."``).
    """
    payload = payload or {}
    if not isinstance(payload, Mapping):
        raise TypeError(f"{path.rstrip('.') or 'config'} must be a JSON object")
    names = {f.name for f in fields(dc)}
    unknown = sorted(k for k in payload if k not in names and path + k not in _IGNORED_KEYS)
    if unknown:
        raise ValueError(f"unknown key {path + unknown[0]!r}")
    kwargs = {}
    for f in fields(dc):
        value, section = payload.get(f.name), _section(f)
        if section is not None and (value is not None or f.default is MISSING):
            kwargs[f.name] = _build(section, value, f"{path}{f.name}.")
        elif f.name in payload:
            kwargs[f.name] = value
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing key {path + f.name!r}")
    return dc(**kwargs)
