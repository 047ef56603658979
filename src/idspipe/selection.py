"""Selection outcomes: feature subsets, rankings, and the ``selection.json`` format.

The selectors in :mod:`idspipe.select` return these types. This module
imports neither the selectors nor the discretizer, so reading a
``selection.json`` (the ``train`` command) loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .data import json_int, json_number, json_text


@dataclass(frozen=True)
class FeatureSubset:
    """Unordered selection outcome: sorted 1-based indices plus CFS merit."""

    indices: tuple[int, ...]
    merit: float = 0.0

    def __post_init__(self):
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("subset indices must be sorted and unique")


@dataclass(frozen=True)
class RankedFeatures:
    """(index, score) pairs in descending score order, ties by index."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        scores = [s for _, s in self.entries]
        if any(not math.isfinite(s) for s in scores):
            raise ValueError("ranked scores must be finite")
        keys = [(-s, i) for i, s in self.entries]
        if keys != sorted(keys):
            raise ValueError("entries must be sorted by descending score")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)


@dataclass(frozen=True)
class SelectionResult:
    """Serializable outcome of one selection run."""

    method: str
    alpha: float | None
    subset: FeatureSubset
    ranking: RankedFeatures | None = None
    components: Mapping[str, tuple[int, ...]] | None = None

    def to_payload(self) -> dict:
        payload: dict = {
            "version": 1,
            "method": self.method,
            "alpha": self.alpha,
            "indices": list(self.subset.indices),
            "merit": self.subset.merit,
        }
        if self.ranking is not None:
            payload["ranking"] = [[i, s] for i, s in self.ranking.entries]
        if self.components is not None:
            payload["components"] = {k: list(v) for k, v in self.components.items()}
        return payload

    def to_json(self) -> str:
        return json_text(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SelectionResult":
        ranking = None
        if "ranking" in payload:
            ranking = RankedFeatures(
                entries=tuple(
                    (json_int(i, f"ranking[{n}][0]"), json_number(s, f"ranking[{n}][1]"))
                    for n, (i, s) in enumerate(payload["ranking"])
                )
            )
        components = None
        if "components" in payload:
            components = {
                str(k): tuple(json_int(i, f"components.{k}[{n}]") for n, i in enumerate(v))
                for k, v in payload["components"].items()
            }
        merit = json_number(payload.get("merit", 0.0), "merit")
        if not math.isfinite(merit):
            raise ValueError(f"merit must be finite, got {merit!r}")
        return cls(
            method=str(payload["method"]),
            alpha=None if payload.get("alpha") is None else json_number(payload["alpha"], "alpha"),
            subset=FeatureSubset(
                indices=tuple(
                    json_int(i, f"indices[{n}]") for n, i in enumerate(payload["indices"])
                ),
                merit=merit,
            ),
            ranking=ranking,
            components=components,
        )
