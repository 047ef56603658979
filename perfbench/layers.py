"""Per-layer metrics from the spans of one traced workload execution.

A layer is one module of the program: ``data``, ``discretize``, ``select``,
``classify``, ``evaluate``, ``pipeline`` and ``cli``. Each process of an
execution contributes a root span timed by the benchmark (``process``); the
spans recorded inside it by ``tracer.py`` hang below it. A span's self time
is its duration minus the durations of its direct children, so the self
times of all spans add up to the summed process wall times.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

LAYERS = ("process", "cli", "pipeline", "evaluate", "select", "discretize", "classify", "data")
CLI_COMMANDS = ("ingest", "discretize", "select", "train", "eval")

# (metric, unit): every metric a traced run reports, in print order.
PER_LAYER = (
    [
        ("classify.nb_train.s", "s"),
        ("classify.nb_train.calls", "count"),
        ("classify.nb_predict.s", "s"),
        ("classify.nb_predict.calls", "count"),
        ("classify.boost_round.s", "s"),
        ("classify.ensemble_predict.s", "s"),
        ("classify.boost.rounds_run", "count"),
        ("classify.boost.rounds_kept", "count"),
        ("classify.boost.kept_ratio", "ratio"),
        ("classify.unseen_rate", "ratio"),
        ("select.cache_build.s", "s"),
        ("select.cache_build.calls", "count"),
        ("select.rank_threshold.s", "s"),
        ("select.rank_threshold.calls", "count"),
        ("select.greedy.s", "s"),
        ("select.run.hybrid.s", "s"),
        ("select.features", "count"),
        ("discretize.fit.s", "s"),
        ("discretize.fit.calls", "count"),
        ("discretize.apply.s", "s"),
        ("discretize.apply.calls", "count"),
        ("discretize.cuts", "count"),
        ("data.parse_records.s", "s"),
        ("data.parse_records.calls", "count"),
        ("data.sample_indices.s", "s"),
        ("data.map_labels.s", "s"),
        ("data.stratified_folds.s", "s"),
        ("data.read_dataset.s", "s"),
        ("data.write_dataset.s", "s"),
        ("data.records_in", "count"),
        ("evaluate.cv.s", "s"),
        ("evaluate.fold.s", "s"),
        ("evaluate.report.s", "s"),
        ("pipeline.deploy.s", "s"),
        ("pipeline.run.self_s", "s"),
        ("pipeline.artifact_bytes", "bytes"),
    ]
    + [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
    + [("cli.load_model.s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_total_s", "s"),
    ]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    attrs: dict
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


def build_tree(processes) -> tuple[list[Span], list[tuple[Span, list[float]]]]:
    """All spans, and each cross-validation span with its fold start times.

    ``processes`` holds one (start, end, payload) triple per process, where
    ``payload`` is what ``tracer.py`` wrote.
    """
    spans: list[Span] = []
    folds: list[tuple[Span, list[float]]] = []
    for start, end, payload in processes:
        root = Span("process", start, end, {})
        spans.append(root)
        by_id = {}
        for span_id, parent, name, s, e, attrs in payload["spans"]:
            span = Span(name, s, e, attrs)
            by_id[span_id] = span
            (root if parent is None else by_id[parent]).children.append(span)
            spans.append(span)
        for span_id, span in by_id.items():
            if span.name == "evaluate.cross_validate_plan":
                marks = sorted(t for parent, t in payload["marks"] if parent == span_id)
                folds.append((span, marks))
    return spans, folds


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(processes, unseen: list[int], artifact_bytes: int) -> dict[str, float]:
    """Every PER_LAYER metric but ``trace.overhead_s``, for one execution."""
    spans, folds = build_tree(processes)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    rounds = named("classify.boost_round")
    kept = sum(1 for s in rounds if s.attrs.get("kept"))
    selections = named("select.run_selection")
    fold_times = []
    for cv, marks in folds:
        ends = marks[1:] + [cv.end]
        fold_times += [e - s for s, e in zip(marks, ends)]
    deploy = sum(
        c.duration
        for run in named("pipeline.run_experiment")
        for c in run.children
        if c.layer in ("discretize", "select", "classify")
    )
    wall = max(s.end for s in spans if s.name == "process") - min(
        s.start for s in spans if s.name == "process"
    )
    m = {
        "classify.nb_train.s": total("classify.train_naive_bayes"),
        "classify.nb_train.calls": len(named("classify.train_naive_bayes")),
        "classify.nb_predict.s": total("classify.nb_predict_batch"),
        "classify.nb_predict.calls": len(named("classify.nb_predict_batch")),
        "classify.boost_round.s": _median([s.duration for s in rounds]),
        "classify.ensemble_predict.s": total("classify.ensemble_predict_batch"),
        "classify.boost.rounds_run": len(rounds),
        "classify.boost.rounds_kept": kept,
        "classify.boost.kept_ratio": kept / len(rounds) if rounds else 0.0,
        "classify.unseen_rate": unseen[0] / unseen[1] if unseen[1] else 0.0,
        "select.cache_build.s": total("select.CorrelationCache"),
        "select.cache_build.calls": len(named("select.CorrelationCache")),
        "select.rank_threshold.s": total("select.rank_threshold"),
        "select.rank_threshold.calls": len(named("select.rank_threshold")),
        "select.greedy.s": total("select.greedy_forward_search"),
        "select.run.hybrid.s": sum(
            s.duration for s in selections if s.attrs["method"] == "hybrid"
        ),
        "select.features": _median([s.attrs["features"] for s in selections]),
        "discretize.fit.s": total("discretize.fit_discretizer"),
        "discretize.fit.calls": len(named("discretize.fit_discretizer")),
        "discretize.apply.s": total("discretize.apply_discretizer"),
        "discretize.apply.calls": len(named("discretize.apply_discretizer")),
        "discretize.cuts": _median([s.attrs["cuts"] for s in named("discretize.fit_discretizer")]),
        "data.parse_records.s": total("data.parse_records"),
        "data.parse_records.calls": len(named("data.parse_records")),
        "data.sample_indices.s": total("data.sample_indices"),
        "data.map_labels.s": total("data.map_labels"),
        "data.stratified_folds.s": total("data.stratified_folds"),
        "data.read_dataset.s": total("data.read_dataset"),
        "data.write_dataset.s": total("data.write_dataset"),
        "data.records_in": sum(s.attrs["records"] for s in named("data.parse_records")),
        "evaluate.cv.s": total("evaluate.cross_validate_plan"),
        "evaluate.fold.s": _median(fold_times),
        "evaluate.report.s": total("evaluate.build_report"),
        "pipeline.deploy.s": deploy,
        "pipeline.run.self_s": sum(s.self_time for s in named("pipeline.run_experiment")),
        "pipeline.artifact_bytes": artifact_bytes,
        "cli.load_model.s": total("pipeline.load_model_payload"),
        "trace.wall_s": wall,
        "trace.self_total_s": sum(s.self_time for s in spans),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total(f"cli.{command}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self_time for s in spans if s.layer == layer)
    return m
