"""End-to-end experiment driver: ingest through report, with artifacts.

Every stage failure is wrapped in a StageError naming the stage, so the CLI
can emit a single-line diagnostic and the right exit code. All artifacts are
written with sorted keys and fixed formatting; two runs with the same config
produce byte-identical files.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

from . import classify
from .config import (
    DEFAULT_HYBRID_ALPHA,
    ClassifierConfig,
    CrossValConfig,
    ExperimentConfig,
    PipelineConfig,
    SampleConfig,
    SelectionConfig,
)
from .data import (
    ATTACK23,
    CATEGORY5,
    Dataset,
    json_text,
    map_labels,
    parse_records,
    read_json,
    reference_sample_counts,
    sample_indices,
    stratified_folds,
)
from .errors import DataError, StageError
from .evaluate import EvaluationReport, cross_validate_plan, fit_preprocessing


@dataclass
class RunResult:
    report: EvaluationReport
    artifacts: dict[str, Path]


def _stage(name: str):
    """Decorator mapping stage failures onto StageError with exit codes."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except (DataError, OSError, ValueError) as exc:
                raise StageError(name, str(exc), exit_code=2) from exc
            except Exception as exc:  # invariant violations and the like
                raise StageError(name, str(exc), exit_code=3) from exc

        return inner

    return wrap


@_stage("ingest")
def _ingest(input_path: str) -> Dataset:
    path = Path(input_path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        ds = parse_records(fh)
    if len(ds) == 0:
        raise DataError(f"no records in {path}")
    return ds


@_stage("sample")
def _sample(sample: SampleConfig | None, ds: Dataset):
    """The distribution-matched sample of ``ds`` and its manifest."""
    if sample is None:
        return ds, None
    if sample.target == "reference":
        counts = reference_sample_counts()
    else:
        counts = read_json(
            sample.target,
            lambda payload: {str(k): int(v) for k, v in payload.items()},
            "sample counts file",
        )
    idx = sample_indices(ds, counts, sample.seed)
    manifest = {
        "seed": sample.seed,
        "target_counts": counts,
        "selected_indices": [int(i) for i in idx],
    }
    return ds.subset(idx), manifest


@_stage("label-map")
def _map(config: PipelineConfig, ds: Dataset) -> Dataset:
    if config.granularity == CATEGORY5:
        return map_labels(ds, CATEGORY5)
    return ds


@_stage("evaluate")
def _evaluate(config: PipelineConfig, ds: Dataset, plan):
    """The CV report, and the full-data preprocessing when leaky CV fitted one."""
    exp = config.experiment
    fitted = fit_preprocessing(ds, exp) if exp.discretization == "leaky" else None
    report = cross_validate_plan(ds, exp, plan, seed=config.cv.seed, fitted=fitted)
    return report, fitted


@_stage("train")
def _deployment_artifacts(config: PipelineConfig, ds: Dataset, fitted):
    """Fit the full-data discretizer, selection, and model for deployment.

    ``fitted`` is the preprocessing leaky CV already fitted on ``ds``, if any.
    """
    if fitted is None:
        fitted = fit_preprocessing(ds, config.experiment)
    model = classify.train_classifier(fitted.reduced, config.experiment.classifier)
    return fitted.discretizer, fitted.selection, model


def model_json(kind: str, model: classify.EnsembleModel, features) -> str:
    """The ``model.json`` text: classifier type, selected features, ensemble.

    The one writer of the format :func:`load_model_payload` reads.
    """
    payload = {
        "version": 1,
        "type": kind,
        "features": list(features),
        "model": model.to_payload(),
    }
    return json_text(payload)


def load_model_payload(payload: dict):
    """Decode a ``model.json`` payload into (type, ensemble, feature indices).

    Plain naive Bayes is stored as a one-round ensemble; a bare naive Bayes
    payload (no ``rounds``) from before that is read as one round with vote 1.
    A missing key or a field of the wrong shape raises :class:`DataError`.
    """
    try:
        kind = payload["type"]
        if kind not in ("nb", "adaboost-nb"):
            raise DataError(f"unknown model type {kind!r}")
        features = payload["features"]
        if not isinstance(features, list):
            raise DataError(
                f"model.json field 'features' must be a list, not {type(features).__name__}"
            )
        model = payload["model"]
        if "rounds" not in model:
            model = {"labels": model["labels"], "rounds": [{"vote_weight": 1.0, "model": model}]}
        return kind, classify.EnsembleModel.from_payload(model), [int(i) for i in features]
    except KeyError as exc:
        raise DataError(f"model.json is missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise DataError(f"malformed model.json: {exc}") from exc


def run_experiment(config: PipelineConfig) -> RunResult:
    """Execute ingest -> sample -> label-map -> CV evaluation -> artifacts."""
    ds = _ingest(config.input_path)
    ds, manifest = _sample(config.sample, ds)
    ds = _map(config, ds)

    try:
        plan = stratified_folds(ds, config.cv.k, config.cv.seed)
    except ValueError as exc:
        raise StageError("fold", str(exc), exit_code=2) from exc

    report, fitted = _evaluate(config, ds, plan)
    descriptor_config = config.to_payload()
    descriptor_config.pop("output_dir")  # not part of the experiment identity
    report.descriptor["config"] = descriptor_config

    dmodel, selection, model = _deployment_artifacts(config, ds, fitted)

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}

    def emit(name: str, text: str) -> None:
        path = out / name
        path.write_text(text)
        artifacts[name] = path

    emit("config.json", config.to_json())
    emit("foldplan.json", json.dumps(plan.to_payload(), sort_keys=True) + "\n")
    if manifest is not None:
        emit("sample_manifest.json", json_text(manifest))
    emit("discretizer.json", dmodel.to_json())
    emit("selection.json", selection.to_json())
    emit(
        "model.json",
        model_json(config.experiment.classifier.kind, model, selection.subset.indices),
    )
    emit("report.json", report.to_json())
    emit("report.txt", report.format_table())
    return RunResult(report=report, artifacts=artifacts)


# Method grid mirrored by the reproduce-tables command: (method, alpha, boost).
TABLE_GRID = (
    ("cfs-bestfirst", None, False),
    ("cfs-greedy", None, False),
    ("ig", 0.3, False),
    ("gainratio", 0.2, False),
    ("correlation", 0.3, False),
    ("hybrid", None, False),
    ("hybrid", None, True),
)


def reproduce_tables(
    input_path: str,
    output_dir: str,
    seed: int = 0,
    rounds: int = 10,
    alpha: float | None = None,
    sample: bool = True,
    k: int = 10,
) -> dict[str, Path]:
    """Run the full selector-comparison grids at both label granularities.

    Emits one machine-readable JSON and one text table per granularity, plus
    a per-attack F-measure comparison of the hybrid pipeline with and
    without boosting (23-class only).
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    hybrid_reports: dict[bool, EvaluationReport] = {}

    for granularity, tag in ((ATTACK23, "23class"), (CATEGORY5, "5class")):
        rows = []
        for method, row_alpha, boost in TABLE_GRID:
            if granularity == CATEGORY5 and boost:
                continue
            effective_alpha = (
                row_alpha
                if row_alpha is not None
                else (alpha if alpha is not None else DEFAULT_HYBRID_ALPHA)
            )
            config = PipelineConfig(
                input_path=input_path,
                granularity=granularity,
                sample=SampleConfig(seed=seed) if sample else None,
                experiment=ExperimentConfig(
                    selection=SelectionConfig(method=method, alpha=effective_alpha),
                    classifier=ClassifierConfig(boost=boost, rounds=rounds),
                ),
                cv=CrossValConfig(k=k, seed=seed),
                output_dir=str(out / f"{tag}-{method}{'-boost' if boost else ''}"),
            )
            result = run_experiment(config)
            report = result.report
            if granularity == ATTACK23 and method == "hybrid":
                hybrid_reports[boost] = report
            sel = report.descriptor["selection"]
            rows.append(
                {
                    "method": method + ("+adaboost" if boost else ""),
                    "alpha": sel["alpha"],
                    "n_features": len(sel["features"]),
                    "features": sel["features"],
                    "f_measure": report.weighted.f_measure,
                    "fpr": report.weighted.fpr,
                }
            )
        payload = {"granularity": granularity, "seed": seed, "rows": rows}
        json_path = out / f"selector_comparison_{tag}.json"
        json_path.write_text(json_text(payload))
        written[json_path.name] = json_path
        txt_path = out / f"selector_comparison_{tag}.txt"
        txt_path.write_text(_format_grid(granularity, rows))
        written[txt_path.name] = txt_path

    if True in hybrid_reports and False in hybrid_reports:
        cmp_path = out / "per_attack_f.txt"
        cmp_path.write_text(
            _format_attack_comparison(hybrid_reports[False], hybrid_reports[True])
        )
        written[cmp_path.name] = cmp_path
        cmp_json = out / "per_attack_f.json"
        per_attack = {
            "unboosted": {
                lbl: m.f_measure
                for lbl, m in sorted(hybrid_reports[False].per_class.items())
            },
            "boosted": {
                lbl: m.f_measure
                for lbl, m in sorted(hybrid_reports[True].per_class.items())
            },
        }
        cmp_json.write_text(json_text(per_attack))
        written[cmp_json.name] = cmp_json
    return written


def _format_grid(granularity: str, rows) -> str:
    header = f"{'method':<22}{'alpha':>7}{'#feat':>7}{'F-measure':>11}{'FPR':>8}  features"
    lines = [f"selector comparison ({granularity})", header, "-" * len(header)]
    for row in rows:
        alpha = "" if row["alpha"] is None else f"{row['alpha']:.2f}"
        feats = ",".join(str(i) for i in row["features"])
        lines.append(
            f"{row['method']:<22}{alpha:>7}{row['n_features']:>7}"
            f"{row['f_measure']:>11.3f}{row['fpr']:>8.3f}  {feats}"
        )
    return "\n".join(lines) + "\n"


def _format_attack_comparison(unboosted: EvaluationReport, boosted: EvaluationReport) -> str:
    labels = [lbl for lbl in unboosted.matrix.labels if lbl != "normal"]
    header = f"{'attack':<18}{'F (nb)':>10}{'F (adaboost-nb)':>17}"
    lines = ["per-attack F-measure, hybrid selection", header, "-" * len(header)]
    for lbl in labels:
        f0 = unboosted.per_class[lbl].f_measure
        f1 = boosted.per_class[lbl].f_measure
        lines.append(f"{lbl:<18}{f0:>10.3f}{f1:>17.3f}")
    return "\n".join(lines) + "\n"
