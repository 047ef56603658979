"""End-to-end experiment driver: ingest through report, with artifacts.

Every stage failure is wrapped in a StageError naming the stage, so the CLI
can emit a single-line diagnostic and the right exit code. All artifacts are
written with sorted keys and fixed formatting; two runs with the same config
produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .config import ATTACK23, CATEGORY5, PipelineConfig, SampleConfig, SelectionConfig
from .data import (
    Dataset,
    json_int,
    json_line,
    json_text,
    map_labels,
    parse_records,
    read_json,
    reference_sample_counts,
    sample_indices,
    stratified_folds,
)
from .errors import DataError, StageError, _stage

if TYPE_CHECKING:
    from .classify import EnsembleModel
    from .evaluate import EvaluationReport


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
            lambda payload: {k: json_int(v, repr(k)) for k, v in payload.items()},
            "sample counts file",
        )
    idx = sample_indices(ds, counts, sample.seed)
    manifest = {
        "seed": sample.seed,
        "target_counts": counts,
        "selected_indices": idx.tolist(),
    }
    return ds.subset(idx), manifest


@_stage("write")
def _write(out: Path, texts: Mapping[str, str]) -> dict[str, Path]:
    """Make the directory ``out`` and write each text to ``out / name``."""
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, text in texts.items():
        written[name] = out / name
        written[name].write_text(text)
    return written


@_stage("label-map")
def _map(config: PipelineConfig, ds: Dataset) -> Dataset:
    if config.granularity == CATEGORY5:
        return map_labels(ds, CATEGORY5)
    return ds


@_stage("evaluate")
def _evaluate(config: PipelineConfig, ds: Dataset, plan):
    """The CV report, and the full-data preprocessing, which leaky CV reuses."""
    from .evaluate import cross_validate_plan
    from .select import fit_preprocessing

    fitted = fit_preprocessing(ds, config.experiment)
    report = cross_validate_plan(ds, config.experiment, plan, seed=config.cv.seed, fitted=fitted)
    return report, fitted


@_stage("train")
def _deployment_model(config: PipelineConfig, fitted) -> EnsembleModel:
    """The deployment model, trained on the full-data preprocessing's reduced dataset."""
    from .classify import train_classifier

    return train_classifier(fitted.reduced, config.experiment.classifier)


def model_json(kind: str, model: EnsembleModel, features) -> str:
    """The ``model.json`` text: classifier type, selected features, ensemble.

    The one writer of the format :func:`load_model_payload` reads.
    """
    payload = {
        "version": 1,
        "type": kind,
        "features": list(features),
        "model": model.to_payload(),
    }
    return json_line(payload)


def load_model_payload(payload: dict):
    """Decode a ``model.json`` payload into (type, ensemble, feature indices).

    Plain naive Bayes is stored as a one-round ensemble; a bare naive Bayes
    payload (no ``rounds``) from before that is read as one round with vote 1.
    A missing key or a field of the wrong shape raises :class:`DataError`.
    """
    from .classify import EnsembleModel

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
        features = [json_int(i, f"features[{n}]") for n, i in enumerate(features)]
        return kind, EnsembleModel.from_payload(model), features
    except KeyError as exc:
        raise DataError(f"model.json is missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise DataError(f"malformed model.json: {exc}") from exc


def run_experiment(config: PipelineConfig) -> EvaluationReport:
    """Execute ingest -> sample -> label-map -> CV evaluation -> artifacts."""
    _write(Path(config.output_dir), {})  # an unusable output directory fails before any work
    ds, manifest = _sample(config.sample, _ingest(config.input_path))
    ds = _map(config, ds)
    return _experiment(config, ds, manifest)


def _experiment(config: PipelineConfig, ds: Dataset, manifest) -> EvaluationReport:
    """CV evaluation -> artifacts, on the ingested, sampled, label-mapped ``ds``."""
    try:
        plan = stratified_folds(ds, config.cv.k, config.cv.seed)
    except ValueError as exc:
        raise StageError("fold", str(exc), exit_code=2) from exc

    report, fitted = _evaluate(config, ds, plan)
    descriptor_config = config.to_payload()
    descriptor_config.pop("output_dir")  # not part of the experiment identity
    report.descriptor["config"] = descriptor_config

    model = _deployment_model(config, fitted)

    artifacts = {
        "config.json": config.to_json(),
        "foldplan.json": json_line(plan.to_payload()),
        "discretizer.json": fitted.discretizer.to_json(),
        "selection.json": fitted.selection.to_json(),
        "model.json": model_json(
            config.experiment.classifier.kind, model, fitted.selection.subset.indices
        ),
        "report.json": report.to_json(),
        "report.txt": report.format_table(),
    }
    if manifest is not None:
        artifacts["sample_manifest.json"] = json_line(manifest)
    _write(Path(config.output_dir), artifacts)
    return report


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


def reproduce_tables(base: PipelineConfig) -> dict[str, Path]:
    """Run the full selector-comparison grids at both label granularities.

    Each grid row is ``base`` with the row's granularity, selection method
    and boosting, its own directory under ``base.output_dir``, and the row's
    alpha, or ``base``'s for a row without one. Emits one machine-readable
    JSON and one text table per granularity, plus a per-attack F-measure
    comparison of the hybrid pipeline with and without boosting (23-class
    only).
    """
    out = Path(base.output_dir)
    _write(out, {})  # an unusable output directory fails before any work
    tables: dict[str, str] = {}
    hybrid_reports: dict[bool, EvaluationReport] = {}
    # map_labels only renames labels, so both granularities share one sample
    ds, manifest = _sample(base.sample, _ingest(base.input_path))
    experiment = base.experiment

    for granularity, tag in ((ATTACK23, "23class"), (CATEGORY5, "5class")):
        rows = []
        for method, alpha, boost in TABLE_GRID:
            if granularity == CATEGORY5 and boost:
                continue
            config = replace(
                base,
                granularity=granularity,
                experiment=replace(
                    experiment,
                    selection=SelectionConfig(
                        method, experiment.selection.alpha if alpha is None else alpha
                    ),
                    classifier=replace(experiment.classifier, boost=boost),
                ),
                output_dir=str(out / f"{tag}-{method}{'-boost' if boost else ''}"),
            )
            report = _experiment(config, _map(config, ds), manifest)
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
        payload = {"granularity": granularity, "seed": base.cv.seed, "rows": rows}
        tables[f"selector_comparison_{tag}.json"] = json_text(payload)
        tables[f"selector_comparison_{tag}.txt"] = _format_grid(granularity, rows)

    tables["per_attack_f.txt"] = _format_attack_comparison(
        hybrid_reports[False], hybrid_reports[True]
    )
    per_attack = {
        name: {lbl: m.f_measure for lbl, m in sorted(hybrid_reports[boost].per_class.items())}
        for name, boost in (("unboosted", False), ("boosted", True))
    }
    tables["per_attack_f.json"] = json_text(per_attack)
    return _write(out, tables)


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
