"""Command-line driver for reproducible experiments.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation. Set IDSPIPE_DATA to a directory to resolve relative input paths
against it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

import click

from . import classify, data, discretize, pipeline, select
from .config import (
    DEFAULT_HYBRID_ALPHA,
    ClassifierConfig,
    PipelineConfig,
    SampleConfig,
    SelectionConfig,
)
from .errors import DataError, StageError
from .evaluate import build_report
from .pipeline import load_model_payload, model_json, reproduce_tables, run_experiment


def _resolve_input(path: str) -> str:
    """Resolve an input path, falling back to the IDSPIPE_DATA directory."""
    if Path(path).exists():
        return path
    root = os.environ.get("IDSPIPE_DATA")
    if root and (Path(root) / path).exists():
        return str(Path(root) / path)
    return path


def _checked_alpha(ctx, param, value):
    """An ``--alpha`` value that SelectionConfig accepts; the range type lets NaN through."""
    if value is not None:
        try:
            SelectionConfig(alpha=value)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    return value


@click.group()
def cli():
    """Intrusion-detection experiment pipeline."""


@cli.command()
@click.argument("input_path")
@click.option("--out", required=True, help="Output dataset CSV path.")
@click.option(
    "--granularity",
    type=click.Choice(data.GRANULARITIES),
    default=data.ATTACK23,
    show_default=True,
)
@click.option(
    "--sample",
    default=None,
    help="Distribution-match before output: 'reference' or a JSON counts file.",
)
@click.option("--sample-seed", type=click.IntRange(min=0), default=0, show_default=True)
@pipeline._stage("ingest")
def ingest(input_path, out, granularity, sample, sample_seed):
    """Parse a 42/43-field record file into a validated dataset CSV."""
    ds = pipeline._ingest(_resolve_input(input_path))
    ds, manifest = pipeline._sample(
        SampleConfig(target=sample, seed=sample_seed) if sample else None, ds
    )
    if manifest is not None:
        manifest_path = Path(out).with_name(Path(out).name + ".manifest.json")
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(data.json_line(manifest))
    if granularity == data.CATEGORY5:
        ds = data.map_labels(ds, data.CATEGORY5)
    data.write_dataset(ds, out)
    click.echo(f"wrote {len(ds)} records to {out}")


@cli.command("discretize")
@click.argument("dataset_path")
@click.option("--out", required=True, help="Output directory.")
@pipeline._stage("discretize")
def discretize_cmd(dataset_path, out):
    """Fit MDL cut points on a dataset and write the binned copy."""
    ds = data.read_dataset(_resolve_input(dataset_path))
    model = discretize.fit_discretizer(ds)
    binned = discretize.apply_discretizer(model, ds)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "discretizer.json").write_text(model.to_json())
    data.write_dataset(binned, out_dir / "discretized.csv")
    click.echo(f"wrote discretizer and binned dataset to {out_dir}")


@cli.command("select")
@click.argument("dataset_path")
@click.option(
    "--method",
    type=click.Choice(select.SELECTION_METHODS),
    default="hybrid",
    show_default=True,
)
@click.option(
    "--alpha",
    type=click.FloatRange(0, 1),
    default=DEFAULT_HYBRID_ALPHA,
    show_default=True,
    callback=_checked_alpha,
)
@click.option("--out", required=True, help="Output selection JSON path.")
@pipeline._stage("select")
def select_cmd(dataset_path, method, alpha, out):
    """Run one selection method on a fully discrete dataset."""
    ds = data.read_dataset(_resolve_input(dataset_path))
    result = select.run_selection(ds, method, alpha)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(result.to_json())
    click.echo(
        f"selected {len(result.subset.indices)} features: "
        + ",".join(str(i) for i in result.subset.indices)
    )


@cli.command("train")
@click.argument("dataset_path")
@click.option("--selection", "selection_path", default=None, help="Selection JSON.")
@click.option("--boost/--no-boost", default=True, show_default=True)
@click.option("--rounds", type=click.IntRange(min=1), default=10, show_default=True)
@click.option(
    "--smoothing", type=click.FloatRange(min=0, min_open=True), default=1.0, show_default=True
)
@click.option("--out", required=True, help="Output model JSON path.")
@pipeline._stage("train")
def train_cmd(dataset_path, selection_path, boost, rounds, smoothing, out):
    """Train the (optionally boosted) naive Bayes classifier."""
    features = None
    if selection_path:
        result = data.read_json(
            selection_path, select.SelectionResult.from_payload, "selection file"
        )
        features = list(result.subset.indices)
    ds = data.read_dataset(_resolve_input(dataset_path), features)
    if features is None:
        features = list(range(1, len(ds.schema) + 1))
    config = ClassifierConfig(boost=boost, rounds=rounds, smoothing=smoothing)
    model = classify.train_classifier(ds, config)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(model_json(config.kind, model, features))
    click.echo(f"trained {config.kind} model on {len(ds)} records")


@cli.command("eval")
@click.argument("dataset_path")
@click.option("--model", "model_path", required=True, help="Model JSON path.")
@click.option("--out", required=True, help="Output report JSON path.")
@pipeline._stage("eval")
def eval_cmd(dataset_path, model_path, out):
    """Evaluate a trained model on a held-out discrete dataset."""
    kind, model, features = data.read_json(model_path, load_model_payload, "model file")
    ds = data.read_dataset(_resolve_input(dataset_path), features)
    # a model scores bins: a raw value misses every one of them
    data.check_discrete(ds, "eval")
    codes = classify.ensemble_predict_batch(model, ds)
    label_set = sorted(set(model.labels) | set(ds.label_set()))
    report = build_report(
        ds.label_positions(label_set),
        data.vocab_lookup(model.labels, label_set)[codes],
        label_set,
        descriptor={"mode": "holdout", "model": kind, "features": list(features)},
    )
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(report.to_json())
    click.echo(report.format_table())


def _given(**values) -> dict:
    """The flag values the user gave: those that are not None."""
    return {k: v for k, v in values.items() if v is not None}


def _apply_overrides(config: PipelineConfig, **kw) -> PipelineConfig:
    """``config`` with each given flag in place of the key it overrides."""
    exp = config.experiment
    sample = config.sample
    if kw["sample"] is not None:
        sample = None if kw["sample"] == "none" else dataclasses.replace(
            sample or SampleConfig(), target=kw["sample"], **_given(seed=kw["seed"])
        )
    return dataclasses.replace(
        config,
        sample=sample,
        experiment=dataclasses.replace(
            exp,
            selection=dataclasses.replace(
                exp.selection, **_given(method=kw["method"], alpha=kw["alpha"])
            ),
            classifier=dataclasses.replace(
                exp.classifier, **_given(boost=kw["boost"], rounds=kw["rounds"])
            ),
            **_given(discretization=kw["discretization"]),
        ),
        cv=dataclasses.replace(config.cv, **_given(k=kw["k"], seed=kw["seed"])),
        **_given(
            input_path=kw["input_path"],
            granularity=kw["granularity"],
            output_dir=kw["output_dir"],
        ),
    )


@cli.command("run")
@click.option("--config", "config_path", default=None, help="Config JSON file.")
@click.option("--input", "input_path", default=None, help="Input record file.")
@click.option("--granularity", type=click.Choice(data.GRANULARITIES), default=None)
@click.option(
    "--discretization", type=click.Choice(("leaky", "fold-safe")), default=None
)
@click.option("--method", type=click.Choice(select.SELECTION_METHODS), default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--boost/--no-boost", "boost", default=None)
@click.option("--rounds", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option(
    "--sample",
    default=None,
    help="'reference', a JSON counts file, or 'none' to disable sampling.",
)
@click.option("--out", "output_dir", default=None, help="Artifact directory.")
def run_cmd(config_path, **kw):
    """Run the full pipeline from a config file plus flag overrides."""
    if config_path:
        try:
            base = PipelineConfig.from_json(Path(config_path).read_text())
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"invalid config file {config_path}: {exc}") from exc
    elif kw["input_path"]:
        base = PipelineConfig(input_path=kw["input_path"])
    else:
        raise click.UsageError("provide --config or --input")
    try:
        config = _apply_overrides(base, **kw)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    config = dataclasses.replace(config, input_path=_resolve_input(config.input_path))
    report = run_experiment(config)
    click.echo(report.format_table())
    click.echo(f"artifacts in {config.output_dir}")


@cli.command("reproduce-tables")
@click.argument("input_path")
@click.option("--out", required=True, help="Output directory for the tables.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--rounds", type=click.IntRange(min=1), default=10, show_default=True)
@click.option(
    "--alpha",
    type=click.FloatRange(0, 1),
    default=None,
    callback=_checked_alpha,
    help="Hybrid-stage alpha override.",
)
@click.option("--k", type=click.IntRange(min=2), default=10, show_default=True)
@click.option(
    "--sample/--no-sample",
    default=True,
    show_default=True,
    help="Draw the reference 62,984-record sample before evaluating.",
)
def reproduce_tables_cmd(input_path, out, seed, rounds, alpha, k, sample):
    """Run the full selector-comparison grids at both granularities."""
    written = reproduce_tables(
        _resolve_input(input_path),
        out,
        seed=seed,
        rounds=rounds,
        alpha=alpha,
        sample=sample,
        k=k,
    )
    for name in sorted(written):
        click.echo(f"wrote {written[name]}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except StageError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except (DataError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except Exception as exc:  # internal invariant violations
        click.echo(f"internal error: {exc}", err=True)
        return 3
    return 0


def entry_point() -> NoReturn:
    """Run ``main``, flush stdout and stderr, and exit without the interpreter's
    teardown (about 30 ms of garbage collection and freeing per process).

    Every command has closed its artifacts when ``main`` returns. ``os._exit``
    also skips ``atexit`` handlers, and idspipe registers none. A failed flush
    is left to ``sys.exit``, so the interpreter reports it as before.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry_point()
