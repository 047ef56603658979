"""Command-line driver for reproducible experiments.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation. Set IDSPIPE_DATA to a directory to resolve relative input paths
against it.

Only ``config`` and ``errors`` are imported here; each command imports the
stage modules it runs once its flags are validated, so ``--help`` and a usage
error never load numpy.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import NoReturn

import click

from .config import (
    ATTACK23,
    CATEGORY5,
    DEFAULT_HYBRID_ALPHA,
    DISCRETIZATION_MODES,
    GRANULARITIES,
    SELECTION_METHODS,
    ClassifierConfig,
    PipelineConfig,
    SampleConfig,
    SelectionConfig,
)
from .errors import DataError, StageError, _stage


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
    type=click.Choice(GRANULARITIES),
    default=ATTACK23,
    show_default=True,
)
@click.option(
    "--sample",
    default=None,
    help="Distribution-match before output: 'reference' or a JSON counts file.",
)
@click.option("--sample-seed", type=click.IntRange(min=0), default=0, show_default=True)
@_stage("ingest")
def ingest(input_path, out, granularity, sample, sample_seed):
    """Parse a 42/43-field record file into a validated dataset CSV."""
    from . import data, pipeline

    ds = pipeline._ingest(_resolve_input(input_path))
    ds, manifest = pipeline._sample(
        SampleConfig(target=sample, seed=sample_seed) if sample else None, ds
    )
    if manifest is not None:
        manifest_path = Path(out).with_name(Path(out).name + ".manifest.json")
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(data.json_line(manifest))
    if granularity == CATEGORY5:
        ds = data.map_labels(ds, CATEGORY5)
    data.write_dataset(ds, out)
    click.echo(f"wrote {len(ds)} records to {out}")


@cli.command("discretize")
@click.argument("dataset_path")
@click.option("--out", required=True, help="Output directory.")
@_stage("discretize")
def discretize_cmd(dataset_path, out):
    """Fit MDL cut points on a dataset and write the binned copy."""
    from . import data, discretize

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
    type=click.Choice(SELECTION_METHODS),
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
@_stage("select")
def select_cmd(dataset_path, method, alpha, out):
    """Run one selection method on a fully discrete dataset."""
    from . import data, select

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
@_stage("train")
def train_cmd(dataset_path, selection_path, boost, rounds, smoothing, out):
    """Train the (optionally boosted) naive Bayes classifier."""
    from . import classify, data, select
    from .pipeline import model_json

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
@_stage("eval")
def eval_cmd(dataset_path, model_path, out):
    """Evaluate a trained model on a held-out discrete dataset."""
    from . import classify, data
    from .evaluate import build_report
    from .pipeline import load_model_payload

    kind, model, features = data.read_json(model_path, load_model_payload, "model file")
    ds = data.read_dataset(_resolve_input(dataset_path), features)
    # a model scores bins: a raw value misses every one of them
    data.check_discrete(ds, "eval")
    # a model of the other granularity would mix attack names and categories
    # in one confusion matrix
    labels, categories = set(model.labels), set(data.CATEGORIES)
    if ds.granularity == CATEGORY5:
        foreign = labels - {data.NORMAL, *categories}
    else:
        foreign = labels & categories
    if foreign:
        raise DataError(f"model labels {sorted(foreign)} are not {ds.granularity} labels")
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


# The config key each ``run`` flag sets. ``--sample`` sets sample.target, or
# sample to null when it is ``none``; with it, ``--seed`` sets sample.seed too.
_RUN_FLAG_KEYS = {
    "input_path": "input_path",
    "granularity": "granularity",
    "discretization": "experiment.discretization",
    "method": "experiment.selection.method",
    "alpha": "experiment.selection.alpha",
    "boost": "experiment.classifier.boost",
    "rounds": "experiment.classifier.rounds",
    "k": "cv.k",
    "seed": "cv.seed",
    "output_dir": "output_dir",
}


def _run_payload(payload: dict, flags: dict) -> dict:
    """``payload`` with each given flag in place of its key and the input resolved."""
    given = {flag: value for flag, value in flags.items() if value is not None}
    target = given.pop("sample", None)
    if target == "none":
        payload["sample"] = None
    elif target is not None:
        seed = {"seed": given["seed"]} if "seed" in given else {}
        payload["sample"] = {**(payload.get("sample") or {}), "target": target, **seed}
    for flag, value in given.items():
        *sections, key = _RUN_FLAG_KEYS[flag].split(".")
        section = payload
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = value
    payload["input_path"] = _resolve_input(payload["input_path"])
    return payload


@cli.command("run")
@click.option("--config", "config_path", default=None, help="Config JSON file.")
@click.option("--input", "input_path", default=None, help="Input record file.")
@click.option("--granularity", type=click.Choice(GRANULARITIES), default=None)
@click.option(
    "--discretization", type=click.Choice(DISCRETIZATION_MODES), default=None
)
@click.option("--method", type=click.Choice(SELECTION_METHODS), default=None)
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
def run_cmd(config_path, **flags):
    """Run the full pipeline from a config file plus flag overrides."""
    if config_path:
        try:
            payload = PipelineConfig.from_json(Path(config_path).read_text()).to_payload()
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"invalid config file {config_path}: {exc}") from exc
    elif flags["input_path"]:
        payload = {}
    else:
        raise click.UsageError("provide --config or --input")
    try:
        config = PipelineConfig.from_payload(_run_payload(payload, flags))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    from .pipeline import run_experiment

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
    from .pipeline import reproduce_tables

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
