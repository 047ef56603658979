import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idspipe
from idspipe import cli
from idspipe.cli import main
from idspipe.config import PipelineConfig, SampleConfig
from idspipe.data import CONTINUOUS, NSLKDD_SCHEMA, parse_records, read_dataset, sample_indices
from idspipe.pipeline import load_model_payload, run_experiment
from idspipe.synth import synthetic_lines

from conftest import class_counts


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def small_synth(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text("\n".join(synthetic_lines(260, seed=7)) + "\n")
    return path


class TestExitCodes:
    def test_missing_input_is_data_error_naming_ingest(self, tmp_path, capsys):
        code = run_cli(
            "run", "--input", tmp_path / "nope.txt", "--out", tmp_path / "o"
        )
        assert code == 2
        assert "ingest" in capsys.readouterr().err

    def test_usage_error(self, small_synth, tmp_path):
        assert run_cli("run", "--input", small_synth, "--method", "wrapper") == 1

    def test_no_input_is_usage_error(self):
        assert run_cli("run") == 1

    def test_removed_candidates_option_is_usage_error(self, small_synth, tmp_path, capsys):
        csv = tmp_path / "ds.csv"
        assert run_cli("ingest", small_synth, "--out", csv) == 0
        capsys.readouterr()
        code = run_cli("discretize", csv, "--out", tmp_path / "d", "--candidates", "all")
        err = capsys.readouterr().err
        assert code == 1
        usage = [line for line in err.splitlines() if line.startswith("Usage:")]
        assert len(usage) == 1 and usage[0].endswith(" discretize [OPTIONS] DATASET_PATH")
        assert "Error: No such option '--candidates'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1,2,3\n")
        code = run_cli("run", "--input", bad, "--out", tmp_path / "o")
        assert code == 2
        assert "ingest" in capsys.readouterr().err

    def test_success_is_zero(self, small_synth, tmp_path):
        code = run_cli(
            "run",
            "--input", small_synth,
            "--sample", "none",
            "--method", "cfs-greedy",
            "--no-boost",
            "--k", "3",
            "--out", tmp_path / "out",
        )
        assert code == 0


class TestStageCommands:
    def test_full_stage_chain(self, small_synth, tmp_path, capsys):
        ds_csv = tmp_path / "clean.csv"
        assert run_cli("ingest", small_synth, "--out", ds_csv) == 0
        assert ds_csv.exists()

        disc_dir = tmp_path / "disc"
        assert run_cli("discretize", ds_csv, "--out", disc_dir) == 0
        assert (disc_dir / "discretizer.json").exists()
        binned = disc_dir / "discretized.csv"
        assert binned.exists()
        # binned dataset is fully discrete via its sidecar schema
        assert read_dataset(binned).schema.continuous_indices == ()

        sel_path = tmp_path / "selection.json"
        assert run_cli(
            "select", binned, "--method", "hybrid", "--alpha", "0.5",
            "--out", sel_path,
        ) == 0
        selection = json.loads(sel_path.read_text())
        assert selection["method"] == "hybrid"
        assert selection["indices"]

        model_path = tmp_path / "model.json"
        assert run_cli(
            "train", binned, "--selection", sel_path, "--no-boost",
            "--out", model_path,
        ) == 0
        payload = json.loads(model_path.read_text())
        assert payload["type"] == "nb"
        assert payload["features"] == selection["indices"]

        report_path = tmp_path / "report.json"
        capsys.readouterr()
        assert run_cli(
            "eval", binned, "--model", model_path, "--out", report_path
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["matrix"]["counts"]
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"mode=holdout model=nb features={len(selection['indices'])}"

        # plain NB is stored as a one-round ensemble with vote 1; a bare NB
        # payload written before that still evaluates to the same report
        [only_round] = payload["model"]["rounds"]
        assert only_round["vote_weight"] == 1.0
        bare_path = tmp_path / "bare-model.json"
        bare_path.write_text(json.dumps(dict(payload, model=only_round["model"])))
        bare_report = tmp_path / "bare-report.json"
        assert run_cli(
            "eval", binned, "--model", bare_path, "--out", bare_report
        ) == 0
        assert bare_report.read_bytes() == report_path.read_bytes()

    def test_ingest_with_sampling_and_manifest(self, small_synth, tmp_path):
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(json.dumps({"normal": 40, "neptune": 20}))
        out = tmp_path / "sampled.csv"
        assert run_cli(
            "ingest", small_synth, "--out", out, "--sample", counts_path,
            "--sample-seed", "3",
        ) == 0
        ds = read_dataset(out)
        assert class_counts(ds) == {"normal": 40, "neptune": 20}
        manifest = json.loads((tmp_path / "sampled.csv.manifest.json").read_text())
        assert len(manifest["selected_indices"]) == 60

    def test_ingest_category5(self, small_synth, tmp_path):
        out = tmp_path / "cat5.csv"
        assert run_cli(
            "ingest", small_synth, "--out", out, "--granularity", "category5"
        ) == 0
        ds = read_dataset(out)
        assert set(class_counts(ds)) <= {"Dos", "Probe", "R2L", "U2R", "normal"}

    def test_env_var_resolves_relative_input(self, small_synth, tmp_path, monkeypatch):
        monkeypatch.setenv("IDSPIPE_DATA", str(small_synth.parent))
        out = tmp_path / "resolved.csv"
        assert run_cli("ingest", small_synth.name, "--out", out) == 0


class TestStageFailures:
    @pytest.fixture()
    def raw_csv(self, small_synth, tmp_path):
        path = tmp_path / "raw.csv"  # continuous features left undiscretized
        assert run_cli("ingest", small_synth, "--out", path) == 0
        return path

    @pytest.mark.parametrize(
        "args, stage",
        [
            (["ingest", "{bad}", "--out", "{tmp}/x.csv"], "ingest"),
            (["ingest", "{synth}", "--out", "{tmp}/x.csv", "--sample", "{bad}"], "sample"),
            (["discretize", "{tmp}/missing.csv", "--out", "{tmp}/d"], "discretize"),
            (["select", "{raw}", "--out", "{tmp}/s.json"], "select"),
            (["train", "{raw}", "--out", "{tmp}/m.json"], "train"),
            (["eval", "{raw}", "--model", "{bad}", "--out", "{tmp}/r.json"], "eval"),
            (["run", "--input", "{synth}", "--sample", "none", "--no-boost", "--k", "3",
              "--out", "{bad}/o"], "write"),
            (["reproduce-tables", "{synth}", "--out", "{bad}/t"], "write"),
        ],
        ids=[
            "ingest", "ingest-sample", "discretize", "select", "train", "eval",
            "run-write", "reproduce-tables-write",
        ],
    )
    def test_data_error_names_its_stage(
        self, small_synth, raw_csv, tmp_path, capsys, args, stage
    ):
        bad = tmp_path / "bad.txt"  # neither a record file nor JSON
        bad.write_text("1,2,3\n")
        capsys.readouterr()
        fields = {"bad": bad, "synth": small_synth, "raw": raw_csv, "tmp": tmp_path}
        code = run_cli(*[a.format(**fields) for a in args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: stage {stage}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({}, "'type'"),
            (
                {"type": "nb", "features": [1], "model": {"labels": ["a"], "rounds": [
                    {"vote_weight": 1.0, "model": {"labels": ["a"], "priors": [0.0],
                                                   "features": [{"values": [0], "cond": [[0.0]]}]}},
                ]}},
                "'smoothing'",
            ),
            ({"type": "nb", "features": 5, "model": {}}, "'features'"),
        ],
        ids=["empty", "round-without-smoothing", "features-not-a-list"],
    )
    def test_malformed_model_is_a_data_error(self, raw_csv, tmp_path, capsys, payload, named):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run_cli("eval", raw_csv, "--model", model, "--out", tmp_path / "r.json")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: stage eval: ")
        assert named in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "args",
        [
            ["ingest", "{empty}", "--out", "{tmp}/x.csv"],
            ["run", "--input", "{empty}", "--out", "{tmp}/o"],
        ],
        ids=["ingest", "run"],
    )
    def test_empty_input_fails_at_ingest(self, tmp_path, capsys, args):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        capsys.readouterr()
        code = run_cli(*[a.format(empty=empty, tmp=tmp_path) for a in args])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: stage ingest: no records in {empty}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "side, text, args, stage, named",
        [
            ("{raw}.schema.json", "{}", ["discretize", "{raw}", "--out", "{tmp}/d"],
             "discretize", "'schema'"),
            ("{raw}.schema.json", '{"schema": 5, "granularity": "attack23"}',
             ["discretize", "{raw}", "--out", "{tmp}/d"], "discretize", "{side}"),
            ("{raw}.schema.json", "[1]", ["discretize", "{raw}", "--out", "{tmp}/d"],
             "discretize", "{side}"),
            ("{tmp}/s.json", '{"method": "hybrid"}',
             ["train", "{raw}", "--selection", "{side}", "--out", "{tmp}/m.json"],
             "train", "'indices'"),
            ("{tmp}/s.json", '{"method": "hybrid", "indices": [5, 42]}',
             ["train", "{raw}", "--selection", "{side}", "--out", "{tmp}/m.json"],
             "train", "feature index 42 outside schema"),
            ("{tmp}/m.json", json.dumps({"type": "nb", "features": [0], "model": {
                "labels": ["a"], "smoothing": 1.0, "priors": [1.0],
                "features": [{"values": ["x"], "cond": [[1.0], [1.0]]}]}}),
             ["eval", "{raw}", "--model", "{side}", "--out", "{tmp}/r.json"],
             "eval", "feature index 0 outside schema"),
            ("{tmp}/c.json", "[3]",
             ["ingest", "{synth}", "--out", "{tmp}/x.csv", "--sample", "{side}"],
             "sample", "{side}"),
            ("{tmp}/c.json", "[3]",
             ["run", "--input", "{synth}", "--sample", "{side}", "--out", "{tmp}/o"],
             "sample", "{side}"),
        ],
        ids=["sidecar-empty", "sidecar-schema-not-a-list", "sidecar-a-list",
             "selection-without-indices", "selection-outside-schema",
             "model-features-outside-schema", "ingest-counts-a-list", "run-counts-a-list"],
    )
    def test_malformed_side_file_is_a_data_error_naming_it(
        self, small_synth, raw_csv, tmp_path, capsys, side, text, args, stage, named
    ):
        fields = {"raw": raw_csv, "synth": small_synth, "tmp": tmp_path}
        fields["side"] = side.format(**fields)
        with open(fields["side"], "w", encoding="utf-8") as fh:
            fh.write(text)
        capsys.readouterr()
        code = run_cli(*[a.format(**fields) for a in args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: stage {stage}: ")
        assert named.format(**fields) in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_model_that_is_not_json_is_named(self, raw_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("not json\n")
        capsys.readouterr()
        code = run_cli("eval", raw_csv, "--model", model, "--out", tmp_path / "r.json")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: stage eval: model file {model} is not valid JSON: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text", ["[]\n", '{"granularity": "attack23"}\n'], ids=["list", "no-input"]
    )
    def test_config_without_input_path_names_the_key(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        capsys.readouterr()
        code = run_cli("run", "--config", config, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert f"invalid config file {config}: missing key 'input_path'" in err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"granularty": "category5"}, "granularty"),
            ({"experiment": {"discretisation": "fold-safe"}}, "experiment.discretisation"),
            ({"experiment": {"selection": {"methd": "ig"}}}, "experiment.selection.methd"),
            ({"cv": {"k": 3, "folds": 3}}, "cv.folds"),
        ],
    )
    def test_config_with_a_misspelled_key_names_its_path(
        self, small_synth, tmp_path, capsys, payload, key
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input_path": str(small_synth), **payload}))
        capsys.readouterr()
        code = run_cli("run", "--config", config, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert f"invalid config file {config}: unknown key '{key}'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-2"], "cv.seed must be non-negative"),
            (["--seed", "-2", "--sample", "reference"], "sample.seed must be non-negative"),
        ],
        ids=["cv", "sample"],
    )
    def test_negative_run_seed_is_usage_error(self, small_synth, tmp_path, capsys, flags, message):
        capsys.readouterr()
        code = run_cli("run", "--input", small_synth, *flags, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("Error:")] == [
            f"Error: {message}"
        ]
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section", ["cv", "sample"])
    def test_negative_config_seed_names_the_key(self, small_synth, tmp_path, capsys, section):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input_path": str(small_synth), section: {"seed": -1}}))
        capsys.readouterr()
        code = run_cli("run", "--config", config, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert f"invalid config file {config}: {section}.seed must be non-negative" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf])
    def test_non_finite_config_smoothing_names_the_key(
        self, small_synth, tmp_path, capsys, smoothing
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input_path": str(small_synth),
            "experiment": {"classifier": {"smoothing": smoothing}},
        }))
        capsys.readouterr()
        code = run_cli("run", "--config", config, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert (
            f"invalid config file {config}: classifier.smoothing must be finite and positive"
            in err
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_non_finite_train_smoothing_is_a_data_error(
        self, raw_csv, tmp_path, capsys, smoothing
    ):
        capsys.readouterr()
        code = run_cli(
            "train", raw_csv, "--smoothing", smoothing, "--out", tmp_path / "m.json"
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stage train: classifier.smoothing must be finite and positive\n"
        )
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "command, flags, option",
        [
            ("ingest", ["--sample-seed", "-1", "--sample", "reference"], "--sample-seed"),
            ("ingest", ["--sample-seed", "-1"], "--sample-seed"),
            ("reproduce-tables", ["--seed", "-1"], "--seed"),
            ("reproduce-tables", ["--k", "1"], "--k"),
            ("reproduce-tables", ["--rounds", "0"], "--rounds"),
            ("reproduce-tables", ["--alpha", "2"], "--alpha"),
            ("train", ["--rounds", "0"], "--rounds"),
            ("train", ["--smoothing", "0"], "--smoothing"),
            ("select", ["--alpha", "2"], "--alpha"),
        ],
    )
    def test_out_of_range_option_is_usage_error(
        self, small_synth, tmp_path, capsys, command, flags, option
    ):
        capsys.readouterr()
        code = run_cli(command, small_synth, *flags, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and errors[0].startswith(f"Error: Invalid value for '{option}'")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "reproduce-tables", "select"])
    def test_nan_alpha_is_usage_error(self, small_synth, tmp_path, capsys, command):
        # the range check lets NaN through; the configuration rejects it
        # before any work is done
        capsys.readouterr()
        args = ["--input", small_synth] if command == "run" else [small_synth]
        code = run_cli(command, *args, "--alpha", "nan", "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: selection.alpha must lie in [0, 1]"]
        assert "internal error" not in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_eval_of_raw_records_is_a_data_error(self, small_synth, raw_csv, tmp_path, capsys):
        # the model scores bins; the raw file's continuous values would all
        # miss them and take the unseen row
        run_dir = tmp_path / "run"
        assert run_cli(
            "run", "--input", small_synth, "--sample", "none", "--rounds", "3", "--k", "3",
            "--out", run_dir,
        ) == 0
        _, _, features = load_model_payload(json.loads((run_dir / "model.json").read_text()))
        continuous = [
            NSLKDD_SCHEMA.name(i) for i in features if NSLKDD_SCHEMA.kind(i) == CONTINUOUS
        ]
        assert continuous
        for records in (small_synth, raw_csv):
            capsys.readouterr()
            code = run_cli(
                "eval", records, "--model", run_dir / "model.json", "--out", tmp_path / "r.json"
            )
            err = capsys.readouterr().err
            assert code == 2
            assert err.splitlines() == [
                "error: stage eval: eval requires a fully discrete dataset; "
                f"continuous features: {', '.join(continuous)}"
            ]
            assert not (tmp_path / "r.json").exists()

    def test_config_section_that_is_not_an_object_is_named(self, small_synth, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input_path": str(small_synth), "experiment": [1]}))
        capsys.readouterr()
        code = run_cli("run", "--config", config, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert f"invalid config file {config}: experiment must be a JSON object" in err


class TestModelArtifact:
    @pytest.mark.parametrize("boost", ["--boost", "--no-boost"])
    def test_run_model_evaluates_the_discretize_csv(self, small_synth, tmp_path, boost):
        # run's model.json stores bins as ints; the discretized CSV reads them
        # back as text, and both must land in the same table rows
        run_dir, disc = tmp_path / "run", tmp_path / "disc"
        assert run_cli(
            "run", "--input", small_synth, "--sample", "none", "--method", "hybrid",
            boost, "--rounds", "3", "--k", "3", "--out", run_dir,
        ) == 0
        assert run_cli("ingest", small_synth, "--out", tmp_path / "ds.csv") == 0
        assert run_cli("discretize", tmp_path / "ds.csv", "--out", disc) == 0
        assert (disc / "discretizer.json").read_bytes() == (
            run_dir / "discretizer.json"
        ).read_bytes()
        binned = disc / "discretized.csv"
        assert run_cli(
            "eval", binned, "--model", run_dir / "model.json", "--out", tmp_path / "a.json"
        ) == 0
        # reference: the same classifier fitted on the CSV with run's selection
        assert run_cli(
            "train", binned, "--selection", run_dir / "selection.json", boost,
            "--rounds", "3", "--out", tmp_path / "csv-model.json",
        ) == 0
        assert run_cli(
            "eval", binned, "--model", tmp_path / "csv-model.json",
            "--out", tmp_path / "b.json",
        ) == 0
        from_run = json.loads((tmp_path / "a.json").read_text())
        from_csv = json.loads((tmp_path / "b.json").read_text())
        assert from_run["matrix"] == from_csv["matrix"]
        assert from_run["weighted"]["f_measure"] > 0.8

    def test_model_and_manifests_are_one_line(self, small_synth, tmp_path):
        # machine records are one line that loads back to their payload
        counts = {"normal": 40, "neptune": 20}
        counts_path = tmp_path / "counts.json"
        counts_path.write_text(json.dumps(counts))
        run_dir, csv = tmp_path / "run", tmp_path / "sampled.csv"
        assert run_cli(
            "run", "--input", small_synth, "--sample", counts_path, "--seed", "3",
            "--boost", "--rounds", "3", "--k", "3", "--out", run_dir,
        ) == 0
        assert run_cli(
            "ingest", small_synth, "--out", csv, "--sample", counts_path,
            "--sample-seed", "3",
        ) == 0
        with open(small_synth) as fh:
            idx = sample_indices(parse_records(fh), counts, 3)
        manifest = {"seed": 3, "target_counts": counts, "selected_indices": idx.tolist()}
        model_text = (run_dir / "model.json").read_text()
        kind, model, features = load_model_payload(json.loads(model_text))
        model_payload = {
            "version": 1, "type": kind, "features": features, "model": model.to_payload()
        }
        for path, payload in (
            (run_dir / "model.json", model_payload),
            (run_dir / "sample_manifest.json", manifest),
            (tmp_path / "sampled.csv.manifest.json", manifest),
        ):
            text = path.read_text()
            assert text.endswith("\n") and text.count("\n") == 1, path.name
            assert json.loads(text) == payload, path.name

    def test_indented_model_evaluates_the_same(self, small_synth, tmp_path):
        # a model.json indented as earlier versions wrote it still loads
        csv, disc = tmp_path / "ds.csv", tmp_path / "disc"
        assert run_cli("ingest", small_synth, "--out", csv) == 0
        assert run_cli("discretize", csv, "--out", disc) == 0
        binned, selection = disc / "discretized.csv", tmp_path / "selection.json"
        assert run_cli("select", binned, "--out", selection) == 0
        model = tmp_path / "model.json"
        assert run_cli(
            "train", binned, "--selection", selection, "--boost", "--rounds", "3",
            "--out", model,
        ) == 0
        indented = tmp_path / "indented.json"
        payload = json.loads(model.read_text())
        indented.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        for path in (model, indented):
            out = tmp_path / f"report-{path.stem}.json"
            assert run_cli("eval", binned, "--model", path, "--out", out) == 0
        assert (tmp_path / "report-indented.json").read_bytes() == (
            tmp_path / "report-model.json"
        ).read_bytes()


class TestRunArtifacts:
    def run_once(self, small_synth, out_dir):
        code = run_cli(
            "run",
            "--input", small_synth,
            "--sample", "none",
            "--method", "hybrid",
            "--alpha", "0.5",
            "--boost",
            "--rounds", "2",
            "--k", "3",
            "--seed", "11",
            "--out", out_dir,
        )
        assert code == 0

    def test_artifacts_written(self, small_synth, tmp_path):
        out = tmp_path / "run1"
        self.run_once(small_synth, out)
        for name in (
            "config.json", "foldplan.json", "discretizer.json",
            "selection.json", "model.json", "report.json", "report.txt",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert sum(map(sum, report["matrix"]["counts"])) == 260
        assert report["descriptor"]["selection"]["features"]

    def test_byte_identical_reruns(self, small_synth, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        self.run_once(small_synth, out1)
        self.run_once(small_synth, out2)
        for name in ("report.json", "selection.json", "model.json",
                     "discretizer.json", "foldplan.json", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_descriptor_roundtrip_reproduces_report(self, small_synth, tmp_path):
        out1 = tmp_path / "orig"
        self.run_once(small_synth, out1)
        # rerun straight from the emitted report's embedded descriptor config
        out2 = tmp_path / "replay"
        code = run_cli(
            "run", "--config", out1 / "report.json", "--out", out2,
        )
        assert code == 0
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        assert a["matrix"] == b["matrix"]
        assert a["weighted"] == b["weighted"]
        assert a["per_class"] == b["per_class"]

    @pytest.mark.parametrize("candidates", ["boundary", "all"])
    @pytest.mark.parametrize("source", ["config.json", "report.json"])
    def test_files_with_the_removed_candidates_key_still_load(
        self, small_synth, tmp_path, source, candidates
    ):
        # config.json and report.json written while MDLP still had a
        # candidates option carry experiment.candidates; loading ignores it
        out = tmp_path / "now"
        self.run_once(small_synth, out)
        old = json.loads((out / source).read_text())
        config = old["descriptor"]["config"] if source == "report.json" else old
        assert "candidates" not in config["experiment"]
        config["experiment"]["candidates"] = candidates
        old_path = tmp_path / f"old-{source}"
        old_path.write_text(json.dumps(old, sort_keys=True, indent=2) + "\n")
        replay = tmp_path / "replay"
        assert run_cli("run", "--config", old_path, "--out", replay) == 0
        for name in ("discretizer.json", "selection.json", "model.json", "report.json"):
            assert (replay / name).read_bytes() == (out / name).read_bytes(), name

    def test_config_file_with_flag_override(self, small_synth, tmp_path):
        config = PipelineConfig(input_path=str(small_synth), sample=None)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(config.to_json())
        out = tmp_path / "cfgrun"
        code = run_cli(
            "run", "--config", cfg_path, "--method", "ig", "--alpha", "0.3",
            "--no-boost", "--k", "3", "--out", out,
        )
        assert code == 0
        written = json.loads((out / "config.json").read_text())
        assert written["experiment"]["selection"]["method"] == "ig"
        sel = json.loads((out / "selection.json").read_text())
        assert sel["method"] == "ig"

    def test_sample_flag_keeps_the_config_seed(self, small_synth, tmp_path):
        counts = tmp_path / "c.json"
        counts.write_text(json.dumps({"normal": 30, "neptune": 15}))
        config = PipelineConfig(input_path=str(small_synth), sample=SampleConfig(seed=5))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(config.to_json())
        out = tmp_path / "cfgrun"
        code = run_cli(
            "run", "--config", cfg_path, "--sample", counts, "--no-boost", "--k", "3",
            "--out", out,
        )
        assert code == 0
        written = json.loads((out / "config.json").read_text())
        assert written["sample"] == {"target": str(counts), "seed": 5}
        assert json.loads((out / "sample_manifest.json").read_text())["seed"] == 5


class TestReproduceTables:
    def test_grid_runs_and_is_deterministic(self, small_synth, tmp_path):
        args = [
            "reproduce-tables", small_synth, "--no-sample",
            "--rounds", "2", "--k", "3", "--seed", "5",
        ]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        for name in (
            "selector_comparison_23class.json",
            "selector_comparison_23class.txt",
            "selector_comparison_5class.json",
            "selector_comparison_5class.txt",
            "per_attack_f.json",
            "per_attack_f.txt",
        ):
            assert (out1 / name).exists(), name
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        grid = json.loads((out1 / "selector_comparison_23class.json").read_text())
        methods = [row["method"] for row in grid["rows"]]
        assert methods == [
            "cfs-bestfirst", "cfs-greedy", "ig", "gainratio",
            "correlation", "hybrid", "hybrid+adaboost",
        ]
        grid5 = json.loads((out1 / "selector_comparison_5class.json").read_text())
        assert [row["method"] for row in grid5["rows"]] == methods[:-1]


class TestRunExperimentApi:
    def test_sampling_stage_manifest(self, small_synth, tmp_path):
        counts = {"normal": 30, "neptune": 15, "smurf": 5}
        counts_path = tmp_path / "c.json"
        counts_path.write_text(json.dumps(counts))
        from idspipe.config import (
            ClassifierConfig, CrossValConfig, ExperimentConfig,
            SampleConfig, SelectionConfig,
        )

        config = PipelineConfig(
            input_path=str(small_synth),
            sample=SampleConfig(target=str(counts_path), seed=2),
            experiment=ExperimentConfig(
                selection=SelectionConfig(method="cfs-greedy", alpha=0.3),
                classifier=ClassifierConfig(boost=False),
            ),
            cv=CrossValConfig(k=5, seed=2),
            output_dir=str(tmp_path / "api"),
        )
        report = run_experiment(config)
        assert report.matrix.total == 50
        manifest = json.loads(
            (tmp_path / "api" / "sample_manifest.json").read_text()
        )
        assert manifest["target_counts"] == counts

    @pytest.mark.parametrize("mode, fits", [("leaky", 1), ("fold-safe", 3 + 1)])
    def test_preprocessing_fits(self, small_synth, tmp_path, monkeypatch, mode, fits):
        # leaky CV and the deployment artifacts share one full-data fit;
        # fold-safe CV fits per fold and once more for deployment. One worker,
        # so that every fold's fit is made, and counted, in this process.
        from idspipe import discretize, evaluate
        from idspipe.config import ClassifierConfig, CrossValConfig, ExperimentConfig

        monkeypatch.setattr(evaluate, "usable_cpus", lambda: 1)
        calls = []
        fit = discretize.fit_discretizer
        monkeypatch.setattr(
            discretize, "fit_discretizer", lambda *a, **kw: calls.append(1) or fit(*a, **kw)
        )
        config = PipelineConfig(
            input_path=str(small_synth),
            sample=None,
            experiment=ExperimentConfig(
                discretization=mode, classifier=ClassifierConfig(boost=False)
            ),
            cv=CrossValConfig(k=3, seed=1),
            output_dir=str(tmp_path / mode),
        )
        run_experiment(config)
        assert len(calls) == fits


def fresh_env(**env):
    """The environment of a new interpreter that imports this idspipe, with no
    OPENBLAS_NUM_THREADS but ``env``'s."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(idspipe.__file__).resolve().parent.parent)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    environ.update(env)
    return environ


def fresh_python(code, **env):
    """Stdout of ``code`` in a new interpreter (see ``fresh_env``)."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(**env), capture_output=True, text=True,
        check=True,
    )
    return done.stdout


def idspipe_process(*args, cwd, stdout=subprocess.PIPE):
    """``python -m idspipe.cli *args`` run in ``cwd``: the completed process."""
    return subprocess.run(
        [sys.executable, "-m", "idspipe.cli", *map(str, args)],
        cwd=cwd, env=fresh_env(), stdout=stdout, stderr=subprocess.PIPE, text=True,
    )


class TestProcessStart:
    """Importing idspipe before numpy keeps OpenBLAS from starting worker threads."""

    @pytest.mark.parametrize("env, expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
    def test_default_of_one_thread_keeps_a_user_setting(self, env, expected):
        code = "import idspipe, numpy, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_python(code, **env) == expected + "\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_process_has_one_thread_after_numpy_loads(self):
        code = "import idspipe, numpy, os; print(len(os.listdir('/proc/self/task')))"
        assert fresh_python(code) == "1\n"


class TestProcessExit:
    """A command process flushes its output and ends through ``os._exit``; what it
    writes, prints and returns is what ``main`` in this process gives."""

    @pytest.fixture()
    def dirs(self, tmp_path):
        made = [tmp_path / name for name in ("in-process", "piped", "to-file")]
        for path in made:
            path.mkdir()
        return made

    @pytest.mark.parametrize(
        "args, code",
        [
            (["ingest", "{synth}", "--out", "x.csv"], 0),
            (["run"], 1),
            (["ingest", "missing.txt", "--out", "x.csv"], 2),
        ],
        ids=["ok", "usage", "data"],
    )
    def test_exit_status_and_error_line_match_main(
        self, small_synth, dirs, monkeypatch, capsys, args, code
    ):
        args = [a.format(synth=small_synth) for a in args]
        monkeypatch.chdir(dirs[0])
        assert main(args) == code
        err = capsys.readouterr().err
        done = idspipe_process(*args, cwd=dirs[1])
        assert done.returncode == code
        assert done.stderr.splitlines()[-1:] == err.splitlines()[-1:]

    def test_report_and_artifacts_match_main_through_pipe_and_file(
        self, small_synth, dirs, monkeypatch, capsys
    ):
        args = ["run", "--input", small_synth, "--sample", "none", "--no-boost", "--k", "3",
                "--out", "o"]
        monkeypatch.chdir(dirs[0])
        assert run_cli(*args) == 0
        out = capsys.readouterr().out
        assert "artifacts in o" in out
        piped = idspipe_process(*args, cwd=dirs[1])
        with open(dirs[2] / "stdout.txt", "w") as fh:
            assert idspipe_process(*args, cwd=dirs[2], stdout=fh).returncode == 0
        assert (piped.returncode, piped.stdout) == (0, out)
        assert (dirs[2] / "stdout.txt").read_text() == out
        names = sorted(p.name for p in (dirs[0] / "o").iterdir())
        assert len(names) >= 7
        for d in dirs[1:]:
            assert sorted(p.name for p in (d / "o").iterdir()) == names
            for name in names:
                assert (d / "o" / name).read_bytes() == (dirs[0] / "o" / name).read_bytes()

    def test_help_arrives_through_pipe_and_file(self, dirs, capsys):
        assert main(["--help"]) == 0
        # the usage line names the program, which differs in this process
        lines = capsys.readouterr().out.splitlines(keepends=True)
        piped = idspipe_process("--help", cwd=dirs[1])
        with open(dirs[2] / "stdout.txt", "w") as fh:
            assert idspipe_process("--help", cwd=dirs[2], stdout=fh).returncode == 0
        assert piped.returncode == 0
        assert (dirs[2] / "stdout.txt").read_text() == piped.stdout
        assert piped.stdout.splitlines(keepends=True)[1:] == lines[1:]

    def test_help_into_a_closed_pipe_exits_1_silently(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = idspipe_process("--help", cwd=tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", ["help", "eval"])
    def test_stdout_on_a_full_device_is_a_data_error(self, small_synth, tmp_path, command):
        args = ["--help"]
        if command == "eval":
            assert run_cli("ingest", small_synth, "--out", tmp_path / "x.csv") == 0
            assert run_cli("discretize", tmp_path / "x.csv", "--out", tmp_path / "d") == 0
            binned = tmp_path / "d" / "discretized.csv"
            assert run_cli("select", binned, "--out", tmp_path / "s.json") == 0
            assert run_cli(
                "train", binned, "--selection", tmp_path / "s.json", "--no-boost",
                "--out", tmp_path / "m.json",
            ) == 0
            args = ["eval", binned, "--model", tmp_path / "m.json", "--out", tmp_path / "r.json"]
        with open("/dev/full", "w") as full:
            done = idspipe_process(*args, cwd=tmp_path, stdout=full)
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        assert line.startswith("error: ") and line.endswith("No space left on device")

    @pytest.mark.parametrize("flush_fails", [False, True])
    def test_entry_point_flushes_then_exits_with_mains_code(self, monkeypatch, flush_fails):
        events = []

        class Stream(io.StringIO):
            def flush(self):
                events.append("flush")
                if flush_fails:
                    raise OSError(errno.ENOSPC, "No space left on device")

        class FastExit(Exception):
            pass

        def fast_exit(code):
            events.append(("os._exit", code))
            raise FastExit

        monkeypatch.setattr(cli, "main", lambda: 2)
        monkeypatch.setattr(sys, "stdout", Stream())
        monkeypatch.setattr(cli.os, "_exit", fast_exit)
        # a failed flush leaves the exit to the interpreter, which reports it
        with pytest.raises(SystemExit if flush_fails else FastExit) as exc:
            cli.entry_point()
        if flush_fails:
            assert (exc.value.code, events) == (2, ["flush"])
        else:
            assert events == ["flush", ("os._exit", 2)]

    def test_a_command_registers_no_atexit_handler(self, small_synth, tmp_path):
        # os._exit skips atexit handlers; one registered later (logging.shutdown,
        # for instance) must be run by the entry point before it exits
        code = f"""
import atexit
before = atexit._ncallbacks()
from idspipe import cli
code = cli.main(["run", "--input", {str(small_synth)!r}, "--sample", "none",
                 "--no-boost", "--k", "3", "--out", {str(tmp_path / "o")!r}])
print(code, atexit._ncallbacks() - before)
"""
        assert fresh_python(code).splitlines()[-1] == "0 0"
