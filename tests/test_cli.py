import json

import pytest

from idspipe.cli import main
from idspipe.config import PipelineConfig, SampleConfig
from idspipe.data import read_dataset
from idspipe.pipeline import run_experiment
from idspipe.synth import synthetic_lines


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
    def test_full_stage_chain(self, small_synth, tmp_path):
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
        assert run_cli(
            "eval", binned, "--model", model_path, "--out", report_path
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["matrix"]["counts"]

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
        assert ds.class_counts() == {"normal": 40, "neptune": 20}
        manifest = json.loads((tmp_path / "sampled.csv.manifest.json").read_text())
        assert len(manifest["selected_indices"]) == 60

    def test_ingest_category5(self, small_synth, tmp_path):
        out = tmp_path / "cat5.csv"
        assert run_cli(
            "ingest", small_synth, "--out", out, "--granularity", "category5"
        ) == 0
        ds = read_dataset(out)
        assert set(ds.class_counts()) <= {"Dos", "Probe", "R2L", "U2R", "normal"}

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
        ],
        ids=["ingest", "ingest-sample", "discretize", "select", "train", "eval"],
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
            ("{tmp}/c.json", "[3]",
             ["ingest", "{synth}", "--out", "{tmp}/x.csv", "--sample", "{side}"],
             "sample", "{side}"),
            ("{tmp}/c.json", "[3]",
             ["run", "--input", "{synth}", "--sample", "{side}", "--out", "{tmp}/o"],
             "sample", "{side}"),
        ],
        ids=["sidecar-empty", "sidecar-schema-not-a-list", "sidecar-a-list",
             "selection-without-indices", "ingest-counts-a-list", "run-counts-a-list"],
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
        result = run_experiment(config)
        assert result.report.matrix.total == 50
        manifest = json.loads(
            (tmp_path / "api" / "sample_manifest.json").read_text()
        )
        assert manifest["target_counts"] == counts

    @pytest.mark.parametrize("mode, fits", [("leaky", 1), ("fold-safe", 3 + 1)])
    def test_preprocessing_fits(self, small_synth, tmp_path, monkeypatch, mode, fits):
        # leaky CV and the deployment artifacts share one full-data fit;
        # fold-safe CV fits per fold and once more for deployment
        from idspipe import discretize
        from idspipe.config import ClassifierConfig, CrossValConfig, ExperimentConfig

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
