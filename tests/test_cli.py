import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

import lppgate
from lppgate import pipeline
from lppgate.cli import INPUTS, build_parser, main, stage_argv
from lppgate.dataset import label_correctness
from lppgate.schema import trace_to_dict, write_traces_jsonl
from lppgate.synth import SynthConfig, generate_corpus

# Every flag that names a file a command reads.
FILE_FLAGS = {
    "--items", "--stub", "--traces", "--features", "--features-sidecar", "--labels",
    "--train-ids", "--validation-ids", "--test-ids", "--model",
}


def run_cli(*argv):
    return main([str(a) for a in argv])


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def file_inputs(argv):
    """{path: sha256} of each file flag's value in argv, as the file is now."""
    argv = [str(a) for a in argv]
    return {value: sha256(value) for flag, value in zip(argv, argv[1:]) if flag in FILE_FLAGS}


def labelled(run_dir):
    return [
        "--features", run_dir / "features.csv",
        "--features-sidecar", run_dir / "features.families.json",
        "--labels", run_dir / "labels.csv",
    ]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full CLI pipeline run shared by the assertions below, with each
    command's file inputs hashed just before it ran."""
    out = tmp_path_factory.mktemp("cli") / "run"
    expected_inputs = {}

    def stage(command, *argv):
        expected_inputs[command] = file_inputs(argv)
        assert run_cli(command, "--out", out, *argv) == 0

    stage("synth", "--n-items", 400, "--seed", "42")
    stage("extract", "--traces", out / "traces.jsonl")
    for command, argv in fit_stages(out):
        stage(command, *argv)
    return out, expected_inputs


def fit_stages(out):
    """(command, argv) of split..sensitivity on the files in out, as the
    chain fixture runs them."""
    common = labelled(out)
    model = ["--model", out / "model.json"]
    return [
        ("split", [*common, "--test-negatives", 30]),
        ("train", [*common, "--train-ids", out / "train_ids.txt", "--quick-grid"]),
        ("sweep", [*common, *model, "--validation-ids", out / "validation_ids.txt"]),
        ("evaluate", [*common, *model, "--validation-ids", out / "validation_ids.txt", "--test-ids", out / "test_ids.txt"]),
        ("sensitivity", [*common, *model, "--test-ids", out / "test_ids.txt"]),
    ]


def artifacts(run_dir):
    """{name: bytes} of every file in run_dir but the manifests and the
    binary feature copy."""
    return {
        p.name: p.read_bytes()
        for p in sorted(run_dir.iterdir())
        if not p.name.endswith(".manifest.json") and p.name != "features.npy"
    }


@pytest.fixture(scope="module")
def workdir(chain):
    return chain[0]


class TestPipelineArtifacts:
    def test_all_artifacts_exist(self, workdir):
        for name in (
            "traces.jsonl",
            "labels.csv",
            "features.csv",
            "features.families.json",
            "features.npy",
            "train_ids.txt",
            "validation_ids.txt",
            "test_ids.txt",
            "model.json",
            "train_report.json",
            "policy_report.json",
            "evaluation.csv",
            "evaluation.json",
            "sensitivity.json",
            "sensitivity.csv",
        ):
            assert (workdir / name).exists(), name

    def test_each_command_has_one_manifest(self, workdir):
        for command in ("synth", "extract", "split", "train", "sweep", "evaluate", "sensitivity"):
            manifest = json.loads((workdir / f"{command}.manifest.json").read_text())
            assert manifest["command"] == command
            assert "config_hash" in manifest and "timing_s" in manifest

    def test_manifest_hash_chains_inputs(self, workdir):
        manifest = json.loads((workdir / "train.manifest.json").read_text())
        features_path = str(workdir / "features.csv")
        recorded = manifest["inputs"][features_path]
        actual = hashlib.sha256((workdir / "features.csv").read_bytes()).hexdigest()
        assert recorded == actual

    def test_manifest_inputs_are_the_file_flags(self, chain):
        out, expected_inputs = chain
        assert set(expected_inputs) == {
            "synth", "extract", "split", "train", "sweep", "evaluate", "sensitivity"
        }
        for command, inputs in expected_inputs.items():
            manifest = json.loads((out / f"{command}.manifest.json").read_text())
            assert manifest["inputs"] == inputs, command
        # sweep recorded the model as it read it, before freezing tau* into it
        sweep_model = expected_inputs["sweep"][str(out / "model.json")]
        assert sweep_model != sha256(out / "model.json")

    def test_train_manifest_counts_distinct_configs(self, workdir, tmp_path):
        manifest = json.loads((workdir / "train.manifest.json").read_text())
        # the quick grid: 2 alpha x 2 class weights x 2 calibrators
        assert manifest["extra"]["distinct_configs"] == 8
        out = tmp_path / "full"
        assert (
            run_cli(
                "train", "--out", out,
                "--features", workdir / "features.csv",
                "--features-sidecar", workdir / "features.families.json",
                "--labels", workdir / "labels.csv",
                "--train-ids", workdir / "train_ids.txt",
            )
            == 0
        )
        extra = json.loads((out / "train.manifest.json").read_text())["extra"]
        assert extra["grid_size"] == 672
        assert extra["distinct_configs"] == 56
        assert "distinct_configs" not in json.loads((out / "train_report.json").read_text())

    def test_train_manifest_counts_resampling(self, workdir):
        extra = json.loads((workdir / "train.manifest.json").read_text())["extra"]
        resampled = json.loads((workdir / "train_report.json").read_text())["resample"]
        assert extra["tomek_removed"] == resampled["tomek_removed"]
        assert extra["undersampled"] == resampled["undersampled"]
        assert extra["undersampled"] > 0

    @pytest.mark.parametrize("tau_range, on_edge", [(None, True), ("0.0:1.0", False)])
    def test_sweep_manifest_flags_tau_star_on_grid_edge(self, workdir, tmp_path, tau_range, on_edge):
        # on this corpus the default grid's optimum is its lowest point; on
        # the full unit interval it lies inside
        out = tmp_path / "run"
        out.mkdir()
        model = shutil.copy(workdir / "model.json", out / "model.json")
        flags = [] if tau_range is None else ["--tau-range", tau_range]
        code = run_cli(
            "sweep", "--out", out, *labelled(workdir),
            "--model", model, "--validation-ids", workdir / "validation_ids.txt", *flags,
        )
        assert code == 0
        extra = json.loads((out / "sweep.manifest.json").read_text())["extra"]
        report = json.loads((out / "policy_report.json").read_text())
        assert extra["tau_star_on_grid_edge"] is on_edge
        assert extra["tau_star"] == report["tau_star"]
        assert "tau_star_on_grid_edge" not in report

    def test_model_has_frozen_tau(self, workdir):
        model = json.loads((workdir / "model.json").read_text())
        assert model["tau_star"] is not None
        assert 0.35 <= model["tau_star"] <= 0.70

    def test_evaluation_row_order(self, workdir):
        lines = (workdir / "evaluation.csv").read_text().strip().splitlines()
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["msp", "top2_margin", "entropy", "meta_model", "always_trust"]

    def test_sensitivity_consistent_with_evaluation(self, workdir):
        sens = json.loads((workdir / "sensitivity.json").read_text())
        evaluation = json.loads((workdir / "evaluation.json").read_text())
        meta = evaluation["methods"]["meta_model"]["metrics"]
        assert sens["expected_cost"] == pytest.approx(meta["expected_cost"], abs=1e-9)
        at_064 = next(p for p in sens["curve"] if abs(p["r"] - 0.64) < 1e-9)
        assert at_064["relative_cost"] == pytest.approx(meta["expected_cost"], abs=1e-9)

    def test_extract_idempotent(self, workdir, tmp_path):
        before = (workdir / "features.csv").read_bytes()
        assert run_cli("extract", "--out", workdir, "--traces", workdir / "traces.jsonl") == 0
        assert (workdir / "features.csv").read_bytes() == before


class TestBinaryFeatureCopy:
    """Every stage after extract reads the binary copy of features.csv
    only while it matches; a changed copy or an edited CSV gives the run
    the CSV alone gives."""

    @staticmethod
    def fit(run):
        for command, argv in fit_stages(run):
            assert run_cli(command, "--out", run, *argv) == 0, command

    @staticmethod
    def extracted(workdir, run):
        run.mkdir()
        for name in ("features.csv", "features.families.json", "features.npy", "labels.csv"):
            shutil.copy(workdir / name, run / name)
        return run

    @pytest.mark.parametrize("change", ["flip", "truncate", "delete"])
    def test_changed_copy_gives_the_same_run(self, workdir, tmp_path, change):
        run = self.extracted(workdir, tmp_path / "run")
        copy = run / "features.npy"
        data = copy.read_bytes()
        if change == "flip":
            copy.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        elif change == "truncate":
            copy.write_bytes(data[: len(data) // 2])
        else:
            copy.unlink()
        self.fit(run)
        expected = artifacts(workdir)
        del expected["traces.jsonl"]
        assert artifacts(run) == expected

    def test_edited_csv_is_what_every_stage_reads(self, workdir, tmp_path):
        # a training row of the minority class, which resampling keeps, so
        # its value reaches the scaler in model.json
        labels = pipeline.load_labels(workdir / "labels.csv")
        train_ids = pipeline.read_id_list(workdir / "train_ids.txt")
        item = next(i for i in train_ids if label_correctness(labels[i][1], labels[i][0]) == 0)
        runs = [self.extracted(workdir, tmp_path / name) for name in ("stale-copy", "no-copy")]
        (runs[1] / "features.npy").unlink()
        for run in runs:
            lines = (run / "features.csv").read_text().split("\n")
            row = next(n for n, line in enumerate(lines) if line.startswith(item + ","))
            head, _, values = lines[row].partition(",")
            lines[row] = f"{head},{'9' if values[0] != '9' else '8'}{values[1:]}"
            (run / "features.csv").write_text("\n".join(lines))
            self.fit(run)
        assert artifacts(runs[0]) == artifacts(runs[1])
        assert artifacts(runs[0])["model.json"] != (workdir / "model.json").read_bytes()


class TestAblateCommand:
    def test_single_family_row(self, workdir, tmp_path):
        out = tmp_path / "run"
        assert (
            run_cli(
                "ablate", "--out", out, *labelled(workdir),
                "--train-ids", workdir / "train_ids.txt",
                "--validation-ids", workdir / "validation_ids.txt",
                "--test-ids", workdir / "test_ids.txt",
                "--family", "attribution",
                "--quick-grid",
            )
            == 0
        )
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "dropped_family,expected_cost,delta_vs_full"
        assert len(lines) == 2
        assert lines[1].startswith("attribution,")


class TestErrors:
    def test_evaluate_without_model_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        for name in ("features.csv", "features.families.json", "labels.csv", "v.txt", "t.txt"):
            (out / name).write_text("")
        code = run_cli(
            "evaluate", "--out", out,
            "--model", out / "missing-model.json",
            "--features", out / "features.csv",
            "--features-sidecar", out / "features.families.json",
            "--labels", out / "labels.csv",
            "--validation-ids", out / "v.txt",
            "--test-ids", out / "t.txt",
        )
        assert code == 1
        err = capsys.readouterr().err
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"]["type"] == "FileNotFoundError"
        assert "missing-model.json" in doc["error"]["message"]

    def test_partial_outputs_removed_on_failure(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("synth", "--out", out, "--n-items", 100) == 0
        # a directory where the sidecar goes: extract fails after writing
        # features.csv, while moving the sidecar's temp file into place
        (out / "features.families.json").mkdir()
        capsys.readouterr()
        code = run_cli("extract", "--out", out, "--traces", out / "traces.jsonl")
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "IsADirectoryError"
        assert not (out / "features.csv").exists()
        assert not (out / "features.npy").exists()
        assert not list(out.glob("*.tmp"))
        assert not (out / "extract.manifest.json").exists()

    @pytest.mark.parametrize("bad", ["n\nl", "r\rx"])
    def test_extract_refuses_line_break_id(self, tmp_path, capsys, bad):
        out = tmp_path / "run"
        traces, _ = generate_corpus(SynthConfig(n_items=30, seed=3))
        traces[4].item_id = bad
        out.mkdir()
        write_traces_jsonl(traces, out / "traces.jsonl")
        assert run_cli("extract", "--out", out, "--traces", out / "traces.jsonl") == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": f"item_id {bad!r} holds a line break"}
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize("bad", ["malformed", "per-token"])
    def test_bad_trace_line_names_its_line_and_file(self, tmp_path, capsys, bad):
        out = tmp_path / "run"
        out.mkdir()
        traces, _ = generate_corpus(SynthConfig(n_items=5, seed=3))
        path = out / "traces.jsonl"
        write_traces_jsonl(traces, path)
        lines = path.read_text().splitlines(keepends=True)
        if bad == "malformed":
            lines.insert(3, "{not json\n")
            reason = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        else:
            lines[3] = json.dumps(trace_to_dict(traces[3])) + "\n"
            reason = f"trace {traces[3].item_id!r} has no 'spans' key"
        path.write_text("".join(lines))
        assert run_cli("extract", "--out", out, "--traces", path) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": f"line 4 of {path}: {reason}"}
        assert not (out / "features.csv").exists()

    def test_failed_sweep_keeps_trained_model(self, workdir, tmp_path, monkeypatch, capsys):
        common = [
            "--features", workdir / "features.csv",
            "--features-sidecar", workdir / "features.families.json",
            "--labels", workdir / "labels.csv",
        ]
        out = tmp_path / "run"
        train_ids = workdir / "train_ids.txt"
        assert run_cli("train", "--out", out, *common, "--train-ids", train_ids, "--quick-grid") == 0
        trained = (out / "model.json").read_bytes()

        def broken_report(*args, **kwargs):
            raise RuntimeError("report failed")

        monkeypatch.setattr(lppgate.policy, "policy_report", broken_report)
        code = run_cli(
            "sweep", "--out", out, *common,
            "--model", out / "model.json",
            "--validation-ids", workdir / "validation_ids.txt",
        )
        assert code == 1
        assert "report failed" in capsys.readouterr().err
        assert (out / "model.json").read_bytes() == trained
        assert not (out / "policy_report.json").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tau-range", "0.7:0.35", "lo <= hi"),
            ("--tau-step", "-0.005", "step > 0"),
            ("--tau-step", "0", "step > 0"),
            ("--tau-range", "0.35:0.70:0.1", "--tau-range"),
        ],
    )
    def test_invalid_tau_grid_rejected(self, workdir, tmp_path, capsys, flag, value, message):
        out = tmp_path / "run"
        out.mkdir()
        model = shutil.copy(workdir / "model.json", out / "model.json")
        before = Path(model).read_bytes()
        capsys.readouterr()
        code = run_cli(
            "sweep", "--out", out, *labelled(workdir),
            "--model", model, "--validation-ids", workdir / "validation_ids.txt",
            flag, value,
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError" and message in error["message"]
        assert not (out / "policy_report.json").exists()
        assert Path(model).read_bytes() == before

    @pytest.mark.parametrize(
        "r_grid, message",
        [("0.9:0.4:0.05", "lo <= hi"), ("0.4:0.9:0", "step > 0"), ("0.4:0.9", "--r-grid")],
    )
    def test_invalid_r_grid_rejected(self, workdir, tmp_path, capsys, r_grid, message):
        out = tmp_path / "run"
        capsys.readouterr()
        code = run_cli(
            "sensitivity", "--out", out, *labelled(workdir),
            "--model", workdir / "model.json", "--test-ids", workdir / "test_ids.txt",
            "--r-grid", r_grid,
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError" and message in error["message"]
        assert not (out / "sensitivity.json").exists()

    @pytest.mark.parametrize(
        "config, kind", [([["seed", 7]], "list"), ([1, 2], "list"), ("seed", "str"), (7, "int"), (None, "NoneType")]
    )
    def test_config_must_be_an_object(self, tmp_path, capsys, config, kind):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("synth", "--out", out, "--n-items", 50, "--config", cfg) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        message = f"--config must hold a JSON object of config keys, got {kind} ({cfg})"
        assert error == {"type": "ValueError", "message": message}
        assert not out.exists() or not list(out.iterdir())

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        code = run_cli("synth", "--out", out, "--config", cfg)
        assert code == 1
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("split", {"seed": "7"}),
            ("evaluate", {"tau_step": "0.01"}),
            ("split", {"seed": True}),
            ("split", {"test_negatives": 30.0}),
            ("evaluate", {"sensitivity_ratios": [0.4, "0.9"]}),
        ],
    )
    def test_config_value_types_checked(self, workdir, tmp_path, capsys, command, config):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        inputs = {
            "split": [],
            "evaluate": [
                "--model", workdir / "model.json",
                "--validation-ids", workdir / "validation_ids.txt",
                "--test-ids", workdir / "test_ids.txt",
            ],
        }[command]
        capsys.readouterr()
        code = run_cli(command, "--out", out, *labelled(workdir), *inputs, "--config", cfg)
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        [(key, value)] = config.items()
        assert error["type"] == "ValueError"
        assert f"config key {key!r}" in error["message"]
        assert repr(value) in error["message"] and str(cfg) in error["message"]
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize(
        "key, config",
        [
            ("dataset_profile", {"dataset_profile": "multi-modal"}),
            ("families", {"families": ["outcome_topk", "tokens"]}),
        ],
    )
    def test_config_values_checked(self, tmp_path, capsys, key, config):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        code = run_cli("synth", "--out", out, "--n-items", 50, "--config", cfg)
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        bad = {"dataset_profile": "multi-modal", "families": "tokens"}[key]
        assert error["type"] == "ValueError"
        assert f"config key {key!r}" in error["message"]
        assert repr(bad) in error["message"] and str(cfg) in error["message"]
        assert not out.exists() or not list(out.iterdir())

    def test_dataset_profile_flag_checked_as_the_config_key(self, tmp_path, capsys):
        # one list of profiles: the flag's value gets the config key's error
        out = tmp_path / "run"
        capsys.readouterr()
        assert run_cli("synth", "--out", out, "--n-items", 50, "--dataset-profile", "multi-modal") == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError"
        assert "config key 'dataset_profile'" in error["message"]
        assert "'multi-modal'" in error["message"] and "--config" not in error["message"]
        assert not out.exists() or not list(out.iterdir())

    def test_config_int_for_float_and_null_accepted(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cost_mis": 2, "test_negatives": None, "sensitivity_ratios": [1, 0.5]}))
        assert run_cli("synth", "--out", out, "--n-items", 50, "--config", cfg) == 0
        config = json.loads((out / "synth.manifest.json").read_text())["config"]
        assert (config["cost_mis"], config["test_negatives"]) == (2, None)

    def test_evaluate_rejects_overlapping_splits(self, workdir, tmp_path, capsys):
        out = tmp_path / "run"
        ids = workdir / "validation_ids.txt"
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--out", out, *labelled(workdir), "--model", workdir / "model.json",
            "--validation-ids", ids, "--test-ids", ids,
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        first = ids.read_text().split()[0]
        assert error["type"] == "ValueError"
        assert f"item_id {first!r} is in both the validation and the test ids" == error["message"]
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize(
        "signal, message",
        [
            ('{"sequence": true}', "signal['sequence'] must be a number, got True"),
            ('{"sequence": "0.9"}', "signal['sequence'] must be a number, got '0.9'"),
            ("[1]", "--signal must be a JSON object of family -> strength, got [1]"),
            ("{sequence: 1}", "--signal is not valid JSON"),
        ],
        ids=["bool", "text", "array", "not-json"],
    )
    def test_signal_values_checked(self, tmp_path, capsys, signal, message):
        out = tmp_path / "run"
        capsys.readouterr()
        assert run_cli("synth", "--out", out, "--n-items", 50, "--signal", signal) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError" and error["message"].startswith(message)
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("top_k", [-2, 0])
    def test_top_k_below_one_rejected(self, tmp_path, capsys, top_k):
        out = tmp_path / "run"
        assert run_cli("synth", "--out", out, "--n-items", 50) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_k": top_k}))
        capsys.readouterr()
        code = run_cli("extract", "--out", out, "--traces", out / "traces.jsonl", "--config", cfg)
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError" and "top_k" in error["message"]
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--cost-ratio", "-1"], {"cost_ratio": -1}, "costs must be positive"),
            (["--tau-step", "0"], {"tau_step": 0}, "threshold grid needs step > 0 and lo <= hi"),
            (["--tau-range", "0.7:0.3"], {"tau_min": 0.7, "tau_max": 0.3}, "threshold grid needs step > 0 and lo <= hi"),
            (["--test-negatives", "0"], {"test_negatives": 0}, "test_negative_count must be positive"),
            (None, {"validation_fraction": 2.0}, "validation_fraction must be in (0, 1)"),
            (None, {"target_majority_ratio": -1}, "target_majority_ratio must be positive"),
            (None, {"validation_fraction": 2.0, "target_majority_ratio": -1}, "validation_fraction must be in (0, 1)"),
        ],
        ids=["cost-ratio", "tau-step", "tau-range", "test-negatives", "validation-fraction", "majority-ratio", "both"],
    )
    def test_extract_refuses_a_derived_setting_out_of_range(self, workdir, tmp_path, capsys, flags, config, message):
        # a value only a later stage reads is refused by the first command
        # that loads the config, whether a flag or the config file gave it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        given = {"config": ["--config", cfg], **({"flag": flags} if flags else {})}
        for name, argv in given.items():
            out = tmp_path / name
            capsys.readouterr()
            assert run_cli("extract", "--out", out, "--traces", workdir / "traces.jsonl", *argv) == 1
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["type"] == "ValueError" and error["message"].startswith(message)
            assert (f"(--config {cfg})" in error["message"]) == (name == "config")
            assert not (out / "features.csv").exists()

    def test_split_refuses_a_repeated_feature_row(self, workdir, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        # the binary copy too: it no longer matches the CSV, so is not read
        for name in ("features.csv", "features.families.json", "features.npy", "labels.csv"):
            shutil.copy(workdir / name, run / name)
        lines = (run / "features.csv").read_text().splitlines(keepends=True)
        (run / "features.csv").write_text("".join(lines + lines[1:2]))
        capsys.readouterr()
        assert run_cli("split", "--out", run, *labelled(run), "--test-negatives", 30) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        first = lines[1].partition(",")[0]
        assert error == {
            "type": "ValueError",
            "message": f"item_id {first!r} appears more than once in {run / 'features.csv'}",
        }
        assert not list(run.glob("*_ids.txt"))

    def test_train_names_an_id_without_a_feature_row(self, workdir, tmp_path, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text((workdir / "train_ids.txt").read_text() + "no-such-item\n")
        out = tmp_path / "run"
        capsys.readouterr()
        code = run_cli("train", "--out", out, *labelled(workdir), "--train-ids", ids, "--quick-grid")
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "KeyError"
        assert "item 'no-such-item' has no feature row" in error["message"]
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("n_items", [0, -3])
    def test_synth_refuses_fewer_than_one_item(self, tmp_path, capsys, n_items):
        out = tmp_path / "run"
        capsys.readouterr()
        assert run_cli("synth", "--out", out, "--n-items", n_items) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError", "message": f"n_items must be an integer of at least 1, got {n_items}"}
        assert not out.exists() or not list(out.iterdir())


class TestGenerateRefusesBadItems:
    """Bad item lines fail generate before any request is sent."""

    FIXTURE = Path(__file__).parent / "fixtures" / "stub"

    @pytest.fixture
    def no_requests(self, monkeypatch):
        def run_inference(*args, **kwargs):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(lppgate.gateway, "run_inference", run_inference)

    def _generate(self, tmp_path, capsys, extra_lines, pool_width=4):
        items = tmp_path / "items.jsonl"
        items.write_text((self.FIXTURE / "items.jsonl").read_text() + "".join(extra_lines))
        out = tmp_path / "run"
        capsys.readouterr()
        code = run_cli(
            "generate", "--out", out, "--items", items, "--stub", self.FIXTURE / "stub.json",
            "--template", "text-cot", "--pool-width", pool_width,
        )
        assert code == 1
        assert not out.exists() or not list(out.iterdir())
        return items, json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("pool_width", [1, 4])
    def test_repeated_item_id(self, tmp_path, capsys, no_requests, pool_width):
        first = (self.FIXTURE / "items.jsonl").read_text().splitlines(keepends=True)[0]
        items, error = self._generate(tmp_path, capsys, [first], pool_width)
        assert error == {"type": "ValueError", "message": f"item_id 'it-01' appears more than once in {items}"}

    def test_line_break_in_item_id(self, tmp_path, capsys, no_requests):
        _, error = self._generate(tmp_path, capsys, [json.dumps({"item_id": "a\nb", "text": "x"}) + "\n"])
        assert error == {"type": "ValueError", "message": "item_id 'a\\nb' holds a line break"}

    @pytest.mark.parametrize("line", ['{"text": "no id"}', "[1, 2]", '"it-99"', "{not json"])
    def test_line_without_an_item_id(self, tmp_path, capsys, no_requests, line):
        items, error = self._generate(tmp_path, capsys, ["\n", line + "\n"])
        # the fixture's nine lines, then a blank line
        assert error == {"type": "ValueError", "message": f"line 11 of {items} is not a JSON object with an item_id"}


class TestFamiliesFlag:
    def test_extract_with_family_subset(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("synth", "--out", out, "--n-items", 40) == 0
        assert (
            run_cli(
                "extract", "--out", out,
                "--traces", out / "traces.jsonl",
                "--families", "outcome_topk,attribution",
            )
            == 0
        )
        header = (out / "features.csv").read_text().splitlines()[0]
        columns = header.split(",")[1:]
        assert len(columns) == 11
        assert all(c.split(".")[0] in ("outcome_topk", "attribution") for c in columns)
        sidecar = json.loads((out / "features.families.json").read_text())
        assert set(sidecar["families"]) == {"outcome_topk", "attribution"}

    def test_unknown_family_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("synth", "--out", out, "--n-items", 20) == 0
        code = run_cli(
            "extract", "--out", out,
            "--traces", out / "traces.jsonl",
            "--families", "nonsense",
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        # the value came from a flag, so the message names no config file
        assert "'nonsense'" in error["message"] and "--config" not in error["message"]


class TestConsoleScript:
    """The `lppgate` script declared in pyproject.toml runs the CLI end to end.

    The suite runs from a source checkout, where no script is installed, so
    the test writes the launcher pip would generate from the declaration and
    runs it in a child process that imports the same package as this one.
    """

    def test_installed_entry_point(self, tmp_path):
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["lppgate"]
        entry = EntryPoint(name="lppgate", value=value, group="console_scripts")

        launcher = tmp_path / "bin" / "lppgate"
        launcher.parent.mkdir()
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({entry.attr}())\n"
        )
        launcher.chmod(0o755)

        package_root = Path(lppgate.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(launcher.parent), env.get("PATH", "")])
        env["PYTHONPATH"] = str(package_root)

        def run(*argv):
            return subprocess.run(
                ["lppgate", *argv],
                capture_output=True,
                text=True,
                env=env,
                cwd=tmp_path,
            )

        out = tmp_path / "run"
        proc = run("synth", "--out", str(out), "--n-items", "25")
        assert proc.returncode == 0, proc.stderr
        assert (out / "traces.jsonl").exists()

        # main() returns 1 on a run-time error; the launcher's sys.exit(main())
        # must hand that value on as the process status.
        proc = run("synth", "--out", str(out), "--config", str(tmp_path / "missing.json"))
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == "FileNotFoundError"

        try:
            installed = distribution("lppgate")
        except PackageNotFoundError:
            return
        scripts = [
            ep for ep in installed.entry_points
            if ep.group == "console_scripts" and ep.name == "lppgate"
        ]
        assert [ep.value for ep in scripts] == [entry.value]


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cost_ratio": 0.5, "seed": 7}))
        assert run_cli("synth", "--out", out, "--n-items", 50, "--config", cfg, "--cost-ratio", "0.7") == 0
        manifest = json.loads((out / "synth.manifest.json").read_text())
        assert manifest["config"]["cost_ratio"] == 0.7
        assert manifest["config"]["seed"] == 7

    def test_defaults_encode_constants(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("synth", "--out", out, "--n-items", 50) == 0
        config = json.loads((out / "synth.manifest.json").read_text())["config"]
        assert config["seed"] == 42
        assert config["top_k"] == 5
        assert config["cost_ratio"] == 0.64
        assert (config["tau_min"], config["tau_max"], config["tau_step"]) == (0.35, 0.70, 0.005)
        assert config["dataset_profile"] == "openai-mod"


class TestGenerateManifest:
    @pytest.mark.parametrize("stub", [True, False])
    def test_inputs_are_the_file_flags(self, tmp_path, monkeypatch, stub):
        from tests.test_gateway import valid_payload

        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text(json.dumps({"a": [valid_payload()]}))
        items = tmp_path / "items.jsonl"
        items.write_text(json.dumps({"item_id": "a", "text": "x", "concept_definition": "d"}) + "\n")
        if stub:
            argv = ["--items", items, "--stub", fixtures]
        else:
            # the HTTP provider is swapped for the stub, so nothing is contacted
            monkeypatch.setattr(
                lppgate.gateway, "HttpProvider",
                lambda endpoint, model: lppgate.gateway.StubProvider.from_file(fixtures),
            )
            argv = ["--items", items, "--endpoint", "http://localhost:9", "--model-name", "m"]
        out = tmp_path / "run"
        assert run_cli("generate", "--out", out, *argv) == 0
        manifest = json.loads((out / "generate.manifest.json").read_text())
        assert manifest["inputs"] == file_inputs(argv)
        assert len(manifest["inputs"]) == (2 if stub else 1)
        assert manifest["extra"]["accepted"] == 1

    @pytest.mark.parametrize("flags", [["--temperature", 0.7], ["--top-logprobs", 5]])
    def test_decoding_flag_needs_the_override(self, tmp_path, capsys, flags):
        fixture = Path(__file__).parent / "fixtures" / "stub"
        argv = ["--items", fixture / "items.jsonl", "--stub", fixture / "stub.json", *flags]
        out = tmp_path / "run"
        assert run_cli("generate", "--out", out, *argv) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError" and "allow_decoding_override" in error["message"]
        assert not (out / "traces.jsonl").exists()

        assert run_cli("generate", "--out", out, *argv, "--allow-decoding-override") == 0
        extra = json.loads((out / "generate.manifest.json").read_text())["extra"]
        assert extra["decoding_override"] is True
        name = flags[0][2:].replace("-", "_")
        assert extra["decoding"][name] == flags[1]

    def test_committed_stub_corpus(self, tmp_path):
        # The corpus CI runs through `generate` in separate processes: six
        # accepted items (one after a malformed first response, one with a
        # 0.25 provider logprob), a give-up after four malformed responses,
        # an item without logprobs and one lacking its concept definition.
        fixture = Path(__file__).parent / "fixtures" / "stub"
        out = tmp_path / "run"
        argv = ["--items", fixture / "items.jsonl", "--stub", fixture / "stub.json"]
        assert run_cli("generate", "--out", out, *argv, "--template", "text-cot", "--pool-width", 4) == 0
        extra = json.loads((out / "generate.manifest.json").read_text())["extra"]
        assert (extra["items"], extra["accepted"]) == (9, 6)
        assert extra["give_ups"] == [
            {"item_id": "it-04", "attempts": 4, "failure": "malformed_json"},
            {"item_id": "it-09", "attempts": 0, "failure": "missing_field"},
        ]
        assert extra["gray_box_unavailable"] == ["it-05"]
        traces = [json.loads(line) for line in (out / "traces.jsonl").read_text().splitlines()]
        assert [(t["item_id"], t["attempt"]) for t in traces] == [
            ("it-01", 1), ("it-02", 1), ("it-03", 2), ("it-06", 1), ("it-07", 1), ("it-08", 1)
        ]


# (option string, dest, required, default, help, type, choices) of every flag
# but --help, per subcommand, as the parser declared them before the file
# flags were declared once per command.
_COMMON_FLAGS = {
    ("--config", "config", False, None, "JSON config file; flags override it", None, None),
    ("--cost-mis", "cost_mis", False, None, None, "float", None),
    ("--cost-ratio", "cost_ratio", False, None, None, "float", None),
    ("--dataset-profile", "dataset_profile", False, None, None, None, None),
    ("--families", "families", False, None, "comma-separated feature families", None, None),
    ("--out", "out", True, None, "output directory", None, None),
    ("--seed", "seed", False, None, None, "int", None),
    ("--tau-range", "tau_range", False, None, "LO:HI, e.g. 0.35:0.70", None, None),
    ("--tau-step", "tau_step", False, None, None, "float", None),
    ("--test-negatives", "test_negatives", False, None, None, "int", None),
}
_LABELLED_FLAGS = {
    ("--features", "features", True, None, None, None, None),
    ("--features-sidecar", "features_sidecar", True, None, None, None, None),
    ("--labels", "labels", True, None, None, None, None),
}
_MODEL = ("--model", "model", True, None, None, None, None)
_TEST_IDS = ("--test-ids", "test_ids", True, None, None, None, None)
_TRAIN_IDS = ("--train-ids", "train_ids", True, None, None, None, None)
_VALIDATION_IDS = ("--validation-ids", "validation_ids", True, None, None, None, None)
PARSER_SNAPSHOT = {
    "synth": {
        ("--abstention-rate", "abstention_rate", False, 0.03, None, "float", None),
        ("--cot", "cot", False, False, None, None, None),
        ("--error-rate", "error_rate", False, 0.15, None, "float", None),
        ("--n-items", "n_items", False, 3000, None, "int", None),
        ("--signal", "signal", False, None, "JSON mapping family -> signal strength", None, None),
    },
    "generate": {
        ("--allow-decoding-override", "allow_decoding_override", False, False, None, None, None),
        ("--endpoint", "endpoint", False, None, None, None, None),
        ("--items", "items", True, None, "items JSONL", None, None),
        ("--max-output-tokens", "max_output_tokens", False, 8096, None, "int", None),
        ("--model-name", "model_name", False, None, None, None, None),
        ("--pool-width", "pool_width", False, 4, None, "int", None),
        ("--stub", "stub", False, None, "stub provider fixture file", None, None),
        ("--temperature", "temperature", False, 0.0, None, "float", None),
        (
            "--template", "template", False, "text-direct", None, None,
            ("text-direct", "text-cot", "multimodal-direct", "multimodal-cot"),
        ),
        ("--top-logprobs", "top_logprobs", False, 20, None, "int", None),
        ("--top-p", "top_p", False, 1.0, None, "float", None),
    },
    "extract": {("--traces", "traces", True, None, None, None, None)},
    "split": _LABELLED_FLAGS,
    "train": _LABELLED_FLAGS | {
        ("--quick-grid", "quick_grid", False, False, "reduced grid for smoke runs", None, None),
        _TRAIN_IDS,
    },
    "sweep": _LABELLED_FLAGS | {_MODEL, _VALIDATION_IDS},
    "evaluate": _LABELLED_FLAGS | {_MODEL, _VALIDATION_IDS, _TEST_IDS},
    "ablate": _LABELLED_FLAGS | {
        _TRAIN_IDS,
        _VALIDATION_IDS,
        _TEST_IDS,
        ("--family", "family", False, "all", None, None, None),
        ("--quick-grid", "quick_grid", False, False, None, None, None),
    },
    "sensitivity": _LABELLED_FLAGS | {
        _MODEL,
        _TEST_IDS,
        ("--r-grid", "r_grid", False, None, "LO:HI:STEP, default 0.4:0.9:0.05", None, None),
    },
}


class TestParserSnapshot:
    def test_every_flag_unchanged(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(PARSER_SNAPSHOT)
        for name, p in sub.choices.items():
            flags = set()
            for a in p._actions:
                if isinstance(a, argparse._HelpAction):
                    continue
                assert len(a.option_strings) == 1, a.option_strings
                choices = tuple(a.choices) if a.choices is not None else None
                flags.add((
                    a.option_strings[0], a.dest, a.required, a.default, a.help,
                    getattr(a.type, "__name__", None), choices,
                ))
            assert flags == _COMMON_FLAGS | PARSER_SNAPSHOT[name], name


class TestStageArgv:
    @staticmethod
    def file_flags(argv):
        """{flag: path} of each file flag in argv."""
        argv = [str(a) for a in argv]
        return {flag: value for flag, value in zip(argv, argv[1:]) if flag in FILE_FLAGS}

    def test_inputs_name_every_subcommand(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(INPUTS) == list(sub.choices)

    def test_paths_are_the_chain_fixtures(self, tmp_path):
        """Every command that reads only run-directory files gets the flags
        and paths the chain fixture and the ablate tests write out by hand."""
        hand = {
            "extract": ["--traces", tmp_path / "traces.jsonl"],
            **dict(fit_stages(tmp_path)),
            "ablate": [
                *labelled(tmp_path),
                "--train-ids", tmp_path / "train_ids.txt",
                "--validation-ids", tmp_path / "validation_ids.txt",
                "--test-ids", tmp_path / "test_ids.txt",
            ],
        }
        assert set(hand) == set(INPUTS) - {"synth", "generate"}
        for command, argv in hand.items():
            got = stage_argv(command, tmp_path)
            assert got[:3] == [command, "--out", str(tmp_path)], command
            assert self.file_flags(got) == self.file_flags(argv), command
            assert len(got) == 3 + 2 * len(INPUTS[command]), command

    def test_generate_inputs_are_no_run_files(self, tmp_path):
        with pytest.raises(ValueError, match="--items"):
            stage_argv("generate", tmp_path)


class TestParserCache:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_carry_over_between_calls(self, workdir, tmp_path):
        common = [*labelled(workdir), "--train-ids", workdir / "train_ids.txt"]
        quick, full = tmp_path / "quick", tmp_path / "full"
        assert run_cli("train", "--out", quick, *common, "--quick-grid") == 0
        assert run_cli("train", "--out", full, *common) == 0
        assert json.loads((quick / "train_report.json").read_text())["grid_size"] == 8
        assert json.loads((full / "train_report.json").read_text())["grid_size"] == 672


# Runs the chain in a fresh interpreter and prints each stage's exit code and
# every scipy module loaded. With "blocked", scipy is made unimportable first:
# a None entry in sys.modules makes any import of it raise ImportError.
_CHAIN_WITHOUT_SCIPY = """
import json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None
from lppgate.cli import main

out = sys.argv[1]
common = ["--features", out + "/features.csv", "--features-sidecar", out + "/features.families.json",
          "--labels", out + "/labels.csv"]
stages = [
    ["synth", "--n-items", "300", "--seed", "42"],
    ["extract", "--traces", out + "/traces.jsonl"],
    ["split", *common, "--test-negatives", "20"],
    ["train", *common, "--train-ids", out + "/train_ids.txt", "--quick-grid"],
    ["sweep", *common, "--model", out + "/model.json", "--validation-ids", out + "/validation_ids.txt"],
    ["evaluate", *common, "--model", out + "/model.json", "--validation-ids", out + "/validation_ids.txt",
     "--test-ids", out + "/test_ids.txt"],
    ["sensitivity", *common, "--model", out + "/model.json", "--test-ids", out + "/test_ids.txt"],
]
codes = {argv[0]: main([argv[0], "--out", out, *argv[1:]]) for argv in stages}
loaded = sorted(name for name, module in sys.modules.items()
                if module is not None and (name == "scipy" or name.startswith("scipy.")))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


class TestRuntimeNeedsNoScipy:
    @pytest.mark.parametrize("scipy", ["importable", "blocked"])
    def test_chain_runs_without_loading_scipy(self, tmp_path, scipy):
        env = dict(os.environ, PYTHONPATH=str(Path(lppgate.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", _CHAIN_WITHOUT_SCIPY, str(tmp_path / "run"), scipy],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result["codes"].values()) == {0}, (result, proc.stderr)
        assert result["scipy"] == []
