import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

import lppgate
from lppgate.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full CLI pipeline run shared by the assertions below."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    assert run_cli("synth", "--out", out, "--n-items", 400, "--seed", "42") == 0
    assert (
        run_cli("extract", "--out", out, "--traces", out / "traces.jsonl") == 0
    )
    common = [
        "--features", out / "features.csv",
        "--features-sidecar", out / "features.families.json",
        "--labels", out / "labels.csv",
    ]
    assert run_cli("split", "--out", out, *common, "--test-negatives", 30) == 0
    assert (
        run_cli(
            "train", "--out", out, *common,
            "--train-ids", out / "train_ids.txt", "--quick-grid",
        )
        == 0
    )
    assert (
        run_cli(
            "sweep", "--out", out, *common,
            "--model", out / "model.json",
            "--validation-ids", out / "validation_ids.txt",
        )
        == 0
    )
    assert (
        run_cli(
            "evaluate", "--out", out, *common,
            "--model", out / "model.json",
            "--validation-ids", out / "validation_ids.txt",
            "--test-ids", out / "test_ids.txt",
        )
        == 0
    )
    assert (
        run_cli(
            "sensitivity", "--out", out, *common,
            "--model", out / "model.json",
            "--test-ids", out / "test_ids.txt",
        )
        == 0
    )
    return out


class TestPipelineArtifacts:
    def test_all_artifacts_exist(self, workdir):
        for name in (
            "traces.jsonl",
            "labels.csv",
            "features.csv",
            "features.families.json",
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
        import hashlib

        manifest = json.loads((workdir / "train.manifest.json").read_text())
        features_path = str(workdir / "features.csv")
        recorded = manifest["inputs"][features_path]
        actual = hashlib.sha256((workdir / "features.csv").read_bytes()).hexdigest()
        assert recorded == actual

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


class TestAblateCommand:
    def test_single_family_row(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("synth", "--out", out, "--n-items", 400) == 0
        assert (
            run_cli(
                "ablate", "--out", out,
                "--traces", out / "traces.jsonl",
                "--labels", out / "labels.csv",
                "--family", "attribution",
                "--test-negatives", 30,
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
        assert run_cli("synth", "--out", out, "--n-items", 120) == 0
        # corrupt labels so split fails after loading features
        (out / "labels.csv").write_text("item_id,ground_truth,llm_outcome\nxxx,9,9\n")
        code = run_cli(
            "split", "--out", out,
            "--features", out / "features.csv",
            "--features-sidecar", out / "features.families.json",
            "--labels", out / "labels.csv",
        ) if (out / "features.csv").exists() else 1
        if code != 1:
            pytest.skip("split unexpectedly succeeded")
        assert not (out / "train_ids.txt").exists()

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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        code = run_cli("synth", "--out", out, "--config", cfg)
        assert code == 1
        assert "not_a_key" in capsys.readouterr().err

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
