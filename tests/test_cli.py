"""End-to-end command-line behavior: artifacts on disk, exit codes, determinism."""

import hashlib
import json
import shlex
import struct
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ddalign.cli import main
from ddalign.data import (ACCEPT_SYNTH, RUN_DEFAULTS, FeatureDataset, load_checkpoint,
                          load_features, save_checkpoint, save_features, save_raw_recording)
from ddalign.features import RawWindow, build_feature_matrix
from ddalign.net import init_params


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv) -> int:
    return main(list(argv))


def readme_commands() -> list[list[str]]:
    """The commands of the bash block under README's "## Command line", one argv each."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "task"
    assert run_cli("synth", "--out", str(out), "--n-per-class", "20", "--seed", "5") == 0
    return out


class TestSynth:
    def test_writes_three_files_and_snapshot(self, synth_dir):
        for name in ("source.csv", "target.csv", "target_eval.csv", "config.resolved"):
            assert (synth_dir / name).exists()
        assert "seed = 5" in (synth_dir / "config.resolved").read_text()

    def test_snapshot_lists_generator_keys_in_order(self, synth_dir):
        assert (synth_dir / "config.resolved").read_text() == (
            "n_classes = 3\ndim = 16\nn_per_class = 20\nclass_sep = 4.5\n"
            "domain_shift = 5.0\nrotation_deg = 20.0\nshift_mix = 0.6\nnoise = 1.0\n"
            "seed = 5\n"
        )

    def test_defaults_are_accept_synth_at_seed_3(self, tmp_path):
        out = tmp_path / "task"
        assert run_cli("synth", "--out", str(out)) == 0
        expected = replace(ACCEPT_SYNTH, seed=3)
        assert (out / "config.resolved").read_text() == "".join(
            f"{f.name} = {getattr(expected, f.name)}\n" for f in fields(expected))

    def test_negative_seed_exit_3_without_output(self, tmp_path, capsys):
        out = tmp_path / "task"
        assert run_cli("synth", "--out", str(out), "--seed", "-1") == 3
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [("--noise", "nan", "noise"),
                                                    ("--class-sep", "inf", "class_sep"),
                                                    ("--rotation", "nan", "rotation_deg")])
    def test_non_finite_setting_exit_3_without_output(self, tmp_path, capsys, flag, value,
                                                      field):
        out = tmp_path / "task"
        assert run_cli("synth", "--out", str(out), flag, value) == 3
        assert f"error: {field} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_file_exit_3(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert run_cli("synth", "--out", str(afile)) == 3
        assert f"error: --out {afile}: {afile} is not a directory" in capsys.readouterr().err
        assert afile.read_text() == "kept\n"

    def test_target_file_is_unlabeled(self, synth_dir):
        target = load_features(synth_dir / "target.csv")
        assert target.labels is None
        eval_set = load_features(synth_dir / "target_eval.csv")
        assert eval_set.labels is not None


class TestTrain:
    def small_cfg(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 2\nbatch_size = 16\nhidden1 = 8\nhidden2 = 8\n")
        return cfg

    def test_train_writes_artifacts(self, tmp_path, synth_dir, capsys):
        cfg = self.small_cfg(tmp_path)
        out = tmp_path / "run"
        code = run_cli("train", "--config", str(cfg),
                       "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"),
                       "--out", str(out), "--seed", "3")
        assert code == 0
        assert (out / "model.ckpt").exists()
        assert (out / "history.csv").exists()
        assert (out / "config.resolved").exists()
        assert "seed: 3" in capsys.readouterr().out

    def test_train_determinism_checkpoint_hash(self, tmp_path, synth_dir):
        cfg = self.small_cfg(tmp_path)
        hashes = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("train", "--config", str(cfg),
                           "--source", str(synth_dir / "source.csv"),
                           "--target", str(synth_dir / "target.csv"),
                           "--out", str(out), "--seed", "3") == 0
            hashes.append(hashlib.sha256((out / "model.ckpt").read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    # a fixed bandwidth survives the snapshot round trip as well as the median
    @pytest.mark.parametrize("extra", [[], ["--sigma", "2"]], ids=["median", "sigma-2"])
    def test_resolved_config_reproduces_the_run(self, tmp_path, synth_dir, monkeypatch, extra):
        # --source and --target are recorded as absolute paths, so the snapshot
        # reproduces the run from any working directory
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--source", "task/source.csv", "--target", "task/target.csv",
                       "--preset", "short", *extra, "--out", "a") == 0
        resolved = (tmp_path / "a" / "config.resolved").read_text()
        assert (f"source = {(synth_dir / 'source.csv').resolve()}\n"
                f"target = {(synth_dir / 'target.csv').resolve()}\n") in resolved
        assert run_cli("train", "--config", "a/config.resolved", "--out", "b") == 0
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        assert run_cli("train", "--config", "../a/config.resolved", "--out", "c") == 0
        for rerun in (tmp_path / "b", tmp_path / "sub" / "c"):
            for name in ("model.ckpt", "history.csv", "config.resolved"):
                assert (tmp_path / "a" / name).read_bytes() == (rerun / name).read_bytes()
        if extra:
            assert "sigma = 2\n" in resolved

    def test_short_run_raises_no_warning(self, tmp_path):
        # EXP6 at --preset short: every stage of the confidence filter is reached
        task = tmp_path / "task"
        assert run_cli("synth", "--out", str(task), "--seed", "5") == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("train", "--source", str(task / "source.csv"),
                           "--target", str(task / "target.csv"), "--preset", "short",
                           "--out", str(tmp_path / "s")) == 0
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_that_cannot_be_a_directory_exit_3_before_training(self, tmp_path, synth_dir,
                                                                  capsys, out):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert run_cli("train", "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--preset", "short",
                       "--out", str(tmp_path / out)) == 3
        captured = capsys.readouterr()
        assert f"error: --out {tmp_path / out}: {afile} is not a directory" in captured.err
        assert captured.out == ""   # no step trained
        assert afile.read_text() == "kept\n"

    def test_snapshot_replays_from_a_path_with_hash(self, tmp_path, monkeypatch):
        # the snapshot's absolute source/target paths hold the '#'
        work = tmp_path / "h#x"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run_cli("synth", "--out", "task", "--n-per-class", "20") == 0
        assert run_cli("train", "--source", "task/source.csv", "--target", "task/target.csv",
                       "--preset", "short", "--out", "a") == 0
        assert f"source = {work / 'task' / 'source.csv'}\n" in \
            (work / "a" / "config.resolved").read_text()
        assert run_cli("train", "--config", "a/config.resolved", "--out", "b") == 0
        assert (work / "a" / "model.ckpt").read_bytes() == (work / "b" / "model.ckpt").read_bytes()

    def test_pinned_flag_warns_and_trains_the_variant(self, tmp_path, synth_dir):
        # EXP4 pins tau_l = 1: --tau-l is named in one warning and the run is plain EXP4
        argv = ["train", "--config", str(self.small_cfg(tmp_path)), "--variant", "EXP4",
                "--source", str(synth_dir / "source.csv"),
                "--target", str(synth_dir / "target.csv")]
        assert run_cli(*argv, "--out", str(tmp_path / "plain")) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv, "--tau-l", "0.5", "--out", str(tmp_path / "given")) == 0
        assert [str(w.message) for w in caught] == [
            "variant EXP4 pins tau_l = 1.0 (given 0.5); the run uses the pinned values"]
        for name in ("model.ckpt", "history.csv", "config.resolved"):
            assert (tmp_path / "plain" / name).read_bytes() == \
                (tmp_path / "given" / name).read_bytes()
        assert "tau_l = 1.0\n" in (tmp_path / "given" / "config.resolved").read_text()

    def test_unlabeled_source_exit_3_naming_file(self, tmp_path, synth_dir, capsys):
        out = tmp_path / "x"
        source = synth_dir / "target.csv"
        assert run_cli("train", "--source", str(source), "--target", str(source),
                       "--out", str(out)) == 3
        assert f"error: {source}: training source must be labeled" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_zero_row_input_exit_3_naming_file(self, tmp_path, synth_dir, capsys, side):
        out = tmp_path / "x"
        empty = tmp_path / "empty.csv"
        save_features(empty, FeatureDataset(np.zeros((0, 16)), np.zeros(0, dtype=int), 3))
        paths = {"source": synth_dir / "source.csv", "target": synth_dir / "target.csv",
                 side: empty}
        assert run_cli("train", "--source", str(paths["source"]),
                       "--target", str(paths["target"]), "--out", str(out)) == 3
        assert f"error: {empty}: training needs at least one row" in capsys.readouterr().err
        assert not out.exists()

    # a text input holding a byte that is not UTF-8, and the arguments that read it
    @pytest.mark.parametrize("content, argv", [
        pytest.param(b"# features n_samples=1 feature_dim=1 has_labels=1 n_classes=3\n\xff,0\n",
                     lambda bad, task: ["train", "--source", bad, "--target", task / "target.csv"],
                     id="feature-row"),
        pytest.param(b"\xff\xfe# features\n",
                     lambda bad, task: ["train", "--source", bad, "--target", task / "target.csv"],
                     id="feature-header"),
        pytest.param(b"epochs = \xff\n",
                     lambda bad, task: ["train", "--config", bad, "--source",
                                        task / "source.csv", "--target", task / "target.csv"],
                     id="config"),
        pytest.param(b"a,1,\xff.csv\n", lambda bad, task: ["protocol", "--data", bad],
                     id="manifest"),
        pytest.param(b"# raw n_channels=1 fs=1 n_samples=1\n\xff\n",
                     lambda bad, task: ["extract-features", "--input", bad], id="raw-row"),
    ])
    def test_non_utf8_input_exit_3_naming_file(self, tmp_path, synth_dir, capsys, content, argv):
        bad, out = tmp_path / "bad.csv", tmp_path / "x"
        bad.write_bytes(content)
        assert run_cli(*map(str, argv(bad, synth_dir)), "--out", str(out)) == 3
        assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not out.exists()

    def test_target_width_mismatch_exit_3_naming_file(self, tmp_path, synth_dir, capsys):
        target = tmp_path / "t5.csv"
        save_features(target, FeatureDataset(np.zeros((10, 5))))
        out = tmp_path / "x"
        assert run_cli("train", "--source", str(synth_dir / "source.csv"),
                       "--target", str(target), "--out", str(out)) == 3
        assert (f"error: {target}: source and target feature dimensions differ"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_preset_in_config_exit_3(self, tmp_path, synth_dir, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("preset = huge\n")
        out = tmp_path / "x"
        assert run_cli("train", "--config", str(cfg), "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--out", str(out)) == 3
        assert "error: unknown preset 'huge'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["seed = -1", "hidden1 = 0", "hidden2 = -3"])
    def test_bad_setting_exit_3_without_output(self, tmp_path, synth_dir, capsys, setting):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(setting + "\n")
        out = tmp_path / "x"
        assert run_cli("train", "--config", str(cfg), "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--out", str(out)) == 3
        key = setting.split()[0]
        assert f"error: {key} must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_stage_end_at_the_run_end_exit_3_without_output(self, tmp_path, synth_dir, capsys):
        # stage ends are percent of the run, so the last must end before 100
        cfg = tmp_path / "c.cfg"
        cfg.write_text("stage_e3 = 100\n")
        out = tmp_path / "x"
        assert run_cli("train", "--config", str(cfg), "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--out", str(out)) == 3
        assert "stage_e3 < 100" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_weight_decay_exit_3_without_output(self, tmp_path, synth_dir, capsys):
        # NaN fails sgd_step's `weight_decay > 0`, so unchecked it would train as weight_decay = 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("weight_decay = nan\n")
        out = tmp_path / "x"
        assert run_cli("train", "--config", str(cfg), "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--out", str(out)) == 3
        assert "error: weight_decay must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_class_count_comes_from_the_source(self, tmp_path):
        task = tmp_path / "t4"
        assert run_cli("synth", "--classes", "4", "--n-per-class", "10", "--out", str(task)) == 0
        out = tmp_path / "run"
        assert run_cli("train", "--source", str(task / "source.csv"),
                       "--target", str(task / "target.csv"), "--epochs", "1",
                       "--batch-size", "16", "--out", str(out)) == 0
        assert load_checkpoint(out / "model.ckpt").Wc.shape[1] == 4
        assert "n_classes" not in (out / "config.resolved").read_text()

    def test_class_count_key_exit_3_without_output(self, tmp_path, synth_dir, capsys):
        # the class count is the data's, so a config key for it is refused, not ignored
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_classes = 5\nepochs = 1\nbatch_size = 16\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg), "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--out", str(out)) == 3
        assert f"error: {cfg}:1: unknown key 'n_classes'" in capsys.readouterr().err
        assert not out.exists()

    def test_key_set_twice_exit_3_without_output(self, tmp_path, synth_dir, capsys):
        # the second value would silently win over the first
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 5\n# shorter\nepochs = 1\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg), "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--out", str(out)) == 3
        assert f"error: {cfg}:3: key 'epochs' already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exit_3_without_output(self, tmp_path, synth_dir, capsys):
        out = tmp_path / "x"
        assert run_cli("train", "--seed", "-1", "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--out", str(out)) == 3
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_source_is_validation_error(self, tmp_path, capsys):
        code = run_cli("train", "--out", str(tmp_path / "x"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_diverging_run_exits_1_naming_step(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 1\nbatch_size = 16\nhidden1 = 8\nhidden2 = 8\n"
                       "lr_extractor = 1e300\nlr_classifier = 1e300\nvariant = EXP1\n")
        rng = np.random.default_rng(4)
        source, target = tmp_path / "source.bin", tmp_path / "target.bin"
        save_features(source, FeatureDataset(rng.normal(size=(32, 4)) * 1e100,
                                             rng.integers(0, 3, 32), 3))
        save_features(target, FeatureDataset(rng.normal(size=(32, 4)) * 1e100))
        with np.errstate(over="ignore"):
            code = run_cli("train", "--config", str(cfg),
                           "--source", str(source), "--target", str(target))
        assert code == 1
        assert "error: step 0 (epoch 0): update diverged: W1" in capsys.readouterr().err


class TestEvaluate:
    def test_dimension_mismatch_exit_3(self, tmp_path, synth_dir, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 1\nbatch_size = 16\nhidden1 = 4\nhidden2 = 4\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg),
                       "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"),
                       "--out", str(out)) == 0
        bad = FeatureDataset(np.zeros((4, 9)), np.zeros(4, dtype=int), 3)
        bad_path = tmp_path / "bad.csv"
        save_features(bad_path, bad)
        capsys.readouterr()
        code = run_cli("evaluate", "--model", str(out / "model.ckpt"),
                       "--data", str(bad_path))
        assert code == 3
        assert "16" in capsys.readouterr().err  # names the expected dimension

    def test_evaluate_reports_metrics(self, tmp_path, synth_dir, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 2\nbatch_size = 16\nhidden1 = 8\nhidden2 = 8\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg),
                       "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"),
                       "--out", str(out)) == 0
        capsys.readouterr()
        code = run_cli("evaluate", "--model", str(out / "model.ckpt"),
                       "--data", str(synth_dir / "target_eval.csv"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert np.array(payload["confusion"]).sum() == payload["n_samples"]

    def test_unlabeled_data_exit_3_naming_file(self, tmp_path, synth_dir, capsys):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(16, 4, 4, 3, np.random.default_rng(0)), model)
        data = synth_dir / "target.csv"
        assert run_cli("evaluate", "--model", str(model), "--data", str(data)) == 3
        assert f"error: {data}: evaluation needs a labeled dataset" in capsys.readouterr().err

    def test_out_writes_the_printed_metrics(self, tmp_path, synth_dir, capsys):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(16, 4, 4, 3, np.random.default_rng(0)), model)
        out = tmp_path / "ev"
        assert run_cli("evaluate", "--model", str(model),
                       "--data", str(synth_dir / "target_eval.csv"), "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert (out / "metrics.json").read_text() == printed
        assert json.loads(printed)["n_samples"] == 60

    def test_out_that_is_a_file_exit_3_before_scoring(self, tmp_path, synth_dir, capsys):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(16, 4, 4, 3, np.random.default_rng(0)), model)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert run_cli("evaluate", "--model", str(model),
                       "--data", str(synth_dir / "target_eval.csv"), "--out", str(afile)) == 3
        captured = capsys.readouterr()
        assert f"error: --out {afile}: {afile} is not a directory" in captured.err
        assert captured.out == ""
        assert afile.read_text() == "kept\n"

    def test_nan_checkpoint_exit_3_naming_file(self, tmp_path, synth_dir, capsys):
        model = tmp_path / "model.ckpt"
        params = init_params(16, 4, 4, 3, np.random.default_rng(0))
        params.W1[0, 0] = np.nan
        save_checkpoint(params, model)
        assert run_cli("evaluate", "--model", str(model),
                       "--data", str(synth_dir / "target_eval.csv")) == 3
        assert f"error: {model}: W1 contains non-finite values" in capsys.readouterr().err

    def test_negative_header_count_exit_3(self, tmp_path, capsys):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(4, 2, 2, 2, np.random.default_rng(0)), model)
        data = tmp_path / "data.csv"
        data.write_text("# features n_samples=0 feature_dim=-1 has_labels=1 n_classes=2\n")
        code = run_cli("evaluate", "--model", str(model), "--data", str(data))
        assert code == 3
        assert f"{data}: negative header count feature_dim=-1" in capsys.readouterr().err

    def test_truncated_bin_data_exit_3(self, tmp_path, capsys):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(4, 2, 2, 3, np.random.default_rng(0)), model)
        data = tmp_path / "data.bin"
        save_features(data, FeatureDataset(np.zeros((3, 4)), np.zeros(3, dtype=int), 3))
        data.write_bytes(data.read_bytes()[:30])
        code = run_cli("evaluate", "--model", str(model), "--data", str(data))
        assert code == 3
        assert "data.bin: truncated header" in capsys.readouterr().err

    def test_zero_rows_exit_3(self, tmp_path, capsys):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(4, 2, 2, 3, np.random.default_rng(0)), model)
        data = tmp_path / "empty.csv"
        save_features(data, FeatureDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3))
        code = run_cli("evaluate", "--model", str(model), "--data", str(data))
        assert code == 3
        assert "at least one row" in capsys.readouterr().err


class TestAblate:
    def test_synth_ablation_writes_summary_and_histories(self, tmp_path):
        out = tmp_path / "run1"
        code = run_cli("ablate", "--variant", "EXP6", "--data", "synth",
                       "--out", str(out), "--seeds", "2",
                       "--epochs", "2", "--batch-size", "32")
        assert code == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["variant"] == "EXP6"
        assert len(payload["folds"]) == 2
        assert (out / "history_seed0.csv").exists()
        assert (out / "history_seed1.csv").exists()
        assert (out / "config.resolved").exists()

    def test_resolved_config_reproduces_the_run(self, tmp_path, capsys):
        # the tasks do not move with --seed, so a seed read from a file gives the same run
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli("ablate", "--data", "synth", "--seeds", "2", "--epochs", "1",
                       "--batch-size", "64", "--seed", "9", "--out", str(first)) == 0
        assert run_cli("ablate", "--data", "synth", "--seeds", "2",
                       "--config", str(first / "config.resolved"), "--out", str(second)) == 0
        assert "seed = 9\n" in (first / "config.resolved").read_text()
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[2] == "seed: 9"
        assert out[1] == out[3] and out[1].startswith("EXP6 synthetic: ")

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_folds_exit_3(self, tmp_path, capsys, seeds):
        out = tmp_path / "run"
        code = run_cli("ablate", "--data", "synth", "--seeds", seeds, "--out", str(out))
        assert code == 3
        assert "at least one fold" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_3(self, capsys, jobs):
        code = run_cli("ablate", "--data", "synth", "--seeds", "1", "--jobs", jobs)
        assert code == 3
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--protocol", "cross-session"], ["--session", "7"]],
                             ids=["protocol", "session"])
    def test_synth_rejects_manifest_flags(self, capsys, flag):
        code = run_cli("ablate", "--data", "synth", "--seeds", "1", "--epochs", "1", *flag)
        assert code == 3
        assert "apply to a manifest, not --data synth" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["abc", "0"])
    def test_bad_sigma_flag_exit_3(self, capsys, sigma):
        code = run_cli("ablate", "--data", "synth", "--seeds", "1", "--epochs", "1",
                       "--sigma", sigma)
        assert code == 3
        assert "sigma" in capsys.readouterr().err

    def test_bad_sigma_in_config_file_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sigma = abc\n")
        code = run_cli("ablate", "--data", "synth", "--seeds", "1", "--epochs", "1",
                       "--config", str(cfg))
        assert code == 3
        assert "config key 'sigma': cannot parse 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--seeds", "0"], ["--seeds", "1", "--jobs", "0"],
                                     ["--seed", "-2"]],
                             ids=["no-folds", "no-jobs", "negative-seed"])
    def test_rejected_run_leaves_no_output_dir(self, tmp_path, bad):
        out = tmp_path / "bad"
        assert run_cli("ablate", "--data", "synth", *bad, "--out", str(out)) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["protocol", "ablate"])
    @pytest.mark.parametrize("key", ["source", "target"])
    def test_training_pair_in_config_exit_3(self, tmp_path, capsys, command, key):
        # the folds read --data; a train snapshot's source/target would be recorded unread
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = task/{key}.csv\n")
        out = tmp_path / "bad"
        assert run_cli(command, "--data", "synth", "--epochs", "1",
                       "--config", str(cfg), "--out", str(out)) == 3
        assert "source and target apply to train" in capsys.readouterr().err
        assert not out.exists()

    def test_class_count_key_exit_3_without_output(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_classes = 5\n")
        out = tmp_path / "a"
        assert run_cli("ablate", "--data", "synth", "--seeds", "1", "--epochs", "1",
                       "--config", str(cfg), "--out", str(out)) == 3
        assert "unknown key 'n_classes'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["protocol", "ablate"])
    def test_out_that_is_a_file_exit_3_before_training(self, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert run_cli(command, "--data", "synth", "--seeds", "1", "--preset", "short",
                       "--out", str(afile)) == 3
        captured = capsys.readouterr()
        assert f"error: --out {afile}: {afile} is not a directory" in captured.err
        assert captured.out == ""
        assert afile.read_text() == "kept\n"

    def test_snapshot_replays_the_folds(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_cli("ablate", "--data", "synth", "--seeds", "1", "--epochs", "1",
                       "--out", str(first)) == 0
        assert "n_classes" not in (first / "config.resolved").read_text()
        payload = json.loads((first / "summary.json").read_text())
        assert np.shape(payload["folds"][0]["confusion"]) == (3, 3)
        assert run_cli("ablate", "--data", "synth", "--seeds", "1",
                       "--config", str(first / "config.resolved"), "--out", str(second)) == 0
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()


@pytest.mark.parametrize("command, result", [("train", "final: l_ds="),
                                             ("ablate", "EXP6 synthetic: ")])
def test_run_without_out_writes_nothing(tmp_path, synth_dir, monkeypatch, capsys, command,
                                        result):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    data = (["--source", str(synth_dir / "source.csv"), "--target", str(synth_dir / "target.csv")]
            if command == "train" else ["--data", "synth", "--seeds", "2"])
    assert run_cli(command, "--preset", "short", *data) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed: 3" and lines[-1].startswith(result)
    assert list(work.iterdir()) == []


@pytest.fixture
def manifest(tmp_path):
    """Three labeled one-session subjects, 12 rows of 6 features each."""
    rng = np.random.default_rng(0)
    lines = []
    for s in range(3):
        ds = FeatureDataset(rng.normal(size=(12, 6)) + s * 0.1,
                            np.tile(np.arange(3), 4), 3)
        save_features(tmp_path / f"s{s}.csv", ds)
        lines.append(f"sub{s},1,s{s}.csv")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


SHORT_MANIFEST_RUN = ("--variant", "EXP1", "--epochs", "2", "--batch-size", "8")


class TestProtocol:
    def test_manifest_protocol(self, tmp_path, manifest, capsys):
        out = tmp_path / "proto"
        code = run_cli("protocol", "--data", str(manifest),
                       "--protocol", "single-session", *SHORT_MANIFEST_RUN,
                       "--out", str(out))
        assert code == 0
        assert "EXP1 single-session: " in capsys.readouterr().out
        payload = json.loads((out / "summary.json").read_text())
        assert [f["subject"] for f in payload["folds"]] == ["sub0", "sub1", "sub2"]

    def test_manifest_with_byte_order_mark(self, tmp_path, manifest):
        manifest.write_bytes("\ufeff".encode() + manifest.read_bytes())
        out = tmp_path / "proto"
        assert run_cli("protocol", "--data", str(manifest), *SHORT_MANIFEST_RUN,
                       "--out", str(out)) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert [f["subject"] for f in payload["folds"]] == ["sub0", "sub1", "sub2"]
        assert (out / "history_sub0.csv").exists()

    def test_protocol_is_ablate_under_a_second_name(self, tmp_path, capsys):
        # one subparser: --seeds works under both names and the runs are the same
        for command in ("protocol", "ablate"):
            assert run_cli(command, "--data", "synth", "--seeds", "2", "--epochs", "1",
                           "--batch-size", "64", "--out", str(tmp_path / command)) == 0
        assert (tmp_path / "protocol" / "summary.json").read_bytes() == \
            (tmp_path / "ablate" / "summary.json").read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit):
            run_cli("--help")
        assert "ablate (protocol)" in capsys.readouterr().out

    def test_ablate_on_a_manifest_runs_the_same_folds(self, tmp_path, manifest, capsys):
        outputs = {}
        for command in ("protocol", "ablate"):
            out = tmp_path / command
            assert run_cli(command, "--data", str(manifest), *SHORT_MANIFEST_RUN,
                           "--out", str(out)) == 0
            outputs[command] = capsys.readouterr().out
        for name in ("summary.json", "history_sub0.csv", "history_sub2.csv"):
            assert (tmp_path / "protocol" / name).read_bytes() == \
                (tmp_path / "ablate" / name).read_bytes()
        assert outputs["protocol"] == outputs["ablate"]

    def test_folds_train_with_the_manifest_class_count(self, tmp_path):
        rng = np.random.default_rng(1)
        for s in range(2):
            save_features(tmp_path / f"s{s}.csv",
                          FeatureDataset(rng.normal(size=(8, 4)), np.tile([0, 1], 4), 2))
        manifest = tmp_path / "two_classes.csv"
        manifest.write_text("sub0,1,s0.csv\nsub1,1,s1.csv\n")
        out = tmp_path / "proto"
        assert run_cli("protocol", "--data", str(manifest), *SHORT_MANIFEST_RUN,
                       "--out", str(out)) == 0
        payload = json.loads((out / "summary.json").read_text())
        assert [np.shape(f["confusion"]) for f in payload["folds"]] == [(2, 2), (2, 2)]
        assert "n_classes" not in (out / "config.resolved").read_text()

    def test_role_column_exit_3(self, tmp_path, manifest, capsys):
        manifest.write_text(manifest.read_text().replace("sub1,1,s1.csv", "sub1,1,s1.csv,target"))
        out = tmp_path / "proto"
        assert run_cli("protocol", "--data", str(manifest), *SHORT_MANIFEST_RUN,
                       "--out", str(out)) == 3
        assert "manifest.csv:2: expected subject,session,path\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["protocol", "ablate"])
    def test_zero_row_session_exit_3_naming_file(self, tmp_path, manifest, capsys, command):
        empty = tmp_path / "empty.csv"
        save_features(empty, FeatureDataset(np.zeros((0, 6)), np.zeros(0, dtype=int), 3))
        manifest.write_text("a,1,s0.csv\nb,1,empty.csv\n")
        out = tmp_path / "run"
        assert run_cli(command, "--data", str(manifest), *SHORT_MANIFEST_RUN,
                       "--out", str(out)) == 3
        assert f"error: {empty}: session file has no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_session_with_cross_session_exit_3(self, tmp_path, manifest, capsys):
        out = tmp_path / "run"
        code = run_cli("protocol", "--data", str(manifest), "--protocol", "cross-session",
                       "--session", "7", *SHORT_MANIFEST_RUN, "--out", str(out))
        assert code == 3
        assert "a session applies to single-session, not cross-session" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a/b", "a\\b", ""], ids=["slash", "backslash", "empty"])
    def test_subject_unfit_for_a_file_name_exit_3(self, tmp_path, manifest, capsys, name):
        # each fold writes history_<subject>.csv
        manifest.write_text(manifest.read_text().replace("sub1,", f"{name},"))
        out = tmp_path / "run"
        assert run_cli("protocol", "--data", str(manifest), *SHORT_MANIFEST_RUN,
                       "--out", str(out)) == 3
        assert f"manifest.csv:2: subject {name!r} must be a non-empty name" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_session_one_subject_lacks_exit_3_without_output(self, tmp_path, manifest, capsys):
        manifest.write_text(manifest.read_text() + "sub0,2,s0.csv\nsub1,2,s1.csv\n")
        out = tmp_path / "run"
        assert run_cli("protocol", "--data", str(manifest), "--session", "2",
                       *SHORT_MANIFEST_RUN, "--out", str(out)) == 3
        assert "subject 'sub2' has no session 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("protocol", ["single-session", "cross-session"])
    def test_mixed_formats_and_jobs_give_the_same_run(self, tmp_path, monkeypatch, protocol):
        # a manifest loads into one matrix and each fold indexes its rows: subjects
        # listed apart, a .bin copy of one session and --jobs 2 all give the same summary
        monkeypatch.chdir(tmp_path)
        for seed in (1, 2, 3):
            assert run_cli("synth", "--out", f"t{seed}", "--seed", str(seed),
                           "--n-per-class", "20") == 0
        save_features("t2/target_eval.bin", load_features("t2/target_eval.csv"))
        mixed = ("a,1,t1/source.csv\nb,1,t2/source.csv\na,2,t1/target_eval.csv\n"
                 "c,2,t3/target_eval.csv\nc,1,t3/source.csv\nb,2,t2/target_eval.bin\n")
        Path("mixed.csv").write_text(mixed)
        Path("plain.csv").write_text(mixed.replace("target_eval.bin", "target_eval.csv"))
        for data in ("mixed", "plain"):
            for jobs in ("1", "2"):
                assert run_cli("protocol", "--data", f"{data}.csv", "--protocol", protocol,
                               "--preset", "short", "--jobs", jobs,
                               "--out", f"{data}_j{jobs}") == 0
        for name in ("summary.json", "history_a.csv", "history_b.csv", "history_c.csv"):
            written = Path("mixed_j1", name).read_bytes()
            for run in ("mixed_j2", "plain_j1", "plain_j2"):
                assert Path(run, name).read_bytes() == written

    def test_seeds_with_a_manifest_exit_3(self, tmp_path, manifest, capsys):
        out = tmp_path / "run"
        code = run_cli("ablate", "--data", str(manifest), *SHORT_MANIFEST_RUN,
                       "--seeds", "1", "--out", str(out))
        assert code == 3
        assert "--seeds applies to --data synth, not a manifest" in capsys.readouterr().err
        assert not out.exists()


class TestExtractFeatures:
    def test_recording_to_features(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rec = RawWindow(rng.normal(size=(4, 200 * 6)), fs=200.0)
        rec_path = tmp_path / "rec.csv"
        save_raw_recording(rec_path, rec)
        out = tmp_path / "features.csv"
        code = run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(out), "--window-seconds", "2")
        assert code == 0
        feats = load_features(out)
        assert feats.n_samples == 3       # 6 s cut into 2 s windows
        assert feats.feature_dim == 20    # 4 channels x 5 bands

    def test_window_longer_than_recording_exit_3(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.csv"
        save_raw_recording(rec_path, RawWindow(np.zeros((2, 200 * 3)), fs=200.0))
        code = run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(tmp_path / "features.csv"), "--window-seconds", "4")
        assert code == 3
        err = capsys.readouterr().err
        assert "window_seconds 4 is longer than the recording (3 s)" in err

    def test_output_matches_per_window_vectors(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(6, 125 * 7 + 40))  # 40-sample tail is dropped
        rec_path = tmp_path / "rec.bin"
        save_raw_recording(rec_path, RawWindow(samples, fs=125.0))
        out = tmp_path / "features.bin"
        assert run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(out), "--window-seconds", "1") == 0
        want = np.vstack([
            build_feature_matrix(RawWindow(samples[:, w * 125:(w + 1) * 125], fs=125.0))[0]
            for w in range(7)
        ])
        np.testing.assert_allclose(load_features(out).features, want, rtol=0, atol=1e-12)

    def test_flat_recording_warns_of_floored_values(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.csv"
        save_raw_recording(rec_path, RawWindow(np.zeros((2, 200 * 3)), fs=200.0))
        out = tmp_path / "features.csv"
        with pytest.warns(UserWarning) as record:
            code = run_cli("extract-features", "--input", str(rec_path),
                           "--out", str(out), "--window-seconds", "1")
        assert code == 0
        assert len(record) == 1
        assert str(record[0].message).startswith(
            "30 (window, channel, band) values fell below the variance floor")
        assert str(record[0].message).endswith("first affected channel: 0")
        assert capsys.readouterr().out == f"wrote 3 x 10 features to {out}\n"

    def test_sampling_rate_below_one_hz_exit_3(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.bin"
        save_raw_recording(rec_path, RawWindow(np.zeros((1, 8)), fs=8.0))
        data = bytearray(rec_path.read_bytes())
        struct.pack_into("<d", data, 16, 0.4)  # fs field of the DRAW header
        rec_path.write_bytes(bytes(data))
        code = run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(tmp_path / "features.csv"), "--bands", "a:0.05-0.1")
        assert code == 3
        assert "sampling rate 0.4 Hz is below 1 Hz" in capsys.readouterr().err

    @pytest.mark.parametrize("bands", ["delta", "delta:1-x", "delta:1"])
    def test_malformed_bands_exit_3(self, tmp_path, capsys, bands):
        rec_path = tmp_path / "rec.csv"
        save_raw_recording(rec_path, RawWindow(np.ones((2, 200 * 3)), fs=200.0))
        out = tmp_path / "features.csv"
        code = run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(out), "--bands", bands)
        assert code == 3
        assert "; expected name:lo-hi" in capsys.readouterr().err
        assert not out.exists()

    def test_band_without_a_frequency_bin_exit_3(self, tmp_path, capsys):
        # 200 Hz bins lie 1 Hz apart, so 1.2-1.8 Hz would hold none and read
        # as the floored log in every window
        rec_path = tmp_path / "rec.bin"
        samples = np.random.default_rng(6).normal(size=(2, 200 * 3))
        save_raw_recording(rec_path, RawWindow(samples, fs=200.0))
        out = tmp_path / "features.csv"
        code = run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(out), "--bands", "thin:1.2-1.8,alpha:8-14")
        assert code == 3
        assert capsys.readouterr().err == (
            "error: band 'thin' (1.2-1.8 Hz) holds no frequency bin at 200 Hz, "
            "where bins are 1 Hz apart\n")
        assert not out.exists()

    def test_window_below_one_second_exit_3(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.csv"
        save_raw_recording(rec_path, RawWindow(np.ones((2, 200 * 3)), fs=200.0))
        out = tmp_path / "features.csv"
        code = run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(out), "--window-seconds", "0.5")
        assert code == 3
        assert "window_seconds must cover at least one second" in capsys.readouterr().err
        assert not out.exists()

    def test_one_second_window_at_a_fractional_rate(self, tmp_path):
        # at 200.4 Hz one second is round(fs) = 200 samples, the spectral segment
        samples = np.random.default_rng(5).normal(size=(3, 2004))
        rec_path = tmp_path / "rec.bin"
        save_raw_recording(rec_path, RawWindow(samples, fs=200.4))
        out = tmp_path / "features.bin"
        assert run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(out), "--window-seconds", "1") == 0
        got = load_features(out).features
        assert got.shape == (10, 15)
        np.testing.assert_array_equal(
            got, build_feature_matrix(RawWindow(samples, fs=200.4), 200 / 200.4)[0])

    def test_csv_and_bin_recordings_give_the_same_features(self, tmp_path):
        rec = RawWindow(np.random.default_rng(0).normal(size=(4, 600)), fs=200.0)
        for src in ("csv", "bin"):
            save_raw_recording(tmp_path / f"rec.{src}", rec)
            for dst in ("csv", "bin"):
                assert run_cli("extract-features", "--input", str(tmp_path / f"rec.{src}"),
                               "--window-seconds", "1",
                               "--out", str(tmp_path / f"feat_{src}.{dst}")) == 0
        for dst in ("csv", "bin"):
            assert (tmp_path / f"feat_csv.{dst}").read_bytes() == \
                (tmp_path / f"feat_bin.{dst}").read_bytes()

    def test_out_that_is_a_directory_exit_3_before_extracting(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.csv"
        save_raw_recording(rec_path, RawWindow(np.ones((2, 200 * 3)), fs=200.0))
        out = tmp_path / "features.csv"
        out.mkdir()
        assert run_cli("extract-features", "--input", str(rec_path), "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert f"error: --out {out} is a directory, not a file" in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("seconds", ["nan", "inf"])
    def test_non_finite_window_seconds_exit_3(self, tmp_path, capsys, seconds):
        rec_path = tmp_path / "rec.csv"
        save_raw_recording(rec_path, RawWindow(np.ones((2, 200 * 3)), fs=200.0))
        code = run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(tmp_path / "features.csv"), "--window-seconds", seconds)
        assert code == 3
        assert f"window_seconds must be finite, got {seconds}" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds, message", [
        ("1e307", "window_seconds 1e+307 is longer than the recording (3 s)"),
        ("-1e307", "window_seconds must cover at least one second")], ids=["long", "negative"])
    def test_window_seconds_beyond_any_recording_exit_3(self, tmp_path, capsys, seconds,
                                                         message):
        # seconds x fs overflows to an infinite sample count
        rec_path = tmp_path / "rec.bin"
        save_raw_recording(rec_path, RawWindow(np.ones((2, 200 * 3)), fs=200.0))
        out = tmp_path / "features.csv"
        code = run_cli("extract-features", "--input", str(rec_path),
                       "--out", str(out), f"--window-seconds={seconds}")
        assert code == 3
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestCachedParser:
    def test_calls_in_one_process_share_no_state(self, tmp_path, capsys):
        from ddalign.cli import build_parser
        assert build_parser() is build_parser()
        rec_path = tmp_path / "rec.bin"
        samples = np.random.default_rng(3).normal(size=(62, 200 * 3))
        save_raw_recording(rec_path, RawWindow(samples, fs=200.0))

        def extract(out, *extra):
            return run_cli("extract-features", "--input", str(rec_path),
                           "--out", str(out), "--window-seconds", "1", *extra)

        assert extract(tmp_path / "two.bin", "--bands", "a:1-4,b:4-8") == 0
        assert load_features(tmp_path / "two.bin").feature_dim == 124
        assert extract(tmp_path / "five.bin") == 0     # --bands does not stick
        assert load_features(tmp_path / "five.bin").feature_dim == 310
        with pytest.raises(SystemExit) as exc:
            run_cli("extract-features", "--input", str(rec_path))  # no --out
        assert exc.value.code == 2
        assert extract(tmp_path / "again.bin") == 0
        assert extract(tmp_path / "again2.bin") == 0
        again = (tmp_path / "again.bin").read_bytes()
        assert again == (tmp_path / "again2.bin").read_bytes()
        assert again == (tmp_path / "five.bin").read_bytes()


class TestDumpEmbeddings:
    def test_embeddings_written(self, tmp_path, synth_dir):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 1\nbatch_size = 16\nhidden1 = 8\nhidden2 = 8\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg),
                       "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"),
                       "--out", str(out)) == 0
        emb = tmp_path / "emb.csv"
        code = run_cli("dump-embeddings", "--model", str(out / "model.ckpt"),
                       "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"),
                       "--out", str(emb))
        assert code == 0
        rows = emb.read_text().strip().splitlines()
        assert len(rows) == 1 + 60 + 60   # header + 3x20 source + target rows

    def test_out_that_is_a_directory_exit_3(self, tmp_path, synth_dir, capsys):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(16, 4, 4, 3, np.random.default_rng(0)), model)
        emb = tmp_path / "emb.csv"
        emb.mkdir()
        assert run_cli("dump-embeddings", "--model", str(model),
                       "--source", str(synth_dir / "source.csv"),
                       "--target", str(synth_dir / "target.csv"), "--out", str(emb)) == 3
        captured = capsys.readouterr()
        assert f"error: --out {emb} is a directory, not a file" in captured.err
        assert captured.out == ""
        assert list(emb.iterdir()) == []

    @pytest.mark.parametrize("side", ["--source", "--target"])
    def test_width_mismatch_exit_3_naming_file(self, tmp_path, synth_dir, capsys, side):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(16, 4, 4, 3, np.random.default_rng(0)), model)
        narrow = tmp_path / "t5.csv"
        save_features(narrow, FeatureDataset(np.zeros((10, 5))))
        files = {"--source": synth_dir / "source.csv", "--target": synth_dir / "target.csv",
                 side: narrow}
        emb = tmp_path / "emb.csv"
        assert run_cli("dump-embeddings", "--model", str(model),
                       *(str(a) for item in files.items() for a in item), "--out", str(emb)) == 3
        assert (f"error: {narrow}: model expects 16 features, data has 5"
                in capsys.readouterr().err)
        assert not emb.exists()


# a valid value other than the default for every run key; a new key fails
# test_flag_and_config_key_agree until it is listed here
RUN_VALUES = {
    "preset": "short", "batch_size": "8", "epochs": "2", "momentum": "0.5",
    "weight_decay": "1e-3", "seed": "7", "hidden1": "5", "hidden2": "6", "sigma": "2.5",
    "tau_h": "0.9", "tau_l": "0.02", "rho0": "0.05", "rho1": "0.2", "stage_e1": "5",
    "stage_e2": "30", "stage_e3": "80", "conf1": "0.4", "conf2": "0.7", "conf3": "0.9",
    "lr_extractor": "0.002", "lr_classifier": "0.02", "variant": "EXP2",
    "source": "task/source.csv", "target": "task/target_eval.csv",
}


class TestRunFlags:
    @pytest.mark.parametrize("key", list(RUN_DEFAULTS))
    def test_flag_and_config_key_agree(self, tmp_path, synth_dir, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        base = {"source": "task/source.csv", "target": "task/target.csv", "epochs": "1",
                "batch_size": "16", "hidden1": "4", "hidden2": "4"}
        base.pop(key, None)
        flags = [arg for k, v in base.items() for arg in ("--" + k.replace("_", "-"), v)]
        value = RUN_VALUES[key]
        assert run_cli("train", *flags, "--" + key.replace("_", "-"), value,
                       "--out", "flag") == 0
        (tmp_path / "c.cfg").write_text(f"{key} = {value}\n")
        assert run_cli("train", *flags, "--config", "c.cfg", "--out", "file") == 0
        resolved = (tmp_path / "flag" / "config.resolved").read_bytes()
        assert resolved == (tmp_path / "file" / "config.resolved").read_bytes()
        assert f"{key} = {RUN_DEFAULTS[key]}\n".encode() not in resolved

    @pytest.mark.parametrize("command", [["train"], ["ablate", "--data", "synth"]],
                             ids=["train", "ablate"])
    @pytest.mark.parametrize("flag, value", [("--variant", "EXP9"), ("--preset", "x"),
                                             ("--stage-e1", "x")])
    def test_bad_flag_value_exits_2(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["protocol", "ablate"])
    @pytest.mark.parametrize("flag", ["--source", "--target"])
    def test_fold_commands_have_no_training_pair_flag(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--data", "synth", flag, "f")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} f" in capsys.readouterr().err


class TestReadme:
    def test_command_line_block_runs_as_written(self, tmp_path, monkeypatch):
        # the block reads two inputs that no command of it writes: a manifest
        # (here over small two-session subjects) and a recording of at least 4 s
        monkeypatch.chdir(tmp_path)
        lines = []
        for s in range(3):
            assert run_cli("synth", "--out", f"sub{s}", "--seed", str(10 + s),
                           "--n-per-class", "10") == 0
            lines += [f"sub{s},1,sub{s}/source.csv", f"sub{s},2,sub{s}/target_eval.csv"]
        Path("manifest.csv").write_text("\n".join(lines) + "\n")
        save_raw_recording("rec.csv", RawWindow(
            np.random.default_rng(0).normal(size=(4, 200 * 6)), fs=200.0))
        commands = readme_commands()
        assert {argv[1] for argv in commands} == {
            "synth", "train", "evaluate", "ablate", "protocol", "extract-features",
            "dump-embeddings"}
        for argv in commands:
            assert argv[0] == "ddalign"
            assert run_cli(*argv[1:]) == 0, shlex.join(argv)


def _bin_version_2():
    save_features("f.bin", FeatureDataset(np.zeros((2, 3))))
    data = bytearray(Path("f.bin").read_bytes())
    struct.pack_into("<I", data, 4, 2)  # version field after the 4-byte magic
    Path("f.bin").write_bytes(bytes(data))
    return "train", "--source", "f.bin", "--target", "f.bin"


def _raw_as_features():
    save_raw_recording("f.csv", RawWindow(np.zeros((1, 8)), fs=8.0))
    return "train", "--source", "f.csv", "--target", "f.csv"


def _feature_header(header):
    def write():
        Path("f.csv").write_text(header + "\n0,0,0\n")
        return "train", "--source", "f.csv", "--target", "f.csv"
    return write


def _manifest(lines):
    def write():
        save_features("s.csv", FeatureDataset(np.zeros((3, 2)), np.arange(3), 3))
        Path("m.csv").write_text(lines)
        return "protocol", "--data", "m.csv", "--epochs", "1"
    return write


def _config(line):
    def write():
        Path("c.cfg").write_text(line + "\n")
        return "train", "--config", "c.cfg"
    return write


def _labels_beyond_the_model():
    save_checkpoint(init_params(4, 2, 2, 2, np.random.default_rng(0)), "m.ckpt")
    save_features("d.csv", FeatureDataset(np.zeros((3, 4)), np.arange(3), 3))
    return "evaluate", "--model", "m.ckpt", "--data", "d.csv"


# one input check per case: (writes the inputs and returns the argv, error)
INPUT_CHECKS = {
    "bin-version": (_bin_version_2, "f.bin: unsupported version 2"),
    "raw-header": (_raw_as_features, "f.csv: expected a '# features ...' header line"),
    "header-count": (
        _feature_header("# features n_samples=abc feature_dim=3 has_labels=0 n_classes=0"),
        "f.csv: malformed header (invalid literal for int()"),
    "no-classes": (
        _feature_header("# features n_samples=1 feature_dim=2 has_labels=1 n_classes=0"),
        "labeled dataset needs n_classes >= 1"),
    "session": (_manifest("a,x,s.csv\n"), "m.csv:1: session must be an integer"),
    "one-subject": (_manifest("a,1,s.csv\n"), "protocol needs at least 2 subjects"),
    "variant": (_config("variant = EXP9"), "unknown variant 'EXP9'"),
    "config-line": (_config("epochs 5"), "c.cfg:1: expected 'key = value'"),
    "synth-rows": (lambda: ("synth", "--out", "t", "--n-per-class", "0"),
                   "need n_per_class >= 1"),
    "label-range": (_labels_beyond_the_model, "label outside [0, 2)"),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", INPUT_CHECKS)
    def test_input_check_exits_3(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        write, message = INPUT_CHECKS[case]
        assert run_cli(*write()) == 3
        assert message in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ddalign", "synth", "--no-such-flag"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_warning_prints_as_one_line(self):
        # the pin clash is found while the run keys resolve, before the missing pair
        proc = subprocess.run(
            [sys.executable, "-m", "ddalign", "train", "--variant", "EXP4", "--tau-l", "0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "warning: variant EXP4 pins tau_l = 1.0 (given 0.5); the run uses the pinned values\n"
            "error: train needs --source and --target (flags or config keys)\n")

    def test_main_restores_the_warning_format(self, capsys):
        shown = warnings.formatwarning
        assert run_cli("train") == 3
        assert warnings.formatwarning is shown

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        source = tmp_path / "huge.csv"  # 32 columns of 1e308: x @ W1 overflows
        save_features(source, FeatureDataset(np.full((8, 32), 1e308), np.arange(8) % 3, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("train", "--source", str(source), "--target", str(source),
                           "--variant", "EXP1", "--epochs", "1", "--batch-size", "8")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: step 0 (epoch 0)")

    def test_missing_model_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        save_features(data, FeatureDataset(np.zeros((3, 4)), np.zeros(3, dtype=int), 3))
        code = run_cli("evaluate", "--model", str(tmp_path / "absent.ckpt"), "--data", str(data))
        assert code == 3
        assert "absent.ckpt: checkpoint file not found" in capsys.readouterr().err

    def test_directory_as_data_exits_3(self, tmp_path, capsys):
        model = tmp_path / "model.ckpt"
        save_checkpoint(init_params(4, 2, 2, 3, np.random.default_rng(0)), model)
        code = run_cli("evaluate", "--model", str(model), "--data", str(tmp_path))
        assert code == 3
        assert f"{tmp_path}: not a regular file" in capsys.readouterr().err
