"""End-to-end command-line behavior: artifacts on disk, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from ddalign.cli import main
from ddalign.data import FeatureDataset, save_checkpoint, save_features, save_raw_recording
from ddalign.features import RawWindow
from ddalign.net import init_params


def run_cli(*argv) -> int:
    return main(list(argv))


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

    def test_target_file_is_unlabeled(self, synth_dir):
        from ddalign.data import load_features

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

    def test_missing_source_is_validation_error(self, tmp_path, capsys):
        code = run_cli("train", "--out", str(tmp_path / "x"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()


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


class TestProtocol:
    def test_manifest_protocol(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        lines = []
        for s in range(3):
            ds = FeatureDataset(rng.normal(size=(12, 6)) + s * 0.1,
                                np.tile(np.arange(3), 4), 3)
            save_features(tmp_path / f"s{s}.csv", ds)
            lines.append(f"sub{s},1,s{s}.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "proto"
        code = run_cli("protocol", "--data", str(manifest),
                       "--protocol", "single-session",
                       "--variant", "EXP1", "--epochs", "2", "--batch-size", "8",
                       "--out", str(out))
        assert code == 0
        assert "+-" in capsys.readouterr().out
        payload = json.loads((out / "summary.json").read_text())
        assert [f["subject"] for f in payload["folds"]] == ["sub0", "sub1", "sub2"]


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
        from ddalign.data import load_features

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
        assert "--window-seconds 4 is longer than the recording (3 s)" in err


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


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ddalign", "synth", "--no-such-flag"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

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
