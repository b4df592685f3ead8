"""File formats, manifests, the synthetic shift generator, and config parsing."""

import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from ddalign.data import (
    ACCEPT_SYNTH,
    FeatureDataset,
    SynthShiftConfig,
    build_run_config,
    generate_synth_shift,
    load_checkpoint,
    load_dataset,
    load_features,
    load_manifest,
    load_raw_recording,
    parse_config,
    read_config_file,
    save_checkpoint,
    save_features,
    save_raw_recording,
)
from ddalign.errors import DataFormatError, ValidationError
from ddalign.features import RawWindow
from ddalign.kernels import KernelConfig, mmd
from ddalign.net import init_params


def labeled_dataset(seed=0, n=10, d=4, C=3):
    rng = np.random.default_rng(seed)
    return FeatureDataset(rng.normal(size=(n, d)), rng.integers(0, C, n), C)


class TestFeatureFiles:
    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_round_trip_bit_exact(self, tmp_path, suffix):
        ds = labeled_dataset()
        path = tmp_path / f"feat{suffix}"
        save_features(path, ds)
        again = load_features(path)
        npt.assert_array_equal(again.features, ds.features)
        npt.assert_array_equal(again.labels, ds.labels)
        assert again.n_classes == 3
        # second round trip is byte-identical
        path2 = tmp_path / f"feat2{suffix}"
        save_features(path2, again)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_unlabeled_round_trip(self, tmp_path, suffix):
        ds = FeatureDataset(np.random.default_rng(1).normal(size=(5, 3)))
        path = tmp_path / f"u{suffix}"
        save_features(path, ds)
        again = load_features(path)
        assert again.labels is None
        npt.assert_array_equal(again.features, ds.features)

    def test_row_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# features n_samples=3 feature_dim=2 has_labels=0 n_classes=0\n1,2\n")
        with pytest.raises(DataFormatError, match="3 rows"):
            load_features(path)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_features(tmp_path / "absent.csv")

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            FeatureDataset(np.ones((2, 2)), np.array([0, 5]), 3)

    def test_truncated_bin_header_named(self, tmp_path):
        path = tmp_path / "feat.bin"
        save_features(path, labeled_dataset())
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DataFormatError, match=r"feat\.bin: truncated header"):
            load_features(path)

    @pytest.mark.parametrize("row", ["3,abc,1", "3,,1", "3,4,x"])
    def test_non_numeric_csv_field_names_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("# features n_samples=2 feature_dim=2 has_labels=1 n_classes=2\n"
                        f"1,2,0\n{row}\n")
        with pytest.raises(DataFormatError, match=r"bad\.csv: row 1"):
            load_features(path)


class TestRawFiles:
    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_round_trip(self, tmp_path, suffix):
        rng = np.random.default_rng(2)
        win = RawWindow(rng.normal(size=(3, 250)), fs=125.0)
        path = tmp_path / f"rec{suffix}"
        save_raw_recording(path, win)
        again = load_raw_recording(path)
        npt.assert_array_equal(again.samples, win.samples)
        assert again.fs == win.fs

    def test_truncated_bin_header_named(self, tmp_path):
        path = tmp_path / "rec.bin"
        save_raw_recording(path, RawWindow(np.zeros((2, 125)), fs=125.0))
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(DataFormatError, match=r"rec\.bin: truncated header"):
            load_raw_recording(path)

    def test_non_numeric_csv_sample_names_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        save_raw_recording(path, RawWindow(np.zeros((2, 2)), fs=2.0))
        lines = path.read_text().splitlines()
        lines[2] = "0,zero"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=r"rec\.csv: row 1"):
            load_raw_recording(path)


# Each .bin layout: a writer of a small valid file, its loader, its header
# struct, and the indices of the header fields that are dimensions.
BIN_FILES = {
    "features": (lambda p: save_features(p, labeled_dataset()), load_features,
                 "<4sIQQQQ", (2, 3)),
    "raw": (lambda p: save_raw_recording(p, RawWindow(np.zeros((2, 125)), fs=125.0)),
            load_raw_recording, "<4sIQdQ", (2, 4)),
    "checkpoint": (lambda p: save_checkpoint(init_params(3, 2, 2, 2, np.random.default_rng(0)), p),
                   load_checkpoint, "<8sIQQQQ", (2, 3, 4, 5)),
}


def oversized_dims(data, fmt, dims):
    header = struct.Struct(fmt)
    fields = list(header.unpack_from(data))
    for i in dims:
        fields[i] = 2**40
    return header.pack(*fields) + data[header.size:]


class TestMalformedFiles:
    @pytest.mark.parametrize("kind", list(BIN_FILES))
    @pytest.mark.parametrize("damage", [
        pytest.param(oversized_dims, id="dims-2**40"),
        pytest.param(lambda data, fmt, dims: data + b"\0", id="trailing-byte"),
        pytest.param(lambda data, fmt, dims: data[:-1], id="one-byte-short"),
    ])
    def test_bin_body_must_match_header(self, tmp_path, kind, damage):
        write, load, fmt, dims = BIN_FILES[kind]
        path = tmp_path / "file.bin"
        write(path)
        path.write_bytes(damage(path.read_bytes(), fmt, dims))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: header declares")):
            load(path)

    def test_raw_csv_huge_declared_width_checked_per_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(f"# raw n_channels=1 fs=2 n_samples={2**40}\n0,0\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: row 0 has 2 fields")):
            load_raw_recording(path)

    @pytest.mark.parametrize("load", [load_features, load_raw_recording, load_checkpoint,
                                      load_manifest])
    def test_directory_rejected(self, tmp_path, load):
        with pytest.raises(DataFormatError, match=re.escape(f"{tmp_path}: not a regular file")):
            load(tmp_path)

    def test_manifest_entry_naming_directory(self, tmp_path):
        (tmp_path / "s0.csv").mkdir()
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("sub0,1,s0.csv\n")
        with pytest.raises(DataFormatError, match=re.escape("s0.csv: not a regular file")):
            load_dataset(manifest)


class TestManifest:
    def write_dataset_files(self, tmp_path, dims):
        lines = []
        for i, d in enumerate(dims):
            ds = FeatureDataset(np.random.default_rng(i).normal(size=(6, d)),
                                np.zeros(6, dtype=int), 3)
            save_features(tmp_path / f"s{i}.csv", ds)
            lines.append(f"sub{i},1,s{i}.csv")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def test_two_subjects_load(self, tmp_path):
        manifest = self.write_dataset_files(tmp_path, [310, 310])
        dataset = load_dataset(manifest)
        assert dataset.subjects == ["sub0", "sub1"]
        assert dataset.feature_dim == 310

    def test_dimension_mismatch_names_file(self, tmp_path):
        manifest = self.write_dataset_files(tmp_path, [310, 160])
        with pytest.raises(DataFormatError, match="s1.csv"):
            load_dataset(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("# nothing here\n")
        with pytest.raises(DataFormatError, match="no datasets"):
            load_manifest(manifest)

    def test_duplicate_subject_session_rejected(self, tmp_path):
        manifest = self.write_dataset_files(tmp_path, [4])
        manifest.write_text("sub0,1,s0.csv\nsub0,1,s0.csv\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_manifest(manifest)


class TestSynthShift:
    def test_no_shift_mmd_shrinks_with_sample_size(self):
        vals = []
        for n in (50, 200, 800):
            cfg = SynthShiftConfig(n_per_class=n, domain_shift=0.0, rotation_deg=0.0, seed=7)
            task = generate_synth_shift(cfg)
            vals.append(mmd(task.source.features, task.target_features,
                            KernelConfig(sigma_mode="median_heuristic")))
        assert vals[0] > vals[1] > vals[2]

    def test_fixed_seed_bit_identical(self):
        a = generate_synth_shift(ACCEPT_SYNTH)
        b = generate_synth_shift(ACCEPT_SYNTH)
        npt.assert_array_equal(a.source.features, b.source.features)
        npt.assert_array_equal(a.target_features, b.target_features)
        npt.assert_array_equal(a.target_eval.labels, b.target_eval.labels)

    def test_large_shift_defeats_unadapted_linear_model(self):
        cfg = SynthShiftConfig(domain_shift=25.0, noise=0.3, rotation_deg=0.0,
                               shift_mix=1.0, seed=3)
        task = generate_synth_shift(cfg)
        # least-squares one-hot regression fit on source only
        X = np.hstack([task.source.features, np.ones((task.source.n_samples, 1))])
        Y = np.eye(cfg.n_classes)[task.source.labels]
        W, *_ = np.linalg.lstsq(X, Y, rcond=None)
        Xt = np.hstack([task.target_eval.features,
                        np.ones((task.target_eval.n_samples, 1))])
        pred = (Xt @ W).argmax(axis=1)
        acc = (pred == task.target_eval.labels).mean()
        assert acc <= 0.5

    def test_training_view_carries_no_labels(self):
        task = generate_synth_shift(ACCEPT_SYNTH)
        assert isinstance(task.target_features, np.ndarray)
        assert task.source.n_samples == 300
        assert task.target_eval.labels is not None

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SynthShiftConfig(n_classes=1)
        with pytest.raises(ValidationError):
            SynthShiftConfig(n_classes=5, dim=3)
        with pytest.raises(ValidationError):
            SynthShiftConfig(noise=-1.0)


class TestRunConfig:
    def test_empty_config_gives_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# all defaults\n")
        rc = parse_config(path)
        cfg = rc.train_config()
        assert cfg.batch_size == 128
        assert cfg.epochs == 100
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.schedule.tau_h == 1.0
        assert cfg.schedule.tau_l == 0.01
        assert cfg.schedule.rho0 == 0.1
        assert cfg.schedule.rho1 == 0.15

    def test_momentum_out_of_range_names_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("momentum = 1.5\n")
        with pytest.raises(ValidationError, match="momentum"):
            parse_config(path)

    def test_short_preset(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("preset = short\n")
        cfg = parse_config(path).train_config()
        assert cfg.batch_size == 32
        assert cfg.epochs == 10

    def test_explicit_key_beats_preset(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("preset = short\nepochs = 25\n")
        cfg = parse_config(path).train_config()
        assert cfg.epochs == 25
        assert cfg.batch_size == 32

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("learning_speed = 9\n")
        with pytest.raises(DataFormatError, match="learning_speed"):
            read_config_file(path)

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 50\nseed = 1\n")
        rc = build_run_config(read_config_file(path), {"seed": 9, "epochs": None})
        assert rc.values["seed"] == 9
        assert rc.values["epochs"] == 50

    def test_resolved_snapshot_round_trips(self, tmp_path):
        rc = build_run_config(None, {"epochs": 12, "variant": "EXP2"})
        snap = tmp_path / "config.resolved"
        snap.write_text(rc.to_lines())
        again = parse_config(snap)
        assert again.values == rc.values

    def test_fixed_sigma_config(self):
        rc = build_run_config(None, {"sigma": "2.5"})
        assert rc.train_config().kernel.sigma == 2.5
        assert rc.train_config().kernel.sigma_mode == "fixed"
