"""File formats, manifests, the synthetic shift generator, and config parsing."""

import os
import re
import struct
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ddalign import data as data_module
from ddalign.data import (
    ACCEPT_SYNTH,
    FeatureDataset,
    SynthShiftConfig,
    build_run_config,
    config_lines,
    generate_synth_shift,
    load_checkpoint,
    load_dataset,
    load_features,
    load_manifest,
    load_raw_recording,
    read_config_file,
    save_checkpoint,
    save_features,
    save_raw_recording,
    train_config,
)
from ddalign.errors import DataFormatError, ValidationError
from ddalign.features import RawWindow
from ddalign.kernels import KernelBuffers, discrepancies, pooled_gram, signed_weights
from ddalign.net import ModelParams, init_params
from ddalign.trainer import VARIANTS, TrainConfig


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


# Each kind the package writes, from a fixed tiny input, and the bytes it must be.
PINNED_LABELED = FeatureDataset(np.array([[0.1, -2.0], [1e-300, 3.0]]), np.array([1, 0]), 2)
PINNED_UNLABELED = FeatureDataset(np.array([[0.5], [-0.25]]))
PINNED_RAW = RawWindow(np.array([[0.1, -1.0, 0.0], [2.5, 0.0, 1e10]]), fs=2.5)
PINNED_FILES = {
    "labeled.csv": (
        lambda p: save_features(p, PINNED_LABELED),
        b"# features n_samples=2 feature_dim=2 has_labels=1 n_classes=2\n"
        b"0.10000000000000001,-2,1\r\n1e-300,3,0\r\n"),
    "labeled.bin": (
        lambda p: save_features(p, PINNED_LABELED),
        bytes.fromhex("44464541 01000000"  # magic DFEA, version 1
                      "0200000000000000 0200000000000000 0100000000000000 0200000000000000"
                      "9a9999999999b93f 00000000000000c0 59f3f8c21f6ea501 0000000000000840"
                      "0100000000000000 0000000000000000")),
    "unlabeled.csv": (
        lambda p: save_features(p, PINNED_UNLABELED),
        b"# features n_samples=2 feature_dim=1 has_labels=0 n_classes=0\n0.5\r\n-0.25\r\n"),
    "unlabeled.bin": (
        lambda p: save_features(p, PINNED_UNLABELED),
        bytes.fromhex("44464541 01000000"
                      "0200000000000000 0100000000000000 0000000000000000 0000000000000000"
                      "000000000000e03f 000000000000d0bf")),
    "raw.csv": (
        lambda p: save_raw_recording(p, PINNED_RAW),
        b"# raw n_channels=2 fs=2.5 n_samples=3\n"
        b"0.10000000000000001,-1,0\r\n2.5,0,10000000000\r\n"),
    "raw.bin": (
        lambda p: save_raw_recording(p, PINNED_RAW),
        bytes.fromhex("44524157 01000000"  # magic DRAW, version 1
                      "0200000000000000 0000000000000440 0300000000000000"  # fs as f64
                      "9a9999999999b93f 000000000000f0bf 0000000000000000"
                      "0000000000000440 0000000000000000 000000205fa00242")),
    "model.ckpt": (
        lambda p: save_checkpoint(ModelParams(
            np.array([[0.5]]), np.array([0.0]), np.array([[-1.0]]), np.array([0.25]),
            np.array([[1.0, -1.0]]), np.array([0.0, 0.1])), p),
        bytes.fromhex("4444414c434b5054 01000000"  # magic DDALCKPT, version 1
                      "0100000000000000 0100000000000000 0100000000000000 0200000000000000"
                      "000000000000e03f 0000000000000000 000000000000f0bf 000000000000d03f"
                      "000000000000f03f 000000000000f0bf 0000000000000000 9a9999999999b93f")),
}


@pytest.mark.parametrize("name", list(PINNED_FILES))
def test_written_bytes_pinned(tmp_path, name):
    write, expected = PINNED_FILES[name]
    write(tmp_path / name)
    assert (tmp_path / name).read_bytes() == expected


BOM = "\ufeff".encode()  # the UTF-8 byte-order mark some editors write first


class TestByteOrderMark:
    """Text inputs are read past a leading byte-order mark."""

    @pytest.mark.parametrize("save, load", [(save_features, load_features),
                                            (save_raw_recording, load_raw_recording)],
                             ids=["features", "raw"])
    def test_csv_data_file(self, tmp_path, save, load):
        value = (labeled_dataset() if save is save_features
                 else RawWindow(np.random.default_rng(1).normal(size=(2, 8)), fs=4.0))
        path = tmp_path / "x.csv"
        save(path, value)
        plain = load(path)
        path.write_bytes(BOM + path.read_bytes())
        for a, b in zip(vars(plain).values(), vars(load(path)).values()):
            npt.assert_array_equal(a, b)

    def test_manifest(self, tmp_path):
        save_features(tmp_path / "s.csv", labeled_dataset())
        path = tmp_path / "manifest.csv"
        path.write_bytes(BOM + b"a,1,s.csv\n")
        assert [entry.subject for entry in load_manifest(path)] == ["a"]

    def test_config_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(BOM + b"epochs = 5\n")
        assert read_config_file(path) == {"epochs": "5"}


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


# CSV files the package writes: a writer, its loader, and the loaded arrays.
CSV_FILES = {
    "labeled": (lambda p: save_features(p, labeled_dataset(n=400, d=62)), load_features,
                lambda ds: (ds.features, ds.labels)),
    "unlabeled": (lambda p: save_features(p, FeatureDataset(np.ones((400, 62)) / 3)),
                  load_features, lambda ds: (ds.features,)),
    "raw": (lambda p: save_raw_recording(
                p, RawWindow(np.random.default_rng(5).normal(size=(62, 400)), fs=200.0)),
            load_raw_recording, lambda win: (win.samples,)),
}


class TestCsvReader:
    """The CSV loaders parse each line as it is read."""

    @pytest.mark.parametrize("kind", list(CSV_FILES))
    def test_peak_memory_below_three_copies_of_the_arrays(self, tmp_path, kind):
        write, load, arrays = CSV_FILES[kind]
        path = tmp_path / "file.csv"
        write(path)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loaded = load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * sum(a.nbytes for a in arrays(loaded))

    @pytest.mark.parametrize("kind", list(CSV_FILES))
    def test_crlf_and_lf_rows_load_identically(self, tmp_path, kind):
        write, load, arrays = CSV_FILES[kind]
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        write(crlf)  # csv.writer ends its rows in CRLF
        assert crlf.read_bytes().count(b"\r\n") == crlf.read_bytes().count(b"\n") - 1
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        for a, b in zip(arrays(load(crlf)), arrays(load(lf)), strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("rows, message", [
        pytest.param("1,2,0\n\n", "row 1 has 0 fields, expected 3", id="blank-line"),
        pytest.param("1,2,0\n1,2,1\n1,2,1\n", "header says 2 rows, file has 3", id="extra-row"),
        pytest.param("1,2,0\n1,2\n", "row 1 has 2 fields, expected 3", id="short-row"),
        pytest.param('1,2,0\n"1.5",2,1\n', "row 1: could not convert string to float: "
                     "'\"1.5\"'", id="quoted-field"),
        pytest.param("1,2,0\n1,2,1.5\n", "row 1: invalid literal for int() with base 10: "
                     "'1.5'", id="float-label"),
        pytest.param("1,2,0\n1,2,99999999999999999999\n",
                     "row 1: Python int too large to convert to C long", id="huge-label"),
        # a wrong width outranks an earlier bad field, the row count both
        pytest.param("1,x,0\n1,2\n", "row 1 has 2 fields, expected 3", id="width-first"),
        pytest.param("1,x,0\n1,2\n1,2,0\n", "header says 2 rows, file has 3",
                     id="count-first"),
    ])
    def test_malformed_rows_named(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("# features n_samples=2 feature_dim=2 has_labels=1 n_classes=2\n"
                        + rows)
        with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_features(path)

    def test_huge_declared_row_count_counted_not_allocated(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"# features n_samples={2**40} feature_dim=2 has_labels=0 "
                        "n_classes=0\n1,2\n")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: header says {2**40} rows, file has 1")):
            load_features(path)


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

    @pytest.mark.parametrize("kind", list(BIN_FILES))
    def test_short_body_read_named(self, tmp_path, monkeypatch, kind):
        # the file loses 8 bytes after its size was checked
        write, load, fmt, _ = BIN_FILES[kind]
        path = tmp_path / "file.bin"
        write(path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        real_stat = Path.stat

        def stat_before_shrinking(self, *args, **kwargs):
            st = real_stat(self, *args, **kwargs)
            return os.stat_result((*st[:6], size, *st[7:])) if self == path else st

        monkeypatch.setattr(Path, "stat", stat_before_shrinking)
        body = size - struct.calcsize(fmt)
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: read {body - 8} of {body} body bytes")):
            load(path)

    def test_raw_csv_huge_declared_width_checked_per_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(f"# raw n_channels=1 fs=2 n_samples={2**40}\n0,0\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: row 0 has 2 fields")):
            load_raw_recording(path)

    @pytest.mark.parametrize("load, header", [
        pytest.param(load_features,
                     "# features n_samples=0 feature_dim=-1 has_labels=1 n_classes=2",
                     id="features"),
        pytest.param(load_raw_recording, "# raw n_channels=0 fs=200 n_samples=-1", id="raw"),
    ])
    def test_negative_csv_header_count_rejected(self, tmp_path, load, header):
        path = tmp_path / "file.csv"
        path.write_text(header + "\n")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: negative header count")):
            load(path)

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

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_features_content_error_names_file(self, tmp_path, suffix):
        # the header declares fewer classes than the labels use
        path = tmp_path / f"feat{suffix}"
        save_features(path, FeatureDataset(np.zeros((2, 2)), np.array([0, 5]), 6))
        if suffix == ".csv":
            path.write_text(path.read_text().replace("n_classes=6", "n_classes=2"))
        else:
            data = bytearray(path.read_bytes())
            struct.pack_into("<Q", data, 32, 2)  # n_classes field of the DFEA header
            path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: labels outside [0, 2)")):
            load_features(path)

    @pytest.mark.parametrize("suffix, damage, message", [
        pytest.param(".csv", lambda p: p.write_text(p.read_text().replace("fs=2", "fs=0.5")),
                     "sampling rate 0.5 Hz is below 1 Hz", id="csv-fs"),
        pytest.param(".csv", lambda p: p.write_text(p.read_text()[:-2] + "nan\n"),
                     "samples contain non-finite values", id="csv-nan"),
        pytest.param(".bin",
                     lambda p: p.write_bytes(p.read_bytes()[:-8] + struct.pack("<d", np.nan)),
                     "samples contain non-finite values", id="bin-nan"),
    ])
    def test_raw_content_error_names_file(self, tmp_path, suffix, damage, message):
        path = tmp_path / f"rec{suffix}"
        save_raw_recording(path, RawWindow(np.zeros((1, 2)), fs=2.0))
        damage(path)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {message}")):
            load_raw_recording(path)

    def test_checkpoint_content_error_names_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(3, 2, 2, 2, np.random.default_rng(0)), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, struct.calcsize("<8sIQQQQ"), np.nan)  # W1[0, 0]
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{path}: W1 contains non-finite values")):
            load_checkpoint(path)


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
        assert dataset.data.feature_dim == 310

    def test_dimension_mismatch_names_file(self, tmp_path):
        manifest = self.write_dataset_files(tmp_path, [310, 160])
        with pytest.raises(DataFormatError, match="s1.csv"):
            load_dataset(manifest)

    def test_rows_stacked_subject_by_subject_sessions_ascending(self, tmp_path):
        # subjects listed non-contiguously and sessions out of order, .csv and .bin mixed
        files = {("a", 2): "a2.bin", ("b", 1): "b1.csv", ("a", 1): "a1.csv", ("b", 3): "b3.bin"}
        parts = {}
        for k, ((subject, session), name) in enumerate(files.items()):
            parts[subject, session] = labeled_dataset(seed=k, n=3 + k)
            save_features(tmp_path / name, parts[subject, session])
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("".join(f"{s},{k},{name}\n" for (s, k), name in files.items()))
        dataset = load_dataset(manifest)
        order = [("a", 1), ("a", 2), ("b", 1), ("b", 3)]
        npt.assert_array_equal(dataset.data.features,
                               np.vstack([parts[key].features for key in order]))
        npt.assert_array_equal(dataset.data.labels,
                               np.concatenate([parts[key].labels for key in order]))
        assert dataset.subjects == ["a", "b"]
        assert [list(dataset.rows[s]) for s in ("a", "b")] == [[1, 2], [1, 3]]
        for (subject, session), part in parts.items():
            rows = dataset.rows[subject][session]
            npt.assert_array_equal(dataset.data.features[rows], part.features)
            npt.assert_array_equal(dataset.data.labels[rows], part.labels)

    def test_file_changed_between_header_and_body_named(self, tmp_path, monkeypatch):
        manifest = self.write_dataset_files(tmp_path, [4, 4])
        real = data_module._read_header
        calls = []

        def header_then_grow(f, path, kind):
            calls.append(path)
            if len(calls) == 3:  # the first body read: the file has grown since its check
                save_features(path, labeled_dataset(n=7, d=4))
                f.seek(0)
            return real(f, path, kind)

        monkeypatch.setattr(data_module, "_read_header", header_then_grow)
        with pytest.raises(DataFormatError, match=re.escape(
                f"{tmp_path / 's0.csv'}: file changed while loading")):
            load_dataset(manifest)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_zero_row_session_named(self, tmp_path, suffix):
        manifest = self.write_dataset_files(tmp_path, [4])
        save_features(tmp_path / f"empty{suffix}",
                      FeatureDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3))
        manifest.write_text(f"sub0,1,s0.csv\nsub1,1,empty{suffix}\n")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"empty{suffix}: session file has no rows")):
            load_dataset(manifest)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_unlabeled_session_named(self, tmp_path, suffix):
        manifest = self.write_dataset_files(tmp_path, [4])
        save_features(tmp_path / f"u{suffix}", FeatureDataset(np.zeros((2, 4))))
        manifest.write_text(f"sub0,1,s0.csv\nsub1,1,u{suffix}\n")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"u{suffix}: protocol datasets must be labeled")):
            load_dataset(manifest)

    @pytest.mark.parametrize("suffix, message", [
        (".csv", f"header says {2**40} rows, file has 1"),
        (".bin", "header declares"),
    ])
    def test_huge_declared_row_count_not_allocated(self, tmp_path, suffix, message):
        manifest = self.write_dataset_files(tmp_path, [2])
        big = tmp_path / f"big{suffix}"
        save_features(big, FeatureDataset(np.ones((1, 2)), np.zeros(1, dtype=int), 3))
        if suffix == ".csv":
            big.write_text(big.read_text().replace("n_samples=1", f"n_samples={2**40}"))
        else:
            data = bytearray(big.read_bytes())
            struct.pack_into("<Q", data, 8, 2**40)  # n field of the DFEA header
            big.write_bytes(bytes(data))
        manifest.write_text(f"sub0,1,s0.csv\nsub1,1,big{suffix}\n")
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=re.escape(f"{big}: {message}")):
                load_dataset(manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @pytest.mark.parametrize("row", ["sub1,1,s1.csv,target", "sub1,1"], ids=["four", "two"])
    def test_row_without_three_columns_rejected_naming_line(self, tmp_path, row):
        manifest = self.write_dataset_files(tmp_path, [4, 4])
        manifest.write_text(f"sub0,1,s0.csv\n{row}\n")
        with pytest.raises(DataFormatError,
                           match=r"manifest\.csv:2: expected subject,session,path$"):
            load_manifest(manifest)


class TestSynthShift:
    def test_no_shift_mmd_shrinks_with_sample_size(self):
        vals = []
        for n in (50, 200, 800):
            cfg = SynthShiftConfig(n_per_class=n, domain_shift=0.0, rotation_deg=0.0, seed=7)
            task = generate_synth_shift(cfg)
            src, tgt = task.source.features, task.target_features
            K, _, _ = pooled_gram(np.vstack([src, tgt]), None, KernelBuffers())
            W, scale = signed_weights(np.zeros(len(src)), np.zeros(len(tgt)), 1)
            vals.append(discrepancies(K, W, scale)[0])
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


class TestRunSettings:
    def test_empty_config_gives_defaults(self, tmp_path):
        # every default held both in the config table and in the dataclasses
        path = tmp_path / "c.cfg"
        path.write_text("# all defaults\n")
        assert train_config(build_run_config(read_config_file(path))) == TrainConfig()

    def test_momentum_out_of_range_names_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("momentum = 1.5\n")
        with pytest.raises(ValidationError, match="momentum"):
            build_run_config(read_config_file(path))

    def test_short_preset(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("preset = short\n")
        cfg = train_config(build_run_config(read_config_file(path)))
        assert cfg.batch_size == 32
        assert cfg.epochs == 10

    def test_explicit_key_beats_preset(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("preset = short\nepochs = 25\n")
        cfg = train_config(build_run_config(read_config_file(path)))
        assert cfg.epochs == 25
        assert cfg.batch_size == 32

    @pytest.mark.parametrize("lines, overrides, batch_epochs", [
        ("epochs = 50\n", {"preset": "short"}, (32, 10)),
        ("epochs = 50\n", {"preset": "short", "epochs": 20}, (32, 20)),
        ("epochs = 50\npreset = short\n", {}, (32, 50)),
        ("preset = short\n", {"epochs": 50}, (32, 50)),
        ("preset = short\nbatch_size = 16\n", {"preset": "long"}, (128, 100)),
    ], ids=["flag-preset-resets-file", "flag-key-beats-flag-preset", "file-key-beats-file-preset",
            "flag-key-beats-file-preset", "flag-preset-resets-file-preset"])
    def test_preset_applies_before_the_keys_of_its_source(self, tmp_path, lines, overrides,
                                                          batch_epochs):
        # the file, then the flags; each applies its preset before its keys
        path = tmp_path / "c.cfg"
        path.write_text(lines)
        cfg = train_config(build_run_config(read_config_file(path), overrides))
        assert (cfg.batch_size, cfg.epochs) == batch_epochs

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("learning_speed = 9\n")
        with pytest.raises(DataFormatError, match="learning_speed"):
            read_config_file(path)

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 50\nseed = 1\n")
        values = build_run_config(read_config_file(path), {"seed": 9, "epochs": None})
        assert values["seed"] == 9
        assert values["epochs"] == 50

    def test_resolved_snapshot_round_trips(self, tmp_path):
        values = build_run_config(None, {"epochs": 12, "variant": "EXP2"})
        snap = tmp_path / "config.resolved"
        snap.write_text(config_lines(values))
        assert build_run_config(read_config_file(snap)) == values

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # only a line whose first non-blank character is '#' is a comment
        path = tmp_path / "c.cfg"
        path.write_text("  # an indented comment\nsource = /data/h#x/s.csv\n")
        assert read_config_file(path) == {"source": "/data/h#x/s.csv"}

    def test_inline_comment_fails_loudly(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 5  # note\n")
        with pytest.raises(ValidationError,
                           match=re.escape("config key 'epochs': cannot parse '5  # note'")):
            build_run_config(read_config_file(path))

    def test_fixed_sigma_config(self):
        assert train_config(build_run_config(None, {"sigma": "2.5"})).sigma == 2.5
        assert train_config(build_run_config()).sigma is None

    def test_default_snapshot_lines(self):
        # the key order and the defaults are read off the dataclasses; pin both
        assert config_lines(build_run_config()) == (
            "preset = long\n"
            "batch_size = 128\n"
            "epochs = 100\n"
            "momentum = 0.9\n"
            "weight_decay = 0.0005\n"
            "seed = 3\n"
            "hidden1 = 64\n"
            "hidden2 = 64\n"
            "sigma = median\n"
            "tau_h = 1.0\n"
            "tau_l = 0.01\n"
            "rho0 = 0.1\n"
            "rho1 = 0.15\n"
            "stage_e1 = 10\n"
            "stage_e2 = 40\n"
            "stage_e3 = 85\n"
            "conf1 = 0.5\n"
            "conf2 = 0.75\n"
            "conf3 = 1.0\n"
            "lr_extractor = 0.001\n"
            "lr_classifier = 0.01\n"
            "variant = EXP6\n"
            "source = \n"
            "target = \n"
        )

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_variant_pins_recorded_and_built(self, variant):
        pins = VARIANTS[variant].pins
        values = build_run_config(None, {"variant": variant})
        assert {key: values[key] for key in pins} == pins
        assert train_config(values) == replace(TrainConfig(flags=VARIANTS[variant]), **pins)

    def test_key_clashing_with_a_pin_warns_once_and_is_not_used(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("variant = EXP4\ntau_l = 0.5\nconf1 = 0.2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = build_run_config(read_config_file(path), {"rho0": 0.1})
        assert [str(w.message) for w in caught] == [
            "variant EXP4 pins tau_l = 1.0 (given 0.5), rho0 = 28.0 (given 0.1), "
            "conf1 = 0.0 (given 0.2); the run uses the pinned values"]
        assert values == build_run_config(None, {"variant": "EXP4"})

    @pytest.mark.parametrize("overrides", [{"variant": "EXP6", "tau_l": 0.5},
                                           {"variant": "EXP5", "tau_l": 0.5},
                                           {"variant": "EXP4", "tau_l": 1.0, "conf3": 0.0}])
    def test_no_warning_without_a_clash(self, overrides):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = build_run_config(None, overrides)
        assert values["tau_l"] == overrides["tau_l"]

    def test_inert_keys_warn_once_naming_them(self):
        overrides = {"preset": "short", "variant": "EXP1", "sigma": "2", "stage_e1": 20,
                     "stage_e3": 85}  # stage_e3 at its default says nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = build_run_config(None, overrides)
        assert [str(w.message) for w in caught] == [
            "variant EXP1 does not use sigma = 2, stage_e1 = 20; "
            "the given values have no effect"]
        assert values["sigma"] == "2" and values["stage_e1"] == 20
        # EXP2 has a kernel head, so only the stage end is inert; EXP6 uses both
        with pytest.warns(UserWarning, match=r"EXP2 does not use stage_e1 = 20; "):
            build_run_config(None, {**overrides, "variant": "EXP2"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_run_config(None, {**overrides, "variant": "EXP6"})

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_replayed_snapshot_does_not_warn(self, tmp_path, variant):
        path = tmp_path / "config.resolved"
        path.write_text(config_lines(build_run_config(None, {"variant": variant})))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = build_run_config(read_config_file(path))
        assert values == build_run_config(None, {"variant": variant})

    def test_pinned_value_replaces_an_invalid_one(self):
        # tau_l above tau_h is refused, but EXP4 reads its pinned tau_l instead
        with pytest.raises(ValidationError, match="tau_h >= tau_l"):
            build_run_config(None, {"variant": "EXP6", "tau_l": 2.0})
        with pytest.warns(UserWarning, match=r"pins tau_l = 1\.0 \(given 2\.0\)"):
            assert build_run_config(None, {"variant": "EXP4", "tau_l": 2.0})["tau_l"] == 1.0

    def test_relative_paths_resolved_against_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        values = build_run_config(None, {"source": "task/s.csv", "target": ""})
        assert values["source"] == str((tmp_path / "task" / "s.csv").resolve())
        assert values["target"] == ""


# every float setting of the two configs (TrainConfig.sigma may also be None)
FLOAT_FIELDS = [(cls, f.name) for cls in (TrainConfig, SynthShiftConfig)
                for f in fields(cls) if f.type in (float, float | None)]


class TestFiniteSettings:
    def test_every_float_setting_is_covered(self):
        assert {name for _, name in FLOAT_FIELDS} >= {
            "weight_decay", "sigma", "tau_h", "rho1", "lr_extractor", "noise", "rotation_deg"}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
    def test_non_finite_rejected_naming_the_field(self, cls, name, value):
        with pytest.raises(ValidationError, match=rf"\b{name}\b"):
            cls(**{name: value})
