"""Dataset files, manifests, the synthetic domain-shift generator, and run
configuration parsing.

Feature files come in two equivalent flavors selected by suffix: ``.csv`` is
a plain text matrix under a single comment header line, ``.bin`` is the same
content as packed little-endian binary. Both round-trip float64 exactly.
Raw multichannel recordings use the same scheme with their own header, and
model checkpoints its binary half. A manifest is a CSV of (subject,
session, path) rows with paths resolved relative to the manifest location.
"""

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError
from .features import RawWindow
from .kernels import KernelConfig
from .net import ModelParams
from .schedules import ScheduleConfig
from .trainer import VARIANTS, TrainConfig


@dataclass
class FeatureDataset:
    """In-memory feature matrix with optional labels."""

    features: np.ndarray
    labels: np.ndarray | None = None
    n_classes: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValidationError("features must be [n_samples, feature_dim]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValidationError("labels length must match sample count")
            if self.n_classes < 1:
                raise ValidationError("labeled dataset needs n_classes >= 1")
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
                raise ValidationError(f"labels outside [0, {self.n_classes})")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


_BIN_VERSION = 1
# One header struct per .bin layout, magic first; "<" adds no padding.
_FEATURE_BIN = (b"DFEA", struct.Struct("<4sIQQQQ"))  # n, d, has_labels, n_classes
_RAW_BIN = (b"DRAW", struct.Struct("<4sIQdQ"))  # n_channels, fs, n_samples
_CKPT_BIN = (b"DDALCKPT", struct.Struct("<8sIQQQQ"))  # input_dim, h1, h2, n_classes


def _regular_file(path, kind: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: {kind} file not found")
    if not path.is_file():
        raise DataFormatError(f"{path}: not a regular file")
    return path


def _write_bin(path, layout, fields, blocks) -> None:
    """Header (magic, version, ``fields``), then each (array, dtype) block."""
    magic, header = layout
    with open(path, "wb") as f:
        f.write(header.pack(magic, _BIN_VERSION, *fields))
        for block, dtype in blocks:
            f.write(np.ascontiguousarray(block, dtype=dtype).tobytes())


def _read_bin(path, kind: str, layout, blocks_of):
    """Header fields and body blocks of a ``.bin`` file. ``blocks_of`` maps the
    fields to each block's (shape, 8-byte dtype); the body size they declare
    must equal the file's, checked before the body is allocated or read."""
    magic, header = layout
    path = _regular_file(path, kind)
    with open(path, "rb") as f:
        head = f.read(header.size)
        if head[:len(magic)] != magic:
            raise DataFormatError(f"{path}: not a {kind} file")
        if len(head) != header.size:
            raise DataFormatError(f"{path}: truncated header")
        _, version, *fields = header.unpack(head)
        if version != _BIN_VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        blocks = blocks_of(*fields)
        sizes = [math.prod(shape) for shape, _ in blocks]
        body = path.stat().st_size - header.size
        if body != 8 * sum(sizes):
            raise DataFormatError(f"{path}: header declares {8 * sum(sizes)} body bytes, "
                                  f"file has {body}")
        buf = bytearray(body)
        f.readinto(buf)
    arrays, offset = [], 0
    for (shape, dtype), size in zip(blocks, sizes):
        arrays.append(np.frombuffer(buf, dtype, size, offset).reshape(shape))
        offset += 8 * size
    return fields, arrays


def _read_csv(path, kind: str, types: dict, shape_of):
    """Header fields, typed by ``types``, and rows of a ``# <kind> key=value``
    CSV file. ``shape_of`` maps the fields to the row count and row width,
    both checked before the caller allocates a matrix."""
    path = _regular_file(path, kind)
    with open(path, newline="") as f:
        parts = f.readline().lstrip("#").split()
        if not parts or parts[0] != kind:
            raise DataFormatError(f"{path}: expected a '# {kind} ...' header line")
        raw = dict(item.partition("=")[::2] for item in parts[1:])
        try:
            header = {key: cast(raw[key]) for key, cast in types.items()}
        except (KeyError, ValueError) as exc:
            raise DataFormatError(f"{path}: malformed header ({exc})") from exc
        rows = list(csv.reader(f))
    n, width = shape_of(**header)
    if len(rows) != n:
        raise DataFormatError(f"{path}: header says {n} rows, file has {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(f"{path}: row {i} has {len(row)} fields, expected {width}")
    return header, rows


def save_features(path, dataset: FeatureDataset) -> None:
    has_labels = dataset.labels is not None
    if Path(path).suffix == ".bin":
        blocks = [(dataset.features, "<f8")]
        if has_labels:
            blocks.append((dataset.labels, "<i8"))
        _write_bin(path, _FEATURE_BIN,
                   (dataset.n_samples, dataset.feature_dim, int(has_labels), dataset.n_classes),
                   blocks)
        return
    with open(path, "w", newline="") as f:
        f.write(
            f"# features n_samples={dataset.n_samples} feature_dim={dataset.feature_dim} "
            f"has_labels={int(has_labels)} n_classes={dataset.n_classes}\n"
        )
        writer = csv.writer(f)
        for i in range(dataset.n_samples):
            row = [f"{v:.17g}" for v in dataset.features[i]]
            if has_labels:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def load_features(path) -> FeatureDataset:
    if Path(path).suffix == ".bin":
        (_, _, has_labels, n_classes), (feats, labels) = _read_bin(
            path, "features", _FEATURE_BIN,
            lambda n, d, labeled, _: [((n, d), "<f8"), ((n if labeled else 0,), "<i8")],
        )
        return FeatureDataset(feats, labels if has_labels else None, n_classes)
    header, rows = _read_csv(
        path, "features",
        {"n_samples": int, "feature_dim": int, "has_labels": int, "n_classes": int},
        lambda n_samples, feature_dim, has_labels, n_classes:
            (n_samples, feature_dim + bool(has_labels)),
    )
    d = header["feature_dim"]
    feats = np.empty((len(rows), d))
    labels = np.empty(len(rows), dtype=np.int64) if header["has_labels"] else None
    try:
        for i, row in enumerate(rows):
            feats[i] = [float(v) for v in row[:d]]
            if labels is not None:
                labels[i] = int(row[d])
    except ValueError as exc:
        raise DataFormatError(f"{path}: row {i}: {exc}") from exc
    return FeatureDataset(feats, labels, header["n_classes"])


def save_raw_recording(path, window: RawWindow) -> None:
    if Path(path).suffix == ".bin":
        _write_bin(path, _RAW_BIN, (window.n_channels, float(window.fs), window.n_samples),
                   [(window.samples, "<f8")])
        return
    with open(path, "w", newline="") as f:
        f.write(f"# raw n_channels={window.n_channels} fs={window.fs:.17g} "
                f"n_samples={window.n_samples}\n")
        writer = csv.writer(f)
        for ch in range(window.n_channels):
            writer.writerow([f"{v:.17g}" for v in window.samples[ch]])


def load_raw_recording(path) -> RawWindow:
    if Path(path).suffix == ".bin":
        (_, fs, _), (data,) = _read_bin(path, "raw", _RAW_BIN,
                                        lambda n_ch, fs, n_samp: [((n_ch, n_samp), "<f8")])
        return RawWindow(data, fs)
    header, rows = _read_csv(
        path, "raw", {"n_channels": int, "fs": float, "n_samples": int},
        lambda n_channels, fs, n_samples: (n_channels, n_samples),
    )
    data = np.empty((len(rows), header["n_samples"]))
    try:
        for i, row in enumerate(rows):
            data[i] = [float(v) for v in row]
    except ValueError as exc:
        raise DataFormatError(f"{path}: row {i}: {exc}") from exc
    return RawWindow(data, header["fs"])


def save_checkpoint(params: ModelParams, path) -> None:
    """Flat binary: magic, version, four dims, six float64 arrays row-major."""
    _write_bin(path, _CKPT_BIN,
               (params.input_dim, params.W1.shape[1], params.W2.shape[1], params.n_classes),
               [(a, "<f8") for a in params.arrays()])


def load_checkpoint(path) -> ModelParams:
    _, arrays = _read_bin(path, "checkpoint", _CKPT_BIN, lambda d, h1, h2, c: [
        (shape, "<f8") for shape in ((d, h1), (h1,), (h1, h2), (h2,), (h2, c), (c,))
    ])
    return ModelParams(*arrays)


@dataclass
class ManifestEntry:
    subject: str
    session: int
    path: Path
    role: str = ""


def load_manifest(path) -> list[ManifestEntry]:
    path = _regular_file(path, "manifest")
    entries = []
    seen = set()
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) not in (3, 4):
                raise DataFormatError(
                    f"{path}:{lineno}: expected subject,session,path[,role]"
                )
            subject = row[0].strip()
            try:
                session = int(row[1])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: session must be an integer")
            if (subject, session) in seen:
                raise DataFormatError(f"{path}:{lineno}: duplicate (subject, session)")
            seen.add((subject, session))
            entries.append(ManifestEntry(
                subject=subject,
                session=session,
                path=(path.parent / row[2].strip()).resolve(),
                role=row[3].strip() if len(row) == 4 else "",
            ))
    if not entries:
        raise DataFormatError(f"{path}: manifest lists no datasets")
    return entries


@dataclass
class SubjectDataset:
    """subject -> session -> labeled features, with consistent dimensions."""

    sessions: dict[str, dict[int, FeatureDataset]]
    feature_dim: int
    n_classes: int

    @property
    def subjects(self) -> list[str]:
        return list(self.sessions.keys())


def load_dataset(manifest_path) -> SubjectDataset:
    entries = load_manifest(manifest_path)
    sessions: dict[str, dict[int, FeatureDataset]] = {}
    feature_dim = None
    n_classes = 0
    for entry in entries:
        ds = load_features(entry.path)
        if ds.labels is None:
            raise DataFormatError(f"{entry.path}: protocol datasets must be labeled")
        if feature_dim is None:
            feature_dim = ds.feature_dim
        elif ds.feature_dim != feature_dim:
            raise DataFormatError(
                f"{entry.path}: feature_dim {ds.feature_dim} differs from {feature_dim}"
            )
        n_classes = max(n_classes, ds.n_classes)
        sessions.setdefault(entry.subject, {})[entry.session] = ds
    return SubjectDataset(sessions=sessions, feature_dim=feature_dim, n_classes=n_classes)


@dataclass(frozen=True)
class SynthShiftConfig:
    """Geometry of the synthetic source/target pair.

    Source classes sit at orthonormal directions scaled by ``class_sep``.
    The target applies one shared mean translation of length ``domain_shift``
    (marginal shift) and rotates each class mean by ``rotation_deg`` toward
    the next class direction (conditional shift a shared translation cannot
    undo). ``shift_mix`` steers the translation: 0 points it along an unused
    orthogonal axis (harmless to a class boundary), 1 aims it fully along the
    first class direction (maximally confusing).
    """

    n_classes: int = 3
    dim: int = 16
    n_per_class: int = 100
    class_sep: float = 3.0
    domain_shift: float = 0.0
    rotation_deg: float = 0.0
    shift_mix: float = 0.5
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.dim < 2 or self.dim < self.n_classes:
            raise ValidationError("need dim >= max(2, n_classes)")
        if self.n_per_class < 1:
            raise ValidationError("need n_per_class >= 1")
        if not 0 <= self.shift_mix <= 1:
            raise ValidationError("shift_mix must lie in [0, 1]")
        for name in ("class_sep", "domain_shift", "noise"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")


@dataclass
class SynthTask:
    """Training-facing view plus evaluation-only target labels."""

    source: FeatureDataset
    target_features: np.ndarray
    target_eval: FeatureDataset


def generate_synth_shift(cfg: SynthShiftConfig) -> SynthTask:
    rng = np.random.default_rng(cfg.seed)
    # orthonormal class directions plus one extra axis for the domain shift
    basis, _ = np.linalg.qr(rng.normal(size=(cfg.dim, min(cfg.n_classes + 1, cfg.dim))))
    dirs = basis[:, : cfg.n_classes].T
    extra = basis[:, -1] if basis.shape[1] > cfg.n_classes else dirs[0]
    shift_dir = cfg.shift_mix * dirs[0] + np.sqrt(1 - cfg.shift_mix**2) * extra
    theta = np.deg2rad(cfg.rotation_deg)

    src_means = cfg.class_sep * dirs
    tgt_means = np.empty_like(src_means)
    for c in range(cfg.n_classes):
        partner = dirs[(c + 1) % cfg.n_classes]
        tgt_means[c] = cfg.class_sep * (np.cos(theta) * dirs[c] + np.sin(theta) * partner)
    tgt_means = tgt_means + cfg.domain_shift * shift_dir

    def sample(means):
        feats = np.vstack([
            means[c] + cfg.noise * rng.normal(size=(cfg.n_per_class, cfg.dim))
            for c in range(cfg.n_classes)
        ])
        labels = np.repeat(np.arange(cfg.n_classes), cfg.n_per_class)
        return feats, labels

    src_x, src_y = sample(src_means)
    tgt_x, tgt_y = sample(tgt_means)
    return SynthTask(
        source=FeatureDataset(src_x, src_y, cfg.n_classes),
        target_features=tgt_x,
        target_eval=FeatureDataset(tgt_x.copy(), tgt_y, cfg.n_classes),
    )


# Frozen generator settings for the synthetic benchmark: calibrated so the
# unadapted baseline lands in the 60-75% target-accuracy band, leaving
# measurable headroom for the alignment variants.
ACCEPT_SYNTH = SynthShiftConfig(
    n_classes=3,
    dim=16,
    n_per_class=100,
    class_sep=4.5,
    domain_shift=5.0,
    rotation_deg=20.0,
    shift_mix=0.6,
    noise=1.0,
    seed=0,
)


PRESETS = {
    "long": {"batch_size": 128, "epochs": 100},
    "short": {"batch_size": 32, "epochs": 10},
}

_CONFIG_DEFAULTS = {
    "preset": "long",
    "batch_size": 128,
    "epochs": 100,
    "momentum": 0.9,
    "weight_decay": 5e-4,
    "seed": 3,
    "n_classes": 3,
    "hidden1": 64,
    "hidden2": 64,
    "sigma": "median",
    "tau_h": 1.0,
    "tau_l": 0.01,
    "rho0": 0.1,
    "rho1": 0.15,
    "stage_e1": 10,
    "stage_e2": 40,
    "stage_e3": 85,
    "conf1": 0.5,
    "conf2": 0.75,
    "lr_extractor": 0.001,
    "lr_classifier": 0.01,
    "alpha_decay": "linear",
    "variant": "EXP6",
    "source": "",
    "target": "",
}

_INT_KEYS = {"batch_size", "epochs", "seed", "n_classes", "hidden1", "hidden2",
             "stage_e1", "stage_e2", "stage_e3"}
_FLOAT_KEYS = {"momentum", "weight_decay", "tau_h", "tau_l", "rho0", "rho1",
               "conf1", "conf2", "lr_extractor", "lr_classifier"}


@dataclass
class RunConfig:
    """Fully resolved run settings, buildable into a TrainConfig."""

    values: dict

    def train_config(self) -> TrainConfig:
        v = self.values
        if v["sigma"] == "median":
            kernel = KernelConfig(sigma_mode="median_heuristic")
        else:
            kernel = KernelConfig(sigma=float(v["sigma"]), sigma_mode="fixed")
        schedule = ScheduleConfig(
            tau_h=v["tau_h"], tau_l=v["tau_l"], rho0=v["rho0"], rho1=v["rho1"],
            stage_epochs=(v["stage_e1"], v["stage_e2"], v["stage_e3"]),
            stage_taus=(0.0, v["conf1"], v["conf2"], 1.0),
            total_epochs=v["epochs"],
            lr_extractor=v["lr_extractor"], lr_classifier=v["lr_classifier"],
            alpha_decay=v["alpha_decay"],
        )
        if v["variant"] not in VARIANTS:
            raise ValidationError(f"unknown variant {v['variant']!r}")
        return TrainConfig(
            batch_size=v["batch_size"], epochs=v["epochs"], momentum=v["momentum"],
            weight_decay=v["weight_decay"], seed=v["seed"], n_classes=v["n_classes"],
            hidden1=v["hidden1"], hidden2=v["hidden2"],
            kernel=kernel, schedule=schedule, flags=VARIANTS[v["variant"]],
        )

    @property
    def variant(self) -> str:
        return self.values["variant"]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def to_lines(self) -> str:
        return "".join(f"{k} = {self.values[k]}\n" for k in _CONFIG_DEFAULTS)


def _coerce(key: str, raw) -> object:
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"config key {key!r}: cannot parse {raw!r}")
    return raw


def read_config_file(path) -> dict:
    """key = value lines; '#' starts a comment; unknown keys are rejected."""
    path = _regular_file(path, "config")
    out = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in _CONFIG_DEFAULTS:
            raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def build_run_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then preset, then file keys, then explicit overrides."""
    merged = dict(_CONFIG_DEFAULTS)

    def apply(values: dict):
        if "preset" in values:
            preset = values["preset"]
            if preset not in PRESETS:
                raise ValidationError(f"unknown preset {preset!r}")
            merged.update(PRESETS[preset])
            merged["preset"] = preset
        for key, raw in values.items():
            if key == "preset":
                continue
            if key not in _CONFIG_DEFAULTS:
                raise ValidationError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, raw)

    if file_values:
        apply(file_values)
    if overrides:
        apply({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(values=merged)
    cfg.train_config()  # validate eagerly so errors name the offending key
    return cfg


def parse_config(path) -> RunConfig:
    """Load a config file and resolve every default."""
    return build_run_config(read_config_file(path))
