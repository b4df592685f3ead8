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
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError, require_finite
from .features import RawWindow
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


def naming_file(path, fn, *args):
    """``fn(*args)``, its ValidationError re-raised naming the file ``path``."""
    try:
        return fn(*args)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


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
    must equal the file's, checked before the body is allocated or read, and
    a read that comes up short (the file shrank meanwhile) is an error too."""
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
        buf = np.empty(body, np.uint8)
        got = f.readinto(buf)
        if got != body:
            raise DataFormatError(f"{path}: read {got} of {body} body bytes")
    arrays, offset = [], 0
    for (shape, dtype), size in zip(blocks, sizes):
        arrays.append(np.frombuffer(buf, dtype, size, offset).reshape(shape))
        offset += 8 * size
    return fields, arrays


def _read_csv(path, kind: str, types: dict, shape_of):
    """Header fields, typed by ``types``, then the float64 matrix and int64
    labels (or None) of a ``# <kind> key=value`` CSV file, parsed line by
    line. ``shape_of`` maps the fields to (rows, floats per row, labeled).
    Rows that pass the checks hold a byte per field, so the arrays are only
    allocated if the file is that large. Errors rank the row count (counted
    to the end), then the first wrong width, then the first bad field."""
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
        negative = [f"{k}={v}" for k, v in header.items() if types[k] is int and v < 0]
        if negative:
            raise DataFormatError(f"{path}: negative header count {', '.join(negative)}")
        n, d, labeled = shape_of(**header)
        width = d + labeled
        matrix = np.empty((n, d)) if n * width <= path.stat().st_size else None
        labels = np.empty(n, dtype=np.int64) if labeled and matrix is not None else None
        i, wrong, bad = -1, None, None
        for i, line in enumerate(f):
            if wrong or i >= n:
                continue
            cells = text.split(",") if (text := line.rstrip("\r\n")) else []
            if len(cells) != width:
                wrong = f"row {i} has {len(cells)} fields, expected {width}"
            elif matrix is not None and not bad:
                try:
                    matrix[i] = np.fromiter(map(float, cells), np.float64, d)
                    if labeled:
                        labels[i] = int(cells[d])
                except (ValueError, OverflowError) as exc:
                    bad = f"row {i}: {exc}"
    error = f"header says {n} rows, file has {i + 1}" if i + 1 != n else wrong or bad
    if error:
        raise DataFormatError(f"{path}: {error}")
    return header, matrix, labels


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
        return naming_file(path, FeatureDataset, feats, labels if has_labels else None,
                           n_classes)
    header, feats, labels = _read_csv(
        path, "features",
        {"n_samples": int, "feature_dim": int, "has_labels": int, "n_classes": int},
        lambda n_samples, feature_dim, has_labels, n_classes:
            (n_samples, feature_dim, bool(has_labels)),
    )
    return naming_file(path, FeatureDataset, feats, labels, header["n_classes"])


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
        return naming_file(path, RawWindow, data, fs)
    header, data, _ = _read_csv(
        path, "raw", {"n_channels": int, "fs": float, "n_samples": int},
        lambda n_channels, fs, n_samples: (n_channels, n_samples, False),
    )
    return naming_file(path, RawWindow, data, header["fs"])


def save_checkpoint(params: ModelParams, path) -> None:
    """Flat binary: magic, version, four dims, six float64 arrays row-major."""
    _write_bin(path, _CKPT_BIN,
               (params.input_dim, params.W1.shape[1], params.W2.shape[1], params.n_classes),
               [(a, "<f8") for a in params.arrays()])


def load_checkpoint(path) -> ModelParams:
    _, arrays = _read_bin(path, "checkpoint", _CKPT_BIN, lambda d, h1, h2, c: [
        (shape, "<f8") for shape in ((d, h1), (h1,), (h1, h2), (h2,), (h2, c), (c,))
    ])
    return naming_file(path, ModelParams, *arrays)


@dataclass
class ManifestEntry:
    subject: str
    session: int
    path: Path


def load_manifest(path) -> list[ManifestEntry]:
    path = _regular_file(path, "manifest")
    entries = []
    seen = set()
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected subject,session,path")
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
        for name in ("class_sep", "domain_shift", "noise", "seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        require_finite(self)


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

# TrainConfig's scalar settings; schedule and flags are nested configs, and
# each command takes n_classes from its data
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)
                   if f.default is not MISSING and f.name != "n_classes"}
_SCHEDULE_DEFAULTS = asdict(ScheduleConfig())

# every run setting, in config.resolved order, with the dataclasses' defaults;
# sigma "median" is TrainConfig.sigma None and variant "EXP6" is AblationFlags();
# a value read from a flag or a file is cast to the type of its default
_CONFIG_DEFAULTS = {
    "preset": "long",
    **_TRAIN_DEFAULTS,
    "sigma": "median",
    **_SCHEDULE_DEFAULTS,
    "variant": "EXP6",
    "source": "",
    "target": "",
}
RUN_KEYS = tuple(_CONFIG_DEFAULTS)


@dataclass
class RunConfig:
    """Fully resolved run settings, buildable into a TrainConfig."""

    values: dict

    def train_config(self) -> TrainConfig:
        v = self.values
        if v["variant"] not in VARIANTS:
            raise ValidationError(f"unknown variant {v['variant']!r}")
        scalars = {name: v[name] for name in _TRAIN_DEFAULTS}
        scalars["sigma"] = None if v["sigma"] == "median" else float(v["sigma"])
        return TrainConfig(
            **scalars,
            schedule=ScheduleConfig(**{name: v[name] for name in _SCHEDULE_DEFAULTS}),
            flags=VARIANTS[v["variant"]],
        )

    def to_lines(self) -> str:
        return "".join(f"{k} = {self.values[k]}\n" for k in _CONFIG_DEFAULTS)


def _coerce(key: str, raw) -> object:
    """``raw`` as the type of the key's default; ``sigma`` stays the string
    it was given but must read as 'median' or a number, and a ``source`` or
    ``target`` path is made absolute against the working directory."""
    try:
        value = type(_CONFIG_DEFAULTS[key])(raw)
        if key == "sigma" and value != "median":
            float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"config key {key!r}: cannot parse {raw!r}")
    if key in ("source", "target") and value:
        value = str(Path(value).resolve())
    return value


def read_config_file(path) -> dict:
    """key = value lines; a line whose first non-blank character is '#' is a
    comment, so a value may hold '#'; unknown keys are rejected."""
    path = _regular_file(path, "config")
    out = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
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
