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
import io
import math
import struct
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError, require_finite
from .features import RawWindow
from .net import ModelParams
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


@dataclass(frozen=True)
class _Kind:
    """One file kind, both forms described once. The CSV header keys and the
    .bin header fields are ``fields``, in order and typed (in .bin, after the
    magic and a u32 version, an int is a u64 and a float an f64); ``blocks_of``
    maps them to each body block's (shape, 8-byte dtype). A CSV body is the
    first block's rows, each followed by the second block's entry if any."""

    name: str
    magic: bytes
    fields: dict[str, type]
    blocks_of: Callable

    @property
    def header(self) -> struct.Struct:
        types = "".join("Q" if cast is int else "d" for cast in self.fields.values())
        return struct.Struct(f"<{len(self.magic)}sI{types}")  # "<" adds no padding


_FEATURES = _Kind("features", b"DFEA",
                  {"n_samples": int, "feature_dim": int, "has_labels": int, "n_classes": int},
                  lambda n, d, labeled, _: [((n, d), "<f8")] + [((n,), "<i8")] * bool(labeled))
_RAW = _Kind("raw", b"DRAW", {"n_channels": int, "fs": float, "n_samples": int},
             lambda n_channels, _, n_samples: [((n_channels, n_samples), "<f8")])
_CHECKPOINT = _Kind("checkpoint", b"DDALCKPT",
                    {"input_dim": int, "hidden1": int, "hidden2": int, "n_classes": int},
                    lambda d, h1, h2, c: [(shape, "<f8") for shape in
                                          ((d, h1), (h1,), (h1, h2), (h2,), (h2, c), (c,))])


def _regular_file(path, kind: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{path}: {kind} file not found")
    if not path.is_file():
        raise DataFormatError(f"{path}: not a regular file")
    return path


@contextmanager
def _open(path: Path, kind: _Kind | None = None, mode: str = "r"):
    """``path`` open as bytes for a .bin ``kind`` file or any checkpoint, else
    as UTF-8 text, where a byte that does not decode is an error naming the file;
    text is read past a byte-order mark, if any, and written without one."""
    if kind is not None and (path.suffix == ".bin" or kind is _CHECKPOINT):
        with open(path, mode + "b") as f:
            yield f
        return
    try:
        with open(path, mode, newline="", encoding="utf-8-sig" if mode == "r" else "utf-8") as f:
            yield f
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def naming_file(path, fn, *args):
    """``fn(*args)``, its ValidationError re-raised naming the file ``path``."""
    try:
        return fn(*args)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _write(path, kind: _Kind, fields, arrays) -> None:
    """A ``kind`` file of the header ``fields`` and the body ``arrays``."""
    fields = [cast(value) for cast, value in zip(kind.fields.values(), fields, strict=True)]
    arrays = [np.ascontiguousarray(a, dtype)
              for a, (_, dtype) in zip(arrays, kind.blocks_of(*fields), strict=True)]
    with _open(Path(path), kind, "w") as f:
        if not isinstance(f, io.TextIOBase):
            f.write(kind.header.pack(kind.magic, _BIN_VERSION, *fields))
            f.writelines(block.tobytes() for block in arrays)
            return
        f.write(" ".join([f"# {kind.name}", *(
            f"{key}={value:.17g}" if cast is float else f"{key}={value}"
            for (key, cast), value in zip(kind.fields.items(), fields))]) + "\n")
        matrix, *entries = arrays
        writer = csv.writer(f)
        for i, row in enumerate(matrix):
            writer.writerow([f"{v:.17g}" for v in row] + [str(int(e[i])) for e in entries])


def _read_header(f, path: Path, kind: _Kind):
    """Header fields of an open ``kind`` file and its blocks' (shape, dtype),
    checked so that no block is sized beyond the file: a .bin body must be the
    declared size, and a CSV header that declares more rows than the file
    could hold (at a byte per field) is refused by counting them."""
    if not isinstance(f, io.TextIOBase):
        header = kind.header
        head = f.read(header.size)
        if head[:len(kind.magic)] != kind.magic:
            raise DataFormatError(f"{path}: not a {kind.name} file")
        if len(head) != header.size:
            raise DataFormatError(f"{path}: truncated header")
        _, version, *fields = header.unpack(head)
        if version != _BIN_VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        blocks = kind.blocks_of(*fields)
        declared = 8 * sum(math.prod(shape) for shape, _ in blocks)
        body = path.stat().st_size - header.size
        if body != declared:
            raise DataFormatError(
                f"{path}: header declares {declared} body bytes, file has {body}")
        return fields, blocks
    parts = f.readline().lstrip("#").split()
    if not parts or parts[0] != kind.name:
        raise DataFormatError(f"{path}: expected a '# {kind.name} ...' header line")
    raw = dict(item.partition("=")[::2] for item in parts[1:])
    try:
        fields = [cast(raw[key]) for key, cast in kind.fields.items()]
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed header ({exc})") from exc
    negative = [f"{key}={value}" for (key, cast), value in zip(kind.fields.items(), fields)
                if cast is int and value < 0]
    if negative:
        raise DataFormatError(f"{path}: negative header count {', '.join(negative)}")
    blocks = kind.blocks_of(*fields)
    (n, d), _ = blocks[0]
    labeled = len(blocks) > 1
    if n * (d + labeled) > path.stat().st_size:
        _csv_rows(f, path, n, d, labeled)  # names the first fault of the rows
        raise DataFormatError(f"{path}: header says {n} rows, more than the file holds")
    return fields, blocks


def _read_body(f, path: Path, arrays) -> None:
    """Fill the contiguous ``arrays`` (``_read_header``'s blocks) from the rest
    of the open file; a short .bin read (the file shrank meanwhile) is an error."""
    if isinstance(f, io.TextIOBase):
        _csv_rows(f, path, *arrays[0].shape, len(arrays) > 1, *arrays)
        return
    body = sum(a.nbytes for a in arrays)
    got = sum(f.readinto(a.reshape(-1).view(np.uint8)) for a in arrays)
    if got != body:
        raise DataFormatError(f"{path}: read {got} of {body} body bytes")


def _load(path, kind: _Kind):
    """(path, header fields, body arrays) of one ``kind`` file."""
    path = _regular_file(path, kind.name)
    with _open(path, kind) as f:
        fields, blocks = _read_header(f, path, kind)
        arrays = [np.empty(shape, dtype) for shape, dtype in blocks]
        _read_body(f, path, arrays)
    return path, fields, arrays


def _csv_rows(f, path: Path, n: int, d: int, labeled: bool, matrix=None, labels=None) -> None:
    """Parse the rest of an open CSV file line by line into ``matrix`` [n, d]
    and, if labeled, int ``labels`` [n]; without a matrix only count the rows
    and check their widths. Errors rank the row count (counted to the end),
    then the first wrong width, then the first bad field."""
    width = d + labeled
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


def save_features(path, dataset: FeatureDataset) -> None:
    labeled = dataset.labels is not None
    _write(path, _FEATURES, (dataset.n_samples, dataset.feature_dim, labeled, dataset.n_classes),
           [dataset.features, dataset.labels][:1 + labeled])


def load_features(path) -> FeatureDataset:
    path, fields, (features, *labels) = _load(path, _FEATURES)
    return naming_file(path, FeatureDataset, features, labels[0] if labels else None, fields[3])


def save_raw_recording(path, window: RawWindow) -> None:
    _write(path, _RAW, (window.n_channels, window.fs, window.n_samples), [window.samples])


def load_raw_recording(path) -> RawWindow:
    path, (_, fs, _), (samples,) = _load(path, _RAW)
    return naming_file(path, RawWindow, samples, fs)


def save_checkpoint(params: ModelParams, path) -> None:
    """Flat binary: magic, version, four dims, six float64 arrays row-major."""
    _write(path, _CHECKPOINT,
           (params.input_dim, params.W1.shape[1], params.W2.shape[1], params.n_classes),
           params.arrays())


def load_checkpoint(path) -> ModelParams:
    path, _, arrays = _load(path, _CHECKPOINT)
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
    with _open(path) as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected subject,session,path")
            subject = row[0].strip()
            if not subject or "/" in subject or "\\" in subject:
                # each fold writes history_<subject>.csv
                raise DataFormatError(f"{path}:{lineno}: subject {subject!r} must be a "
                                      f"non-empty name without '/' or '\\'")
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
    """Every session's labeled rows in one matrix: subject by subject, in the
    order each subject first appears, and by ascending session within one.
    ``rows`` maps subject -> session -> its slice of ``data``."""

    data: FeatureDataset
    rows: dict[str, dict[int, slice]]

    def __post_init__(self):
        parts = [part for sessions in self.rows.values() for _, part in sorted(sessions.items())]
        stops = [0] + [part.stop for part in parts]
        tiled = all(part.start == stop < part.stop for part, stop in zip(parts, stops))
        if not (tiled and stops[-1] == self.data.n_samples and self.data.labels is not None):
            raise ValidationError("session rows must tile the labeled data subject by "
                                  "subject, sessions ascending")

    @property
    def subjects(self) -> list[str]:
        return list(self.rows)



def load_dataset(manifest_path) -> SubjectDataset:
    """Every manifest file read straight into one matrix (see SubjectDataset).

    All headers are read and checked first, so the matrix is sized only from
    sizes their files were found to hold; then each file is parsed or read
    into its own rows, with no per-file copy."""
    entries = load_manifest(manifest_path)
    heads = []
    for entry in entries:
        path = _regular_file(entry.path, "features")
        with _open(path, _FEATURES) as f:
            head = n, d, labeled, _ = _read_header(f, path, _FEATURES)[0]
        if not labeled:
            raise DataFormatError(f"{path}: protocol datasets must be labeled")
        if n == 0:
            raise DataFormatError(f"{path}: session file has no rows")
        if heads and d != heads[0][1]:
            raise DataFormatError(f"{path}: feature_dim {d} differs from {heads[0][1]}")
        heads.append(head)
    first = {}
    for entry in entries:
        first.setdefault(entry.subject, len(first))
    total = sum(n for n, *_ in heads)
    features = np.empty((total, heads[0][1]), "<f8")
    labels = np.empty(total, "<i8")
    rows: dict[str, dict[int, slice]] = {}
    start = 0
    for entry, head in sorted(zip(entries, heads),
                              key=lambda pair: (first[pair[0].subject], pair[0].session)):
        n, *_, n_classes = head
        part = slice(start, start + n)
        with _open(entry.path, _FEATURES) as f:
            if _read_header(f, entry.path, _FEATURES)[0] != head:
                raise DataFormatError(f"{entry.path}: file changed while loading")
            _read_body(f, entry.path, [features[part], labels[part]])
        naming_file(entry.path, FeatureDataset, features[part], labels[part], n_classes)
        rows.setdefault(entry.subject, {})[entry.session] = part
        start = part.stop
    n_classes = max(n_classes for *_, n_classes in heads)
    return SubjectDataset(FeatureDataset(features, labels, n_classes), rows)


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
class Fold:
    """One training fold: a labeled source, of which training uses the
    ``source_rows`` (None: every row), and a labeled target, whose features
    training reads and whose labels only evaluation reads."""

    source: FeatureDataset
    target_eval: FeatureDataset
    source_rows: np.ndarray | None = None

    @property
    def target_features(self) -> np.ndarray:
        return self.target_eval.features


def generate_synth_shift(cfg: SynthShiftConfig) -> Fold:
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
    return Fold(FeatureDataset(src_x, src_y, cfg.n_classes),
                FeatureDataset(tgt_x, tgt_y, cfg.n_classes))


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

# TrainConfig's settings but flags, which the variant selects, and n_classes,
# which each command takes from its data
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)
                   if f.default is not MISSING and f.name != "n_classes"}

# every run setting, in config.resolved order, with the dataclasses' defaults;
# sigma "median" is TrainConfig.sigma None and variant "EXP6" is AblationFlags();
# each is a config key and a flag, and a value read from either is cast to the
# type of its default
RUN_DEFAULTS = {
    "preset": "long",
    **_TRAIN_DEFAULTS,
    "sigma": "median",
    "variant": "EXP6",
    "source": "",
    "target": "",
}


def train_config(values: dict) -> TrainConfig:
    """The TrainConfig of a resolved run (``build_run_config``'s table)."""
    scalars = {name: values[name] for name in _TRAIN_DEFAULTS}
    scalars["sigma"] = None if values["sigma"] == "median" else float(values["sigma"])
    return TrainConfig(**scalars, flags=VARIANTS[values["variant"]])


def config_lines(values: dict) -> str:
    """``key = value`` lines, in the table's order, that read_config_file reads."""
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _coerce(key: str, raw) -> object:
    """``raw`` as the type of the key's default; ``sigma`` stays the string
    it was given but must read as 'median' or a number, and a ``source`` or
    ``target`` path is made absolute against the working directory."""
    try:
        value = type(RUN_DEFAULTS[key])(raw)
        if key == "sigma" and value != "median":
            float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"config key {key!r}: cannot parse {raw!r}")
    if key in ("source", "target") and value:
        value = str(Path(value).resolve())
    return value


def read_config_file(path) -> dict:
    """key = value lines; a line whose first non-blank character is '#' is a
    comment, so a value may hold '#'; unknown keys and a key set twice are
    rejected."""
    path = _regular_file(path, "config")
    out, line_of = {}, {}
    with _open(path) as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in RUN_DEFAULTS:
            raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key in line_of:
            raise DataFormatError(
                f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        out[key] = value.strip()
    return out


def build_run_config(file_values: dict | None = None, overrides: dict | None = None) -> dict:
    """The resolved run table, in RUN_DEFAULTS order: defaults, then file
    values, then overrides (the flags), each of the two applying its preset
    before its keys: a key beats its own source's preset, and an override
    preset resets the file's batch_size and epochs. Last, the TrainConfig
    values the variant pins, which win over any given ones."""
    merged = dict(RUN_DEFAULTS)
    given = set()

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
            if key not in RUN_DEFAULTS:
                raise ValidationError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, raw)
            given.add(key)

    if file_values:
        apply(file_values)
    if overrides:
        apply({k: v for k, v in overrides.items() if v is not None})
    variant = merged["variant"]
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    flags = VARIANTS[variant]
    pins = flags.pins
    values = {**merged, **pins}
    train_config(values)  # validate eagerly so errors name the offending key
    clashes = [f"{key} = {pin} (given {merged[key]})" for key, pin in pins.items()
               if key in given and merged[key] != pin]
    if clashes:
        warnings.warn(f"variant {variant} pins {', '.join(clashes)}; "
                      f"the run uses the pinned values", stacklevel=2)
    # the stage ends only move tau, which is 0 at every stage when conf1..3 are
    # pinned to 0, and sigma is only read by an MMD or CMMD head
    no_filter = all(pins.get(f"conf{i}") == 0 for i in (1, 2, 3))
    inert = [f"{key} = {merged[key]}" for key in RUN_DEFAULTS
             if key in given and merged[key] != RUN_DEFAULTS[key]
             and (key.startswith("stage_e") and no_filter
                  or key == "sigma" and not (flags.use_mmd or flags.use_cmmd))]
    if inert:
        warnings.warn(f"variant {variant} does not use {', '.join(inert)}; "
                      f"the given values have no effect", stacklevel=2)
    return values
