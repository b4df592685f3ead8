"""The benchmark's workloads, their seeded inputs and their correctness checks.

Each workload is a closed loop with one caller: it issues a request, waits for
the reply, checks it, and issues the next. ``setup`` builds the inputs from the
seed (and writes them to files where the workload reads files); ``run_pass``
runs one pass over them and returns its timings. The package is called only
through its public entry points: ``trainer.train``, ``evaluation.run_protocol``
and ``evaluation.evaluate``, ``data.load_dataset`` and ``cli.main``.

Why these three workloads:

- ``synth_exp6`` trains the full method on the calibrated synthetic shift task,
  the run acceptance criterion 5 repeats; the kernel statistics do nearly all
  of its work. Its request is one training run.
- ``loso_exp1_310`` runs the leave-one-subject-out protocol with the bare
  classifier over CSV feature files at the paper's 310-dim input and, after
  each fold, evaluates 128-row held-out batches with the fold's model (the
  request, as in criterion 7); it
  never calls the kernel layer, so it shows no change where only kernels
  change.
- ``extract_de`` runs ``extract-features`` on binary raw recordings (one call
  is the request); it is the only workload for the feature front end and the
  command line.
"""

import contextlib
import hashlib
import io
import math
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ddalign import cli, data, evaluation, features, trainer

clock = time.perf_counter

class Checks:
    """Counts operations attempted and failed, and keeps a verdict per check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict[str, list] = {}   # name -> [passed, total, detail]

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        entry = self.verdicts.setdefault(name, [0, 0, ""])
        entry[1] += 1
        if ok:
            entry[0] += 1
        else:
            self.failed += 1
            entry[2] = detail
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass
class PassResult:
    wall_s: float            # time of the pass's timed requests, checks excluded
    work_s: float            # time of the phase that produced ``items``
    items: int               # units of the workload's ITEMS
    latencies_ms: list[float] = field(default_factory=list)
    accuracy: float = 0.0
    peak_rss_mb: float = 0.0  # process peak so far, read when the pass ended


def params_digest(params) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in params.arrays())).hexdigest()


def next_op(tracer) -> None:
    if tracer is not None:
        tracer.op += 1


def untraced(tracer):
    """Context for checks that call the package: the calls record no span, so
    the layer metrics hold only the program's own work."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


# --- synth_exp6 ---------------------------------------------------------------

# synth_exp6 target rows (of 300) classified correctly on each of its 32
# tasks, measured on the commit that introduced this benchmark
SYNTH_REFERENCE_CORRECT = {
    0: 231, 1: 213, 2: 195, 3: 236, 4: 221, 5: 283, 6: 270, 7: 255, 8: 238,
    9: 235, 10: 225, 11: 201, 12: 221, 13: 248, 14: 235, 15: 279, 16: 234,
    17: 230, 18: 238, 19: 251, 20: 221, 21: 210, 22: 232, 23: 249, 24: 249,
    25: 236, 26: 275, 27: 214, 28: 270, 29: 183, 30: 223, 31: 206,
}
# largest accepted deviation from the reference accuracy: 9 of 300 rows
SYNTH_ACCURACY_TOL = 0.03
SYNTH_TASKS = len(SYNTH_REFERENCE_CORRECT)


@dataclass(frozen=True)
class SynthSize:
    n_per_class: int = data.ACCEPT_SYNTH.n_per_class
    epochs: int = 100


class SynthExp6:
    """EXP6 with default settings on one of 32 calibrated synthetic shift tasks.

    The task index is ``seed % 32``; task and training seeds follow criterion
    5 (generator seed = index, training seed = 3 + index), so every input has
    a recorded reference accuracy. The request is one training run, followed
    by one evaluation of the held-out target.
    """

    ITEMS = "steps"

    def __init__(self, seed: int, workdir: Path, size: SynthSize = SynthSize()):
        self.index = seed % SYNTH_TASKS
        self.size = size
        self.first_digest = None

    def setup(self) -> None:
        task = data.generate_synth_shift(replace(
            data.ACCEPT_SYNTH, seed=self.index, n_per_class=self.size.n_per_class))
        self.task = task
        self.cfg = trainer.TrainConfig(
            seed=3 + self.index, epochs=self.size.epochs, flags=trainer.VARIANTS["EXP6"])
        # warm-up: a one-epoch run and one evaluation load every code path once
        warm = trainer.train(task.source.features, task.source.labels, task.target_features,
                             replace(self.cfg, epochs=1))
        evaluation.evaluate(warm.params, task.target_eval)

    def run_pass(self, checks: Checks, tracer=None) -> PassResult:
        task = self.task
        next_op(tracer)
        t0 = clock()
        result = trainer.train(task.source.features, task.source.labels,
                               task.target_features, self.cfg)
        train_s = clock() - t0
        next_op(tracer)
        t0 = clock()
        accuracy = evaluation.evaluate(result.params, task.target_eval).accuracy
        eval_s = clock() - t0
        checks.op(2)

        n = task.source.n_samples
        steps = self.size.epochs * math.ceil(n / self.cfg.batch_size)
        history = result.history
        checks.check("synth_steps", len(history) == steps, f"{len(history)} != {steps}")
        losses = np.array([(h.l_ds, h.l_mmd, h.l_cmmd) for h in history])
        checks.check("synth_losses_finite", bool(np.isfinite(losses).all()))
        digest = params_digest(result.params)
        if self.first_digest is None:
            self.first_digest = digest
        else:
            checks.check("synth_same_seed_same_params", digest == self.first_digest,
                         f"{digest[:12]} != {self.first_digest[:12]}")
        if self.size == SynthSize():
            ref = SYNTH_REFERENCE_CORRECT[self.index] / task.target_eval.n_samples
            checks.check("synth_accuracy_matches_reference",
                         abs(accuracy - ref) <= SYNTH_ACCURACY_TOL,
                         f"task {self.index}: {accuracy:.4f} vs reference {ref:.4f}")
        return PassResult(wall_s=train_s + eval_s, work_s=train_s, items=len(history),
                          latencies_ms=[1e3 * train_s], accuracy=accuracy)


# --- loso_exp1_310 ------------------------------------------------------------

@dataclass(frozen=True)
class LosoSize:
    subjects: int = 4
    rows: int = 900          # per subject, an equal share per class
    dim: int = 310           # 62 channels x 5 bands, the paper's input
    batch_size: int = data.PRESETS["long"]["batch_size"]
    epochs: int = 60
    eval_calls: int = 4000


# Subjects share the class geometry and differ by a per-subject offset;
# the offset is calibrated so leave-one-subject-out accuracy stays well
# below 100% and the trained classifier has something to get wrong.
LOSO_CLASSES = 3
LOSO_CLASS_SEP = 3.0
LOSO_SUBJECT_SHIFT = 0.5
EVAL_BATCH = 128        # rows per evaluate request, as in criterion 7


class LosoExp1:
    """Single-session LOSO protocol with EXP1 over a manifest of CSV files.

    Training uses the ``long`` preset's batch of 128 for 60 epochs, 1320
    steps per fold: a pass of about 11 s spans the speed swings of a shared
    host instead of landing inside one of them, and two passes fit in a run.
    """

    ITEMS = "steps"

    def __init__(self, seed: int, workdir: Path, size: LosoSize = LosoSize()):
        self.seed = seed
        self.dir = workdir
        self.size = size
        self.first_accuracy = None

    def setup(self) -> None:
        s = self.size
        rng = np.random.default_rng(self.seed)
        basis, _ = np.linalg.qr(rng.normal(size=(s.dim, LOSO_CLASSES)))
        means = LOSO_CLASS_SEP * basis.T
        labels = np.repeat(np.arange(LOSO_CLASSES), s.rows // LOSO_CLASSES)
        self.dir.mkdir(parents=True, exist_ok=True)
        lines = []
        for k in range(s.subjects):
            shift = LOSO_SUBJECT_SHIFT * rng.normal(size=s.dim)
            x = means[labels] + shift + rng.normal(size=(labels.size, s.dim))
            name = f"subject{k}.csv"
            with open(self.dir / name, "w") as f:
                f.write(f"# features n_samples={labels.size} feature_dim={s.dim} "
                        f"has_labels=1 n_classes={LOSO_CLASSES}\n")
                np.savetxt(f, np.column_stack([x, labels]), delimiter=",",
                           fmt=["%.17g"] * s.dim + ["%d"])
            lines.append(f"s{k},1,{name}\n")
        (self.dir / "manifest.csv").write_text("".join(lines))
        self.cfg = trainer.TrainConfig(n_classes=LOSO_CLASSES, seed=self.seed,
                                       batch_size=s.batch_size, epochs=s.epochs)
        self.rng_batches = np.random.default_rng(self.seed + 1)

    def run_pass(self, checks: Checks, tracer=None) -> PassResult:
        s = self.size
        next_op(tracer)
        t0 = clock()
        dataset = data.load_dataset(self.dir / "manifest.csv")
        load_s = clock() - t0
        checks.op()

        # Between folds, the fold's model serves the evaluate requests. Spread
        # over the pass like this, the requests meet the host's slow and fast
        # phases in the same shares as training does, not just the one phase
        # a block at the end of the pass would fall into.
        lat = []
        requests_s = 0.0
        real_evaluate = evaluation.evaluate

        def serve(params, target):
            nonlocal requests_s
            result = real_evaluate(params, target)
            t0 = clock()
            lat.extend(self._evaluate_requests(params, target, real_evaluate, tracer))
            requests_s += clock() - t0
            return result

        next_op(tracer)
        evaluation.evaluate = serve
        try:
            t0 = clock()
            summary = evaluation.run_protocol(dataset, "single_session", self.cfg,
                                              variant="EXP1", jobs=1)
            protocol_s = clock() - t0 - requests_s
        finally:
            evaluation.evaluate = real_evaluate
        checks.op(1 + len(lat))

        steps = [f.history_steps for f in summary.folds]
        per_fold = s.epochs * math.ceil((s.subjects - 1) * s.rows / self.cfg.batch_size)
        checks.check("loso_fold_count", len(summary.folds) == s.subjects,
                     f"{len(summary.folds)} folds for {s.subjects} subjects")
        checks.check("loso_fold_accuracy_in_range",
                     all(0.0 <= a <= 1.0 for a in summary.accuracies))
        checks.check("loso_steps", steps == [per_fold] * s.subjects, f"{steps}")
        checks.check("loso_evaluate_requests", len(lat) == s.eval_calls,
                     f"{len(lat)} != {s.eval_calls}")
        accuracy = summary.mean_accuracy
        if self.first_accuracy is None:
            self.first_accuracy = accuracy
        else:
            checks.check("loso_same_seed_same_accuracy", accuracy == self.first_accuracy,
                         f"{accuracy} != {self.first_accuracy}")
        return PassResult(wall_s=load_s + protocol_s + sum(lat) / 1e3, work_s=protocol_s,
                          items=sum(steps), latencies_ms=lat, accuracy=accuracy)

    def _evaluate_requests(self, params, target, evaluate, tracer) -> list[float]:
        """One fold's share of ``eval_calls`` evaluate requests, cycling over
        eight 128-row batches of its held-out set; per-call milliseconds."""
        requests = []
        for _ in range(8):
            idx = self.rng_batches.choice(target.n_samples, min(EVAL_BATCH, target.n_samples),
                                          replace=False)
            requests.append(data.FeatureDataset(
                target.features[idx], target.labels[idx], target.n_classes))
        lat = []
        for i in range(self.size.eval_calls // self.size.subjects):
            next_op(tracer)
            t0 = clock()
            evaluate(params, requests[i % len(requests)])
            lat.append(1e3 * (clock() - t0))
        return lat


# --- extract_de ---------------------------------------------------------------

@dataclass(frozen=True)
class ExtractSize:
    recordings: int = 10
    seconds: int = 20
    channels: int = 62
    fs: int = 200


DE_TOL = 1e-12       # criterion 4: closed form on the measured band variance
_RAW_HEADER = struct.Struct("<4sIQdQ")
_FEAT_HEADER = struct.Struct("<4sIQQQQ")


def write_raw_bin(path: Path, samples: np.ndarray, fs: float) -> None:
    """A raw recording in the package's ``.bin`` layout (magic DRAW, version 1)."""
    with open(path, "wb") as f:
        f.write(_RAW_HEADER.pack(b"DRAW", 1, samples.shape[0], float(fs), samples.shape[1]))
        f.write(np.ascontiguousarray(samples, dtype="<f8").tobytes())


def read_feature_bin(path: Path) -> np.ndarray:
    """The feature matrix of a ``.bin`` feature file (magic DFEA, version 1)."""
    raw = Path(path).read_bytes()
    magic, version, n, d, _, _ = _FEAT_HEADER.unpack_from(raw)
    if magic != b"DFEA" or version != 1:
        raise ValueError(f"{path}: not a version-1 feature file")
    return np.frombuffer(raw, dtype="<f8", count=n * d, offset=_FEAT_HEADER.size).reshape(n, d)


class ExtractDe:
    """``ddalign extract-features --window-seconds 1`` over binary recordings.

    A pass is one request per recording, under 2 s, so a run holds over ten
    passes and their median passes over the short dips of a shared host.
    """

    ITEMS = "windows"

    def __init__(self, seed: int, workdir: Path, size: ExtractSize = ExtractSize()):
        self.seed = seed
        self.dir = workdir
        self.size = size

    def setup(self) -> None:
        s = self.size
        rng = np.random.default_rng(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        t = np.arange(s.seconds * s.fs) / s.fs
        self.recordings = []
        for k in range(s.recordings):
            # white noise plus three sinusoids per channel across the bands
            freq = rng.uniform(1.0, 50.0, size=(s.channels, 3, 1))
            amp = rng.uniform(0.5, 3.0, size=(s.channels, 3, 1))
            phase = rng.uniform(0.0, 2 * np.pi, size=(s.channels, 3, 1))
            x = rng.normal(size=(s.channels, t.size))
            x += (amp * np.sin(2 * np.pi * freq * t + phase)).sum(axis=1)
            path = self.dir / f"rec{k}.bin"
            write_raw_bin(path, x, s.fs)
            self.recordings.append((path, x))
        self.rng_check = np.random.default_rng(self.seed + 1)
        self._extract(self.recordings[0][0], self.dir / "warmup.bin")

    def _extract(self, src: Path, out: Path) -> int:
        argv = ["extract-features", "--input", str(src), "--out", str(out),
                "--window-seconds", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run_pass(self, checks: Checks, tracer=None) -> PassResult:
        s = self.size
        bands = features.DEFAULT_BANDS
        lat, matched, compared, windows = [], 0, 0, 0
        for k, (path, samples) in enumerate(self.recordings):
            out = self.dir / f"features{k}.bin"
            next_op(tracer)
            t0 = clock()
            code = self._extract(path, out)
            lat.append(clock() - t0)
            checks.op()
            if not checks.check("extract_exit_code", code == 0, f"exit {code}"):
                continue
            feats = read_feature_bin(out)
            checks.check("extract_shape", feats.shape == (s.seconds, s.channels * len(bands)),
                         f"{feats.shape}")
            windows += feats.shape[0]
            w = int(self.rng_check.integers(feats.shape[0]))
            window = features.RawWindow(samples[:, w * s.fs:(w + 1) * s.fs], s.fs)
            with untraced(tracer):
                want = np.array([
                    features.differential_entropy(features.band_variance(window, band, ch))
                    for ch in range(s.channels) for band in bands
                ])
            ok = np.abs(feats[w] - want) <= DE_TOL
            matched += int(ok.sum())
            compared += ok.size
            checks.check("extract_closed_form", bool(ok.all()),
                         f"recording {k} window {w}: max diff {np.abs(feats[w] - want).max():.2e}")
        wall = sum(lat)
        return PassResult(wall_s=wall, work_s=wall, items=windows,
                          latencies_ms=[1e3 * t for t in lat],
                          accuracy=matched / compared if compared else 0.0)


WORKLOADS = {
    "synth_exp6": SynthExp6,
    "loso_exp1_310": LosoExp1,
    "extract_de": ExtractDe,
}
