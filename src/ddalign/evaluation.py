"""Evaluation protocols: leave-one-subject-out splits, metrics, the ablation
runner over EXP1..EXP6, and embedding dumps for external projection tools.

Both protocols, leave-one-subject-out and the generated shift tasks, run one
fold loop over (name, labeled matrix, source row index, held-out row slice)
folds. It optionally fans them out over worker processes and gathers results
in fold order; fold k trains with the run seed plus k, so runs are repeatable.
"""

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import FeatureDataset, SubjectDataset, SynthShiftConfig, generate_synth_shift
from .errors import ValidationError
from .net import ModelParams, forward_features, forward_logits
from .trainer import VARIANTS, TrainConfig, save_history, train

PROTOCOL_SINGLE = "single_session"
PROTOCOL_CROSS = "cross_session"


@dataclass
class Metrics:
    """Accuracy, confusion counts (rows = true, cols = predicted), per-class recall."""

    accuracy: float
    confusion: np.ndarray
    per_class_recall: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "per_class_recall": self.per_class_recall.tolist(),
        }


@dataclass
class FoldResult:
    subject: str
    metrics: Metrics
    history_steps: int


@dataclass
class ProtocolSummary:
    variant: str
    protocol: str
    folds: list[FoldResult]

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([f.metrics.accuracy for f in self.folds])

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std_accuracy(self) -> float:
        # population (N-denominator) spread, matching mean+-std reporting
        return float(self.accuracies.std())

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "protocol": self.protocol,
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "folds": [
                {"subject": f.subject, **f.metrics.to_dict()} for f in self.folds
            ],
        }


def loso_split(
    dataset: SubjectDataset, protocol: str = PROTOCOL_SINGLE, session: int | None = None
) -> list[tuple]:
    """One leave-one-subject-out fold per subject, ``(subject, matrix,
    source_rows, target_rows)``, all over one labeled matrix of the rows the
    protocol reads: ``dataset.data`` itself when that is every row, else one
    copy of them in the same order. single_session reads one session per
    subject (the lowest session id unless given), cross_session every session.
    Each subject's rows are one block of the matrix; its fold holds the block
    out as a slice and trains on every other row, in order, through an int64
    index that ``train`` takes as ``src_rows``."""
    if protocol not in (PROTOCOL_SINGLE, PROTOCOL_CROSS):
        raise ValidationError(f"unknown protocol {protocol!r}")
    if protocol == PROTOCOL_CROSS and session is not None:
        raise ValidationError("a session applies to single-session, not cross-session")
    if len(dataset.subjects) < 2:
        raise ValidationError("protocol needs at least 2 subjects")
    parts = {}
    for subject, sessions in dataset.rows.items():
        if session is not None and session not in sessions:
            raise ValidationError(f"subject {subject!r} has no session {session}")
        ids = sorted(sessions) if protocol == PROTOCOL_CROSS else [
            min(sessions) if session is None else session]
        parts[subject] = [sessions[k] for k in ids]
    sizes = [sum(part.stop - part.start for part in ps) for ps in parts.values()]
    chosen = [part for ps in parts.values() for part in ps]
    matrix = data = dataset.data
    if sum(sizes) < data.n_samples:
        matrix = FeatureDataset(np.concatenate([data.features[part] for part in chosen]),
                                np.concatenate([data.labels[part] for part in chosen]),
                                data.n_classes)
    folds, stop = [], 0
    for subject, size in zip(parts, sizes):
        start, stop = stop, stop + size
        source = np.concatenate([np.arange(start), np.arange(stop, matrix.n_samples)])
        folds.append((subject, matrix, source, slice(start, stop)))
    return folds


def evaluate(params: ModelParams, target: FeatureDataset) -> Metrics:
    """Eval-mode forward, argmax prediction, accuracy plus confusion matrix."""
    if target.labels is None:
        raise ValidationError("evaluation needs a labeled dataset")
    if target.n_samples == 0:
        raise ValidationError("evaluation needs at least one row")
    if target.feature_dim != params.input_dim:
        raise ValidationError(
            f"model expects {params.input_dim} features, data has {target.feature_dim}"
        )
    C = params.n_classes
    if target.labels.size and target.labels.max() >= C:
        raise ValidationError(f"label outside [0, {C})")
    h, _ = forward_features(target.features, params)
    pred = forward_logits(h, params).argmax(axis=1)
    confusion = np.zeros((C, C), dtype=np.int64)
    np.add.at(confusion, (target.labels, pred), 1)
    totals = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        recall = np.where(totals > 0, np.diag(confusion) / totals, 0.0)
    return Metrics(
        accuracy=float(np.trace(confusion) / confusion.sum()),
        confusion=confusion,
        per_class_recall=recall,
    )


def _run_fold(args) -> FoldResult:
    """Train on one fold's source rows and score its held-out rows."""
    name, data, source_rows, target_rows, cfg, out_dir = args
    target = FeatureDataset(data.features[target_rows], data.labels[target_rows], data.n_classes)
    result = train(data.features, data.labels, target.features,
                   replace(cfg, n_classes=data.n_classes), source_rows)
    metrics = evaluate(result.params, target)
    if out_dir is not None:
        save_history(result.history, Path(out_dir) / f"history_{name}.csv")
    return FoldResult(subject=name, metrics=metrics, history_steps=len(result.history))


def run_folds(
    folds, protocol: str, cfg: TrainConfig, variant: str, jobs: int, out_dir
) -> ProtocolSummary:
    """Train and score one model per fold, fold k with seed cfg.seed + k, into
    a summary under the ``protocol`` name. Above one job, each worker process
    gets one run of ceil(folds / jobs) consecutive folds, pickled together so
    that a matrix they share is sent once. A fold's warnings go to the caller
    with one process, else to the worker's stderr."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    if not folds:
        raise ValidationError("protocol needs at least one fold")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    cfg = replace(cfg, flags=VARIANTS[variant])
    tasks = [(*fold, replace(cfg, seed=cfg.seed + k), out_dir) for k, fold in enumerate(folds)]
    chunk = math.ceil(len(tasks) / jobs)
    workers = math.ceil(len(tasks) / chunk)  # a pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_fold, tasks, chunksize=chunk))
    else:
        results = [_run_fold(t) for t in tasks]
    return ProtocolSummary(variant=variant, protocol=protocol, folds=results)


def run_protocol(
    dataset: SubjectDataset,
    protocol: str,
    cfg: TrainConfig,
    variant: str = "EXP6",
    session: int | None = None,
    jobs: int = 1,
    out_dir=None,
) -> ProtocolSummary:
    """Train one model per held-out subject and aggregate mean and spread."""
    return run_folds(loso_split(dataset, protocol, session), protocol, cfg, variant, jobs,
                     out_dir)


def run_synth_protocol(
    synth_cfg: SynthShiftConfig,
    cfg: TrainConfig,
    variant: str = "EXP6",
    n_seeds: int = 5,
    jobs: int = 1,
    out_dir=None,
) -> ProtocolSummary:
    """One fold per generator seed, its task's source rows stacked over its target's."""
    folds = []
    for k in range(n_seeds):
        task = generate_synth_shift(replace(synth_cfg, seed=synth_cfg.seed + k))
        n, tgt = task.source.n_samples, task.target_eval
        data = FeatureDataset(np.vstack([task.source.features, tgt.features]),
                              np.concatenate([task.source.labels, tgt.labels]), tgt.n_classes)
        folds.append((f"seed{k}", data, np.arange(n), slice(n, 2 * n)))
    return run_folds(folds, "synthetic", cfg, variant, jobs, out_dir)


def dump_embeddings(
    params: ModelParams, source: FeatureDataset, target: FeatureDataset, path
) -> None:
    """CSV of extractor embeddings with domain (0 source, 1 target) and label columns.

    Unknown labels are written as -1.
    """
    # both passes run before the file opens, so a failing one leaves no file
    embedded = [forward_features(ds.features, params)[0] for ds in (source, target)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"e{i}" for i in range(embedded[0].shape[1])] + ["domain", "label"])
        for domain, (ds, h) in enumerate(zip((source, target), embedded)):
            labels = ds.labels if ds.labels is not None else np.full(len(h), -1)
            for row, label in zip(h, labels):
                writer.writerow([f"{v:.17g}" for v in row] + [domain, int(label)])


def save_summary(summary: ProtocolSummary, out_dir, config_hash: str = "") -> None:
    """summary.json with everything; summary.csv with one row per fold."""
    out_dir = Path(out_dir)
    payload = summary.to_dict()
    payload["config_hash"] = config_hash
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")
    with open(out_dir / "summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["variant", "subject", "accuracy"])
        for fold in summary.folds:
            writer.writerow([summary.variant, fold.subject, f"{fold.metrics.accuracy:.6f}"])
        writer.writerow([summary.variant, "mean", f"{summary.mean_accuracy:.6f}"])
        writer.writerow([summary.variant, "std", f"{summary.std_accuracy:.6f}"])
