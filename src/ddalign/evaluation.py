"""Evaluation protocols: leave-one-subject-out splits, metrics, the ablation
runner over EXP1..EXP6, and embedding dumps for external projection tools.

Both protocols, leave-one-subject-out and the generated shift tasks, run one
fold loop. Folds are independent; it optionally fans them out over worker
processes and gathers results in fold order either way. Per-fold seeds are
the run seed plus the fold index, so a summary is reproducible fold by fold.
"""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import FeatureDataset, Fold, SubjectDataset, SynthShiftConfig, generate_synth_shift
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


def _check_protocol(dataset: SubjectDataset, protocol: str, session: int | None) -> None:
    if protocol not in (PROTOCOL_SINGLE, PROTOCOL_CROSS):
        raise ValidationError(f"unknown protocol {protocol!r}")
    if protocol == PROTOCOL_CROSS and session is not None:
        raise ValidationError("a session applies to single-session, not cross-session")
    for subject, sessions in dataset.rows.items():
        if session is not None and session not in sessions:
            raise ValidationError(f"subject {subject!r} has no session {session}")


def loso_split(
    dataset: SubjectDataset,
    held_out_subject: str,
    protocol: str = PROTOCOL_SINGLE,
    session: int | None = None,
) -> Fold:
    """The fold holding out one subject, with no copy of the features.

    Its source is ``dataset.data`` and its ``source_rows`` an int64 index
    into it: the remaining subjects' rows in dataset order, each subject's
    sessions ascending, which ``train`` takes as ``src_rows``. Its target is
    a FeatureDataset viewing the held-out subject's rows, which are
    contiguous in either protocol.
    single_session uses one session per subject on both sides (the lowest
    session id unless given); cross_session pools every session of the
    remaining subjects against all sessions of the held-out subject.
    """
    if held_out_subject not in dataset.rows:
        raise ValidationError(f"unknown subject {held_out_subject!r}")
    _check_protocol(dataset, protocol, session)

    def sessions_for(subject: str) -> list[slice]:
        available = dataset.rows[subject]
        if protocol == PROTOCOL_CROSS:
            return [available[k] for k in sorted(available)]
        return [available[min(available) if session is None else session]]

    held = sessions_for(held_out_subject)
    target = slice(held[0].start, held[-1].stop)
    source_parts = [
        np.arange(part.start, part.stop) for subject in dataset.subjects
        if subject != held_out_subject for part in sessions_for(subject)
    ]
    if not source_parts:
        raise ValidationError("no source subjects left after holding out")
    data = dataset.data
    return Fold(data, FeatureDataset(data.features[target], data.labels[target], data.n_classes),
                np.concatenate(source_parts))


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
    """Train and score one fold."""
    name, fold, cfg, out_dir = args
    result = train(fold.source.features, fold.source.labels, fold.target_features,
                   replace(cfg, n_classes=fold.source.n_classes), fold.source_rows)
    metrics = evaluate(result.params, fold.target_eval)
    if out_dir is not None:
        save_history(result.history, Path(out_dir) / f"history_{name}.csv")
    return FoldResult(subject=name, metrics=metrics, history_steps=len(result.history))


def _run_folds(folds, cfg: TrainConfig, variant: str, jobs: int, out_dir) -> list[FoldResult]:
    """Train and score one model per (name, Fold) pair, fold k with seed
    cfg.seed + k, in min(jobs, folds) worker processes when that is above 1.
    A fold's warnings go where its process shows them: to the caller with one
    process, else to the worker's stderr."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    if not folds:
        raise ValidationError("protocol needs at least one fold")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    cfg = replace(cfg, flags=VARIANTS[variant])
    tasks = [(name, fold, replace(cfg, seed=cfg.seed + k), out_dir)
             for k, (name, fold) in enumerate(folds)]
    workers = min(jobs, len(tasks))  # a pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_fold, tasks))
    return [_run_fold(t) for t in tasks]


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
    if len(dataset.subjects) < 2:
        raise ValidationError("protocol needs at least 2 subjects")
    folds = [(subject, loso_split(dataset, subject, protocol, session))
             for subject in dataset.subjects]
    return ProtocolSummary(variant=variant, protocol=protocol,
                           folds=_run_folds(folds, cfg, variant, jobs, out_dir))


def run_synth_protocol(
    synth_cfg: SynthShiftConfig,
    cfg: TrainConfig,
    variant: str = "EXP6",
    n_seeds: int = 5,
    jobs: int = 1,
    out_dir=None,
) -> ProtocolSummary:
    """Ablation runs on generated shift tasks, one fold per generator seed."""
    folds = [(f"seed{k}", generate_synth_shift(replace(synth_cfg, seed=synth_cfg.seed + k)))
             for k in range(n_seeds)]
    return ProtocolSummary(variant=variant, protocol="synthetic",
                           folds=_run_folds(folds, cfg, variant, jobs, out_dir))


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
