"""Evaluation protocols: leave-one-subject-out splits, metrics, the ablation
runner over EXP1..EXP6, and embedding dumps for external projection tools.

Folds are independent; ``run_protocol`` optionally fans them out over worker
processes and gathers results in subject order either way. Per-fold seeds are
the run seed plus the subject index, so a summary is reproducible fold by
fold.
"""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import FeatureDataset, SubjectDataset, SynthShiftConfig, generate_synth_shift
from .errors import ValidationError
from .net import ModelParams, forward_features, forward_logits
from .trainer import VARIANTS, TrainConfig, TrainResult, save_history, train

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
    dataset: SubjectDataset,
    held_out_subject: str,
    protocol: str = PROTOCOL_SINGLE,
    session: int | None = None,
) -> tuple[FeatureDataset, FeatureDataset]:
    """(pooled labeled source, held-out target) for one fold.

    single_session uses one session per subject on both sides (the lowest
    session id unless given); cross_session pools every session of the
    remaining subjects against all sessions of the held-out subject.
    """
    if held_out_subject not in dataset.sessions:
        raise ValidationError(f"unknown subject {held_out_subject!r}")
    if protocol not in (PROTOCOL_SINGLE, PROTOCOL_CROSS):
        raise ValidationError(f"unknown protocol {protocol!r}")

    def sessions_for(subject: str) -> list[FeatureDataset]:
        available = dataset.sessions[subject]
        if protocol == PROTOCOL_CROSS:
            return [available[k] for k in sorted(available)]
        sid = min(available) if session is None else session
        if sid not in available:
            raise ValidationError(f"subject {subject!r} has no session {sid}")
        return [available[sid]]

    def pool(parts: list[FeatureDataset]) -> FeatureDataset:
        feats = np.vstack([p.features for p in parts])
        labels = np.concatenate([p.labels for p in parts])
        return FeatureDataset(feats, labels, dataset.n_classes)

    target = pool(sessions_for(held_out_subject))
    source_parts = [
        ds for subject in dataset.subjects if subject != held_out_subject
        for ds in sessions_for(subject)
    ]
    if not source_parts:
        raise ValidationError("no source subjects left after holding out")
    return pool(source_parts), target


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


def train_and_evaluate(
    src: FeatureDataset, tgt_features: np.ndarray, tgt_eval: FeatureDataset,
    cfg: TrainConfig,
) -> tuple[TrainResult, Metrics]:
    result = train(src.features, src.labels, tgt_features, cfg)
    return result, evaluate(result.params, tgt_eval)


def _run_fold(args) -> tuple[str, Metrics, int]:
    subject, dataset, protocol, session, cfg, fold_seed, out_dir = args
    src, tgt = loso_split(dataset, subject, protocol, session)
    fold_cfg = replace(cfg, seed=fold_seed)
    result, metrics = train_and_evaluate(src, tgt.features, tgt, fold_cfg)
    if out_dir is not None:
        save_history(result.history, Path(out_dir) / f"history_{subject}.csv")
    return subject, metrics, len(result.history)


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
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    cfg = replace(cfg, flags=VARIANTS[variant])
    subjects = dataset.subjects
    if len(subjects) < 2:
        raise ValidationError("protocol needs at least 2 subjects")
    tasks = [
        (subject, dataset, protocol, session, cfg, cfg.seed + idx, out_dir)
        for idx, subject in enumerate(subjects)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_run_fold, tasks))
    else:
        raw = [_run_fold(t) for t in tasks]
    folds = [FoldResult(subject=s, metrics=m, history_steps=n) for s, m, n in raw]
    return ProtocolSummary(variant=variant, protocol=protocol, folds=folds)


def run_synth_protocol(
    synth_cfg: SynthShiftConfig,
    cfg: TrainConfig,
    variant: str = "EXP6",
    n_seeds: int = 5,
    out_dir=None,
) -> ProtocolSummary:
    """Ablation runs on generated shift tasks, one fold per generator seed."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    cfg = replace(cfg, flags=VARIANTS[variant], n_classes=synth_cfg.n_classes)
    folds = []
    for idx in range(n_seeds):
        task = generate_synth_shift(replace(synth_cfg, seed=synth_cfg.seed + idx))
        fold_cfg = replace(cfg, seed=cfg.seed + idx)
        result, metrics = train_and_evaluate(
            task.source, task.target_features, task.target_eval, fold_cfg
        )
        if out_dir is not None:
            save_history(result.history, Path(out_dir) / f"history_seed{idx}.csv")
        folds.append(FoldResult(subject=f"seed{idx}", metrics=metrics,
                                history_steps=len(result.history)))
    return ProtocolSummary(variant=variant, protocol="synthetic", folds=folds)


def dump_embeddings(
    params: ModelParams,
    source: FeatureDataset,
    target_features: np.ndarray,
    path,
    target_labels: np.ndarray | None = None,
) -> None:
    """CSV of 64-dim embeddings with domain (0 source, 1 target) and label columns.

    Unknown target labels are written as -1.
    """
    h_src, _ = forward_features(source.features, params)
    h_tgt, _ = forward_features(np.asarray(target_features, dtype=np.float64), params)
    dim = h_src.shape[1]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"e{i}" for i in range(dim)] + ["domain", "label"])
        src_labels = source.labels if source.labels is not None else -np.ones(len(h_src))
        for row, label in zip(h_src, src_labels):
            writer.writerow([f"{v:.17g}" for v in row] + [0, int(label)])
        if target_labels is None:
            target_labels = -np.ones(len(h_tgt))
        for row, label in zip(h_tgt, target_labels):
            writer.writerow([f"{v:.17g}" for v in row] + [1, int(label)])


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
