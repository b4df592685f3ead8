"""Command-line front end.

Subcommands cover the pipeline end to end: feature extraction from raw
recordings, synthetic task generation, training, evaluation, the
leave-one-subject-out protocols, the EXP1..EXP6 ablation runner, and
embedding dumps. Results go to stdout, diagnostics to stderr. Exit codes:
0 success, 2 usage error, 3 input validation failure, 1 runtime failure.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (
    ACCEPT_SYNTH,
    FeatureDataset,
    build_run_config,
    generate_synth_shift,
    load_checkpoint,
    load_dataset,
    load_features,
    load_raw_recording,
    read_config_file,
    save_checkpoint,
    save_features,
)
from .errors import ValidationError
from .evaluation import (
    dump_embeddings,
    evaluate,
    run_protocol,
    run_synth_protocol,
    save_summary,
)
from .features import DEFAULT_BANDS, BandSpec, RawWindow, build_feature_vector
from .trainer import save_history, train

RUN_OVERRIDE_KEYS = (
    "seed", "batch_size", "epochs", "variant", "preset", "sigma",
    "tau_h", "tau_l", "rho0", "rho1", "conf1", "conf2",
)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run config file (key = value lines)")
    parser.add_argument("--seed", type=int, help="random seed (default 3)")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--variant", choices=[f"EXP{i}" for i in range(1, 7)])
    parser.add_argument("--preset", choices=["long", "short"])
    parser.add_argument("--sigma", help="kernel bandwidth: 'median' or a positive number")
    parser.add_argument("--tau-h", type=float, dest="tau_h")
    parser.add_argument("--tau-l", type=float, dest="tau_l")
    parser.add_argument("--rho0", type=float)
    parser.add_argument("--rho1", type=float)
    parser.add_argument("--conf1", type=float)
    parser.add_argument("--conf2", type=float)


def _resolve_run_config(args):
    file_values = read_config_file(args.config) if args.config else None
    overrides = {k: getattr(args, k, None) for k in RUN_OVERRIDE_KEYS}
    return build_run_config(file_values, overrides)


def _prepare_out(args, run_config) -> Path | None:
    out = getattr(args, "out", None)
    if out is None:
        return None
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(run_config.to_lines())
    return out_dir


def _config_hash(run_config) -> str:
    return hashlib.sha256(run_config.to_lines().encode()).hexdigest()[:16]


def _parse_bands(spec: str | None):
    if spec is None:
        return DEFAULT_BANDS
    bands = []
    for part in spec.split(","):
        name, _, edges = part.partition(":")
        lo, _, hi = edges.partition("-")
        try:
            bands.append(BandSpec(name.strip(), float(lo), float(hi)))
        except ValueError:
            raise ValidationError(f"cannot parse band {part!r}; expected name:lo-hi")
    return bands


def cmd_extract_features(args) -> int:
    recording = load_raw_recording(args.input)
    bands = _parse_bands(args.bands)
    if args.window_seconds is None:
        windows = [recording]
    else:
        step = int(round(args.window_seconds * recording.fs))
        if step < recording.fs:
            raise ValidationError("--window-seconds must cover at least one second")
        if step > recording.n_samples:
            raise ValidationError(
                f"--window-seconds {args.window_seconds:g} is longer than the recording "
                f"({recording.n_samples / recording.fs:g} s)"
            )
        windows = [
            RawWindow(recording.samples[:, start:start + step], recording.fs)
            for start in range(0, recording.n_samples - step + 1, step)
        ]
    rows = [build_feature_vector(w, bands).values for w in windows]
    dataset = FeatureDataset(np.vstack(rows))
    save_features(args.out, dataset)
    print(f"wrote {dataset.n_samples} x {dataset.feature_dim} features to {args.out}")
    return 0


def cmd_synth(args) -> int:
    cfg = replace(
        ACCEPT_SYNTH,
        n_classes=args.classes, dim=args.dim, n_per_class=args.n_per_class,
        class_sep=args.class_sep, domain_shift=args.domain_shift,
        rotation_deg=args.rotation, shift_mix=args.shift_mix,
        noise=args.noise, seed=args.seed,
    )
    task = generate_synth_shift(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_features(out_dir / "source.csv", task.source)
    save_features(out_dir / "target.csv", FeatureDataset(task.target_features))
    save_features(out_dir / "target_eval.csv", task.target_eval)
    lines = "".join(f"{k} = {getattr(cfg, k)}\n" for k in (
        "n_classes", "dim", "n_per_class", "class_sep", "domain_shift",
        "rotation_deg", "shift_mix", "noise", "seed",
    ))
    (out_dir / "config.resolved").write_text(lines)
    print(f"seed: {cfg.seed}")
    print(f"wrote source/target/target_eval under {out_dir}")
    return 0


def _load_training_pair(run_config, args):
    source_path = getattr(args, "source", None) or run_config.values["source"]
    target_path = getattr(args, "target", None) or run_config.values["target"]
    if not source_path or not target_path:
        raise ValidationError("train needs --source and --target (flags or config keys)")
    source = load_features(source_path)
    if source.labels is None:
        raise ValidationError(f"{source_path}: training source must be labeled")
    target = load_features(target_path)
    return source, target.features


def cmd_train(args) -> int:
    run_config = _resolve_run_config(args)
    source, target_features = _load_training_pair(run_config, args)
    cfg = run_config.train_config()
    out_dir = _prepare_out(args, run_config)
    result = train(source.features, source.labels, target_features, cfg)
    print(f"seed: {cfg.seed}")
    last = result.history[-1]
    print(f"steps: {len(result.history)}")
    print(f"final: l_ds={last.l_ds:.6f} l_mmd={last.l_mmd:.6f} l_cmmd={last.l_cmmd:.6f}")
    if out_dir is not None:
        save_checkpoint(result.params, out_dir / "model.ckpt")
        save_history(result.history, out_dir / "history.csv")
        print(f"checkpoint: {out_dir / 'model.ckpt'}")
    return 0


def cmd_evaluate(args) -> int:
    params = load_checkpoint(args.model)
    data = load_features(args.data)
    metrics = evaluate(params, data)
    payload = {"n_samples": data.n_samples, **metrics.to_dict()}
    print(json.dumps(payload, indent=2))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _protocol_name(flag_value: str) -> str:
    return flag_value.replace("-", "_")


def cmd_protocol(args) -> int:
    run_config = _resolve_run_config(args)
    dataset = load_dataset(args.data)
    cfg = run_config.train_config()
    cfg = replace(cfg, n_classes=dataset.n_classes)
    out_dir = _prepare_out(args, run_config)
    summary = run_protocol(
        dataset, _protocol_name(args.protocol), cfg,
        variant=run_config.variant, session=args.session, jobs=args.jobs,
        out_dir=out_dir,
    )
    print(f"seed: {cfg.seed}")
    print(f"{summary.variant} {args.protocol}: "
          f"{100 * summary.mean_accuracy:.2f} +- {100 * summary.std_accuracy:.2f} "
          f"over {len(summary.folds)} folds")
    if out_dir is not None:
        save_summary(summary, out_dir, _config_hash(run_config))
    return 0


def cmd_ablate(args) -> int:
    run_config = _resolve_run_config(args)
    cfg = run_config.train_config()
    out_dir = _prepare_out(args, run_config)
    if args.data == "synth":
        synth_cfg = replace(ACCEPT_SYNTH, seed=cfg.seed if args.seed is not None else ACCEPT_SYNTH.seed)
        summary = run_synth_protocol(
            synth_cfg, cfg, variant=run_config.variant, n_seeds=args.seeds,
            out_dir=out_dir,
        )
    else:
        dataset = load_dataset(args.data)
        cfg = replace(cfg, n_classes=dataset.n_classes)
        summary = run_protocol(
            dataset, _protocol_name(args.protocol), cfg,
            variant=run_config.variant, session=args.session, jobs=args.jobs,
            out_dir=out_dir,
        )
    print(f"seed: {cfg.seed}")
    print(f"{summary.variant}: {100 * summary.mean_accuracy:.2f} "
          f"+- {100 * summary.std_accuracy:.2f} over {len(summary.folds)} folds")
    if out_dir is not None:
        save_summary(summary, out_dir, _config_hash(run_config))
    return 0


def cmd_dump_embeddings(args) -> int:
    params = load_checkpoint(args.model)
    source = load_features(args.source)
    target = load_features(args.target)
    dump_embeddings(params, source, target.features, args.out,
                    target_labels=target.labels)
    print(f"wrote embeddings to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddalign",
        description="Semi-supervised domain adaptation with dynamic distribution alignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-features", help="raw recording -> differential entropy features")
    p.add_argument("--input", required=True, help="raw recording (.csv or .bin)")
    p.add_argument("--out", required=True, help="output feature file (.csv or .bin)")
    p.add_argument("--bands", help="band spec, e.g. delta:1-4,theta:4-8")
    p.add_argument("--window-seconds", type=float, dest="window_seconds",
                   help="slice the recording into windows of this length")
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("synth", help="generate a synthetic domain-shift task")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=ACCEPT_SYNTH.n_classes)
    p.add_argument("--dim", type=int, default=ACCEPT_SYNTH.dim)
    p.add_argument("--n-per-class", type=int, dest="n_per_class",
                   default=ACCEPT_SYNTH.n_per_class)
    p.add_argument("--class-sep", type=float, dest="class_sep", default=ACCEPT_SYNTH.class_sep)
    p.add_argument("--domain-shift", type=float, dest="domain_shift",
                   default=ACCEPT_SYNTH.domain_shift)
    p.add_argument("--rotation", type=float, default=ACCEPT_SYNTH.rotation_deg)
    p.add_argument("--shift-mix", type=float, dest="shift_mix", default=ACCEPT_SYNTH.shift_mix)
    p.add_argument("--noise", type=float, default=ACCEPT_SYNTH.noise)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a labeled source and unlabeled target")
    p.add_argument("--source", help="labeled feature file")
    p.add_argument("--target", help="target feature file (labels ignored)")
    p.add_argument("--out", help="output directory")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled feature file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("protocol", help="leave-one-subject-out cross-validation")
    p.add_argument("--data", required=True, help="manifest CSV")
    p.add_argument("--protocol", choices=["single-session", "cross-session"],
                   default="single-session")
    p.add_argument("--session", type=int, help="session id for single-session runs")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    _add_run_flags(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("ablate", help="run one EXP1..EXP6 variant")
    p.add_argument("--data", required=True, help="'synth' or a manifest CSV")
    p.add_argument("--protocol", choices=["single-session", "cross-session"],
                   default="single-session")
    p.add_argument("--session", type=int)
    p.add_argument("--seeds", type=int, default=5, help="folds for --data synth")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    _add_run_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("dump-embeddings", help="write extractor embeddings as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_embeddings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
