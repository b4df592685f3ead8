"""Command-line front end.

Subcommands cover the pipeline end to end: feature extraction from raw
recordings, synthetic task generation, training, evaluation, the
leave-one-subject-out protocols, the EXP1..EXP6 ablation runner, and
embedding dumps. Results go to stdout, diagnostics to stderr. Exit codes:
0 success, 2 usage error, 3 input validation failure, 1 runtime failure.
"""

import argparse
import functools
import hashlib
import json
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

from .data import (
    ACCEPT_SYNTH,
    PRESETS,
    RUN_DEFAULTS,
    FeatureDataset,
    SynthShiftConfig,
    build_run_config,
    config_lines,
    generate_synth_shift,
    load_checkpoint,
    load_dataset,
    load_features,
    load_raw_recording,
    naming_file,
    read_config_file,
    save_checkpoint,
    save_features,
    train_config,
)
from .errors import ValidationError
from .evaluation import (
    dump_embeddings,
    evaluate,
    loso_split,
    run_folds,
    run_synth_protocol,
    save_summary,
)
from .features import DEFAULT_BANDS, VARIANCE_FLOOR, BandSpec, build_feature_matrix
from .trainer import VARIANTS, TrainConfig, save_history, train


_RUN_CHOICES = {"preset": list(PRESETS), "variant": list(VARIANTS)}
_RUN_HELP = {"source": "labeled feature file", "target": "target feature file (labels ignored)",
             "sigma": "kernel bandwidth: 'median' (default) or a positive number"}


def _add_run_flags(parser: argparse.ArgumentParser, skip=()) -> None:
    """--config and one flag per run key but ``skip``, typed as its default."""
    parser.add_argument("--config", help="run config file (key = value lines)")
    for key, default in RUN_DEFAULTS.items():
        if key not in skip:
            parser.add_argument("--" + key.replace("_", "-"), type=type(default),
                                choices=_RUN_CHOICES.get(key),
                                help=_RUN_HELP.get(key, f"default {default}"))


def _resolve_run_config(args):
    file_values = read_config_file(args.config) if args.config else None
    overrides = {k: v for k, v in vars(args).items() if k in RUN_DEFAULTS}
    return build_run_config(file_values, overrides)


def _check_out(out, is_file: bool) -> None:
    """Refuse an --out that cannot be written, before any input is read.

    A directory --out is made with its parents, so its nearest existing path
    must be a directory. A file --out must not be a directory, and the
    directory it goes in must exist.
    """
    path = Path(out)
    if is_file:
        if path.is_dir():
            raise ValidationError(f"--out {out} is a directory, not a file")
        nearest = path.parent
    else:
        nearest = path
        while not nearest.exists() and nearest != nearest.parent:
            nearest = nearest.parent
    if not nearest.is_dir():
        raise ValidationError(f"--out {out}: {nearest} is not a directory")


def _prepare_out(args, values: dict) -> Path | None:
    """The output directory with config.resolved; called once the run succeeded."""
    out = getattr(args, "out", None)
    if out is None:
        return None
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(config_lines(values))
    return out_dir


def _config_hash(values: dict) -> str:
    return hashlib.sha256(config_lines(values).encode()).hexdigest()[:16]


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
    values, floored = build_feature_matrix(recording, args.window_seconds,
                                            _parse_bands(args.bands))
    if floored:
        warnings.warn(
            f"{len(floored)} (window, channel, band) values fell below the variance floor "
            f"{VARIANCE_FLOOR:g} and were clamped; first affected channel: "
            f"{min(ch for _, ch, _ in floored)}",
            stacklevel=2,
        )
    dataset = FeatureDataset(values)
    save_features(args.out, dataset)
    print(f"wrote {dataset.n_samples} x {dataset.feature_dim} features to {args.out}")
    return 0


# synth flags named otherwise than the SynthShiftConfig field they set
_SYNTH_FLAG_NAMES = {"n_classes": "classes", "rotation_deg": "rotation"}


def cmd_synth(args) -> int:
    cfg = replace(ACCEPT_SYNTH,
                  **{f.name: getattr(args, f.name) for f in fields(SynthShiftConfig)})
    task = generate_synth_shift(cfg)
    out_dir = _prepare_out(args, asdict(cfg))
    save_features(out_dir / "source.csv", task.source)
    save_features(out_dir / "target.csv", FeatureDataset(task.target_features))
    save_features(out_dir / "target_eval.csv", task.target_eval)
    print(f"seed: {cfg.seed}")
    print(f"wrote source/target/target_eval under {out_dir}")
    return 0


def _load_training_pair(values: dict):
    source_path, target_path = values["source"], values["target"]
    if not source_path or not target_path:
        raise ValidationError("train needs --source and --target (flags or config keys)")
    source = load_features(source_path)
    if source.labels is None:
        raise ValidationError(f"{source_path}: training source must be labeled")
    target = load_features(target_path)
    if target.feature_dim != source.feature_dim:
        raise ValidationError(f"{target_path}: source and target feature dimensions differ")
    for path, ds in ((source_path, source), (target_path, target)):
        if ds.n_samples == 0:
            raise ValidationError(f"{path}: training needs at least one row")
    return source, target.features


def cmd_train(args) -> int:
    values = _resolve_run_config(args)
    source, target_features = _load_training_pair(values)
    # the model has as many classes as the source header names
    cfg = replace(train_config(values), n_classes=source.n_classes)
    result = train(source.features, source.labels, target_features, cfg)
    print(f"seed: {cfg.seed}")
    last = result.history[-1]
    print(f"steps: {len(result.history)}")
    print(f"final: l_ds={last.l_ds:.6f} l_mmd={last.l_mmd:.6f} l_cmmd={last.l_cmmd:.6f}")
    out_dir = _prepare_out(args, values)
    if out_dir is not None:
        save_checkpoint(result.params, out_dir / "model.ckpt")
        save_history(result.history, out_dir / "history.csv")
        print(f"checkpoint: {out_dir / 'model.ckpt'}")
    return 0


def cmd_evaluate(args) -> int:
    params = load_checkpoint(args.model)
    data = load_features(args.data)
    metrics = naming_file(args.data, evaluate, params, data)
    payload = {"n_samples": data.n_samples, **metrics.to_dict()}
    print(json.dumps(payload, indent=2))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _run_folds_command(args) -> int:
    """``protocol`` and ``ablate``: one fold per held-out subject of a manifest,
    or per generated ACCEPT_SYNTH task with ``--data synth``."""
    values = _resolve_run_config(args)
    if values["source"] or values["target"]:
        raise ValidationError("source and target apply to train; protocol and ablate "
                              "read --data")
    if args.data == "synth":
        if args.protocol is not None or args.session is not None:
            raise ValidationError("--protocol and --session apply to a manifest, not --data synth")
        # the tasks are always generator seeds 0..n-1; --seed moves only training
        n_seeds = 5 if args.seeds is None else args.seeds
        summary = run_synth_protocol(ACCEPT_SYNTH, train_config(values),
                                     variant=values["variant"], n_seeds=n_seeds,
                                     jobs=args.jobs, out_dir=args.out)
    else:
        if args.seeds is not None:
            raise ValidationError("--seeds applies to --data synth, not a manifest")
        protocol = (args.protocol or "single-session").replace("-", "_")
        # no name holds the loaded manifest, so it is freed once the split is
        # built and the run keeps only the rows its folds read; run_protocol's
        # dataset argument would stay alive until every fold had trained
        folds = loso_split(load_dataset(args.data), protocol, args.session)
        summary = run_folds(folds, protocol, train_config(values), values["variant"],
                            args.jobs, args.out)
    print(f"seed: {values['seed']}")
    print(f"{summary.variant} {summary.protocol.replace('_', '-')}: "
          f"{100 * summary.mean_accuracy:.2f} +- {100 * summary.std_accuracy:.2f} "
          f"over {len(summary.folds)} folds")
    out_dir = _prepare_out(args, values)
    if out_dir is not None:
        save_summary(summary, out_dir, _config_hash(values))
    return 0


def cmd_dump_embeddings(args) -> int:
    params = load_checkpoint(args.model)
    paths = (args.source, args.target)
    sides = [load_features(path) for path in paths]
    for path, ds in zip(paths, sides):
        if ds.feature_dim != params.input_dim:
            raise ValidationError(f"{path}: model expects {params.input_dim} features, "
                                  f"data has {ds.feature_dim}")
    dump_embeddings(params, *sides, args.out)
    print(f"wrote embeddings to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parse_args keeps no state."""
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
    # one flag per generator field, defaulting to ACCEPT_SYNTH's value but for
    # the seed, which defaults to the run seed as in every command
    for f in fields(SynthShiftConfig):
        name = _SYNTH_FLAG_NAMES.get(f.name, f.name)
        p.add_argument("--" + name.replace("_", "-"), dest=f.name, metavar=name.upper(),
                       type=type(f.default), default=getattr(ACCEPT_SYNTH, f.name))
    p.set_defaults(func=cmd_synth, seed=TrainConfig.seed)

    p = sub.add_parser("train", help="train on a labeled source and unlabeled target")
    p.add_argument("--out", help="output directory")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a labeled feature file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", aliases=["protocol"],
                       help="leave-one-subject-out folds of one EXP1..EXP6 variant")
    p.add_argument("--data", required=True, help="'synth' or a manifest CSV")
    p.add_argument("--protocol", choices=["single-session", "cross-session"],
                   help="manifest only (default single-session)")
    p.add_argument("--session", type=int, help="manifest only")
    p.add_argument("--seeds", type=int, help="folds for --data synth (default 5)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    _add_run_flags(p, skip=("source", "target"))
    p.set_defaults(func=_run_folds_command)

    p = sub.add_parser("dump-embeddings", help="write extractor embeddings as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_embeddings)

    return parser


# commands whose --out names one file; every other --out is a directory
_FILE_OUT = (cmd_extract_features, cmd_dump_embeddings)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a shown warning reads like an error line; library callers keep Python's format
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        if args.out is not None:
            _check_out(args.out, args.func in _FILE_OUT)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
