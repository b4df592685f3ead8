"""Same-numbers check: trained parameters against a committed golden file.

``golden_params.json`` holds, for EXP1..EXP6 x seeds 0 and 1 x 12 epochs on
ACCEPT_SYNTH plus one short EXP1 run at 310 dims and one EXP6 run at the fixed
bandwidth sigma = 2, the sha256 of the trained parameter bytes, each array's
sum at 17 significant digits, the final accuracy on the task's target_eval and
the source loss l_ds at the first and the last step. The accuracy is compared
exactly and the sums and losses everywhere within SUM_RTOL; the sha256 only
where numpy, the BLAS and a probe of the float kernels training uses (GEMM,
exp, sums) give the same bytes as where the file was made, since another BLAS
or SIMD path rounds differently.

Regenerate (only when outputs are meant to change):

    PYTHONPATH=src python tests/test_golden_params.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddalign.data import ACCEPT_SYNTH, generate_synth_shift
from ddalign.evaluation import evaluate
from ddalign.trainer import VARIANTS, TrainConfig, train

GOLDEN = Path(__file__).with_name("golden_params.json")
FIELDS = ("W1", "b1", "W2", "b2", "Wc", "bc")
# relative to the array's absolute sum: nudging every input by a relative
# 1e-11 moved no sum by more than 5e-13 of it, so rounding differences between
# BLAS builds stay far below this while any change of the method does not
SUM_RTOL = 1e-9


def runs():
    """(name, synthetic task, config) per run."""
    for seed in (0, 1):
        task = generate_synth_shift(replace(ACCEPT_SYNTH, seed=seed))
        for variant in VARIANTS:
            yield (f"{variant}-seed{seed}", task,
                   TrainConfig(seed=seed, epochs=12, flags=VARIANTS[variant]))
    yield ("EXP1-310d", generate_synth_shift(replace(ACCEPT_SYNTH, dim=310)),
           TrainConfig(seed=0, epochs=4, flags=VARIANTS["EXP1"]))
    yield ("EXP6-seed0-sigma2", generate_synth_shift(replace(ACCEPT_SYNTH, seed=0)),
           TrainConfig(seed=0, epochs=12, sigma=2.0))


def record(task, cfg) -> dict:
    result = train(task.source.features, task.source.labels, task.target_features, cfg)
    arrays = result.params.arrays()
    return {
        "target_accuracy": evaluate(result.params, task.target_eval).accuracy,
        "l_ds_first": f"{result.history[0].l_ds:.17g}",
        "l_ds_last": f"{result.history[-1].l_ds:.17g}",
        "sha256": hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest(),
        "sums": {f: f"{a.sum():.17g}" for f, a in zip(FIELDS, arrays)},
        "abs_sums": {f: f"{np.abs(a).sum():.17g}" for f, a in zip(FIELDS, arrays)},
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(128, 310)), rng.normal(size=(310, 64))
    probe = [a @ b, a.T @ (a @ b), np.exp(-np.square(a)), a.sum(axis=0), a.sum()]
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "probe_sha256": hashlib.sha256(b"".join(np.asarray(p).tobytes()
                                                for p in probe)).hexdigest(),
    }


def compute() -> dict:
    return {name: record(task, cfg) for name, task, cfg in runs()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    return compute()


def test_runs_match_golden_names(golden, current):
    assert sorted(current) == sorted(golden["runs"])


def test_sums_match_golden(golden, current):
    for name, rec in golden["runs"].items():
        for f in FIELDS:
            got = float(current[name]["sums"][f])
            want = float(rec["sums"][f])
            scale = float(rec["abs_sums"][f])
            assert abs(got - want) <= SUM_RTOL * scale, (name, f, got, want)


def test_results_match_golden(golden, current):
    for name, rec in golden["runs"].items():
        assert current[name]["target_accuracy"] == rec["target_accuracy"], name
        for key in ("l_ds_first", "l_ds_last"):
            got, want = float(current[name][key]), float(rec[key])
            assert abs(got - want) <= SUM_RTOL * want, (name, key, got, want)


def test_sha256_matches_golden_on_same_numerics(golden, current):
    here = environment()
    if here != golden["environment"]:
        pytest.skip(f"sha256 check skipped: numerics differ from the golden file's "
                    f"({here} vs {golden['environment']})")
    for name, rec in golden["runs"].items():
        assert current[name]["sha256"] == rec["sha256"], name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": compute()},
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")
