"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines inline.
"""

import hashlib
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ddalign.data import ACCEPT_SYNTH, load_dataset
from ddalign.evaluation import run_protocol, run_synth_protocol
from ddalign.features import (
    DEFAULT_BANDS,
    VARIANCE_FLOOR,
    BandSpec,
    RawWindow,
    build_feature_matrix,
)
from ddalign.kernels import KernelBuffers, discrepancies, pooled_gram, signed_weights
from ddalign.net import (
    backward,
    compute_losses,
    forward_features,
    init_params,
)
from ddalign.schedules import alpha_at, beta_of, confidence_threshold
from ddalign.trainer import TrainConfig


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {verdict} - {detail}")
    assert ok, detail


# --- criterion 1: kernel statistics vs brute-force double-loop oracles -------

def brute_mmd(Xs, Xt, sigma):
    n, m = len(Xs), len(Xt)
    k = lambda a, b: math.exp(-sum((x - y) ** 2 for x, y in zip(a, b)) / sigma)
    ss = sum(k(Xs[i], Xs[j]) for i in range(n) for j in range(n))
    tt = sum(k(Xt[i], Xt[j]) for i in range(m) for j in range(m))
    st = sum(k(Xs[i], Xt[j]) for i in range(n) for j in range(m))
    return ss / n**2 + tt / m**2 - 2 * st / (n * m)


def brute_cmmd(Xs, ys, Xt, yt, sigma, C):
    terms = []
    for c in range(C):
        a = [x for x, y in zip(Xs, ys) if y == c]
        b = [x for x, y in zip(Xt, yt) if y == c]
        if a and b:
            terms.append(brute_mmd(a, b, sigma))
    return sum(terms) / len(terms) if terms else 0.0


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n, m = rng.integers(1, 17, size=2)
        d = int(rng.integers(1, 9))
        C = int(rng.integers(1, 4))
        Xs, Xt = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        ys, yt = rng.integers(0, C, n), rng.integers(0, C, m)
        sigma = float(rng.uniform(0.5, 4.0))

        # the composition a training step runs: one Gram matrix, one weight call
        K, _, _ = pooled_gram(np.vstack([Xs, Xt]), sigma, KernelBuffers())
        W, scale = signed_weights(ys, yt, C)
        v = discrepancies(K, W, scale)

        got = max(v[0], 0.0)
        want = brute_mmd(list(Xs), list(Xt), sigma)
        worst = max(worst, abs(got - max(want, 0.0)) / max(abs(want), 1e-300))

        got_c = max(v[1:].mean(), 0.0) if v.size > 1 else 0.0
        want_c = brute_cmmd(list(Xs), list(ys), list(Xt), list(yt), sigma, C)
        worst = max(worst, abs(got_c - max(want_c, 0.0)) / max(abs(want_c), 1e-300))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-10 and elapsed < 5.0,
           f"200 random pairs, max rel err {worst:.2e}, {elapsed:.2f}s (< 5s)")


# --- criterion 2: backward vs central finite differences ---------------------

def test_criterion_2_gradient_correctness():
    # seed chosen so every pseudo-label sits at a comfortable argmax margin;
    # the label assignments are step constants, so differentiability holds
    # only away from decision boundaries
    rng = np.random.default_rng(21)
    params = init_params(6, 4, 4, 3, rng)
    src_x = rng.normal(size=(5, 6))
    src_y = rng.integers(0, 3, size=5)
    tgt_x = rng.normal(size=(5, 6)) + 0.3
    sigma = 2.0
    eps = 1e-5

    def loss_at(p, alpha, beta):
        trace = compute_losses(src_x, src_y, tgt_x, p, tau=0.0, sigma=sigma)
        return trace.total(alpha, beta)

    def fd(alpha, beta):
        from ddalign.net import ModelParams

        grads = []
        for a_idx, arr in enumerate(params.arrays()):
            g = np.zeros_like(arr)
            for idx in np.ndindex(*arr.shape):
                def shifted(delta):
                    arrays = [a.copy() for a in params.arrays()]
                    arrays[a_idx][idx] += delta
                    return ModelParams(*arrays)
                g[idx] = (loss_at(shifted(eps), alpha, beta)
                          - loss_at(shifted(-eps), alpha, beta)) / (2 * eps)
            grads.append(g)
        return grads

    t0 = time.perf_counter()
    trace = compute_losses(src_x, src_y, tgt_x, params, tau=0.0, sigma=sigma)
    worst = 0.0
    for alpha, beta, label in ((1.0, 1.0, "total"), (1.0, 0.0, "marginal"),
                               (0.0, 1.0, "conditional")):
        analytic = backward(trace, alpha, beta)
        numeric = fd(alpha, beta)
        for a, n in zip(analytic.arrays(), numeric):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-4 and elapsed < 10.0,
           f"max rel err vs central differences {worst:.2e} (<= 1e-4), {elapsed:.2f}s (< 10s)")


# --- criterion 3: schedule tables --------------------------------------------

def test_criterion_3_schedule_tables():
    cfg = TrainConfig()
    tau_ok = (confidence_threshold(5, 100, cfg) == 0.0
              and confidence_threshold(20, 100, cfg) == 0.5
              and confidence_threshold(50, 100, cfg) == 0.75
              and confidence_threshold(90, 100, cfg) == 1.0)
    beta_ok = (beta_of(0.05, cfg) == 1.0
               and beta_of(0.12, cfg) == 0.5
               and beta_of(0.20, cfg) == 0.0)
    alpha_ok = alpha_at(0, 100, cfg) == 1.0 and abs(alpha_at(99, 100, cfg) - 0.01) < 1e-15
    report(3, tau_ok and beta_ok and alpha_ok,
           "threshold stages (0/0.5/0.75/1), beta steps (1/0.5/0), alpha endpoints (1, 0.01)")


# --- criterion 4: differential entropy features ------------------------------

def de_loop_oracle(samples, fs, bands):
    """DE of every (channel, band) of one window, channel-major, with one FFT
    per channel and one boolean mask per band: a copy of the per-channel loop
    in tests/test_features.py, independent of the batched features core."""
    nper = int(round(fs))
    n_seg = samples.shape[1] // nper
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nper) / nper)
    freqs = np.fft.rfftfreq(nper, d=1.0 / fs)
    out = []
    for x in samples:
        segs = x[: n_seg * nper].reshape(n_seg, nper)
        segs = segs - segs.mean(axis=1, keepdims=True)
        spec = np.fft.rfft(segs * w, axis=1)
        psd = (spec.real**2 + spec.imag**2) / (fs * np.sum(w**2))
        psd[:, 1:] *= 2.0
        if nper % 2 == 0:
            psd[:, -1] /= 2.0  # Nyquist bin is not mirrored
        psd = psd.mean(axis=0)
        for band in bands:
            mask = (freqs >= band.lo_hz) & (freqs < band.hi_hz)
            var = max(float(psd[mask].sum() * fs / nper), VARIANCE_FLOOR)
            out.append(0.5 * math.log(2 * math.pi * math.e * var))
    return np.array(out)


def test_criterion_4_feature_extraction():
    rng = np.random.default_rng(7)
    fs = 200.0
    win = RawWindow(rng.normal(size=(1, int(fs * 10))), fs=fs)

    # closed form of the measured band variance, every default band, against
    # the independent per-channel loop
    de = build_feature_matrix(win)[0][0]
    consistency = float(np.abs(de - de_loop_oracle(win.samples, fs, DEFAULT_BANDS)).max())

    full = build_feature_matrix(win, bands=[BandSpec("full", 1.0, 100.0)])[0][0, 0]
    full_ok = abs(full - 1.419) < 0.05

    win62 = RawWindow(rng.normal(size=(62, 400)), fs=fs)
    dim = build_feature_matrix(win62)[0].shape[1]

    report(4, consistency <= 1e-12 and full_ok and dim == 310,
           f"loop-oracle consistency {consistency:.1e} (<= 1e-12), "
           f"full-band de {full:.4f} (~1.419), 62 channels -> {dim} features")


# --- criterion 5: synthetic adaptation gain ----------------------------------

def test_criterion_5_synthetic_adaptation_gain():
    t0 = time.perf_counter()
    cfg = TrainConfig()
    means = {}
    for variant in ("EXP1", "EXP2", "EXP6"):
        summary = run_synth_protocol(ACCEPT_SYNTH, cfg, variant=variant, n_seeds=5)
        means[variant] = summary.mean_accuracy
    elapsed = time.perf_counter() - t0
    gain2 = means["EXP2"] - means["EXP1"]
    gain6 = means["EXP6"] - means["EXP1"]
    ok = (0.60 <= means["EXP1"] <= 0.75
          and gain6 >= 0.05
          and gain2 >= 0.02
          and elapsed < 300.0)
    report(5, ok,
           f"EXP1 {100 * means['EXP1']:.1f}% (in 60-75), "
           f"EXP2 +{100 * gain2:.1f}pts (>= 2), EXP6 +{100 * gain6:.1f}pts (>= 5), "
           f"{elapsed:.0f}s (< 300s)")


# --- criterion 6: byte-identical checkpoints ---------------------------------

def test_criterion_6_determinism(tmp_path):
    task = tmp_path / "task"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("epochs = 3\nbatch_size = 32\nhidden1 = 16\nhidden2 = 16\n")
    env = dict(os.environ)

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "ddalign", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    run("synth", "--out", str(task), "--n-per-class", "30", "--seed", "11")
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        run("train", "--config", str(cfg),
            "--source", str(task / "source.csv"),
            "--target", str(task / "target.csv"),
            "--out", str(out), "--seed", "3")
        digests.append(hashlib.sha256((out / "model.ckpt").read_bytes()).hexdigest())
    report(6, digests[0] == digests[1],
           f"two train runs -> identical checkpoint sha256 {digests[0][:12]}...")


# --- criterion 7: inference latency and parameter count ----------------------

def test_criterion_7_efficiency():
    params = init_params(310, 64, 64, 3, np.random.default_rng(0))
    batch = np.random.default_rng(1).normal(size=(128, 310))
    forward_features(batch, params)  # warm-up
    best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        forward_features(batch, params)
        best = min(best, time.perf_counter() - t0)
    count = sum(a.size for a in params.arrays())
    expected = 310 * 64 + 64 + 64 * 64 + 64 + 64 * 3 + 3
    report(7, best < 0.020 and count == expected,
           f"eval forward of 128-batch {1000 * best:.3f}ms (< 20ms), "
           f"parameter count {count} (= {expected})")


# --- criterion 8: optional dataset-backed protocol ---------------------------

@pytest.mark.skipif(
    "DDALIGN_SEED_MANIFEST" not in os.environ,
    reason="set DDALIGN_SEED_MANIFEST to a manifest of pre-extracted features",
)
def test_criterion_8_user_supplied_dataset():
    dataset = load_dataset(os.environ["DDALIGN_SEED_MANIFEST"])
    cfg = TrainConfig(n_classes=dataset.data.n_classes)
    summary = run_protocol(dataset, "single_session", cfg, variant="EXP6")
    line = f"{100 * summary.mean_accuracy:.2f}+-{100 * summary.std_accuracy:.2f}"
    report(8, len(summary.folds) == len(dataset.subjects),
           f"cross-subject single-session completed: {line}")
