"""Library-level input checks, called directly: each refuses a bad argument
with a ValidationError whose message names the fault."""

import re

import numpy as np
import pytest

from ddalign.data import FeatureDataset, SubjectDataset, build_run_config
from ddalign.errors import ValidationError
from ddalign.evaluation import loso_split, run_protocol
from ddalign.features import BandSpec, RawWindow, validate_bands
from ddalign.net import ModelParams, compute_losses, confidence_mask, forward_logits, init_params
from ddalign.trainer import TrainConfig, train


def subjects(*names, n=6, d=4):
    """One session of ``n`` rows per subject name, three classes."""
    rows = {name: {1: slice(k * n, (k + 1) * n)} for k, name in enumerate(names)}
    features = np.random.default_rng(0).normal(size=(n * len(names), d))
    return SubjectDataset(FeatureDataset(features, np.arange(n * len(names)) % 3, 3), rows)


def params(d=4, h1=5, h2=5, c=3):
    return init_params(d, h1, h2, c, np.random.default_rng(0))


def short_b1():
    W1, _, *rest = params().arrays()
    return ModelParams(W1, np.zeros(2), *rest)


ROWS = np.zeros((10, 4))
LABELS = np.zeros(10, dtype=np.int64)

CHECKS = {
    "run-key": (lambda: build_run_config(None, {"bogus": 1}), "unknown config key 'bogus'"),
    "protocol": (lambda: loso_split(subjects("a", "b"), "bogus"),
                 "unknown protocol 'bogus'"),
    "lone-subject": (lambda: loso_split(subjects("a")),
                     "protocol needs at least 2 subjects"),
    "variant": (lambda: run_protocol(subjects("a", "b"), "single_session", TrainConfig(),
                                     variant="EXP9"),
                "unknown variant 'EXP9'"),
    "features-1d": (lambda: FeatureDataset(np.zeros(3)),
                    "features must be [n_samples, feature_dim]"),
    "labels-short": (lambda: FeatureDataset(ROWS, np.zeros(5, dtype=np.int64), 3),
                     "labels length must match sample count"),
    "samples-1d": (lambda: RawWindow(np.zeros(400), 200.0),
                   "samples must be a [n_channels, n_samples] matrix"),
    "band-name": (lambda: BandSpec("", 1, 4), "band name must be non-empty"),
    "no-bands": (lambda: validate_bands((), 200.0), "need at least one band"),
    "epochs": (lambda: TrainConfig(epochs=0), "epochs must be >= 1"),
    "n-classes": (lambda: TrainConfig(n_classes=0), "n_classes must be >= 1"),
    "source-1d": (lambda: train(np.zeros(10), LABELS, ROWS, TrainConfig()),
                  "source set must be a non-empty [n, d] matrix"),
    "source-labels": (lambda: train(ROWS, LABELS[:5], ROWS, TrainConfig()),
                      "source labels must match source rows"),
    "target-width": (lambda: train(ROWS, LABELS, np.zeros((10, 3)), TrainConfig()),
                     "source and target feature dimensions differ"),
    "param-shape": (short_b1, "b1 has shape (2,), expected (5,)"),
    "embedding-width": (lambda: forward_logits(np.zeros((2, 4)), params()),
                        "embedding batch has shape (2, 4), expected [B, 5]"),
    "tau": (lambda: confidence_mask(np.ones(3), 1.5), "tau must lie in [0, 1]"),
    "batch-labels": (lambda: compute_losses(ROWS, LABELS[:5], ROWS, params(), 0.0, None),
                     "source labels and features disagree on batch size"),
}


@pytest.mark.parametrize("call, message", CHECKS.values(), ids=CHECKS.keys())
def test_bad_argument_refused_with_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
