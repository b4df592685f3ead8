"""Split correctness, metric identities, protocol aggregation, embedding dumps."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from ddalign.data import FeatureDataset, SubjectDataset
from ddalign.errors import ValidationError
from ddalign.evaluation import (
    Metrics,
    ProtocolSummary,
    FoldResult,
    dump_embeddings,
    evaluate,
    loso_split,
    run_protocol,
    save_summary,
)
from ddalign.net import ModelParams, init_params
from ddalign.schedules import ScheduleConfig
from ddalign.trainer import TrainConfig


def make_dataset(n_subjects=3, sessions=(1, 2), n=12, d=6, C=3, seed=0):
    rng = np.random.default_rng(seed)
    data = {}
    for s in range(n_subjects):
        per_session = {}
        for sess in sessions:
            feats = rng.normal(size=(n, d)) + s * 0.1
            labels = np.tile(np.arange(C), n // C)
            per_session[sess] = FeatureDataset(feats, labels, C)
        data[f"sub{s}"] = per_session
    return SubjectDataset(sessions=data, feature_dim=d, n_classes=C)


def constant_predictor(d=6, C=3, winner=0):
    params = init_params(d, 4, 4, C, np.random.default_rng(0))
    bc = np.zeros(C)
    bc[winner] = 100.0
    return ModelParams(params.W1 * 0, params.b1, params.W2 * 0, params.b2,
                       params.Wc * 0, bc)


class TestLosoSplit:
    def test_source_pools_remaining_subjects(self):
        ds = make_dataset(n_subjects=15, sessions=(1,), n=6)
        src, tgt = loso_split(ds, "sub3", "single_session")
        assert tgt.n_samples == 6
        assert src.n_samples == 14 * 6

    def test_two_subjects_minimal(self):
        ds = make_dataset(n_subjects=2, sessions=(1,))
        src, tgt = loso_split(ds, "sub1", "single_session")
        assert src.n_samples == tgt.n_samples == 12

    def test_unknown_subject_rejected(self):
        ds = make_dataset()
        with pytest.raises(ValidationError, match="unknown subject"):
            loso_split(ds, "ghost", "single_session")

    def test_cross_session_pools_all_sessions(self):
        ds = make_dataset(n_subjects=3, sessions=(1, 2))
        src, tgt = loso_split(ds, "sub0", "cross_session")
        assert tgt.n_samples == 24       # both sessions of the held-out subject
        assert src.n_samples == 2 * 24   # both sessions of the other two

    def test_single_session_defaults_to_lowest(self):
        ds = make_dataset(n_subjects=2, sessions=(2, 5))
        src, tgt = loso_split(ds, "sub0", "single_session")
        assert tgt.n_samples == 12
        src5, _ = loso_split(ds, "sub0", "single_session", session=5)
        assert src5.n_samples == 12

    def test_missing_session_named(self):
        ds = make_dataset(sessions=(1,))
        with pytest.raises(ValidationError, match="session 9"):
            loso_split(ds, "sub0", "single_session", session=9)

    def test_no_leakage_between_source_and_target(self):
        ds = make_dataset(n_subjects=4, sessions=(1,), seed=5)
        src, tgt = loso_split(ds, "sub2", "single_session")
        held = ds.sessions["sub2"][1].features
        for row in held:
            assert not (src.features == row).all(axis=1).any()


class TestEvaluate:
    def test_constant_predictor_on_matching_labels(self):
        params = constant_predictor(winner=0)
        data = FeatureDataset(np.random.default_rng(1).normal(size=(10, 6)),
                              np.zeros(10, dtype=int), 3)
        m = evaluate(params, data)
        assert m.accuracy == 1.0
        assert m.confusion[0, 0] == 10
        assert m.confusion.sum() == 10

    def test_confusion_row_sums_are_true_counts(self):
        params = init_params(6, 4, 4, 3, np.random.default_rng(2))
        labels = np.array([0] * 5 + [1] * 7 + [2] * 3)
        data = FeatureDataset(np.random.default_rng(3).normal(size=(15, 6)), labels, 3)
        m = evaluate(params, data)
        npt.assert_array_equal(m.confusion.sum(axis=1), [5, 7, 3])
        assert m.accuracy == np.trace(m.confusion) / 15

    def test_near_uniform_predictor_near_chance(self):
        rng = np.random.default_rng(4)
        params = init_params(6, 8, 8, 3, rng)
        n = 3000
        data = FeatureDataset(rng.normal(size=(n, 6)) * 3,
                              rng.integers(0, 3, n), 3)
        m = evaluate(params, data)
        # random labels: accuracy within 3 binomial sigmas of 1/3
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(m.accuracy - 1 / 3) < 3 * sigma + 0.05

    def test_dimension_mismatch_named(self):
        params = init_params(6, 4, 4, 3, np.random.default_rng(5))
        data = FeatureDataset(np.zeros((2, 9)), np.zeros(2, dtype=int), 3)
        with pytest.raises(ValidationError, match="features"):
            evaluate(params, data)

    def test_zero_rows_rejected(self):
        params = init_params(6, 4, 4, 3, np.random.default_rng(5))
        data = FeatureDataset(np.zeros((0, 6)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ValidationError, match="at least one row"):
            evaluate(params, data)


def fast_cfg(**kw):
    defaults = dict(batch_size=8, epochs=2, seed=3, n_classes=3, hidden1=6, hidden2=6,
                    schedule=ScheduleConfig(stage_epochs=(1, 2, 3), total_epochs=2))
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestRunProtocol:
    def test_every_subject_held_out_once(self, tmp_path):
        ds = make_dataset(n_subjects=3, sessions=(1,), n=12)
        summary = run_protocol(ds, "single_session", fast_cfg(), variant="EXP1",
                               out_dir=tmp_path)
        assert [f.subject for f in summary.folds] == ["sub0", "sub1", "sub2"]
        for s in range(3):
            assert (tmp_path / f"history_sub{s}.csv").exists()

    def test_mean_std_arithmetic(self):
        folds = [
            FoldResult("a", Metrics(0.8, np.eye(2, dtype=int), np.ones(2)), 1),
            FoldResult("b", Metrics(0.9, np.eye(2, dtype=int), np.ones(2)), 1),
        ]
        summary = ProtocolSummary(variant="EXP1", protocol="single_session", folds=folds)
        assert summary.mean_accuracy == pytest.approx(0.85)
        assert summary.std_accuracy == pytest.approx(0.05)

    def test_summary_recomputable_from_folds(self):
        ds = make_dataset(n_subjects=3, sessions=(1,))
        summary = run_protocol(ds, "single_session", fast_cfg(), variant="EXP1")
        accs = summary.accuracies
        assert summary.mean_accuracy == pytest.approx(accs.mean(), abs=1e-12)
        assert summary.std_accuracy == pytest.approx(accs.std(), abs=1e-12)

    def test_parallel_jobs_match_serial(self):
        ds = make_dataset(n_subjects=3, sessions=(1,))
        serial = run_protocol(ds, "single_session", fast_cfg(), variant="EXP2")
        parallel = run_protocol(ds, "single_session", fast_cfg(), variant="EXP2", jobs=2)
        npt.assert_array_equal(serial.accuracies, parallel.accuracies)

    def test_save_summary_files(self, tmp_path):
        ds = make_dataset(n_subjects=2, sessions=(1,))
        summary = run_protocol(ds, "single_session", fast_cfg(), variant="EXP1")
        save_summary(summary, tmp_path, config_hash="abc123")
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["config_hash"] == "abc123"
        assert len(payload["folds"]) == 2
        rows = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,subject,accuracy"
        assert rows[-2].startswith("EXP1,mean,")
        assert rows[-1].startswith("EXP1,std,")


class TestDumpEmbeddings:
    def test_row_and_column_counts(self, tmp_path):
        params = init_params(6, 4, 4, 3, np.random.default_rng(6))
        src = FeatureDataset(np.random.default_rng(7).normal(size=(5, 6)),
                             np.zeros(5, dtype=int), 3)
        tgt = np.random.default_rng(8).normal(size=(4, 6))
        path = tmp_path / "emb.csv"
        dump_embeddings(params, src, tgt, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + 5 + 4
        assert len(rows[1].split(",")) == 4 + 2  # embed dim + domain + label
        assert rows[1].split(",")[-2] == "0"
        assert rows[-1].split(",")[-2:] == ["1", "-1"]

    def test_deterministic_dump(self, tmp_path):
        params = init_params(6, 4, 4, 3, np.random.default_rng(9))
        src = FeatureDataset(np.random.default_rng(10).normal(size=(3, 6)),
                             np.zeros(3, dtype=int), 3)
        tgt = np.random.default_rng(11).normal(size=(3, 6))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dump_embeddings(params, src, tgt, p1)
        dump_embeddings(params, src, tgt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_training_moves_the_dump(self, tmp_path):
        from ddalign.trainer import train

        rng = np.random.default_rng(12)
        src = FeatureDataset(rng.normal(size=(30, 6)),
                             np.tile(np.arange(3), 10), 3)
        tgt = rng.normal(size=(20, 6))
        result = train(src.features, src.labels, tgt, fast_cfg(epochs=1, batch_size=16))
        untrained = init_params(6, 6, 6, 3, np.random.default_rng(13))
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        dump_embeddings(untrained, src, tgt, before)
        dump_embeddings(result.params, src, tgt, after)
        assert before.read_bytes() != after.read_bytes()
