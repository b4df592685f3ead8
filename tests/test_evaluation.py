"""Split correctness, metric identities, protocol aggregation, embedding dumps."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from ddalign import evaluation
from ddalign.data import (FeatureDataset, SubjectDataset, SynthShiftConfig, load_dataset,
                          load_features, save_features)
from ddalign.errors import NumericsError, ValidationError
from ddalign.evaluation import (
    Metrics,
    ProtocolSummary,
    FoldResult,
    dump_embeddings,
    evaluate,
    loso_split,
    run_protocol,
    run_synth_protocol,
    save_summary,
)
from ddalign.net import ModelParams, init_params
from ddalign.trainer import VARIANTS, TrainConfig, train


def make_dataset(n_subjects=3, sessions=(1, 2), n=12, d=6, C=3, seed=0):
    """``n`` rows per (subject, session), stacked subject by subject with
    ascending sessions as load_dataset lays them out."""
    rng = np.random.default_rng(seed)
    feats, rows = [], {}
    for s in range(n_subjects):
        for sess in sorted(sessions):
            rows.setdefault(f"sub{s}", {})[sess] = slice(len(feats) * n, (len(feats) + 1) * n)
            feats.append(rng.normal(size=(n, d)) + s * 0.1)
    labels = np.tile(np.arange(C), len(feats) * n // C)
    return SubjectDataset(FeatureDataset(np.vstack(feats), labels, C), rows)


def constant_predictor(d=6, C=3, winner=0):
    params = init_params(d, 4, 4, C, np.random.default_rng(0))
    bc = np.zeros(C)
    bc[winner] = 100.0
    return ModelParams(params.W1 * 0, params.b1, params.W2 * 0, params.b2,
                       params.Wc * 0, bc)


class TestLosoSplit:
    def test_source_pools_remaining_subjects(self):
        ds = make_dataset(n_subjects=15, sessions=(1,), n=6)
        fold = loso_split(ds, "sub3", "single_session")
        assert fold.target_eval.n_samples == 6
        assert fold.source_rows.dtype == np.int64 and fold.source_rows.shape == (14 * 6,)

    def test_two_subjects_minimal(self):
        ds = make_dataset(n_subjects=2, sessions=(1,))
        fold = loso_split(ds, "sub1", "single_session")
        assert fold.source_rows.size == fold.target_eval.n_samples == 12

    def test_unknown_subject_rejected(self):
        ds = make_dataset()
        with pytest.raises(ValidationError, match="unknown subject"):
            loso_split(ds, "ghost", "single_session")

    def test_cross_session_pools_all_sessions(self):
        ds = make_dataset(n_subjects=3, sessions=(1, 2))
        fold = loso_split(ds, "sub0", "cross_session")
        assert fold.target_eval.n_samples == 24  # both sessions of the held-out subject
        assert fold.source_rows.size == 2 * 24   # both sessions of the other two

    def test_session_with_cross_session_rejected(self):
        ds = make_dataset()
        with pytest.raises(ValidationError, match="not cross-session"):
            loso_split(ds, "sub0", "cross_session", session=7)

    def test_single_session_defaults_to_lowest(self):
        ds = make_dataset(n_subjects=2, sessions=(2, 5))
        fold = loso_split(ds, "sub0", "single_session")
        assert fold.target_eval.n_samples == 12
        npt.assert_array_equal(fold.source_rows, np.arange(24, 36))   # sub1's session 2
        rows5 = loso_split(ds, "sub0", "single_session", session=5).source_rows
        assert rows5.size == 12
        npt.assert_array_equal(rows5, np.arange(36, 48))  # sub1's session 5

    def test_missing_session_named(self):
        ds = make_dataset(sessions=(1,))
        with pytest.raises(ValidationError, match="session 9"):
            loso_split(ds, "sub0", "single_session", session=9)

    def test_no_leakage_between_source_and_target(self):
        ds = make_dataset(n_subjects=4, sessions=(1,), seed=5)
        fold = loso_split(ds, "sub2", "single_session")
        held = ds.data.features[ds.rows["sub2"][1]]
        src = fold.source.features[fold.source_rows]
        for row in held:
            assert not (src == row).all(axis=1).any()

    @pytest.mark.parametrize("protocol", ["single_session", "cross_session"])
    def test_target_is_a_view_of_the_dataset(self, protocol):
        ds = make_dataset(n_subjects=3, sessions=(1, 2))
        fold = loso_split(ds, "sub1", protocol)
        assert fold.source is ds.data
        assert np.shares_memory(fold.target_features, ds.data.features)
        assert np.shares_memory(fold.target_eval.labels, ds.data.labels)

    def test_rows_must_tile_the_data(self):
        ds = make_dataset(n_subjects=2, sessions=(1,))
        with pytest.raises(ValidationError, match="must tile"):
            SubjectDataset(ds.data, {"sub0": {1: slice(0, 12)}, "sub1": {1: slice(13, 24)}})


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
                    stage_e1=1, stage_e2=2, stage_e3=3)
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

    def test_synthetic_parallel_jobs_match_serial(self):
        synth = SynthShiftConfig(n_per_class=10, domain_shift=2.0, seed=4)
        serial = run_synth_protocol(synth, fast_cfg(), variant="EXP6", n_seeds=3)
        parallel = run_synth_protocol(synth, fast_cfg(), variant="EXP6", n_seeds=3, jobs=2)
        assert [f.subject for f in parallel.folds] == ["seed0", "seed1", "seed2"]
        npt.assert_array_equal(serial.accuracies, parallel.accuracies)

    def test_failing_fold_keeps_its_warning(self, monkeypatch):
        # the caller sees a fold's warning as it is raised, so an error after
        # it loses nothing
        def failing_train(*args):
            warnings.warn("fold says hello", RuntimeWarning)
            raise NumericsError("step 0 (epoch 0): loss is not finite")

        monkeypatch.setattr(evaluation, "train", failing_train)
        synth = SynthShiftConfig(n_per_class=10, domain_shift=2.0, seed=4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericsError, match="loss is not finite"):
                run_synth_protocol(synth, fast_cfg(epochs=1), variant="EXP6", n_seeds=2, jobs=1)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "fold says hello")]

    def test_pool_has_no_more_workers_than_folds(self, monkeypatch):
        workers = []

        class RecordingPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
        ds = make_dataset(n_subjects=2, sessions=(1,))
        run_protocol(ds, "single_session", fast_cfg(), variant="EXP1", jobs=16)
        assert workers == [2]

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


# (subject, session) -> file, listed with subjects non-contiguous and
# sessions out of order, .csv and .bin mixed
MIXED_FILES = {("a", 1): "a1.csv", ("b", 1): "b1.bin", ("a", 2): "a2.bin",
               ("c", 2): "c2.csv", ("c", 1): "c1.bin", ("b", 2): "b2.csv"}


def param_bytes(params) -> bytes:
    return b"".join(a.tobytes() for a in params.arrays())


class TestFoldsFromManifest:
    @pytest.fixture
    def mixed_manifest(self, tmp_path):
        rng = np.random.default_rng(21)
        lines = []
        for k, ((subject, session), name) in enumerate(MIXED_FILES.items()):
            n = 9 + 2 * k
            save_features(tmp_path / name, FeatureDataset(
                rng.normal(size=(n, 5)) + k * 0.1, rng.integers(0, 3, n), 3))
            lines.append(f"{subject},{session},{name}\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("".join(lines))
        return manifest

    @pytest.mark.parametrize("protocol, session", [
        ("single_session", None), ("single_session", 2), ("cross_session", None)])
    def test_folds_train_as_the_pooled_copies_did(self, mixed_manifest, protocol, session):
        """Each fold trains bit for bit as on its sessions stacked by np.vstack,
        subject by subject in manifest order with ascending sessions."""
        dataset = load_dataset(mixed_manifest)
        files = {key: load_features(mixed_manifest.parent / name)
                 for key, name in MIXED_FILES.items()}

        def pooled(subjects):
            parts = []
            for subject in subjects:
                ids = sorted(k for s, k in files if s == subject)
                if protocol == "single_session":
                    ids = [ids[0] if session is None else session]
                parts += [files[subject, k] for k in ids]
            return (np.vstack([p.features for p in parts]),
                    np.concatenate([p.labels for p in parts]))

        cfg = fast_cfg(epochs=2)
        for held in ("a", "b", "c"):
            fold = loso_split(dataset, held, protocol, session)
            rows, target = fold.source_rows, fold.target_eval
            assert np.shares_memory(target.features, dataset.data.features)
            tgt_x, tgt_y = pooled([held])
            npt.assert_array_equal(target.features, tgt_x)
            npt.assert_array_equal(target.labels, tgt_y)
            src_x, src_y = pooled([s for s in ("a", "b", "c") if s != held])
            npt.assert_array_equal(dataset.data.features[rows], src_x)
            new = train(dataset.data.features, dataset.data.labels, target.features, cfg, rows)
            old = train(src_x, src_y, tgt_x, cfg)
            assert param_bytes(new.params) == param_bytes(old.params)
            assert new.history == old.history

    def test_fold_holds_an_index_not_a_copy(self, tmp_path):
        # the fold holding out "small" trains on all of "big"'s rows
        d, n_big = 64, 24000
        rng = np.random.default_rng(4)
        for name, n in (("big", n_big), ("small", 64)):
            save_features(tmp_path / f"{name}.bin", FeatureDataset(
                rng.normal(size=(n, d)), np.tile(np.arange(2), n // 2), 2))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("big,1,big.bin\nsmall,1,small.bin\n")
        dataset = load_dataset(manifest)
        cfg = TrainConfig(batch_size=32, epochs=1, n_classes=2, hidden1=16, hidden2=16,
                          flags=VARIANTS["EXP1"])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fold = loso_split(dataset, "small", "single_session", None)
            result = evaluation._run_fold(("small", fold, cfg, None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.history_steps == math.ceil(n_big / cfg.batch_size)
        assert peak < 0.1 * n_big * d * 8


class TestDumpEmbeddings:
    def test_row_and_column_counts(self, tmp_path):
        params = init_params(6, 4, 4, 3, np.random.default_rng(6))
        src = FeatureDataset(np.random.default_rng(7).normal(size=(5, 6)),
                             np.zeros(5, dtype=int), 3)
        tgt = FeatureDataset(np.random.default_rng(8).normal(size=(4, 6)))
        path = tmp_path / "emb.csv"
        dump_embeddings(params, src, tgt, path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + 5 + 4
        assert len(rows[1].split(",")) == 4 + 2  # embed dim + domain + label
        assert rows[1].split(",")[-2] == "0"
        assert rows[-1].split(",")[-2:] == ["1", "-1"]

    def test_labels_of_both_sides(self, tmp_path):
        params = init_params(6, 4, 4, 3, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        src = FeatureDataset(rng.normal(size=(2, 6)))
        tgt = FeatureDataset(rng.normal(size=(3, 6)), np.array([2, 0, 1]), 3)
        path = tmp_path / "emb.csv"
        dump_embeddings(params, src, tgt, path)
        tails = [r.split(",")[-2:] for r in path.read_text().strip().splitlines()[1:]]
        assert tails == [["0", "-1"], ["0", "-1"], ["1", "2"], ["1", "0"], ["1", "1"]]

    def test_dimension_mismatch_leaves_no_file(self, tmp_path):
        params = init_params(6, 4, 4, 3, np.random.default_rng(6))
        src = FeatureDataset(np.zeros((2, 6)))
        path = tmp_path / "emb.csv"
        with pytest.raises(ValidationError):
            dump_embeddings(params, src, FeatureDataset(np.zeros((2, 5))), path)
        assert not path.exists()

    def test_deterministic_dump(self, tmp_path):
        params = init_params(6, 4, 4, 3, np.random.default_rng(9))
        src = FeatureDataset(np.random.default_rng(10).normal(size=(3, 6)),
                             np.zeros(3, dtype=int), 3)
        tgt = FeatureDataset(np.random.default_rng(11).normal(size=(3, 6)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dump_embeddings(params, src, tgt, p1)
        dump_embeddings(params, src, tgt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_training_moves_the_dump(self, tmp_path):
        from ddalign.trainer import train

        rng = np.random.default_rng(12)
        src = FeatureDataset(rng.normal(size=(30, 6)),
                             np.tile(np.arange(3), 10), 3)
        tgt = FeatureDataset(rng.normal(size=(20, 6)))
        result = train(src.features, src.labels, tgt.features,
                       fast_cfg(epochs=1, batch_size=16))
        untrained = init_params(6, 6, 6, 3, np.random.default_rng(13))
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        dump_embeddings(untrained, src, tgt, before)
        dump_embeddings(result.params, src, tgt, after)
        assert before.read_bytes() != after.read_bytes()
