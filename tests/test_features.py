"""Band variance against ideal band-pass oracles; differential entropy closed forms."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from ddalign import features
from ddalign.errors import ValidationError
from ddalign.features import (
    DEFAULT_BANDS,
    VARIANCE_FLOOR,
    BandSpec,
    RawWindow,
    band_variance,
    build_feature_matrix,
    differential_entropy,
    validate_bands,
)

ALPHA = BandSpec("alpha", 8.0, 14.0)
GAMMA = BandSpec("gamma", 31.0, 50.0)


def sine_window(freq_hz, fs, seconds, amplitude=1.0, n_channels=1):
    t = np.arange(int(fs * seconds)) / fs
    x = amplitude * np.sin(2 * np.pi * freq_hz * t)
    return RawWindow(np.tile(x, (n_channels, 1)), fs)


class TestBandVariance:
    def test_dc_signal_has_no_band_energy(self):
        win = RawWindow(np.full((1, 800), 3.7), fs=200.0)
        for band in DEFAULT_BANDS:
            assert band_variance(win, band, 0) <= 1e-9

    def test_in_band_sinusoid_recovers_half_amplitude_squared(self):
        # time-domain oracle: ideal band-pass of a unit 10 Hz sinusoid keeps
        # the whole signal, whose variance is A^2/2 = 0.5
        win = sine_window(10.0, fs=200.0, seconds=4.0)
        assert band_variance(win, ALPHA, 0) == pytest.approx(0.5, rel=0.05)

    def test_off_bin_sinusoid_still_captured(self):
        win = sine_window(10.4, fs=200.0, seconds=4.0)
        assert band_variance(win, ALPHA, 0) == pytest.approx(0.5, rel=0.05)

    def test_out_of_band_leakage_small(self):
        win = sine_window(10.0, fs=200.0, seconds=4.0)
        assert band_variance(win, GAMMA, 0) <= 0.01

    def test_white_noise_band_shares_sum_to_total(self):
        # flat spectrum: band variance proportional to band width
        rng = np.random.default_rng(0)
        win = RawWindow(rng.normal(size=(1, 200 * 60)), fs=200.0)
        full = band_variance(win, BandSpec("full", 1.0, 100.0), 0)
        alpha = band_variance(win, ALPHA, 0)
        assert alpha / full == pytest.approx(6.0 / 99.0, rel=0.15)

    def test_band_above_nyquist_rejected(self):
        win = sine_window(10.0, fs=100.0, seconds=2.0)
        with pytest.raises(ValidationError):
            band_variance(win, BandSpec("gamma", 31.0, 60.0), 0)

    def test_bad_channel_rejected(self):
        win = sine_window(10.0, fs=200.0, seconds=2.0)
        with pytest.raises(ValidationError):
            band_variance(win, ALPHA, 5)

    def test_amplitude_scaling_squares_variance(self):
        win1 = sine_window(10.0, fs=200.0, seconds=4.0, amplitude=1.0)
        win3 = sine_window(10.0, fs=200.0, seconds=4.0, amplitude=3.0)
        v1 = band_variance(win1, ALPHA, 0)
        v3 = band_variance(win3, ALPHA, 0)
        assert v3 / v1 == pytest.approx(9.0, rel=1e-10)


class TestDifferentialEntropy:
    def test_entropy_zero_point(self):
        assert differential_entropy(1.0 / (2 * math.pi * math.e)) == pytest.approx(0.0, abs=1e-15)

    def test_unit_variance(self):
        assert differential_entropy(1.0) == pytest.approx(1.41894, abs=1e-5)

    def test_closed_form_value_one(self):
        assert differential_entropy(math.e**2 / (2 * math.pi * math.e)) == pytest.approx(1.0)

    def test_monotone_and_doubling_adds_half_ln2(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = float(rng.uniform(1e-6, 1e3))
            assert differential_entropy(2 * v) - differential_entropy(v) == pytest.approx(
                0.5 * math.log(2), rel=1e-12
            )
            assert differential_entropy(2 * v) > differential_entropy(v)

    def test_nonpositive_variance_rejected(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError):
                differential_entropy(bad)


def whole_window(win, bands=DEFAULT_BANDS):
    """DE row and floored (channel, band) pairs of a recording taken as one window."""
    values, floored = build_feature_matrix(win, bands=bands)
    return values[0], [(ch, name) for _, ch, name in floored]


class TestWholeRecordingWindow:
    def test_62_channels_5_bands_gives_310(self):
        rng = np.random.default_rng(2)
        win = RawWindow(rng.normal(size=(62, 400)), fs=200.0)
        assert whole_window(win)[0].shape == (310,)

    def test_32_channels_5_bands_gives_160(self):
        rng = np.random.default_rng(3)
        win = RawWindow(rng.normal(size=(32, 256)), fs=128.0)
        assert whole_window(win)[0].shape == (160,)

    def test_single_channel_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        win = RawWindow(rng.normal(size=(1, 2000)), fs=200.0)
        band = BandSpec("alpha", 8.0, 14.0)
        values, _ = whole_window(win, [band])
        expected = 0.5 * math.log(2 * math.pi * math.e * band_variance(win, band, 0))
        assert values[0] == pytest.approx(expected, abs=1e-12)

    def test_channel_major_layout_and_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 600))
        values, _ = whole_window(RawWindow(data, fs=200.0))
        perm = [2, 0, 3, 1]
        values_perm, _ = whole_window(RawWindow(data[perm], fs=200.0))
        blocks = values.reshape(4, 5)
        npt.assert_allclose(values_perm.reshape(4, 5), blocks[perm], rtol=1e-12)

    def test_amplitude_scaling_shifts_every_entry_by_ln_c(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(3, 800))
        base, _ = whole_window(RawWindow(data, fs=200.0))
        scaled, _ = whole_window(RawWindow(2.5 * data, fs=200.0))
        npt.assert_allclose(scaled - base, math.log(2.5), rtol=1e-9)

    def test_silent_channel_is_floored_and_flagged(self):
        data = np.zeros((2, 400))
        data[1] = np.random.default_rng(7).normal(size=400)
        values, floored = whole_window(RawWindow(data, fs=200.0))
        assert all(ch == 0 for ch, _ in floored)
        assert len(floored) == 5
        assert np.isfinite(values).all()

    def test_disjoint_window_estimates_agree(self):
        # stationary noise: DE over disjoint long windows fluctuates mildly
        rng = np.random.default_rng(8)
        fs = 200.0
        estimates = []
        for _ in range(4):
            win = RawWindow(rng.normal(size=(1, int(fs * 20))), fs=fs)
            estimates.append(whole_window(win, [ALPHA])[0][0])
        assert np.ptp(estimates) < 0.15

    def test_estimate_spread_shrinks_with_window_length(self):
        rng = np.random.default_rng(9)
        fs = 200.0

        def spread(seconds, repeats=8):
            vals = [
                whole_window(RawWindow(rng.normal(size=(1, int(fs * seconds))), fs=fs),
                             [ALPHA])[0][0]
                for _ in range(repeats)
            ]
            return np.std(vals)

        assert spread(40) < spread(5)


def _segment_psd(x: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Averaged one-sided PSD over non-overlapping 1-second Hann segments.

    Returns (freqs, psd) with the PSD scaled so that sum(psd) * df equals the
    mean-removed signal variance.
    """
    nper = int(round(fs))
    if x.shape[0] < nper:
        raise ValidationError(
            f"window has {x.shape[0]} samples, shorter than one {nper}-sample segment"
        )
    n_seg = x.shape[0] // nper
    segs = x[: n_seg * nper].reshape(n_seg, nper)
    segs = segs - segs.mean(axis=1, keepdims=True)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nper) / nper)
    spec = np.fft.rfft(segs * w, axis=1)
    psd = (spec.real**2 + spec.imag**2) / (fs * np.sum(w**2))
    psd[:, 1:] *= 2.0
    if nper % 2 == 0:
        psd[:, -1] /= 2.0  # Nyquist bin is not mirrored
    freqs = np.fft.rfftfreq(nper, d=1.0 / fs)
    return freqs, psd.mean(axis=0)


def loop_oracle(samples, fs, step, bands=DEFAULT_BANDS):
    """Independent reference: one FFT per window and channel, one boolean mask
    per band, as the per-channel loop computed it before the batched pass."""
    n_win = samples.shape[1] // step
    values = np.empty((n_win, samples.shape[0] * len(bands)))
    floored = []
    df = fs / int(round(fs))
    for w in range(n_win):
        for ch in range(samples.shape[0]):
            freqs, psd = _segment_psd(samples[ch, w * step:(w + 1) * step], fs)
            for bi, band in enumerate(bands):
                mask = (freqs >= band.lo_hz) & (freqs < band.hi_hz)
                var = float(psd[mask].sum() * df)
                if var < VARIANCE_FLOOR:
                    var = VARIANCE_FLOOR
                    floored.append((w, ch, band.name))
                values[w, ch * len(bands) + bi] = 0.5 * math.log(2 * math.pi * math.e * var)
    return values, floored


def wide_bands(fs):
    """Bands over every bin from 1 Hz to Nyquist: at every rate tested here more
    bins than _band_variances computes by its basis, so it runs the FFT."""
    return (BandSpec("low", 1.0, 8.0), BandSpec("wide", 8.0, fs / 2))


# one band set per path of _band_variances, as a function of the sampling rate;
# delta to beta cover 30 bins, which take the basis from 125 Hz up
BAND_SETS = {"basis": lambda fs: DEFAULT_BANDS[:4], "fft": wide_bands}


class TestBatchedMatchesLoopOracle:
    @pytest.fixture(params=BAND_SETS.values(), ids=BAND_SETS.keys())
    def bands_at(self, request):
        return request.param

    def check(self, samples, fs, step, bands):
        got, got_floored = build_feature_matrix(RawWindow(samples, fs), step / fs, bands)
        want, want_floored = loop_oracle(samples, fs, step, bands)
        assert got.shape == want.shape
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got_floored == want_floored
        return got_floored

    def test_band_sets_take_both_paths(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("np.fft.rfft called")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        samples = np.random.default_rng(19).normal(size=(2, 3000))
        # the default bands at SEED's 200 Hz and at 1 kHz never reach the FFT;
        # at DEAP's 128 Hz their 49 bins are most of the 65 and they do
        for fs in (200.0, 200.4, 1000.0):
            build_feature_matrix(RawWindow(samples, fs), 1.0, DEFAULT_BANDS)
        with pytest.raises(AssertionError, match="np.fft.rfft called"):
            build_feature_matrix(RawWindow(samples, 128.0), 1.0, DEFAULT_BANDS)
        for fs in (125.0, 128.0, 200.0, 200.4):
            build_feature_matrix(RawWindow(samples, fs), 1.0, BAND_SETS["basis"](fs))
            with pytest.raises(AssertionError, match="np.fft.rfft called"):
                build_feature_matrix(RawWindow(samples, fs), 1.0, wide_bands(fs))

    # 125 Hz: odd segment length; 200.4 Hz: one second is round(fs) = 200 samples
    @pytest.mark.parametrize("fs", [125.0, 128.0, 200.0, 200.4])
    def test_one_second_windows(self, fs, bands_at):
        samples = np.random.default_rng(10).normal(size=(5, int(fs) * 6))
        self.check(samples, fs, int(fs), bands_at(fs))

    def test_windows_ending_in_partial_segment(self, bands_at):
        # 2.5 s windows hold two full 1-second segments and a dropped half
        samples = np.random.default_rng(11).normal(size=(4, 200 * 10))
        self.check(samples, 200.0, int(round(2.5 * 200.0)), bands_at(200.0))

    def test_tail_shorter_than_a_window_dropped(self, bands_at):
        samples = np.random.default_rng(12).normal(size=(3, 128 * 7 + 50))
        bands = bands_at(128.0)
        got, _ = build_feature_matrix(RawWindow(samples, 128.0), 2.0, bands)
        assert got.shape == (3, 3 * len(bands))
        self.check(samples, 128.0, 256, bands)

    def test_flat_channel_floored_like_the_loop(self, bands_at):
        samples = np.random.default_rng(13).normal(size=(3, 200 * 4))
        samples[1] = 3.7
        bands = bands_at(200.0)
        floored = self.check(samples, 200.0, 200, bands)
        assert floored == [(w, 1, b.name) for w in range(4) for b in bands]

    # a large DC offset cancels catastrophically unless each segment is
    # centered before its spectrum is taken
    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_dc_offset_removed_to_the_loop_precision(self, offset, bands_at):
        samples = offset + np.random.default_rng(18).normal(size=(4, 200 * 5))
        self.check(samples, 200.0, 200, bands_at(200.0))

    @pytest.mark.parametrize("chunk", [1, 3 * 125, 7 * 125])
    def test_chunked_rows_match(self, monkeypatch, chunk):
        # budgets below one row, a few rows, and a count not dividing the rows
        monkeypatch.setattr(features, "_CHUNK_SAMPLES", chunk)
        samples = np.random.default_rng(14).normal(size=(6, 125 * 5))
        samples[4] = 0.0
        self.check(samples, 125.0, 125, wide_bands(125.0))

    def test_recording_spanning_production_chunks(self):
        # 62 x 30 1-second windows at 200 Hz fill several default-sized chunks
        assert 62 * 30 * 200 > 2 * features._CHUNK_SAMPLES
        samples = np.random.default_rng(15).normal(size=(62, 200 * 30))
        samples[7] = 0.0
        self.check(samples, 200.0, 200, wide_bands(200.0))

    def test_output_independent_of_chunk_budget(self, monkeypatch):
        samples = np.random.default_rng(16).normal(size=(9, 128 * 4))
        rec = RawWindow(samples, 128.0)
        want, _ = build_feature_matrix(rec, 1.0, wide_bands(128.0))
        for chunk in (1, 2 * 128, 5 * 128, 2**22):
            monkeypatch.setattr(features, "_CHUNK_SAMPLES", chunk)
            got, _ = build_feature_matrix(rec, 1.0, wide_bands(128.0))
            npt.assert_array_equal(got, want)


class TestBuildFeatureMatrix:
    def test_step_outside_recording_rejected(self):
        # a finite product of any size or sign is compared before it is rounded
        win = RawWindow(np.ones((1, 400)), fs=200.0)
        short = "window_seconds must cover at least one second"
        for seconds, message in [(0.0, short), (199.4 / 200, short), (-1e307, short),
                                 (401 / 200, "window_seconds 2.005 is longer than the "
                                             "recording (2 s)"),
                                 (1e307, "window_seconds 1e+307 is longer than the "),
                                 (math.nan, "window_seconds must be finite, got nan")]:
            with pytest.raises(ValidationError, match=re.escape(message)):
                build_feature_matrix(win, seconds)

    def test_seconds_round_to_samples(self):
        # round(window_seconds * fs) samples, neither floor nor ceiling
        samples = np.random.default_rng(17).normal(size=(2, 200 * 6))
        rec = RawWindow(samples, 200.0)
        for seconds, step in [(199.6 / 200, 200), (400.4 / 200, 400), (None, 1200)]:
            got, _ = build_feature_matrix(rec, seconds)
            npt.assert_allclose(got, loop_oracle(samples, 200.0, step)[0], rtol=0, atol=1e-12)

    def test_invalid_variance_names_window(self):
        samples = np.random.default_rng(16).normal(size=(2, 200 * 3))
        samples[1, 400:] *= 1e200  # band power overflows to inf in window 2
        with np.errstate(all="ignore"):
            with pytest.raises(ValidationError,
                               match=r"window 2, channel 1, band 'delta': invalid band variance"):
                build_feature_matrix(RawWindow(samples, 200.0), 1.0)


class TestValidation:
    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValidationError):
            validate_bands([BandSpec("a", 1.0, 10.0), BandSpec("b", 8.0, 20.0)], fs=200.0)

    def test_window_invariants(self):
        with pytest.raises(ValidationError):
            RawWindow(np.ones((1, 50)), fs=100.0)  # shorter than 1 s
        with pytest.raises(ValidationError):
            RawWindow(np.full((1, 200), np.inf), fs=100.0)
        with pytest.raises(ValidationError):
            RawWindow(np.ones((1, 200)), fs=-1.0)
        with pytest.raises(ValidationError):
            RawWindow(np.ones((1, 8)), fs=math.inf)

    def test_one_second_is_one_segment_at_a_fractional_rate(self):
        # at 200.4 Hz one second is round(fs) = 200 samples, the segment length
        RawWindow(np.ones((1, 200)), fs=200.4)
        with pytest.raises(ValidationError, match="window must span at least one second"):
            RawWindow(np.ones((1, 199)), fs=200.4)

    @pytest.mark.parametrize("fs", [0.4, 0.0, math.nan])
    def test_sampling_rate_below_one_hz_rejected(self, fs):
        with pytest.raises(ValidationError, match=f"sampling rate {fs:g} Hz is below 1 Hz"):
            RawWindow(np.ones((1, 8)), fs=fs)

    def test_band_edge_order_enforced(self):
        with pytest.raises(ValidationError):
            BandSpec("bad", 10.0, 5.0)

    def test_band_without_a_frequency_bin_rejected(self):
        # at 200 Hz the bins lie 1 Hz apart, so 1.2-1.8 Hz holds none
        bands = [BandSpec("thin", 1.2, 1.8), ALPHA]
        message = ("band 'thin' (1.2-1.8 Hz) holds no frequency bin at 200 Hz, "
                   "where bins are 1 Hz apart")
        with pytest.raises(ValidationError, match=re.escape(message)):
            validate_bands(bands, 200.0)
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_feature_matrix(RawWindow(np.ones((1, 400)), 200.0), 1.0, bands)
        validate_bands([BandSpec("one", 1.0, 1.5)], 200.0)  # bin 1 Hz: lo_hz <= f < hi_hz
