"""Per-band differential-entropy features from raw multichannel windows.

Each channel of a window is cut into 1-second segments, Hann-windowed with no
overlap, and turned into an averaged one-sided power spectral density. The
variance attributed to a frequency band is the PSD integral over bins with
lo_hz <= f < hi_hz, and the feature is the Gaussian closed form of the
band-limited signal's differential entropy:

    de(sigma^2) = 0.5 * ln(2 * pi * e * sigma^2)

Segments are mean-removed before windowing, so a constant channel carries no
band power. Every (window, channel) row of a recording goes through one
batched spectral pass: a band set over few bins multiplies all segments at
once by a windowed DFT basis of just those bins, a wider one runs the FFT
over every bin, and one band matrix reduces the spectra to band variances.
All functions are pure; the cached window, band matrix and basis are
read-only, and nothing here touches files.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# variance floor applied before the log on silent channel/band pairs
VARIANCE_FLOOR = 1e-12

# samples per chunk of the FFT path (512 KB of float64). Each chunk's
# temporaries stay in cache and the allocator reuses them instead of faulting
# in fresh pages: a 62 x 4000 recording at 200 Hz took 2.2 ms per call at 2**16
# and 6 ms at 2**22 (one chunk), and 2**13 and below pay per-chunk overhead.
# Results do not depend on the budget; the band matmul runs once over all rows.
# The basis path is not chunked: BLAS may round a row differently in a product
# of another row count, so one product keeps its output independent of chunks.
_CHUNK_SAMPLES = 2**16

# in-band bins up to which _band_variances multiplies all segments by a DFT
# basis instead of running the FFT; the basis also never covers more than half
# of the spectrum's bins. The product's cost grows with nper * bins, the FFT's
# with nper * log(nper), and the FFT is quickest at power-of-two lengths.
# FFT pass time over basis pass time with the basis forced on at every width,
# 62 x 20 1-s windows, one BLAS thread, medians of 4 alternating process pairs
# (2-vCPU host):
#   128 Hz (65 bins): 39 bins 0.97x, 49 bins 0.88x, 59 bins 0.77x
#   200 Hz (101 bins): 44 bins 2.51x, 49 bins 2.32x, 59 bins 1.65x; these FFT
#     passes faulted in about 700 fresh pages each, and with the pages warm
#     (both ways in one process) 49 bins took 1.22x and 59 bins 0.58x
#   1 kHz (501 bins): 49 bins 1.55x, 74 bins 1.17x, 84 bins 1.10x, 99 bins 1.02x
_BASIS_MAX_BINS = 75


def _one_second(fs: float) -> int:
    """Samples in one second at ``fs``: the length of one spectral segment,
    round(fs). A window or step of at least this many samples holds one."""
    return int(round(fs))


@dataclass(frozen=True)
class BandSpec:
    """A named frequency band with edges in Hz."""

    name: str
    lo_hz: float
    hi_hz: float

    def __post_init__(self):
        if not self.name:
            raise ValidationError("band name must be non-empty")
        if not (0 < self.lo_hz < self.hi_hz):
            raise ValidationError(
                f"band {self.name!r}: need 0 < lo_hz < hi_hz, got ({self.lo_hz}, {self.hi_hz})"
            )


@dataclass
class RawWindow:
    """One time segment of a multichannel recording, channels x samples."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValidationError("samples must be a [n_channels, n_samples] matrix")
        if not self.fs >= 1:
            raise ValidationError(
                f"sampling rate {self.fs:g} Hz is below 1 Hz; a 1-second segment "
                "needs at least one sample"
            )
        # no finite window spans one second at an infinite rate
        if not math.isfinite(self.fs) or self.samples.shape[1] < _one_second(self.fs):
            raise ValidationError("window must span at least one second")
        if not np.isfinite(self.samples).all():
            raise ValidationError("samples contain non-finite values")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


DEFAULT_BANDS = (
    BandSpec("delta", 1.0, 4.0),
    BandSpec("theta", 4.0, 8.0),
    BandSpec("alpha", 8.0, 14.0),
    BandSpec("beta", 14.0, 31.0),
    BandSpec("gamma", 31.0, 50.0),
)


def validate_bands(bands: tuple[BandSpec, ...] | list[BandSpec], fs: float) -> None:
    """Bands must be ordered, non-overlapping, below Nyquist for this fs, and
    each must hold at least one bin of the 1-second spectrum."""
    if not bands:
        raise ValidationError("need at least one band")
    for band in bands:
        if band.hi_hz > fs / 2:
            raise ValidationError(
                f"band {band.name!r} upper edge {band.hi_hz} Hz exceeds Nyquist {fs / 2} Hz"
            )
    for a, b in zip(bands, bands[1:]):
        if b.lo_hz < a.hi_hz:
            raise ValidationError(f"bands {a.name!r} and {b.name!r} overlap or are unordered")
    band_mask = _spectral_plan(fs, tuple(bands))[2]
    for band, holds_bin in zip(bands, band_mask.any(axis=0)):
        if not holds_bin:
            raise ValidationError(
                f"band {band.name!r} ({band.lo_hz:g}-{band.hi_hz:g} Hz) holds no frequency "
                f"bin at {fs:g} Hz, where bins are {fs / _one_second(fs):g} Hz apart"
            )


@functools.lru_cache(maxsize=8)
def _spectral_plan(fs: float, bands: tuple[BandSpec, ...]):
    """Hann window, PSD scale, band matrix and, for a band set over at most
    _BASIS_MAX_BINS bins and at most half the spectrum's bins, the windowed
    DFT basis of those bins (None otherwise).

    The band matrix holds one row per bin of the 1-second rfft, or one per
    in-band bin when there is a basis; its weights count every bin but DC and
    an even length's Nyquist bin twice (one-sided spectrum). The basis is
    [2 * bins, nper]: cos rows, then sin rows. Calls share the cached arrays,
    so they are read-only.
    """
    nper = _one_second(fs)
    freqs = np.fft.rfftfreq(nper, d=1.0 / fs)
    lo = np.array([b.lo_hz for b in bands])
    hi = np.array([b.hi_hz for b in bands])
    # Doubling is exact, so weighting the band matrix by 2 gives the same bits
    # as doubling the PSD before the segment mean.
    bins = np.arange(freqs.size)
    one_sided = np.where((bins == 0) | (2 * bins == nper), 1.0, 2.0)
    band_mask = ((freqs[:, None] >= lo) & (freqs[:, None] < hi)) * one_sided[:, None]
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nper) / nper)
    in_band = np.flatnonzero(band_mask.any(axis=1))
    basis = None
    if in_band.size <= min(_BASIS_MAX_BINS, freqs.size // 2):
        # k * n is reduced mod nper before scaling, so every phase lies in [0, 2 pi)
        phase = (np.outer(in_band, np.arange(nper)) % nper) * (2.0 * np.pi / nper)
        basis = np.vstack([np.cos(phase), np.sin(phase)]) * w
        basis.setflags(write=False)
        band_mask = band_mask[in_band]
    w.setflags(write=False)
    band_mask.setflags(write=False)
    return w, fs * np.sum(w**2), band_mask, basis


def _band_variances(x: np.ndarray, fs: float, bands) -> np.ndarray:
    """Band-limited variances of every row of ``x``: [..., n_samples] -> [..., n_bands].

    Each row is cut into non-overlapping 1-second segments (a partial last
    segment is dropped); each segment is mean-removed and Hann-windowed, and
    the one-sided PSD, scaled so that sum(psd) * df equals the mean-removed
    variance, is averaged over segments. A band's variance is the PSD summed
    over bins with lo_hz <= f < hi_hz, times df. Every row must hold at least
    one segment, _one_second(fs) samples: a RawWindow holds one, and
    build_feature_matrix refuses a shorter window.

    Two ways give the spectrum, chosen by the band set's in-band bin count
    (see _spectral_plan). Over few bins, all segments are centered and
    multiplied at once by the windowed cos/sin basis of the in-band bins, so
    only those bins are computed. Wider band sets run the FFT over every bin,
    in chunks of at most _CHUNK_SAMPLES samples (at least one row per chunk).
    """
    nper = _one_second(fs)
    n_seg = x.shape[-1] // nper
    w, scale, band_mask, basis = _spectral_plan(fs, tuple(bands))
    rows = x.reshape(-1, x.shape[-1])
    if basis is None:
        mean_psd = np.empty((rows.shape[0], band_mask.shape[0]))
        per_chunk = max(1, _CHUNK_SAMPLES // x.shape[-1])
        for start in range(0, rows.shape[0], per_chunk):
            segs = rows[start:start + per_chunk, : n_seg * nper].reshape(-1, n_seg, nper)
            segs = segs - segs.mean(axis=-1, keepdims=True)
            segs *= w
            spec = np.fft.rfft(segs, axis=-1)
            psd = np.square(spec.real)
            psd += np.square(spec.imag)
            psd /= scale
            np.mean(psd, axis=-2, out=mean_psd[start:start + per_chunk])
    else:
        # explicit centering: folding the mean into the basis cancels
        # catastrophically under a large DC offset
        segs = rows[:, : n_seg * nper].reshape(-1, nper)
        segs = segs - segs.mean(axis=-1, keepdims=True)
        proj = basis @ segs.T
        np.square(proj, out=proj)
        n_bins = band_mask.shape[0]
        psd = proj[:n_bins]
        psd += proj[n_bins:]
        psd /= scale
        mean_psd = psd.reshape(n_bins, rows.shape[0], n_seg).mean(axis=-1).T
    return ((mean_psd @ band_mask) * (fs / nper)).reshape(*x.shape[:-1], len(bands))


def band_variance(window: RawWindow, band: BandSpec, channel: int) -> float:
    """Band-limited signal variance from STFT power summed over in-band bins."""
    if not 0 <= channel < window.n_channels:
        raise ValidationError(f"channel {channel} outside [0, {window.n_channels})")
    validate_bands((band,), window.fs)
    return float(_band_variances(window.samples[channel], window.fs, (band,))[0])


def differential_entropy(variance: float) -> float:
    """0.5 * ln(2 pi e sigma^2), in nats."""
    if not np.isfinite(variance) or variance <= 0:
        raise ValidationError(f"variance must be positive and finite, got {variance}")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def build_feature_matrix(
    recording: RawWindow,
    window_seconds: float | None = None,
    bands: tuple[BandSpec, ...] | list[BandSpec] = DEFAULT_BANDS,
) -> tuple[np.ndarray, list[tuple[int, int, str]]]:
    """Differential entropy of every (window, channel, band) in one batched pass.

    The recording is cut into consecutive windows of round(window_seconds *
    fs) samples (None: the whole recording is one window); a tail shorter
    than a window is dropped. A non-finite window_seconds, or a window
    shorter than one second or longer than the recording, raises a
    ValidationError. Returns the [n_windows, n_channels * n_bands] matrix,
    channel-major within a row, and the (window, channel, band name) triples
    whose variance fell below VARIANCE_FLOOR and was clamped before the log.
    A negative or non-finite power estimate raises a ValidationError naming
    its window, channel and band.
    """
    n, fs = recording.n_samples, recording.fs
    step = n
    if window_seconds is not None:
        if not math.isfinite(window_seconds):
            raise ValidationError(f"window_seconds must be finite, got {window_seconds}")
        # clamped before rounding, so a finite value of any size cannot overflow int
        step = int(round(min(max(window_seconds * fs, 0.0), n + 1)))
        if step < _one_second(fs):
            raise ValidationError("window_seconds must cover at least one second")
        if step > n:
            raise ValidationError(f"window_seconds {window_seconds:g} is longer than the "
                                  f"recording ({n / fs:g} s)")
    validate_bands(bands, fs)
    n_win = n // step
    # channel-major rows keep the whole-recording case (one window) a view
    x = recording.samples[:, : n_win * step].reshape(recording.n_channels, n_win, step)
    var = _band_variances(x, fs, bands).transpose(1, 0, 2)
    bad = ~np.isfinite(var) | (var < 0)
    if bad.any():
        w, ch, b = np.argwhere(bad)[0]
        raise ValidationError(
            f"window {w}, channel {ch}, band {bands[b].name!r}: "
            f"invalid band variance {var[w, ch, b]}"
        )
    low = var < VARIANCE_FLOOR
    floored = [(int(w), int(ch), bands[b].name) for w, ch, b in np.argwhere(low)]
    var = np.where(low, VARIANCE_FLOOR, var)
    values = 0.5 * np.log(2.0 * math.pi * math.e * var)
    return values.reshape(n_win, -1), floored

