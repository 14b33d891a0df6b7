"""STFT analysis, phase-preserving synthesis, and the log-mel front-end.

Conventions, fixed here once so that analysis and synthesis agree exactly:

* frames are center-aligned: the signal is reflect-padded by win_length/2
  at both ends, frame k starts at k*hop in the padded signal, and the
  frame count is floor(len/hop) + 1;
* the analysis window is a periodic Hann of win_length samples,
  zero-padded centrally to fft_size;
* synthesis uses the same window with overlap-add, normalized per sample
  by the summed squared window (samples where that sum is below 1e-9 are
  set to zero);
* the attack surface is the linear magnitude; phase is carried alongside
  untouched and reused at synthesis;
* the filterbank consumes the power spectrum (squared magnitude) and the
  output is log-compressed with floor LOG_FLOOR.

All numerics are float64 so gradient checks against finite differences
stay tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import Waveform

LOG_FLOOR = 1e-10
WINDOW_SUM_EPS = 1e-9


@dataclass(frozen=True)
class StftConfig:
    """512-point transform, 25 ms window and 10 ms hop at 16 kHz."""

    fft_size: int = 512
    win_length: int = 400
    hop_length: int = 160

    def __post_init__(self):
        if not (0 < self.hop_length <= self.win_length <= self.fft_size):
            raise ValueError(
                f"need 0 < hop ({self.hop_length}) <= win ({self.win_length})"
                f" <= fft ({self.fft_size})"
            )

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def window(self) -> np.ndarray:
        """Periodic Hann over win_length samples."""
        n = np.arange(self.win_length)
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / self.win_length))


@dataclass
class Spectrogram:
    """Magnitude/phase pair from a single analysis pass.

    magnitude and phase are [frames x bins]; phase angles lie in (-pi, pi].
    """

    magnitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        if self.magnitude.shape != self.phase.shape:
            raise ValueError(
                f"magnitude {self.magnitude.shape} and phase {self.phase.shape} differ"
            )


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Analyze a waveform into magnitude and phase matrices.

    Requires at least one window of samples. The waveform is expected at
    the canonical 16 kHz rate; resample first otherwise.
    """
    x = w.samples
    if len(x) < cfg.win_length:
        raise ValueError(
            f"signal of {len(x)} samples is shorter than one window"
            f" ({cfg.win_length} samples)"
        )
    half = cfg.win_length // 2
    padded = np.pad(x, (half, half), mode="reflect")
    n_frames = len(x) // cfg.hop_length + 1
    window = cfg.window()
    lpad = (cfg.fft_size - cfg.win_length) // 2

    frames = np.zeros((n_frames, cfg.fft_size))
    for k in range(n_frames):
        start = k * cfg.hop_length
        frames[k, lpad : lpad + cfg.win_length] = padded[start : start + cfg.win_length] * window
    spectrum = np.fft.rfft(frames, n=cfg.fft_size, axis=1)
    return Spectrogram(magnitude=np.abs(spectrum), phase=np.angle(spectrum))


def istft(
    magnitude: np.ndarray,
    phase: np.ndarray,
    cfg: StftConfig = StftConfig(),
    length: int | None = None,
) -> Waveform:
    """Weighted overlap-add synthesis from magnitude and phase.

    The synthesis window equals the analysis window; each output sample is
    normalized by the accumulated squared window, which makes
    istft(stft(w)) an identity away from the signal edges. Output is
    trimmed to `length` samples at 16 kHz.
    """
    if magnitude.shape != phase.shape:
        raise ValueError(f"shape mismatch: magnitude {magnitude.shape} vs phase {phase.shape}")
    n_frames = magnitude.shape[0]
    if magnitude.shape[1] != cfg.n_bins:
        raise ValueError(f"expected {cfg.n_bins} bins, got {magnitude.shape[1]}")
    window = cfg.window()
    lpad = (cfg.fft_size - cfg.win_length) // 2
    half = cfg.win_length // 2

    span = (n_frames - 1) * cfg.hop_length + cfg.win_length
    out = np.zeros(span)
    wsum = np.zeros(span)
    frames_time = np.fft.irfft(magnitude * np.exp(1j * phase), n=cfg.fft_size, axis=1)
    for k in range(n_frames):
        start = k * cfg.hop_length
        out[start : start + cfg.win_length] += frames_time[k, lpad : lpad + cfg.win_length] * window
        wsum[start : start + cfg.win_length] += window**2
    nonzero = wsum >= WINDOW_SUM_EPS
    out[nonzero] /= wsum[nonzero]
    out[~nonzero] = 0.0

    if length is None:
        length = span - cfg.win_length
    result = np.zeros(length)
    avail = min(length, span - half)
    result[:avail] = out[half : half + avail]
    return Waveform(result, 16000)


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_matrix(fft_size: int = 512, n_mels: int = 64, sample_rate: int = 16000) -> np.ndarray:
    """Triangular mel filterbank, [n_mels x bins], spanning 0 to Nyquist.

    Built once per parameter set and shared, so the array is read-only.
    Raises on degenerate parameterizations where some filter covers no
    FFT bin at all.
    """
    n_bins = fft_size // 2 + 1
    if not 1 <= n_mels < n_bins:
        raise ValueError(f"n_mels must be in [1, {n_bins}), got {n_mels}")
    mel_points = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * (sample_rate / fft_size)

    weights = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
        if not np.any(weights[m] > 0.0):
            raise ValueError(
                f"mel filter {m} ({lo:.1f}-{hi:.1f} Hz) covers no FFT bin;"
                " reduce n_mels or increase fft_size"
            )
    weights.flags.writeable = False
    return weights


def mel_energies(mag: np.ndarray, mel: np.ndarray) -> np.ndarray:
    """Filterbank energies mag^2 . mel^T, [frames x n_mels]."""
    if mag.shape[1] != mel.shape[1]:
        raise ValueError(f"bins mismatch: magnitude {mag.shape[1]} vs filterbank {mel.shape[1]}")
    return (mag**2) @ mel.T


def log_energies(energies: np.ndarray) -> np.ndarray:
    """log(max(energies, floor)): the log compression of `log_mel`."""
    return np.log(np.maximum(energies, LOG_FLOOR))


def log_mel(mag: np.ndarray, mel: np.ndarray) -> np.ndarray:
    """log(max(mag^2 . mel^T, floor)), [frames x n_mels]: the encoder's input."""
    return log_energies(mel_energies(mag, mel))


def log_mel_backward(
    grad_out: np.ndarray, mag: np.ndarray, mel: np.ndarray, energies: np.ndarray
) -> np.ndarray:
    """Gradient of log_mel with respect to the magnitude matrix.

    Exact reverse-mode differentiation; channels sitting on the log floor
    contribute zero. `energies` are `mel_energies(mag, mel)` from the
    forward pass, shared rather than recomputed.
    """
    if grad_out.shape != energies.shape:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match features {energies.shape}"
        )
    grad_energy = np.where(energies > LOG_FLOOR, grad_out / np.maximum(energies, LOG_FLOOR), 0.0)
    return (grad_energy @ mel) * (2.0 * mag)


def write_magnitude_csv(spec: Spectrogram, path) -> None:
    """Dump the magnitude matrix as CSV, one analysis frame per row."""
    np.savetxt(path, spec.magnitude, fmt="%.9g", delimiter=",")
