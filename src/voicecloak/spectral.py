"""STFT analysis, synthesis from a complex spectrum, and the log-mel front-end.

The front end is fixed: FFT_SIZE (512) points, a WIN_LENGTH (400-sample,
25 ms) window and a HOP_LENGTH (160-sample, 10 ms) hop at
audio_io.CANONICAL_RATE (16 kHz), giving N_BINS (257) frequency bins.
Conventions, fixed here once so that analysis and synthesis agree exactly:

* frames are center-aligned: the signal is reflect-padded by WIN_LENGTH/2
  at both ends, frame k starts at k*HOP_LENGTH in the padded signal, and
  the frame count is floor(len/HOP_LENGTH) + 1;
* the analysis window is WINDOW, a periodic Hann of WIN_LENGTH samples,
  zero-padded centrally to FFT_SIZE;
* synthesis uses the same window with overlap-add, normalized per sample
  by the summed squared window (samples where that sum is below 1e-9 are
  set to zero);
* analysis keeps the complex spectrum; the attack surface is its linear
  magnitude, resynthesized times the clean unit phasor S/|S|;
* the filterbank consumes the power spectrum (squared magnitude) and the
  output is log-compressed with floor LOG_FLOOR.

All numerics are float64 so gradient checks against finite differences
stay tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import CANONICAL_RATE, Waveform

LOG_FLOOR = 1e-10
WINDOW_SUM_EPS = 1e-9

FFT_SIZE = 512
WIN_LENGTH = 400
HOP_LENGTH = 160
N_BINS = FFT_SIZE // 2 + 1
WINDOW = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WIN_LENGTH) / WIN_LENGTH))
WINDOW.flags.writeable = False
_LPAD = (FFT_SIZE - WIN_LENGTH) // 2  # window offset inside each FFT frame


@dataclass
class Spectrogram:
    """Complex [frames x bins] spectrum from a single analysis pass.

    magnitude and phasor are computed on each read; the phasor S/|S| has
    unit modulus, and is 1 (angle 0) where the magnitude is 0.
    """

    spectrum: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.spectrum)

    @property
    def phasor(self) -> np.ndarray:
        mag = self.magnitude
        return np.divide(self.spectrum, mag, out=np.ones_like(self.spectrum), where=mag > 0)


def stft(w: Waveform) -> Spectrogram:
    """Analyze a waveform into its complex spectrum.

    Requires at least one window of samples at CANONICAL_RATE; resample
    first otherwise.
    """
    if w.sample_rate != CANONICAL_RATE:
        raise ValueError(
            f"expected {CANONICAL_RATE} Hz input, got {w.sample_rate} Hz; resample first"
        )
    x = w.samples
    if len(x) < WIN_LENGTH:
        raise ValueError(
            f"signal of {len(x)} samples is shorter than one window ({WIN_LENGTH} samples)"
        )
    half = WIN_LENGTH // 2
    padded = np.pad(x, (half, half), mode="reflect")
    n_frames = len(x) // HOP_LENGTH + 1

    frames = np.zeros((n_frames, FFT_SIZE))
    windows = np.lib.stride_tricks.sliding_window_view(padded, WIN_LENGTH)[::HOP_LENGTH]
    np.multiply(windows, WINDOW, out=frames[:, _LPAD : _LPAD + WIN_LENGTH])
    return Spectrogram(np.fft.rfft(frames, n=FFT_SIZE, axis=1))


def istft(spectrum: np.ndarray, length: int) -> Waveform:
    """Weighted overlap-add synthesis from a complex [frames x bins] spectrum.

    The synthesis window equals the analysis window; each output sample is
    normalized by the accumulated squared window, which makes
    istft(stft(w).spectrum) an identity away from the signal edges. Output
    is trimmed to `length` samples at CANONICAL_RATE.
    """
    n_frames = spectrum.shape[0]
    if spectrum.shape[1] != N_BINS:
        raise ValueError(f"expected {N_BINS} bins, got {spectrum.shape[1]}")
    half = WIN_LENGTH // 2

    span = (n_frames - 1) * HOP_LENGTH + WIN_LENGTH
    out = np.zeros(span)
    wsum = np.zeros(span)
    frames_time = np.fft.irfft(spectrum, n=FFT_SIZE, axis=1)
    for k in range(n_frames):
        start = k * HOP_LENGTH
        out[start : start + WIN_LENGTH] += frames_time[k, _LPAD : _LPAD + WIN_LENGTH] * WINDOW
        wsum[start : start + WIN_LENGTH] += WINDOW**2
    nonzero = wsum >= WINDOW_SUM_EPS
    out[nonzero] /= wsum[nonzero]
    out[~nonzero] = 0.0

    result = np.zeros(length)
    avail = min(length, span - half)
    result[:avail] = out[half : half + avail]
    return Waveform(result, CANONICAL_RATE)


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_matrix(fft_size: int = FFT_SIZE, n_mels: int = 64) -> np.ndarray:
    """Triangular mel filterbank, [n_mels x bins], spanning 0 to Nyquist at CANONICAL_RATE.

    Built once per parameter set and shared, so the array is read-only.
    Raises on degenerate parameterizations where some filter covers no
    FFT bin at all.
    """
    return _mel_matrix(fft_size, n_mels)


@lru_cache(maxsize=8)
def _mel_matrix(fft_size: int, n_mels: int) -> np.ndarray:
    # called positionally only, so the cache keys on the values whatever form mel_matrix got
    n_bins = fft_size // 2 + 1
    if not 1 <= n_mels < n_bins:
        raise ValueError(f"n_mels must be in [1, {n_bins}), got {n_mels}")
    mel_points = np.linspace(0.0, hz_to_mel(CANONICAL_RATE / 2.0), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * (CANONICAL_RATE / fft_size)

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


def write_magnitude_csv(magnitude: np.ndarray, path) -> None:
    """Dump a magnitude matrix as CSV, one analysis frame per row."""
    np.savetxt(path, magnitude, fmt="%.9g", delimiter=",")
