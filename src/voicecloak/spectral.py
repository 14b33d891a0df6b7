"""STFT analysis, synthesis with the clean phase, and the log-mel front-end.

The front end is fixed: FFT_SIZE (512) points, a WIN_LENGTH (400-sample,
25 ms) window and a HOP_LENGTH (160-sample, 10 ms) hop at
audio_io.CANONICAL_RATE (16 kHz), giving N_BINS (257) frequency bins.
Conventions, fixed here once so that analysis and synthesis agree exactly:

* frames are center-aligned: the signal is reflect-padded by WIN_LENGTH/2
  at both ends, frame k starts at k*HOP_LENGTH in the padded signal, and
  the frame count is floor(len/HOP_LENGTH) + 1; only edge frames read the
  padding, from a small reflected buffer of their end, and the others are
  windowed straight from the samples, so no padded copy is made;
* the analysis window is WINDOW, a periodic Hann of WIN_LENGTH samples,
  zero-padded centrally to FFT_SIZE;
* synthesis uses the same window with overlap-add, normalized per sample
  by the summed squared window (samples where that sum is below 1e-9 are
  set to zero); that sum's slots between the first two and the last two
  are all alike, so five rows of a NORM_FRAMES-frame map's sum serve;
* the attack surface is the linear magnitude (`stft_magnitude`); only
  `resynthesize` forms the clean unit phasor S/|S|, 1 where |S| is 0;
* every pass goes BLOCK_FRAMES frames at a time: `stft_magnitude` and
  `resynthesize` never hold a spectrum of the whole signal, and `istft`
  and `resynthesize` share one overlap-add over hop-sized slots that adds,
  per sample, the frames in the order a frame-by-frame loop would;
* the filterbank consumes the power spectrum (squared magnitude) and the
  output is log-compressed with floor LOG_FLOOR;
* the filterbank product, its backward GEMM and the encoder's convolutions
  go a block of `row_blocks` at a time: an even number of rows, at least
  BLOCK_FRAMES and MIN_BLOCK_OUTPUTS outputs, a tail under half a block
  joined to the one before, so that no GEMM is small enough (about 1200
  outputs) to take OpenBLAS's path with other bits. A convolution's blocks
  are also capped at IM2COL_VALUES values of im2col rows (the default
  encoder's first forward block, 0.56 MiB), down to MIN_BLOCK_OUTPUTS
  outputs over all its output channels: the default encoder's backward
  convolutions go 64 rows at a time, its forward ones 128. A map that is
  one block without the cap stays one product.

All numerics are float64 so gradient checks against finite differences
stay tight.
"""

from __future__ import annotations

from collections.abc import Iterator
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
_CHUNKS = -(-WIN_LENGTH // HOP_LENGTH)  # hop-sized slots one window spans
# frames per block of a pass that would otherwise make a full-size temporary:
# the encoder's convolutions, the FFTs, the step
BLOCK_FRAMES = 128
MIN_BLOCK_OUTPUTS = 4096  # output entries of a blocked product's smallest GEMM
IM2COL_VALUES = 9 * BLOCK_FRAMES * 64  # a convolution block's im2col cap: 0.56 MiB
NORM_FRAMES = 6  # frames of the map whose squared-window sum normalizes synthesis


@dataclass
class Spectrogram:
    """Complex [frames x bins] spectrum from a single analysis pass; its
    magnitude is computed on each read."""

    spectrum: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.spectrum)


def _analysis(w: Waveform) -> tuple[int, Iterator[tuple[int, np.ndarray]]]:
    """The frame count of w's analysis, and a generator of its transforms.

    Requires at least one window of samples at CANONICAL_RATE, the only
    rate accepted. Only the edge frames (two at the head, one or two at
    the tail) read a reflected buffer of their end, of at most 560 samples.
    The generator windows BLOCK_FRAMES frames at a time into one buffer and
    yields (first frame, rfft of the block), a fresh complex array each
    time, so no padded signal or spectrum of the whole signal is made.
    """
    if w.sample_rate != CANONICAL_RATE:
        raise ValueError(
            f"expected {CANONICAL_RATE} Hz input, got {w.sample_rate} Hz;"
            f" only {CANONICAL_RATE} Hz is accepted"
        )
    x = w.samples
    if len(x) < WIN_LENGTH:
        raise ValueError(
            f"signal of {len(x)} samples is shorter than one window ({WIN_LENGTH} samples)"
        )
    half = WIN_LENGTH // 2
    n_frames = len(x) // HOP_LENGTH + 1
    lo, hi = -(-half // HOP_LENGTH), (len(x) - half) // HOP_LENGTH + 1  # frames [lo, hi) in x
    inner = np.lib.stride_tricks.sliding_window_view(x, WIN_LENGTH)[lo * HOP_LENGTH - half :]
    inner = inner[::HOP_LENGTH]  # frame k starts at sample k * HOP_LENGTH - half
    reach = (n_frames - 1) * HOP_LENGTH + half - len(x)  # samples the last frame reads past x
    head = np.concatenate((x[half:0:-1], x[: (lo - 1) * HOP_LENGTH + half]))
    tail = np.concatenate((x[hi * HOP_LENGTH - half :], x[-2 : -2 - reach : -1]))
    edges = [(k, head[k * HOP_LENGTH :]) for k in range(lo)]
    edges += [(k, tail[(k - hi) * HOP_LENGTH :]) for k in range(hi, n_frames)]

    def blocks():
        frames = np.zeros((min(n_frames, BLOCK_FRAMES), FFT_SIZE))
        for start in range(0, n_frames, BLOCK_FRAMES):
            rows = frames[: min(BLOCK_FRAMES, n_frames - start), _LPAD : _LPAD + WIN_LENGTH]
            block = inner[max(start - lo, 0) : start + len(rows) - lo]
            np.multiply(block, WINDOW, out=rows[max(lo - start, 0) :][: len(block)])
            for k, frame in edges:
                if start <= k < start + len(rows):
                    np.multiply(frame[:WIN_LENGTH], WINDOW, out=rows[k - start])
            yield start, np.fft.rfft(frames[: len(rows)], axis=1)

    return n_frames, blocks()


def stft(w: Waveform) -> Spectrogram:
    """Analyze a waveform into its complex spectrum.

    Only CANONICAL_RATE input of at least one window is accepted. No command
    reads a complex spectrum: this and `istft` stay only because the bench
    and the tests read them.
    """
    n_frames, blocks = _analysis(w)
    spectrum = np.empty((n_frames, N_BINS), dtype=complex)
    for start, part in blocks:
        spectrum[start : start + len(part)] = part
    return Spectrogram(spectrum)


def stft_magnitude(w: Waveform) -> np.ndarray:
    """|stft(w).spectrum|, [frames x bins], with no complex spectrum held:
    each block's transform goes into its rows and is dropped."""
    n_frames, blocks = _analysis(w)
    magnitude = np.empty((n_frames, N_BINS))
    for start, part in blocks:
        np.abs(part, out=magnitude[start : start + len(part)])
    return magnitude


def resynthesize(w: Waveform, magnitude: np.ndarray) -> Waveform:
    """Samples of magnitude times w's clean unit phasor S/|S| (1 where |S| is
    0), overlap-added to len(w): the only place the phasor is formed. Each
    block of w's analysis is turned into its phasor in place, times its rows
    of magnitude (only read), and goes to overlap-add before the next block
    is made, so no spectrum is held."""
    n_frames, blocks = _analysis(w)
    if magnitude.shape != (n_frames, N_BINS):
        raise ValueError(f"magnitude shape {magnitude.shape} does not match the analysis"
                         f" ({n_frames}, {N_BINS}) of {len(w)} samples")

    def spectra():
        for start, part in blocks:
            mag = np.abs(part)
            live = mag > 0
            np.divide(part, mag, out=part, where=live)  # the phasor, in place
            np.copyto(part, 1.0, where=np.logical_not(live, out=live))
            del mag, live
            part *= magnitude[start : start + len(part)]
            yield start, part
            del part  # the next block is made without this one

    return _overlap_add(spectra(), n_frames, len(w))


def istft(spectrum: np.ndarray, length: int) -> Waveform:
    """Weighted overlap-add synthesis from a complex [frames x bins] spectrum.

    With the analysis window, normalized per sample by the summed squared
    window, so istft(stft(w).spectrum) is an identity away from the edges;
    trimmed to `length` samples. The spectrum is only read, a block at a time.
    """
    n_frames = spectrum.shape[0]
    if spectrum.shape[1] != N_BINS:
        raise ValueError(f"expected {N_BINS} bins, got {spectrum.shape[1]}")
    blocks = ((start, spectrum[start : start + BLOCK_FRAMES])
              for start in range(0, n_frames, BLOCK_FRAMES))
    return _overlap_add(blocks, n_frames, length)


def _overlap_add(blocks, n_frames: int, length: int) -> Waveform:
    """Overlap-add the (first frame, complex block) pairs of n_frames frames,
    in order, normalize and trim to length samples.

    The output is viewed as HOP_LENGTH-sample slots: frame k's chunks 0, 1
    and 2 land in slots k, k+1 and k+2. Each block adds its frames' chunk 2,
    then chunk 1, then chunk 0, so every sample sums frame k-2, then k-1,
    then k, the order of adding frame by frame; the block and its transform
    are dropped before the next block is made. The squared-window sum is
    added the same way, for a map of NORM_FRAMES frames: its two head and
    two tail slots are those of any longer map, and every slot between
    holds its third slot's values, so those five rows normalize the whole
    output. A map of at most NORM_FRAMES frames takes its own whole sum.
    """
    n_slots = n_frames + _CHUNKS - 1
    half = WIN_LENGTH // 2
    out = np.zeros(max(n_slots * HOP_LENGTH, half + length))
    slots = out[: n_slots * HOP_LENGTH].reshape(n_slots, HOP_LENGTH)
    for first, block in blocks:
        frames = np.fft.irfft(block, n=FFT_SIZE, axis=1)[:, _LPAD : _LPAD + WIN_LENGTH]
        frames *= WINDOW
        _add_chunks(slots, frames, first)
        del block, frames  # the next block is made without these
    n = min(n_frames, NORM_FRAMES)
    wsum = np.zeros((n + _CHUNKS - 1, HOP_LENGTH))
    _add_chunks(wsum, np.broadcast_to(WINDOW**2, (n, WIN_LENGTH)), 0)
    edge = _CHUNKS - 1  # head and tail slots that fewer than _CHUNKS frames reach
    if n_frames > NORM_FRAMES:
        parts = ((slots[:edge], wsum[:edge]), (slots[edge:-edge], wsum[edge]),
                 (slots[-edge:], wsum[-edge:]))
    else:
        parts = ((slots, wsum),)
    for part, norm in parts:
        nonzero = norm >= WINDOW_SUM_EPS
        np.divide(part, norm, out=part, where=nonzero)
        np.copyto(part, 0.0, where=~nonzero)
    return Waveform(out[half : half + length], CANONICAL_RATE)


def _add_chunks(slots: np.ndarray, frames: np.ndarray, first: int) -> None:
    for c in reversed(range(_CHUNKS)):  # frame k-2's chunk first, frame k's last
        chunk = frames[:, c * HOP_LENGTH : (c + 1) * HOP_LENGTH]
        slots[first + c : first + c + len(chunk), : chunk.shape[1]] += chunk


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_matrix(fft_size: int = FFT_SIZE, n_mels: int = 64) -> np.ndarray:
    """Triangular mel filterbank, [n_mels x bins], spanning 0 to Nyquist at CANONICAL_RATE.

    Built once per parameter set, in one broadcast, and shared read-only.
    Raises where some filter covers no FFT bin at all, naming the first.
    """
    return _mel_matrix(fft_size, n_mels)


@lru_cache(maxsize=8)
def _mel_matrix(fft_size: int, n_mels: int) -> np.ndarray:
    # called positionally only, so the cache keys on the values whatever form mel_matrix got
    n_bins = fft_size // 2 + 1
    if not 1 <= n_mels < n_bins:
        raise ValueError(f"n_mels must be in [1, {n_bins}), got {n_mels}")
    mel_points = np.linspace(0.0, hz_to_mel(CANONICAL_RATE / 2.0), n_mels + 2)
    hz_points = mel_to_hz(mel_points)[:, None]  # filter m: up from point m to m + 1, down to m + 2
    lo, center, hi = hz_points[:-2], hz_points[1:-1], hz_points[2:]
    bin_freqs = np.arange(n_bins) * (CANONICAL_RATE / fft_size)
    rising = (bin_freqs - lo) / (center - lo)
    falling = (hi - bin_freqs) / (hi - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    empty = np.flatnonzero(~np.any(weights > 0.0, axis=1))
    if len(empty):
        m = empty[0]
        raise ValueError(
            f"mel filter {m} ({lo[m, 0]:.1f}-{hi[m, 0]:.1f} Hz) covers no FFT bin;"
            " reduce n_mels or increase fft_size"
        )
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=64)
def row_blocks(n_rows: int, width: int, reads: int) -> tuple[slice, ...]:
    """The row blocks of a product with `width` outputs per row, whose rows
    each read `reads` values of im2col rows, or 0 (see the module docstring)."""
    least = 2 * -(-MIN_BLOCK_OUTPUTS // (2 * width))  # even
    size = max(BLOCK_FRAMES, least)
    if reads and 2 * n_rows >= 3 * size:  # a map of one block stays one product
        size = max(min(size, IM2COL_VALUES // reads // 2 * 2), least)
    starts = list(range(0, n_rows, size))
    if len(starts) > 1 and n_rows - starts[-1] < size / 2:
        del starts[-1]
    return tuple(slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows]))


def mel_energies(mag: np.ndarray, mel: np.ndarray) -> np.ndarray:
    """Filterbank energies mag^2 . mel^T, [frames x n_mels], squared into one
    buffer a block of `row_blocks` at a time, so no mag^2 of mag's size is made."""
    if mag.shape[1] != mel.shape[1]:
        raise ValueError(f"bins mismatch: magnitude {mag.shape[1]} vs filterbank {mel.shape[1]}")
    energies, blocks = np.empty((len(mag), len(mel))), row_blocks(len(mag), len(mel), 0)
    squares = np.empty((max((b.stop - b.start for b in blocks), default=0), mag.shape[1]))
    for rows in blocks:
        block = np.square(mag[rows], out=squares[: rows.stop - rows.start])
        np.matmul(block, mel.T, out=energies[rows])
    return energies


def log_energies(energies: np.ndarray) -> np.ndarray:
    """log(max(energies, floor)): the log compression of `log_mel`, in one new array."""
    out = np.maximum(energies, LOG_FLOOR)
    return np.log(out, out=out)


def log_mel(mag: np.ndarray, mel: np.ndarray) -> np.ndarray:
    """log(max(mag^2 . mel^T, floor)), [frames x n_mels]: the encoder's input."""
    return log_energies(mel_energies(mag, mel))


def log_energies_backward(grad_out: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Gradient of `log_energies` for grad_out at its output, written over
    energies and returned: grad_out / energies above the floor, 0 on it."""
    if grad_out.shape != energies.shape:
        raise ValueError(f"grad_out {grad_out.shape} does not match features {energies.shape}")
    live = energies > LOG_FLOOR
    grad_energy = np.divide(grad_out, energies, out=energies, where=live)
    np.copyto(grad_energy, 0.0, where=np.logical_not(live, out=live))
    return grad_energy


def log_mel_backward(
    grad_energy: np.ndarray, mag: np.ndarray, mel: np.ndarray, out: np.ndarray | None
) -> np.ndarray:
    """Gradient of log_mel with respect to rows of mag, from the gradient with
    respect to their energies (`log_energies_backward`): grad_energy . mel,
    into out (a new array if None), scaled there by 2 * mag and returned.
    On the blocks of `row_blocks(*mag.shape)` it has the whole call's bits."""
    grad_mag = np.matmul(grad_energy, mel, out=out)
    grad_mag *= 2.0 * mag
    return grad_mag


def write_magnitude_csv(magnitude: np.ndarray, path) -> None:
    """Dump a magnitude matrix as CSV, one analysis frame per row."""
    np.savetxt(path, magnitude, fmt="%.9g", delimiter=",")
