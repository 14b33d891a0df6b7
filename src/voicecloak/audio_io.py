"""Mono waveform I/O: RIFF/WAVE reading and writing, noise injection.

Audio is 16 kHz (CANONICAL_RATE) throughout; `read_wav` refuses a file at
any other rate, naming it, rather than resample it. `to_pcm16` is the one
quantizer (clamp to [-1, 1 - 1/32768], scale by 32768, round half to
even), which `write_wav` writes, and `from_pcm16` the one dequantizer
(k * (1/32768)), which `read_wav` reads; neither makes a float array of the
signal's size beyond its result.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INT16_FULL_SCALE = 32768
CANONICAL_RATE = 16000
PCM16_BLOCK = 8192  # samples per block of to_pcm16's float buffer
_PCM16_MAX = (INT16_FULL_SCALE - 1) / INT16_FULL_SCALE


class WavFormatError(ValueError):
    """Raised when a WAV file cannot be parsed or uses an unsupported layout."""


@dataclass
class Waveform:
    """Mono time-domain signal.

    samples are float64 amplitudes, nominally in [-1, 1]; the write path
    clamps, intermediate processing may exceed the range transiently.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return len(self.samples)


def _read_chunks(data: memoryview, path: str) -> dict[str, memoryview]:
    """Collect RIFF sub-chunks, keyed by chunk id, as views of data (no copies)."""
    if len(data) < 12:
        raise WavFormatError(f"{path}: truncated file, only {len(data)} bytes")
    if data[0:4] != b"RIFF":
        raise WavFormatError(f"{path}: bad container id {bytes(data[0:4])!r}, expected b'RIFF'")
    if data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: bad format id {bytes(data[8:12])!r}, expected b'WAVE'")
    chunks: dict[str, memoryview] = {}
    pos = 12
    while pos + 8 <= len(data):
        cid = str(data[pos : pos + 4], "latin-1")
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(
                f"{path}: chunk {cid!r} declares {size} bytes but only "
                f"{len(body)} are present (truncated file)"
            )
        if cid not in chunks:
            chunks[cid] = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def read_wav(path) -> Waveform:
    """Read a mono RIFF/WAVE file (PCM 16-bit or IEEE float 32-bit).

    16-bit samples are scaled to [-1, 1) by `from_pcm16`. Anything else
    (other encodings, multichannel audio, a rate other than CANONICAL_RATE)
    raises WavFormatError naming the path and the offending header field.
    The chunks are read through views of the file's bytes, and the samples
    are made once, as the float64 array returned.
    """
    chunks = _read_chunks(memoryview(Path(path).read_bytes()), str(path))
    if "fmt " not in chunks:
        raise WavFormatError(f"{path}: missing 'fmt ' chunk")
    if "data" not in chunks:
        raise WavFormatError(f"{path}: missing 'data' chunk")
    fmt = chunks["fmt "]
    if len(fmt) < 16:
        raise WavFormatError(f"{path}: 'fmt ' chunk too short ({len(fmt)} bytes)")
    format_code, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0
    )
    if channels != 1:
        raise WavFormatError(f"{path}: channel count {channels} not supported, mono required")
    if rate != CANONICAL_RATE:
        raise WavFormatError(f"{path}: sample_rate {rate} Hz not supported, need {CANONICAL_RATE}")
    if (format_code, bits) == (1, 16):
        dtype = np.dtype("<i2")
    elif (format_code, bits) == (3, 32):
        dtype = np.dtype("<f4")
    else:
        raise WavFormatError(
            f"{path}: unsupported encoding (format code {format_code}, "
            f"{bits} bits per sample); need PCM16 or float32"
        )
    body = chunks["data"]
    if len(body) % dtype.itemsize:
        raise WavFormatError(
            f"{path}: data chunk size {len(body)} is not a multiple of the "
            f"{dtype.itemsize}-byte sample size (truncated file)"
        )
    stored = np.frombuffer(body, dtype=dtype)
    samples = from_pcm16(stored) if dtype.kind == "i" else stored.astype(np.float64)
    try:
        return Waveform(samples, rate)
    except ValueError as exc:  # NaN/inf float samples
        raise WavFormatError(f"{path}: {exc}") from exc


def to_pcm16(samples: np.ndarray) -> np.ndarray:
    """The PCM16 samples `write_wav` writes, as a little-endian int16 array:
    rint(clip(samples, -1, 1 - 1/32768) * 32768), rounding half to even.

    The float work goes through one buffer of at most PCM16_BLOCK samples,
    so only the result is of the signal's size.
    """
    pcm = np.empty(len(samples), dtype="<i2")
    buffer = np.empty(min(len(samples), PCM16_BLOCK))
    for start in range(0, len(samples), PCM16_BLOCK):
        part = buffer[: len(samples) - start]
        np.clip(samples[start : start + len(part)], -1.0, _PCM16_MAX, out=part)
        part *= INT16_FULL_SCALE
        pcm[start : start + len(part)] = np.rint(part, out=part)
    return pcm


def from_pcm16(pcm: np.ndarray) -> np.ndarray:
    """Float64 samples k * (1/32768) of PCM16 samples k, made as one array."""
    samples = pcm.astype(np.float64)
    samples *= 1.0 / INT16_FULL_SCALE
    return samples


def write_wav(path, w: Waveform) -> None:
    """Write PCM 16-bit mono: the header, then `to_pcm16(w.samples)`'s own
    buffer, with no bytes copy of it.

    Samples are clamped to [-1, 1 - 1/32768] before quantization, so the
    read-back error is at most 1/32768 per sample.
    """
    pcm = to_pcm16(w.samples)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + pcm.nbytes,
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        w.sample_rate,
        w.sample_rate * 2,
        2,
        16,
        b"data",
        pcm.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm)


def add_gaussian_noise(w: Waveform, target_snr_db: float, seed: int) -> Waveform:
    """Add zero-mean white Gaussian noise at an exact signal-to-noise ratio.

    The noise is scaled from its realized energy, so
    10*log10(sum(w^2) / sum(n^2)) equals target_snr_db by construction.
    Deterministic for a given seed. A target so far out of range that the
    noise scale overflows or comes out 0 raises ValueError naming it.
    """
    if not math.isfinite(target_snr_db):
        raise ValueError(f"target_snr_db must be finite, got {target_snr_db}")
    signal_energy = float(np.sum(w.samples**2))
    if signal_energy == 0.0:
        raise ValueError("cannot set an SNR against a zero-energy signal")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(w.samples))
    noise_energy = float(np.sum(noise**2))
    try:
        scale = math.sqrt(signal_energy / (noise_energy * 10.0 ** (target_snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise ValueError(f"target_snr_db {target_snr_db} is out of range for this signal")
    return Waveform(w.samples + scale * noise, w.sample_rate)
