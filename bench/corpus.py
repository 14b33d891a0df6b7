"""Seeded synthetic speech corpus for the benchmark.

The recipe is the looped-excitation one of the test suite, rewritten here
so that test edits never change the benchmark's inputs: a speaker is a
short noise segment with a fixed pitch period and spectral envelope (a
signed log-amplitude ramp plus cosine ripples), tiled and gated by a slow
amplitude envelope. Utterances of one speaker differ by a small envelope
jitter, the loop phase and the gate phase. A periodic excitation keeps STFT
phases reproducible, so magnitude edits survive resynthesis.

Everything derives from (seed, speaker, utterance); the same seed gives the
same bytes. Files are 16 kHz mono PCM16, written with the stdlib `wave`
module, never with the program's own writer.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

import checks

RATE = 16000
MEDIAN_MAGNITUDE = 0.010
PEAK_LIMIT = 0.5  # keeps every file, and the noise added to it, clear of clipping


def speaker_key(speaker: int, utterance: int) -> str:
    return f"spk{speaker:02d}-utt{utterance:02d}"


def utterance(seed: int, speaker: int, utt: int, seconds: float) -> np.ndarray:
    """One utterance as float64 samples at 16 kHz."""
    n = int(round(seconds * RATE))
    spk_rng = np.random.default_rng((seed, 1000 + speaker))
    utt_rng = np.random.default_rng((seed, 1000 + speaker, 7000 + utt))

    period = int(spk_rng.integers(96, 161))
    m = period // 2 + 1
    grid = np.linspace(0.0, 1.0, m)
    slope = spk_rng.uniform(4.2, 7.8) * (1.0 if speaker % 2 == 0 else -1.0)
    log_env = slope * (grid - 0.5)
    for k in range(2, 7):
        log_env += spk_rng.normal(0.0, 0.4) * np.cos(np.pi * k * grid + spk_rng.uniform(0.0, np.pi))
    gate_rate = spk_rng.uniform(0.8, 1.4)
    excitation = spk_rng.normal(size=m) + 1j * spk_rng.normal(size=m)

    spectrum = excitation * np.exp(log_env + utt_rng.normal(0.0, 0.05, m))
    spectrum[0] = 0.0
    segment = np.fft.irfft(spectrum, n=period)
    shift = int(utt_rng.integers(0, period))
    x = np.tile(segment, n // period + 2)[shift : shift + n]

    t = np.arange(n) / RATE
    gate = 0.5 * (1.0 + np.cos(2.0 * np.pi * gate_rate * t + utt_rng.uniform(0.0, 2.0 * np.pi)))
    x = x * (0.10 + 0.90 * gate)
    median = float(np.median(checks.stft_magnitude(x)))
    return x * min(MEDIAN_MAGNITUDE / median, PEAK_LIMIT / np.max(np.abs(x)))


def write_pcm16(path: Path, samples: np.ndarray) -> None:
    pcm = np.rint(np.clip(samples, -1.0, 32767 / 32768) * 32768).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(pcm.tobytes())


def write_utterances(directory: Path, seed: int, plan) -> float:
    """Write one WAV per (speaker, utterance, seconds); returns total audio seconds."""
    directory.mkdir(parents=True, exist_ok=True)
    total = 0.0
    for speaker, utt, seconds in plan:
        write_pcm16(directory / f"{speaker_key(speaker, utt)}.wav", utterance(seed, speaker, utt, seconds))
        total += seconds
    return total
