"""Deterministic synthetic "speakers" used across the test suite.

A speaker is a short looped noise segment with a fixed pitch period and a
fixed spectral envelope (a signed log-amplitude ramp plus a few cosine
ripples). Utterances of the same speaker reuse that loop and differ only in
a small per-utterance envelope jitter, the loop phase, and the phase of a
slow amplitude gate, so same-speaker embeddings stay close while
different-speaker embeddings split on envelope shape.

The looping matters: a periodic excitation has reproducible STFT phases, so
spectrogram-domain edits survive resynthesis and re-analysis instead of
cancelling in overlap-add. Levels are normalized to a small median
magnitude, where the log compression of the feature chain gives additive
perturbations the most leverage.
"""

from __future__ import annotations

import numpy as np

from voicecloak.audio_io import Waveform
from voicecloak.spectral import stft_magnitude

RATE = 16000


def speaker_key(speaker: int, utterance: int) -> str:
    """Utterance key with the speaker prefix before the first dash."""
    return f"spk{speaker:02d}-utt{utterance:02d}"


def speaker_utterance(
    speaker: int,
    utterance: int,
    seconds: float = 2.0,
    base_seed: int = 0,
    median_magnitude: float = 0.010,
) -> Waveform:
    """Render one utterance of a synthetic speaker at 16 kHz."""
    n = int(round(seconds * RATE))
    spk_rng = np.random.default_rng((base_seed, 1000 + speaker))
    utt_rng = np.random.default_rng((base_seed, 1000 + speaker, 7000 + utterance))

    period = int(spk_rng.integers(96, 161))
    m = period // 2 + 1
    grid = np.linspace(0.0, 1.0, m)
    slope = spk_rng.uniform(4.2, 7.8) * (1.0 if speaker % 2 == 0 else -1.0)
    log_env = slope * (grid - 0.5)
    for k in range(2, 7):
        log_env += spk_rng.normal(0.0, 0.4) * np.cos(np.pi * k * grid + spk_rng.uniform(0.0, np.pi))
    gate_rate = spk_rng.uniform(0.8, 1.4)
    excitation = spk_rng.normal(size=m) + 1j * spk_rng.normal(size=m)

    jitter = utt_rng.normal(0.0, 0.05, m)
    spectrum = excitation * np.exp(log_env + jitter)
    spectrum[0] = 0.0
    segment = np.fft.irfft(spectrum, n=period)
    tiled = np.tile(segment, n // period + 2)
    shift = int(utt_rng.integers(0, period))
    x = tiled[shift : shift + n]

    t = np.arange(n) / RATE
    gate = 0.5 * (1.0 + np.cos(2.0 * np.pi * gate_rate * t + utt_rng.uniform(0.0, 2.0 * np.pi)))
    x = x * (0.10 + 0.90 * gate)
    x = x * (median_magnitude / np.median(stft_magnitude(Waveform(x, RATE))))
    return Waveform(x, RATE)
