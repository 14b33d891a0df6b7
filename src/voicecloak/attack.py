"""FGSM and I-FGSM perturbation of STFT magnitudes under an L-infinity budget.

The single-step attack moves every magnitude entry by epsilon times the
sign of the loss gradient; the iterative variant takes alpha-sized sign
steps and projects back into the epsilon-band around the original
magnitude after each step (and onto the nonnegative orthant, since a
magnitude below zero has no meaning for magnitude/phase resynthesis).
The loss being ascended is the negative cosine similarity between the
reference embedding (extracted once from the clean signal and then held
fixed) and the embedding of the current iterate.

`protect_utterance` wires the whole pipeline: analyze, perturb the
magnitude, resynthesize it times the clean unit phasor (the original
phase), and report the realized SNR and the embedding distance of the
re-analyzed protected audio: perturbed magnitude with reused phase is not
a consistent STFT, so the distance that counts is the output waveform's.
`AttackConfig`'s defaults are the one statement of the paper's schedule,
and `METHODS` the one method list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform, add_gaussian_noise, from_pcm16, to_pcm16
from .encoder import (
    LogEnergies, WeightStore, cosine_loss, cosine_loss_grad, forward, backward,
)
from .metrics import snr_db
from .spectral import (
    log_mel, log_mel_backward, mel_energies, mel_matrix, resynthesize, row_blocks, stft_magnitude,
)


METHODS = ("fgsm", "ifgsm", "gaussian")  # what protect_utterance and protect accept


class AttackConfigError(ValueError):
    """Raised for a budget or schedule that `AttackConfig` rejects."""


@dataclass(frozen=True)
class AttackConfig:
    """Perturbation budget and schedule.

    epsilon bounds |adv - original| per magnitude entry; alpha is the
    per-iteration step. The defaults run 50 iterations of 0.0004, so the
    total per-entry movement is capped at exactly epsilon.
    """

    epsilon: float = 0.02
    alpha: float = 0.0004
    iterations: int = 50

    def __post_init__(self):
        for name in ("epsilon", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise AttackConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.iterations < 0:
            raise AttackConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.iterations > 1 and not 0 < self.alpha <= self.epsilon:
            raise AttackConfigError(
                f"iterative schedule needs 0 < alpha <= epsilon,"
                f" got alpha={self.alpha}, epsilon={self.epsilon}"
            )


@dataclass
class AttackResult:
    """Outcome of a magnitude-domain attack.

    loss_trajectory holds the loss at every iterate x0..xI (I+1 values), so
    its endpoint is the embedding distance at the magnitude level;
    `protect_utterance` reports the one of re-analyzed audio instead.
    """

    adv_magnitude: np.ndarray
    loss_trajectory: list[float]


@dataclass
class ProtectionReport:
    """Per-utterance summary emitted by `protect_utterance`."""

    snr_db: float
    delta_cosd: float
    loss_trajectory: list[float]


def sign_matrix(g: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Entrywise sign with sign(0) = 0, into out (a new array if None), which
    should not be g: NumPy's sign into its own input runs several times slower."""
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    return np.sign(g, out=out)


def clip_linf(x_tilde: np.ndarray, x: np.ndarray, epsilon: float) -> np.ndarray:
    """Project onto the epsilon-band around x, then onto [0, inf).

    The projection is written over x_tilde, which is returned; x is only
    read. `ifgsm` calls it a block of rows at a time, so its bounds are small.
    """
    if x_tilde.shape != x.shape:
        raise ValueError(f"shape mismatch: {x_tilde.shape} vs {x.shape}")
    np.clip(x_tilde, x - epsilon, x + epsilon, out=x_tilde)
    return np.maximum(x_tilde, 0.0, out=x_tilde)


def embed(mag: np.ndarray, ws: WeightStore) -> np.ndarray:
    """Speaker embedding of a [frames x bins] magnitude matrix, through the
    filterbank of its bin count and ws.config.n_mels; no cache is kept."""
    mel = mel_matrix((mag.shape[1] - 1) * 2, ws.config.n_mels)
    embedding, _ = forward(log_mel(mag, mel), ws)
    return embedding


def loss_and_grad(
    x_tilde: np.ndarray, mel: np.ndarray, ws: WeightStore, e_ref: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss and its exact gradient with respect to the filterbank energies
    mel_energies(x_tilde, mel); `log_mel_backward` takes it on to x_tilde.

    Composes log-mel -> encoder -> cosine loss forward, then reverses the
    chain. e_ref must be precomputed from the original magnitude and held
    fixed across iterations. The energies are computed once: the encoder's
    first layer logs them a block at a time (`LogEnergies`), and its
    backward pass writes their gradient over them a block at a time.
    """
    energies = mel_energies(x_tilde, mel)
    embedding, cache = forward(LogEnergies(energies), ws)
    loss = cosine_loss(e_ref, embedding)
    return loss, backward(cache, cosine_loss_grad(e_ref, embedding))


def ifgsm(
    x: np.ndarray, ws: WeightStore, e_ref: np.ndarray, cfg: AttackConfig = AttackConfig()
) -> AttackResult:
    """Iterative sign-gradient ascent, projected into the epsilon-band.

    When e_ref equals the embedding of x itself, the cosine loss is
    stationary at the start and the computed gradient can round to an
    exactly zero matrix; a sign step of all ones is substituted in that
    case so the iteration can leave the plateau deterministically.

    x is never written, and the iterate is the only other array of its
    size: each step goes a block of `row_blocks` at a time (`_sign_step`),
    and a zero gradient leaves the iterate as it was for a second pass.
    """
    mel = mel_matrix((x.shape[1] - 1) * 2, ws.config.n_mels)
    x_tilde = x.copy()
    blocks = row_blocks(len(x), x.shape[1], 0)
    trajectory: list[float] = []
    for _ in range(cfg.iterations):
        loss, grad_energy = loss_and_grad(x_tilde, mel, ws, e_ref)
        trajectory.append(loss)
        if not _sign_step(x_tilde, x, grad_energy, mel, blocks, cfg):
            for rows in blocks:
                x_tilde[rows] += cfg.alpha
                clip_linf(x_tilde[rows], x[rows], cfg.epsilon)
        del grad_energy  # not held through the next step's forward pass
    trajectory.append(cosine_loss(e_ref, embed(x_tilde, ws)))
    return AttackResult(adv_magnitude=x_tilde, loss_trajectory=trajectory)


def _sign_step(x_tilde, x, grad_energy, mel, blocks, cfg) -> bool:
    """Add alpha times the sign of each block's gradient to x_tilde's rows and
    project them; False if every sign was 0. The block buffers of gradient
    and sign are made here, so the encoder's passes can reuse their memory."""
    grad, sign = np.empty((2, max(b.stop - b.start for b in blocks), x.shape[1]))
    moved = False
    for rows in blocks:
        n = rows.stop - rows.start
        step = sign_matrix(log_mel_backward(grad_energy[rows], x_tilde[rows], mel, grad[:n]),
                           sign[:n])
        moved = moved or step.any()
        step *= cfg.alpha
        x_tilde[rows] += step
        clip_linf(x_tilde[rows], x[rows], cfg.epsilon)
    return moved


def fgsm(x: np.ndarray, ws: WeightStore, e_ref: np.ndarray, epsilon: float) -> AttackResult:
    """Single-step attack: one full-budget sign step, the one-iteration
    schedule with alpha = epsilon."""
    return ifgsm(x, ws, e_ref, AttackConfig(epsilon=epsilon, alpha=epsilon, iterations=1))


def protect_utterance(
    w: Waveform, ws: WeightStore, cfg: AttackConfig, method: str, target_snr_db: float, seed: int
) -> tuple[Waveform, ProtectionReport]:
    """Protect one utterance end to end.

    fgsm/ifgsm: analyze the magnitude only, attack it, drop the clean
    magnitude and the `AttackResult`, and resynthesize the attacked one
    times the clean phasor, which `resynthesize` takes block by block from
    a second analysis, so no complex spectrum of the file is held.
    From the clean embedding to synthesis the input is held as
    `to_pcm16(w.samples)`, a quarter of its float size, when `from_pcm16`
    gives back w.samples bit for bit from it, as it does for every PCM16
    file `read_wav` reads; float samples (a float32 WAV, or a caller's
    array) are held as they are. Held int16 samples are made float again
    for synthesis and `snr_db` only; the input goes before the re-analysis.
    The saving needs a caller that keeps no reference to w, as `protect` does.
    gaussian: bypass the gradient path and add white noise at
    target_snr_db in the time domain (the baseline). Only gaussian reads
    target_snr_db and seed; only fgsm (cfg.epsilon alone) and ifgsm read
    cfg. The report's delta_cosd is always recomputed from the re-analyzed
    protected waveform, and the output length always equals the input's.
    `stft_magnitude` rejects input at any rate but CANONICAL_RATE.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")

    magnitude = stft_magnitude(w)
    e_ref = embed(magnitude, ws)

    trajectory: list[float] = []
    if method == "gaussian":
        protected = add_gaussian_noise(w, target_snr_db, seed)
        clean = w
    else:
        rate, held = w.sample_rate, _held_samples(w.samples)
        del w  # from here the input is `held`
        if method == "fgsm":
            result = fgsm(magnitude, ws, e_ref, cfg.epsilon)
        else:
            result = ifgsm(magnitude, ws, e_ref, cfg)
        trajectory, adv = result.loss_trajectory, result.adv_magnitude
        del magnitude, result  # only the attacked magnitude is held into synthesis
        clean = Waveform(from_pcm16(held) if held.dtype.kind == "i" else held, rate)
        del held
        protected = resynthesize(clean, adv)
        del adv

    snr = snr_db(clean, protected)
    del clean  # the re-analysis holds the output only
    e_protected = embed(stft_magnitude(protected), ws)
    report = ProtectionReport(
        snr_db=snr,
        delta_cosd=cosine_loss(e_ref, e_protected),
        loss_trajectory=trajectory,
    )
    return protected, report


def _held_samples(samples: np.ndarray) -> np.ndarray:
    """to_pcm16(samples) if `from_pcm16` gives samples back from it bit for
    bit, else samples themselves."""
    pcm = to_pcm16(samples)
    if np.array_equal(from_pcm16(pcm).view(np.uint64), samples.view(np.uint64)):
        return pcm
    return samples
