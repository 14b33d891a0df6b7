"""The program's numerics as first written, kept as an oracle that shares
no code with the program's own versions.

These are the `sliding_window_view` + `tensordot` convolution (one
product per time tap of the whole padded map, the taps then added dt 0 +
dt 1, then + dt 2), the reshape-mean pooling and the `np.repeat` pooling
backward, an encoder `forward` and `backward` built from them on whole
maps, the mel filterbank built one filter at a time, the filterbank
products as whole-map band products (`mel_bands`, found from the matrix's
own nonzeros), and the gradient step that computed the filterbank energies
once for the features and again for the log-mel backward pass
(`loss_and_energy_grad` stops at the energies' gradient). The faster
versions in `voicecloak` must reproduce them bit for bit.

`ifgsm` is the attack loop with every step allocating: the log
compression, the log-mel backward's quotient and product, the sign, the
stepped iterate and its projection are each a new array. `stft` and
`istft` transform all frames in one FFT call and `istft` adds frame by
frame; `protect_utterance` (ifgsm) analyzes the whole clean spectrum and
synthesizes from its whole `phasor`, S/|S| and 1 where |S| is 0. The
in-place, blocked and streaming versions must give the same bits.

`angle_phasor` is the clean phase as synthesis first took it, through the
angle: `istft(magnitude * angle_phasor(spec), n)` is that synthesis. The
unit phasor that replaced it must give the same PCM16 samples.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from voicecloak.attack import AttackConfig, AttackResult, ProtectionReport
from voicecloak.audio_io import CANONICAL_RATE, Waveform
from voicecloak.encoder import cosine_loss, cosine_loss_grad
from voicecloak.metrics import snr_db
from voicecloak.spectral import (
    FFT_SIZE, HOP_LENGTH, LOG_FLOOR, MEL_GROUP, WIN_LENGTH, WINDOW, WINDOW_SUM_EPS, Spectrogram,
    hz_to_mel, mel_to_hz,
)


def mel_matrix(fft_size: int, n_mels: int) -> np.ndarray:
    n_bins = fft_size // 2 + 1
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
    return weights


def mel_bands(mel: np.ndarray) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """((first filter, end), (first bin, end)) of each MEL_GROUP filters:
    the bins from the first column with a nonzero in those rows to the last."""
    bands = []
    for f0 in range(0, len(mel), MEL_GROUP):
        f1 = min(f0 + MEL_GROUP, len(mel))
        cols = np.flatnonzero(np.any(mel[f0:f1] != 0.0, axis=0))
        bands.append(((f0, f1), (cols[0], cols[-1] + 1) if len(cols) else (0, 0)))
    return bands


def mel_energies(mag: np.ndarray, mel: np.ndarray) -> np.ndarray:
    """mag^2 . mel^T, each group's energies one whole-map product over its band."""
    squares = mag**2
    out = np.zeros((len(mag), len(mel)))
    for (f0, f1), (b0, b1) in mel_bands(mel):
        out[:, f0:f1] = squares[:, b0:b1] @ np.ascontiguousarray(mel[f0:f1, b0:b1].T)
    return out


def mel_product_backward(grad: np.ndarray, mel: np.ndarray) -> np.ndarray:
    """grad . mel, the bins cut where each band of `mel_bands` starts, each
    piece one whole-map product with the rows of mel from the first to the
    last that is nonzero in it; 0 where no row is."""
    edges = sorted({0, mel.shape[1], *(band[0] for _, band in mel_bands(mel))})
    out = np.zeros((len(grad), mel.shape[1]))
    for c0, c1 in zip(edges, edges[1:]):
        rows = np.flatnonzero(np.any(mel[:, c0:c1] != 0.0, axis=1))
        if len(rows):
            f0, f1 = rows[0], rows[-1] + 1
            out[:, c0:c1] = grad[:, f0:f1] @ mel[f0:f1, c0:c1]
    return out


def conv_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Per time tap dt, one product over (c_in, df) of the whole padded map;
    then each output frame's taps added (dt 0 + dt 1) + dt 2."""
    t = x.shape[1]
    xp = np.concatenate([x[:, -1:, :], x, x[:, :1, :]], axis=1)
    xp = np.pad(xp, ((0, 0), (0, 0), (1, 1)))
    windows = sliding_window_view(xp, 3, axis=2)  # [C_in, T + 2, F, 3]
    taps = np.tensordot(kernels, windows, axes=([1, 3], [0, 3]))  # [C_out, 3, T + 2, F]
    return (taps[:, 0, 0:t] + taps[:, 1, 1 : t + 1]) + taps[:, 2, 2 : t + 2]


def avgpool2(x: np.ndarray) -> np.ndarray:
    c, t, f = x.shape
    t2, f2 = t // 2, f // 2
    if t2 < 1 or f2 < 1:
        raise ValueError(f"feature map {t}x{f} too small for 2x2 pooling")
    return x[:, : 2 * t2, : 2 * f2].reshape(c, t2, 2, f2, 2).mean(axis=(2, 4))


def avgpool2_backward(grad: np.ndarray, unpooled_shape: tuple[int, ...]) -> np.ndarray:
    t2, f2 = grad.shape[1], grad.shape[2]
    out = np.zeros(unpooled_shape)
    out[:, : 2 * t2, : 2 * f2] = np.repeat(np.repeat(grad, 2, axis=1), 2, axis=2) / 4.0
    return out


def forward(feat, ws):
    """The embedding, and the cache (ReLU masks, centered map, sigma) of `backward`."""
    cfg = ws.config
    masks, a = [], feat[None, :, :]
    for i in range(len(cfg.conv_channels)):
        z = conv_same(a, ws.tensors[f"conv{i}.kernel"]) + ws.tensors[f"conv{i}.bias"][:, None, None]
        masks.append(z > 0.0)
        a = np.maximum(z, 0.0)
        if i in cfg.pool_after:
            a = avgpool2(a)
    mu = a.mean(axis=1)
    centered = a - mu[:, None, :]
    sigma = np.sqrt((centered**2).mean(axis=1))
    stats = np.concatenate([mu.ravel(), sigma.ravel()])
    return ws.tensors["embed.weight"] @ stats + ws.tensors["embed.bias"], (masks, centered, sigma)


def backward(ws, cache, grad_embedding):
    masks, centered, sigma = cache
    d_stats = ws.tensors["embed.weight"].T @ grad_embedding
    c, t, f = centered.shape
    d_mu, d_sigma = d_stats[: c * f].reshape(c, f), d_stats[c * f :].reshape(c, f)
    sig_term = np.zeros_like(d_sigma)
    np.divide(d_sigma, sigma * t, out=sig_term, where=sigma * t > 0.0)
    d_a = d_mu[:, None, :] / t + sig_term[:, None, :] * centered
    for i in reversed(range(len(ws.config.conv_channels))):
        if i in ws.config.pool_after:
            d_a = avgpool2_backward(d_a, masks[i].shape)
        flipped = np.flip(ws.tensors[f"conv{i}.kernel"], axis=(2, 3)).transpose(1, 0, 2, 3)
        d_a = conv_same(d_a * masks[i], np.ascontiguousarray(flipped))
    return d_a[0]


def log_mel(mag, mel):
    return np.log(np.maximum(mel_energies(mag, mel), LOG_FLOOR))


def embed(mag, ws):
    return forward(log_mel(mag, mel_matrix((mag.shape[1] - 1) * 2, ws.config.n_mels)), ws)[0]


def log_backward(grad_out, energies):
    return np.where(energies > LOG_FLOOR, grad_out / np.maximum(energies, LOG_FLOOR), 0.0)


def log_mel_backward(grad_out, mag, mel, energies):
    return mel_product_backward(log_backward(grad_out, energies), mel) * (2.0 * mag)


def loss_and_grad(x_tilde, mel, ws, e_ref):
    embedding, cache = forward(log_mel(x_tilde, mel), ws)
    loss = cosine_loss(e_ref, embedding)
    grad_feat = backward(ws, cache, cosine_loss_grad(e_ref, embedding))
    return loss, log_mel_backward(grad_feat, x_tilde, mel, mel_energies(x_tilde, mel))


def loss_and_energy_grad(x_tilde, mel, ws, e_ref):
    """The loss, and its gradient with respect to the filterbank energies."""
    energies = mel_energies(x_tilde, mel)
    embedding, cache = forward(np.log(np.maximum(energies, LOG_FLOOR)), ws)
    grad_feat = backward(ws, cache, cosine_loss_grad(e_ref, embedding))
    return cosine_loss(e_ref, embedding), log_backward(grad_feat, energies)


def sign_matrix(g):
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite entries")
    return np.sign(g)


def clip_linf(x_tilde, x, epsilon):
    return np.maximum(np.clip(x_tilde, x - epsilon, x + epsilon), 0.0)


def ifgsm(x, ws, e_ref, cfg):
    mel = mel_matrix((x.shape[1] - 1) * 2, ws.config.n_mels)
    x_tilde = x.copy()
    trajectory = []
    for _ in range(cfg.iterations):
        loss, grad = loss_and_grad(x_tilde, mel, ws, e_ref)
        trajectory.append(loss)
        step_sign = sign_matrix(grad)
        if not step_sign.any():
            step_sign = np.ones_like(x_tilde)
        x_tilde = clip_linf(x_tilde + cfg.alpha * step_sign, x, cfg.epsilon)
    trajectory.append(cosine_loss(e_ref, embed(x_tilde, ws)))
    return AttackResult(adv_magnitude=x_tilde, loss_trajectory=trajectory)


def stft(w: Waveform) -> Spectrogram:
    half, lpad = WIN_LENGTH // 2, (FFT_SIZE - WIN_LENGTH) // 2
    padded = np.pad(w.samples, (half, half), mode="reflect")
    frames = np.zeros((len(w.samples) // HOP_LENGTH + 1, FFT_SIZE))
    windows = sliding_window_view(padded, WIN_LENGTH)[::HOP_LENGTH]
    np.multiply(windows, WINDOW, out=frames[:, lpad : lpad + WIN_LENGTH])
    return Spectrogram(np.fft.rfft(frames, n=FFT_SIZE, axis=1))


def istft(spectrum, length):
    n_frames = spectrum.shape[0]
    half, lpad = WIN_LENGTH // 2, (FFT_SIZE - WIN_LENGTH) // 2
    span = (n_frames - 1) * HOP_LENGTH + WIN_LENGTH
    out = np.zeros(span)
    wsum = np.zeros(span)
    frames_time = np.fft.irfft(spectrum, n=FFT_SIZE, axis=1)
    for k in range(n_frames):
        start = k * HOP_LENGTH
        out[start : start + WIN_LENGTH] += frames_time[k, lpad : lpad + WIN_LENGTH] * WINDOW
        wsum[start : start + WIN_LENGTH] += WINDOW**2
    nonzero = wsum >= WINDOW_SUM_EPS
    out[nonzero] /= wsum[nonzero]
    out[~nonzero] = 0.0
    result = np.zeros(length)
    avail = min(length, span - half)
    result[:avail] = out[half : half + avail]
    return Waveform(result, CANONICAL_RATE)


def protect_utterance(w: Waveform, ws, cfg: AttackConfig):
    magnitude = stft(w).magnitude
    e_ref = embed(magnitude, ws)
    result = ifgsm(magnitude, ws, e_ref, cfg)
    protected = istft(result.adv_magnitude * phasor(stft(w)), len(w))
    e_protected = embed(stft(protected).magnitude, ws)
    return protected, ProtectionReport(
        snr_db(w, protected), cosine_loss(e_ref, e_protected), result.loss_trajectory)


def phasor(spec: Spectrogram) -> np.ndarray:
    mag = spec.magnitude
    return np.divide(spec.spectrum, mag, out=np.ones_like(spec.spectrum), where=mag > 0)


def angle_phasor(spec: Spectrogram) -> np.ndarray:
    return np.exp(1j * np.angle(spec.spectrum))


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same float64 bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
