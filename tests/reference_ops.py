"""The encoder's convolution and pooling as first written, kept as an oracle.

These are the `sliding_window_view` + `tensordot` convolution, the
reshape-mean pooling and the `np.repeat` pooling backward, plus the
gradient step that computed the filterbank energies once for the features
and again for the log-mel backward pass. The faster versions in
`voicecloak` must reproduce them bit for bit.

`angle_phasor` is the clean phase as synthesis first took it, through the
angle: `istft(magnitude * angle_phasor(spec), n)` is that synthesis. The
unit phasor that replaced it must give the same PCM16 samples.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from voicecloak.encoder import backward, cosine_loss, cosine_loss_grad, forward
from voicecloak.spectral import Spectrogram, log_mel, log_mel_backward, mel_energies


def conv_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    xp = np.concatenate([x[:, -1:, :], x, x[:, :1, :]], axis=1)
    xp = np.pad(xp, ((0, 0), (0, 0), (1, 1)))
    windows = sliding_window_view(xp, (3, 3), axis=(1, 2))  # [C_in, T, F, 3, 3]
    return np.tensordot(kernels, windows, axes=([1, 2, 3], [0, 3, 4]))


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


def loss_and_grad(x_tilde, mel, ws, e_ref):
    embedding, cache = forward(log_mel(x_tilde, mel), ws)
    loss = cosine_loss(e_ref, embedding)
    grad_feat = backward(cache, cosine_loss_grad(e_ref, embedding))
    return loss, log_mel_backward(grad_feat, x_tilde, mel, mel_energies(x_tilde, mel))


def angle_phasor(spec: Spectrogram) -> np.ndarray:
    return np.exp(1j * np.angle(spec.spectrum))


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same float64 bit patterns (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
