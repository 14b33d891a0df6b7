"""The fast convolution, pooling and gradient step against `reference_ops`.

Every comparison is bitwise: no I-FGSM output may move by one ulp when the
convolution or pooling is reimplemented.
"""

import numpy as np
import pytest

import reference_ops as ref
from synth import speaker_utterance
from voicecloak import attack, encoder
from voicecloak.attack import AttackConfig, ifgsm
from voicecloak.encoder import EncoderConfig, forward, init_random
from voicecloak.spectral import log_mel, mel_matrix, stft

# (C_in, C_out, T, F): odd and tiny maps, plus the four convolutions of the
# default encoder on 3 s of audio (two forward, two input gradients).
CONV_SHAPES = [
    (1, 1, 1, 1), (1, 1, 2, 3), (1, 3, 5, 7), (2, 1, 7, 9), (3, 5, 8, 2),
    (4, 2, 33, 31), (5, 3, 101, 64), (8, 1, 13, 1),
    (1, 2, 301, 64), (2, 4, 150, 32), (4, 2, 150, 32), (2, 1, 301, 64),
]


def _scaled(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


@pytest.mark.parametrize("c_in,c_out,t,f", CONV_SHAPES)
def test_conv_matches_tensordot_reference(c_in, c_out, t, f):
    rng = np.random.default_rng(c_in * 1000 + c_out * 100 + t + f)
    x = _scaled(rng, (c_in, t, f))
    kernels = rng.standard_normal((c_out, c_in, 3, 3))
    assert ref.bitwise_equal(encoder._conv_same(x, kernels), ref.conv_same(x, kernels))


@pytest.mark.parametrize("c", [1, 2, 4])
@pytest.mark.parametrize("t", [2, 3, 8, 51, 301])
@pytest.mark.parametrize("f", [2, 3, 4, 5, 7, 32, 64])
def test_pooling_matches_reshape_mean_reference(c, t, f):
    """Includes the one-band maps (f of 2 or 3), where the add order differs."""
    rng = np.random.default_rng(c * 10000 + t * 100 + f)
    x = _scaled(rng, (c, t, f))
    pooled = encoder._avgpool2(x)
    assert ref.bitwise_equal(pooled, ref.avgpool2(x))
    grad = _scaled(rng, pooled.shape)
    assert ref.bitwise_equal(
        encoder._avgpool2_backward(grad, x.shape), ref.avgpool2_backward(grad, x.shape)
    )


def test_pooling_rejects_maps_below_two_by_two():
    with pytest.raises(ValueError, match="too small"):
        encoder._avgpool2(np.ones((1, 1, 4)))


@pytest.mark.parametrize("cfg", [
    EncoderConfig(),
    EncoderConfig(conv_channels=(3, 2, 2), pool_after=(0, 1, 2), n_mels=8, min_frames=8),
], ids=["default", "one-band"])
def test_whole_ifgsm_run_matches_reference_ops(monkeypatch, cfg):
    """50 steps on 3 s of speech; the one-band config pools 8 mels down to 1."""
    ws = init_random(cfg, 3)
    spec = stft(speaker_utterance(5, 1, seconds=3.0))
    x = spec.magnitude
    e_ref, _ = forward(log_mel(x, mel_matrix(512, cfg.n_mels)), ws)
    fast = ifgsm(x, ws, e_ref, AttackConfig())
    monkeypatch.setattr(encoder, "_conv_same", ref.conv_same)
    monkeypatch.setattr(encoder, "_avgpool2", ref.avgpool2)
    monkeypatch.setattr(encoder, "_avgpool2_backward", ref.avgpool2_backward)
    monkeypatch.setattr(attack, "loss_and_grad", ref.loss_and_grad)
    slow = ifgsm(x, ws, e_ref, AttackConfig())
    assert not np.array_equal(fast.adv_magnitude, x)
    assert ref.bitwise_equal(fast.adv_magnitude, slow.adv_magnitude)
    assert ref.bitwise_equal(fast.loss_trajectory, slow.loss_trajectory)
