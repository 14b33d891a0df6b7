import tracemalloc

import numpy as np
import pytest

from synth import speaker_utterance
from voicecloak import attack
from voicecloak.attack import (
    AttackConfig,
    AttackConfigError,
    clip_linf,
    embed,
    fgsm,
    ifgsm,
    loss_and_grad,
    protect_utterance,
    sign_matrix,
)
from voicecloak.audio_io import CANONICAL_RATE, Waveform, from_pcm16, to_pcm16
from voicecloak.encoder import EncoderConfig, cosine_loss, forward, init_random
from voicecloak.spectral import log_mel, log_mel_backward, mel_matrix, stft

SMALL_CFG = EncoderConfig(conv_channels=(2, 2), pool_after=(0,), embed_dim=8, n_mels=16)


def small_instance(seed, frames=8, bins=129):
    """Random attack instance over a tiny encoder.

    A network this narrow can go ReLU-dead on a given input for some weight
    draws, leaving the cosine loss undefined; such draws are rerolled
    deterministically so every returned instance is well posed.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 0.06, (frames, bins))
    ref_mag = rng.uniform(0.0, 0.06, (frames, bins))
    mel = mel_matrix((bins - 1) * 2, SMALL_CFG.n_mels)
    for attempt in range(50):
        ws = init_random(SMALL_CFG, seed + 10007 * attempt)
        e_x, _ = forward(log_mel(x, mel), ws)
        e_ref, _ = forward(log_mel(ref_mag, mel), ws)
        if min(np.linalg.norm(e_x), np.linalg.norm(e_ref)) > 1e-6:
            return x, ws, e_ref
    raise AssertionError(f"no live weight draw found for seed {seed}")


class TestAttackConfig:
    def test_defaults_sum_to_budget(self):
        cfg = AttackConfig()
        assert cfg.iterations * cfg.alpha == pytest.approx(cfg.epsilon, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -0.1},
            {"alpha": -1e-4},
            {"iterations": -1},
            {"alpha": 0.05, "epsilon": 0.02, "iterations": 2},
            {"alpha": 0.0, "iterations": 2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"epsilon": float("nan"), "alpha": float("nan"), "iterations": 1}, "epsilon"),
            ({"epsilon": float("inf"), "alpha": 0.02, "iterations": 1}, "epsilon"),
            ({"epsilon": 0.02, "alpha": float("nan"), "iterations": 1}, "alpha"),
            ({"epsilon": 0.02, "alpha": float("-inf"), "iterations": 0}, "alpha"),
        ],
    )
    def test_rejects_non_finite_values(self, kwargs, field):
        with pytest.raises(AttackConfigError, match=f"{field} must be finite"):
            AttackConfig(**kwargs)

    def test_full_budget_single_step_is_legal(self):
        AttackConfig(epsilon=0.02, alpha=0.02, iterations=1)


class TestClipAndSign:
    def test_clip_projects_into_band(self):
        x = np.array([1.0, 1.0, 1.0])
        out = clip_linf(np.array([1.5, 0.5, 1.1]), x, 0.2, None)
        np.testing.assert_allclose(out, [1.2, 0.8, 1.1])

    def test_clip_clamps_negative_results(self):
        out = clip_linf(np.array([-0.5]), np.array([0.05]), 0.2, None)
        assert out[0] == 0.0

    def test_clip_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            clip_linf(np.zeros(3), np.zeros(4), 0.1, None)

    def test_sign_of_zero_is_zero(self):
        np.testing.assert_array_equal(
            sign_matrix(np.array([-2.0, 0.0, 3.0]), None), np.array([-1.0, 0.0, 1.0])
        )

    def test_sign_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            sign_matrix(np.array([np.nan]), np.empty(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sign_rejects_one_non_finite_entry_among_finite_ones(self, bad):
        """The check reads only the least and greatest entries: a NaN makes
        both NaN, and an infinity is one of them."""
        g = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        g[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sign_matrix(g, np.empty_like(g))


class TestIfgsm:
    def test_budget_and_nonnegativity(self):
        for seed in range(8):
            x, ws, e_ref = small_instance(seed)
            cfg = AttackConfig(epsilon=0.01, alpha=0.004, iterations=4)
            result = ifgsm(x, ws, e_ref, cfg)
            assert np.max(np.abs(result.adv_magnitude - x)) <= 0.01 + 1e-12
            assert np.min(result.adv_magnitude) >= 0.0

    def test_movement_capped_by_iteration_budget(self):
        x, ws, e_ref = small_instance(3)
        cfg = AttackConfig(epsilon=0.02, alpha=1e-4, iterations=3)
        result = ifgsm(x, ws, e_ref, cfg)
        assert np.max(np.abs(result.adv_magnitude - x)) <= 3e-4 * (1 + 1e-9)

    def test_single_iteration_equals_fgsm_bitwise(self):
        for seed in range(5):
            x, ws, e_ref = small_instance(seed + 100)
            one_step = ifgsm(x, ws, e_ref, AttackConfig(epsilon=0.02, alpha=0.02, iterations=1))
            single = fgsm(x, ws, e_ref, epsilon=0.02)
            assert np.array_equal(one_step.adv_magnitude, single.adv_magnitude)
            assert one_step.loss_trajectory == single.loss_trajectory

    def test_zero_iterations_returns_input(self):
        x, ws, _ = small_instance(7)
        mel = mel_matrix(256, SMALL_CFG.n_mels)
        e_ref, _ = forward(log_mel(x, mel), ws)
        result = ifgsm(x, ws, e_ref, AttackConfig(iterations=0))
        assert np.array_equal(result.adv_magnitude, x)
        assert result.adv_magnitude is not x
        assert len(result.loss_trajectory) == 1
        assert result.loss_trajectory[0] == pytest.approx(-1.0, abs=1e-12)

    def test_trajectory_has_one_entry_per_iteration_plus_final(self):
        x, ws, e_ref = small_instance(11)
        result = ifgsm(x, ws, e_ref, AttackConfig(epsilon=0.01, alpha=0.002, iterations=5))
        assert len(result.loss_trajectory) == 6

    def test_self_referenced_attack_escapes_the_stationary_start(self):
        mag = stft(speaker_utterance(0, 0, seconds=0.5)).magnitude
        ws = init_random(EncoderConfig(), 42)
        mel = mel_matrix(512, 64)
        e_ref, _ = forward(log_mel(mag, mel), ws)
        result = ifgsm(mag, ws, e_ref, AttackConfig(epsilon=0.02, alpha=0.002, iterations=10))
        assert result.loss_trajectory[0] == pytest.approx(-1.0, abs=1e-9)
        assert result.loss_trajectory[-1] > result.loss_trajectory[0] + 1e-3

    def test_all_zero_gradient_substitutes_a_full_ones_step(self):
        # every mel energy sits under the log floor, so the true gradient
        # is exactly zero; the escape step must move every entry by +alpha
        ws = init_random(EncoderConfig(), 0)
        tiny = np.full((8, 257), 1e-7)
        mel = mel_matrix(512, 64)
        e_ref, _ = forward(log_mel(tiny, mel), ws)
        _, grad_energy = loss_and_grad(tiny, mel, ws, e_ref)
        np.testing.assert_array_equal(grad_energy, np.zeros((8, 64)))
        np.testing.assert_array_equal(log_mel_backward(grad_energy, tiny, mel, None, None), 0.0)
        result = ifgsm(tiny, ws, e_ref, AttackConfig(epsilon=0.001, alpha=0.0005, iterations=1))
        assert np.array_equal(result.adv_magnitude, tiny + 0.0005)


class TestEmbed:
    def test_equals_the_written_out_chain_bitwise(self):
        ws = init_random(EncoderConfig(), 42)
        w = speaker_utterance(2, 1, seconds=0.5)
        expected, _ = forward(log_mel(stft(w).magnitude, mel_matrix()), ws)
        got = embed(stft(w).magnitude, ws)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_takes_the_filterbank_from_the_bin_count(self):
        x, ws, _ = small_instance(31)
        expected, _ = forward(log_mel(x, mel_matrix(256, SMALL_CFG.n_mels)), ws)
        assert embed(x, ws).tobytes() == expected.tobytes()


class TestGradient:
    def test_loss_and_grad_agree_with_compute_loss(self):
        x, ws, e_ref = small_instance(21)
        mel = mel_matrix(256, SMALL_CFG.n_mels)
        loss, grad_energy = loss_and_grad(x, mel, ws, e_ref)
        assert loss == cosine_loss(e_ref, embed(x, ws))
        assert grad_energy.shape == (len(x), SMALL_CFG.n_mels)
        grad = log_mel_backward(grad_energy, x, mel, None, None)
        assert grad.shape == x.shape
        assert np.all(np.isfinite(grad))


@pytest.fixture(scope="module")
def utterance():
    return speaker_utterance(1, 0, seconds=0.5)


@pytest.fixture(scope="module")
def weights():
    return init_random(EncoderConfig(), 42)


class TestProtectUtterance:
    @pytest.mark.parametrize("method", ["fgsm", "ifgsm", "gaussian"])
    def test_output_preserves_length_and_rate(self, utterance, weights, method):
        cfg = AttackConfig(iterations=5, alpha=0.004)
        protected, report = protect_utterance(utterance, weights, cfg, method, 32.0, 0)
        assert len(protected) == len(utterance)
        assert protected.sample_rate == utterance.sample_rate
        assert np.isfinite(report.snr_db)
        assert -1.0 <= report.delta_cosd <= 1.0
        assert not np.array_equal(protected.samples, utterance.samples)

    def test_ifgsm_moves_the_embedding(self, utterance, weights):
        _, report = protect_utterance(utterance, weights, AttackConfig(), "ifgsm", 32.0, 0)
        assert report.delta_cosd > -1.0 + 1e-6
        assert len(report.loss_trajectory) == 51

    def test_fgsm_trajectory_has_start_and_end(self, utterance, weights):
        _, report = protect_utterance(utterance, weights, AttackConfig(), "fgsm", 32.0, 0)
        assert len(report.loss_trajectory) == 2

    def test_gaussian_hits_requested_snr_and_skips_the_gradient_path(self, utterance, weights):
        _, report = protect_utterance(utterance, weights, AttackConfig(), "gaussian", 25.0, 3)
        assert report.snr_db == pytest.approx(25.0, abs=1e-9)
        assert report.loss_trajectory == []

    def test_gaussian_does_not_compute_the_phase(self, utterance, weights, monkeypatch):
        def no_phase(*args):
            raise AssertionError("gaussian resynthesized through the clean phasor")

        monkeypatch.setattr(attack, "resynthesize", no_phase)
        protected, report = protect_utterance(utterance, weights, AttackConfig(), "gaussian",
                                              32.0, 0)
        assert len(protected) == len(utterance)
        assert report.snr_db == pytest.approx(32.0, abs=1e-9)

    def test_deterministic_for_fixed_seed(self, utterance, weights):
        a, _ = protect_utterance(utterance, weights, AttackConfig(), "gaussian", 32.0, 9)
        b, _ = protect_utterance(utterance, weights, AttackConfig(), "gaussian", 32.0, 9)
        c, _ = protect_utterance(utterance, weights, AttackConfig(), "gaussian", 32.0, 10)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_rejects_wrong_rate(self, weights):
        w = Waveform(np.random.default_rng(0).standard_normal(8000) * 0.1, 8000)
        with pytest.raises(ValueError, match="16000 Hz"):
            protect_utterance(w, weights, AttackConfig(), "ifgsm", 32.0, 0)

    def test_rejects_unknown_method(self, utterance, weights):
        with pytest.raises(ValueError, match="unknown method"):
            protect_utterance(utterance, weights, AttackConfig(), "pgd", 32.0, 0)

    def test_ifgsm_on_ten_seconds_holds_under_six_magnitudes(self, weights):
        """Every stage of a protected file, the attack step and synthesis among
        them, holds few arrays of the [1001 x 257] magnitude's size at once:
        the traced peak is 3.6 of them (3.9 with whole-map encoder maps and
        magnitude gradient, 4.5 with a whole complex spectrum at analysis and
        synthesis and float ReLU maps as well), where a step that
        allocated its sign, sum, bounds and projection, and synthesis from a
        whole phasor, reached 8.6. Every step peaks alike, so three
        iterations stand for fifty."""
        w = speaker_utterance(3, 0, seconds=10.0)
        magnitude_bytes = stft(w).magnitude.nbytes
        assert magnitude_bytes == 1001 * 257 * 8
        cfg = AttackConfig(iterations=3)
        protect_utterance(w, weights, cfg, "ifgsm", 32.0, 0)  # the filterbank is cached
        tracemalloc.start()
        try:
            protect_utterance(w, weights, cfg, "ifgsm", 32.0, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * magnitude_bytes

    def test_ten_second_pcm16_input_is_held_as_int16_through_the_attack(self, weights):
        """A waveform of PCM16 samples made inside the trace and passed on with
        no reference kept, as `protect` passes `read_wav`'s: the traced peak is
        at least 0.6x the float samples' bytes under that of a call whose
        caller keeps the float input (1.0x: the float samples less their
        int16 copy, a quarter, which the kept call holds as well). A call that
        held the float input to the end peaked alike either way."""
        k = to_pcm16(speaker_utterance(3, 0, seconds=10.0).samples)
        cfg = AttackConfig(iterations=3)
        protect_utterance(Waveform(from_pcm16(k), CANONICAL_RATE), weights, cfg, "ifgsm",
                          32.0, 0)  # the filterbank is cached

        def peak(keep: bool) -> int:
            tracemalloc.start()
            try:
                if keep:
                    w = Waveform(from_pcm16(k), CANONICAL_RATE)
                    protect_utterance(w, weights, cfg, "ifgsm", 32.0, 0)
                else:
                    protect_utterance(Waveform(from_pcm16(k), CANONICAL_RATE), weights, cfg,
                                      "ifgsm", 32.0, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(keep=True) - peak(keep=False) >= 0.6 * len(k) * 8


class TestHeldSamples:
    def test_pcm16_samples_are_held_as_their_int16(self):
        k = np.array([-32768, -1, 0, 1, 12345, 32767], dtype="<i2")
        held = attack._held_samples(from_pcm16(k))
        assert held.dtype == np.dtype("<i2")
        np.testing.assert_array_equal(held, k)

    @pytest.mark.parametrize("values", [
        [0.1, -0.2],  # between PCM16 steps
        [0.5, -0.0],  # a negative zero: its int16 gives +0.0 back
        [1.0, 0.0],  # beyond the clamp
        np.float32([0.1, 0.3, -0.7]).astype(np.float64),  # a float32 WAV's samples
    ], ids=["between-steps", "negative-zero", "clamped", "float32"])
    def test_other_samples_are_held_as_they_are(self, values):
        samples = Waveform(values, CANONICAL_RATE).samples
        assert attack._held_samples(samples) is samples
