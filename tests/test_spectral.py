import ast
import re
from pathlib import Path

import numpy as np
import pytest

import reference_ops as ref
from voicecloak.audio_io import CANONICAL_RATE, Waveform
from voicecloak.spectral import (
    FFT_SIZE,
    HOP_LENGTH,
    LOG_FLOOR,
    N_BINS,
    WIN_LENGTH,
    WINDOW,
    hz_to_mel,
    istft,
    log_energies_backward,
    log_mel,
    log_mel_backward,
    mel_energies,
    mel_matrix,
    mel_to_hz,
    stft,
    write_magnitude_csv,
)


SRC = Path(__file__).resolve().parents[1] / "src" / "voicecloak"


def _reference_frames(x):
    """Re-derive the analysis frames with basic numpy only."""
    half = WIN_LENGTH // 2
    padded = np.pad(x, (half, half), mode="reflect")
    n = np.arange(WIN_LENGTH)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / WIN_LENGTH)
    lpad = (FFT_SIZE - WIN_LENGTH) // 2
    frames = []
    for k in range(len(x) // HOP_LENGTH + 1):
        seg = padded[k * HOP_LENGTH : k * HOP_LENGTH + WIN_LENGTH] * window
        frames.append(np.pad(seg, (lpad, FFT_SIZE - WIN_LENGTH - lpad)))
    return np.fft.rfft(np.asarray(frames), axis=1)


class TestFrontEndConstants:
    def test_geometry(self):
        assert (FFT_SIZE, WIN_LENGTH, HOP_LENGTH, N_BINS) == (512, 400, 160, 257)
        assert 0 < HOP_LENGTH <= WIN_LENGTH <= FFT_SIZE

    def test_window_is_a_read_only_periodic_hann(self):
        n = np.arange(WIN_LENGTH)
        np.testing.assert_array_equal(
            WINDOW, 0.5 * (1.0 - np.cos(2.0 * np.pi * n / WIN_LENGTH))
        )
        with pytest.raises(ValueError, match="read-only"):
            WINDOW[0] = 1.0

    def test_rate_literal_appears_only_in_audio_io(self):
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(SRC.rglob("*.py"))
            if path.name != "audio_io.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 16000
        ]
        assert found == []


class TestStft:
    def test_shapes_at_defaults(self):
        w = Waveform(np.random.default_rng(0).standard_normal(16000), 16000)
        spec = stft(w)
        assert spec.magnitude.shape == (101, 257)

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4000)
        spec = stft(Waveform(x, 16000))
        expected = _reference_frames(x)
        np.testing.assert_allclose(spec.magnitude, np.abs(expected), atol=1e-12)
        np.testing.assert_allclose(spec.spectrum, expected, atol=1e-12)

    def test_pure_tone_concentrates_on_its_bin(self):
        k = 32  # bin-centered frequency: 32 * 16000 / 512 = 1000 Hz
        t = np.arange(8000) / 16000
        spec = stft(Waveform(np.sin(2 * np.pi * 1000 * t), 16000))
        interior = spec.magnitude[2:-2]
        assert np.all(interior.argmax(axis=1) == k)

    def test_rejects_short_signal(self):
        with pytest.raises(ValueError, match="shorter than one window"):
            stft(Waveform(np.zeros(200), 16000))

    def test_rejects_other_rates(self):
        w = Waveform(np.random.default_rng(0).standard_normal(8000) * 0.1, 8000)
        with pytest.raises(ValueError, match="expected 16000 Hz input, got 8000 Hz"):
            stft(w)


class TestIstft:
    def test_round_trip_is_identity_in_the_interior(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8000) * 0.1
        spec = stft(Waveform(x, 16000))
        y = istft(spec.spectrum, length=len(x))
        assert len(y) == len(x)
        interior = slice(WIN_LENGTH, len(x) - WIN_LENGTH)
        assert np.max(np.abs(y.samples[interior] - x[interior])) < 1e-10

    def test_takes_length_third_and_stamps_the_canonical_rate(self):
        x = np.random.default_rng(7).standard_normal(3200)
        spec = stft(Waveform(x, CANONICAL_RATE))
        y = istft(spec.spectrum, len(x))
        assert len(y) == len(x)
        assert y.sample_rate == CANONICAL_RATE

    def test_length_trims_and_pads(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3200)
        spec = stft(Waveform(x, 16000))
        short = istft(spec.spectrum, length=1000)
        long = istft(spec.spectrum, length=5000)
        assert len(short) == 1000
        assert len(long) == 5000
        np.testing.assert_array_equal(short.samples, long.samples[:1000])
        assert np.all(long.samples[4000:] == 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="bins"):
            istft(np.zeros((4, 100), dtype=complex), 640)


class TestMelFilterbank:
    def test_matches_reference_construction(self):
        got = mel_matrix(512, 64)
        n_bins = 257
        edges = 700.0 * (10.0 ** (np.linspace(0.0, hz_to_mel(8000.0), 66) / 2595.0) - 1.0)
        freqs = np.arange(n_bins) * (16000 / 512)
        expected = np.zeros((64, n_bins))
        for m in range(64):
            lo, c, hi = edges[m], edges[m + 1], edges[m + 2]
            expected[m] = np.maximum(
                0.0, np.minimum((freqs - lo) / (c - lo), (hi - freqs) / (hi - c))
            )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("fft_size", [256, 512, 1024])
    def test_broadcast_build_matches_the_filter_by_filter_loop(self, fft_size):
        """Bitwise, at every n_mels for 256 points and a spread of them for 512
        and 1024; where some filter covers no bin, the same error names the
        same first such filter."""
        n_bins = fft_size // 2 + 1
        counts = range(1, n_bins) if fft_size == 256 else [*range(1, n_bins, 17), n_bins - 1]
        refused = 0
        for n_mels in counts:
            try:
                expected = ref.mel_matrix(fft_size, n_mels)
            except ValueError as exc:
                refused += 1
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    mel_matrix(fft_size, n_mels)
            else:
                assert ref.bitwise_equal(mel_matrix(fft_size, n_mels), expected), n_mels
        assert 0 < refused < len(counts)

    def test_every_filter_peaks_at_one(self):
        mel = mel_matrix(512, 64)
        assert mel.shape == (64, 257)
        assert np.all(mel.max(axis=1) > 0.5)
        assert np.all(mel.max(axis=1) <= 1.0)
        assert np.all(mel >= 0.0)

    def test_hz_mel_round_trip(self):
        f = np.array([0.0, 120.0, 1000.0, 7999.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12, atol=1e-9)

    def test_rejects_degenerate_resolution(self):
        with pytest.raises(ValueError, match="mel filter|n_mels"):
            mel_matrix(64, 32)

    def test_built_once_and_read_only(self):
        mel = mel_matrix(512, 64)
        assert mel_matrix(512, 64) is mel
        with pytest.raises(ValueError, match="read-only"):
            mel[0, 0] = 1.0


    def test_one_matrix_per_parameter_set(self):
        assert mel_matrix() is mel_matrix(512, 64) is mel_matrix(fft_size=512)
        assert mel_matrix(n_mels=64, fft_size=512) is mel_matrix(512, n_mels=64)
        assert mel_matrix(256, 16) is not mel_matrix(512, 16)


class TestLogMel:
    def test_values_match_manual_computation(self, mel64):
        rng = np.random.default_rng(4)
        mag = rng.uniform(0.0, 0.2, (10, 257))
        feat = log_mel(mag, mel64)
        assert isinstance(feat, np.ndarray)
        assert feat.shape == (10, 64)
        expected = np.log(np.maximum((mag**2) @ mel64.T, LOG_FLOOR))
        np.testing.assert_allclose(feat, expected, rtol=1e-15)

    def test_silence_sits_exactly_on_the_floor(self, mel64):
        feat = log_mel(np.zeros((3, 257)), mel64)
        np.testing.assert_array_equal(feat, np.log(LOG_FLOOR))

    def test_rejects_bin_mismatch(self, mel64):
        with pytest.raises(ValueError, match="bins"):
            log_mel(np.zeros((3, 129)), mel64)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        mel = mel_matrix(256, 16)
        mag = rng.uniform(0.01, 0.2, (5, 129))
        grad_out = rng.standard_normal((5, 16))
        grad_energy = log_energies_backward(grad_out, mel_energies(mag, mel))
        grad = log_mel_backward(grad_energy, mag, mel, None)
        h = 1e-6
        for i, j in [(0, 3), (1, 40), (2, 64), (3, 100), (4, 128)]:
            up, down = mag.copy(), mag.copy()
            up[i, j] += h
            down[i, j] -= h
            fd = (
                np.sum(grad_out * log_mel(up, mel))
                - np.sum(grad_out * log_mel(down, mel))
            ) / (2 * h)
            assert abs(fd - grad[i, j]) <= 1e-6 * max(abs(fd), abs(grad[i, j]), 1e-3)

    def test_backward_is_zero_under_the_floor(self):
        mel = mel_matrix(256, 16)
        mag = np.full((4, 129), 1e-8)  # energies ~1e-16, below the floor
        grad_energy = log_energies_backward(np.ones((4, 16)), mel_energies(mag, mel))
        np.testing.assert_array_equal(grad_energy, np.zeros((4, 16)))
        grad = log_mel_backward(grad_energy, mag, mel, None)
        np.testing.assert_array_equal(grad, np.zeros_like(mag))

    def test_backward_shape_validation(self, mel64):
        with pytest.raises(ValueError, match="grad_out"):
            mag = np.zeros((3, 257))
            log_energies_backward(np.zeros((3, 10)), mel_energies(mag, mel64))


class TestCsvDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        mag = rng.uniform(0.0, 1.0, (7, 257))
        path = tmp_path / "mag.csv"
        write_magnitude_csv(mag, path)
        back = np.loadtxt(path, delimiter=",")
        assert back.shape == (7, 257)
        np.testing.assert_allclose(back, mag, rtol=1e-8, atol=1e-12)
