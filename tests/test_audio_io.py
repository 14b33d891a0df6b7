import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicecloak.audio_io import (
    PCM16_BLOCK,
    Waveform,
    WavFormatError,
    add_gaussian_noise,
    from_pcm16,
    read_wav,
    to_pcm16,
    write_wav,
)


def _wav_bytes(body: bytes, format_code=1, channels=1, rate=16000, bits=16, extra=b""):
    """Assemble a RIFF/WAVE byte string by hand, independent of write_wav."""
    fmt = struct.pack(
        "<HHIIHH", format_code, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits
    )
    chunks = extra
    chunks += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestWaveform:
    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            Waveform(np.zeros((4, 2)), 16000)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Waveform(np.zeros(4), 0)

    def test_len_counts_samples(self):
        w = Waveform(np.zeros(8000), 16000)
        assert len(w) == 8000

    def test_casts_to_float64(self):
        w = Waveform(np.zeros(4, dtype=np.float32), 16000)
        assert w.samples.dtype == np.float64


class TestReadWrite:
    def test_pcm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.9, 0.9, 1600)
        path = tmp_path / "a.wav"
        write_wav(path, Waveform(x, 16000))
        w = read_wav(path)
        assert w.sample_rate == 16000
        assert len(w) == 1600
        assert np.max(np.abs(w.samples - x)) <= 0.5 / 32768 + 1e-12

    def test_write_clamps_out_of_range(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(path, Waveform(np.array([2.0, -2.0]), 16000))
        w = read_wav(path)
        assert w.samples[0] == 32767 / 32768
        assert w.samples[1] == -1.0

    def test_read_float32(self, tmp_path):
        x = np.array([0.25, -0.5, 1.5, 0.0], dtype=np.float32)
        path = tmp_path / "f32.wav"
        path.write_bytes(_wav_bytes(x.tobytes(), format_code=3, bits=32))
        w = read_wav(path)
        assert w.sample_rate == 16000
        np.testing.assert_array_equal(w.samples, x.astype(np.float64))

    def test_read_skips_unknown_chunks_with_odd_padding(self, tmp_path):
        x = np.array([1000, -1000], dtype="<i2")
        junk = b"LIST" + struct.pack("<I", 3) + b"abc"  # odd size, padded to 4
        junk += b"\x00"
        path = tmp_path / "junk.wav"
        path.write_bytes(_wav_bytes(x.tobytes(), extra=junk))
        w = read_wav(path)
        np.testing.assert_allclose(w.samples, x / 32768)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 8, channels=2))
        with pytest.raises(WavFormatError, match="channel count 2"):
            read_wav(path)

    def test_rejects_unsupported_encoding(self, tmp_path):
        path = tmp_path / "u8.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 8, bits=8))
        with pytest.raises(WavFormatError, match="format code"):
            read_wav(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFX" + b"\x00" * 40)
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(path)

    def test_rejects_truncated_chunk(self, tmp_path):
        good = _wav_bytes(np.zeros(100, dtype="<i2").tobytes())
        path = tmp_path / "trunc.wav"
        path.write_bytes(good[:-20])
        with pytest.raises(WavFormatError, match="truncated"):
            read_wav(path)

    def test_rejects_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        raw = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE"
        raw += b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path = tmp_path / "nodata.wav"
        path.write_bytes(raw)
        with pytest.raises(WavFormatError, match="'data'"):
            read_wav(path)

    @pytest.mark.parametrize("rate", [8000, 44100])
    @pytest.mark.parametrize("format_code, bits", [(1, 16), (3, 32)])
    def test_rejects_a_rate_other_than_16k_naming_the_file(self, tmp_path, rate, format_code, bits):
        path = tmp_path / "other.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 8, format_code=format_code, rate=rate, bits=bits))
        with pytest.raises(WavFormatError) as caught:
            read_wav(path)
        assert str(caught.value) == f"{path}: sample_rate {rate} Hz not supported, need 16000"

    def test_rejects_odd_data_size(self, tmp_path):
        path = tmp_path / "odd.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 7))
        with pytest.raises(WavFormatError, match="multiple"):
            read_wav(path)


    @pytest.mark.parametrize(
        "raw, message",
        [
            (_wav_bytes(b"\x00" * 8, rate=0), "sample_rate"),
            (_wav_bytes(np.array([np.nan], "<f4").tobytes(), format_code=3, bits=32), "non-finite"),
        ],
    )
    def test_rejects_zero_rate_and_non_finite_samples(self, tmp_path, raw, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(WavFormatError, match=message):
            read_wav(path)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_file_raises_only_wav_format_error(self, tmp_path_factory, data):
        samples = np.array([0.25, -0.5, 0.75, 0.0], dtype=np.float32)
        raw = bytearray(data.draw(st.sampled_from([
            _wav_bytes((samples * 32767).astype("<i2").tobytes()),
            _wav_bytes(samples.tobytes(), format_code=3, bits=32),
        ])))
        fields = st.sampled_from([4, 16, 20, 22, 24, 34, 40, 44, 48])  # sizes, fmt fields, samples
        for _ in range(data.draw(st.integers(1, 3))):
            size = data.draw(st.sampled_from([1, 2, 4]))
            at = data.draw(fields | st.integers(0, len(raw) - size))
            top = 256**size - 1
            value = data.draw(st.sampled_from([0, top]) | st.integers(0, top))
            raw[at : at + size] = value.to_bytes(size, "little")
        if data.draw(st.booleans()):
            raw = raw[: data.draw(st.integers(0, len(raw)))]
        path = tmp_path_factory.getbasetemp() / "mutated.wav"
        path.write_bytes(bytes(raw))
        try:
            w = read_wav(path)
        except WavFormatError:
            return
        assert isinstance(w, Waveform)

def _pcm16_formula(x):
    """The quantizer written out whole: clamp, scale, round half to even."""
    return np.rint(np.clip(x, -1.0, 32767 / 32768) * 32768).astype("<i2")


def _edge_signal(n):
    """n random samples up to 1.5 in size, with the quantizer's edge values
    spread through them: -1, 32767/32768, values beyond the clamp on both
    sides, and exact half-LSB ties of even and odd, positive and negative k."""
    x = np.random.default_rng(n).uniform(-1.5, 1.5, n)
    edges = np.array([-1.0, 32767 / 32768, 1.0, -1.0 - 2**-20, 2.0, -7.0, 0.0,
                      *((k + 0.5) / 32768 for k in (0, 1, 2, 3, -1, -2, -3, 32766, -32768))])
    m = min(n, len(edges))
    x[np.linspace(0, n - 1, m).astype(int)] = edges[:m]
    return x


class TestPcm16:
    LENGTHS = [1, PCM16_BLOCK - 1, PCM16_BLOCK, PCM16_BLOCK + 1, 160_000]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_to_pcm16_equals_the_whole_array_formula(self, n):
        x = _edge_signal(n)
        pcm = to_pcm16(x)
        assert pcm.dtype == np.dtype("<i2")
        np.testing.assert_array_equal(pcm, _pcm16_formula(x))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_write_wav_writes_the_formula_after_the_header(self, tmp_path, n):
        x = _edge_signal(n)
        path = tmp_path / "a.wav"
        write_wav(path, Waveform(x, 16000))
        assert path.read_bytes() == _wav_bytes(_pcm16_formula(x).tobytes())

    def test_ties_round_half_to_even_and_the_ends_clamp(self):
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, 32766.5, -32767.5, 32767.5, -32768.5]) / 32768
        np.testing.assert_array_equal(to_pcm16(x), [0, 2, 2, 0, -2, 32766, -32768, 32767, -32768])

    def test_from_pcm16_is_k_over_32768_and_read_wav_uses_it(self, tmp_path):
        k = np.arange(-32768, 32768, dtype="<i2")
        samples = from_pcm16(k)
        assert samples.dtype == np.float64
        np.testing.assert_array_equal(samples, k / 32768)
        path = tmp_path / "all.wav"
        path.write_bytes(_wav_bytes(k.tobytes()))
        np.testing.assert_array_equal(read_wav(path).samples.view(np.int64),
                                      samples.view(np.int64))
        np.testing.assert_array_equal(to_pcm16(samples), k)

    def test_write_wav_holds_no_float_array_of_the_signals_size(self, tmp_path):
        """10 s: the traced peak is the int16 samples (a quarter of the float
        bytes) and one float block; clamping, scaling and rounding whole, then
        copying the bytes and the header plus the body, took about 3x."""
        w = Waveform(_edge_signal(160_000), 16000)
        path = tmp_path / "ten.wav"
        tracemalloc.start()
        try:
            write_wav(path, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w.samples.nbytes / 2

    def test_read_wav_makes_the_samples_once_and_copies_no_chunk(self, tmp_path):
        """10 s: the traced peak is the file's bytes, the float samples and
        the finite check's mask, 1.38x the samples' bytes; a bytes copy of
        the data chunk took it to 1.63x."""
        path = tmp_path / "ten.wav"
        write_wav(path, Waveform(_edge_signal(160_000), 16000))
        tracemalloc.start()
        try:
            w = read_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w.samples.nbytes


class TestAddGaussianNoise:
    @pytest.mark.parametrize("target", [0.0, 12.5, 32.0, 60.0])
    def test_realized_snr_is_exact(self, target):
        rng = np.random.default_rng(2)
        w = Waveform(rng.uniform(-0.5, 0.5, 16000), 16000)
        noisy = add_gaussian_noise(w, target, seed=3)
        err = noisy.samples - w.samples
        realized = 10.0 * np.log10(np.sum(w.samples**2) / np.sum(err**2))
        assert abs(realized - target) < 1e-9

    def test_seed_determinism(self):
        w = Waveform(np.ones(100), 16000)
        a = add_gaussian_noise(w, 20.0, seed=7)
        b = add_gaussian_noise(w, 20.0, seed=7)
        c = add_gaussian_noise(w, 20.0, seed=8)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError, match="zero-energy"):
            add_gaussian_noise(Waveform(np.zeros(10), 16000), 30.0, seed=0)

    @pytest.mark.parametrize("target", [4000.0, 3079.0, -4000.0],
                             ids=["overflow", "scale-zero", "underflow"])
    def test_rejects_a_target_whose_noise_scale_overflows_or_is_zero(self, target):
        with pytest.raises(ValueError, match="target_snr_db"):
            add_gaussian_noise(Waveform(np.ones(10), 16000), target, seed=0)

    def test_rejects_non_finite_target(self):
        with pytest.raises(ValueError, match="finite"):
            add_gaussian_noise(Waveform(np.ones(10), 16000), float("inf"), seed=0)
