"""The fast convolution, pooling, gradient step and synthesis against `reference_ops`.

Every kernel comparison is bitwise: no I-FGSM output may move by one ulp
when the convolution or pooling is reimplemented, when the attack step,
the log-mel backward pass and synthesis write over their own arrays
instead of allocating new ones, when analysis and synthesis stream
through frame blocks instead of holding a spectrum, when analysis
reads the samples with no padded copy, when the filterbank products,
the encoder's layers and the attack step go a block of frames at a time,
when the encoder logs the energies and writes their gradient a block at a
time, when synthesis normalizes by five rows of the window sum, or when
`protect_utterance` holds a PCM16 input as its int16 samples.
`reference_ops` shares no code with those. Synthesis from the unit phasor
may move float samples in the last ulps against synthesis through the
angle, so that is compared as the PCM16 samples `write_wav` stores.
"""

import tracemalloc

import numpy as np
import pytest

import reference_ops as ref
from synth import speaker_utterance
from voicecloak import attack, encoder
from voicecloak.attack import AttackConfig, fgsm, ifgsm, protect_utterance
from voicecloak.audio_io import CANONICAL_RATE, Waveform, read_wav, write_wav
from voicecloak.encoder import EncoderConfig, forward, init_random
from voicecloak.spectral import (
    BLOCK_FRAMES, HOP_LENGTH, LOG_FLOOR, N_BINS, WIN_LENGTH, istft,
    log_energies_backward, log_mel, log_mel_backward, mel_energies, mel_matrix, resynthesize,
    row_blocks, stft, stft_magnitude,
)

BLOCK = BLOCK_FRAMES

# (C_in, C_out, T, F): odd and tiny maps; the four convolutions of the
# default encoder (two forward, two input gradients) on 3 s and on 10 s of
# audio; maps of one time block, one block and a frame, and two blocks and
# an odd remainder, one of them with an odd band count.
CONV_SHAPES = [
    (1, 1, 1, 1), (1, 1, 2, 3), (1, 3, 5, 7), (2, 1, 7, 9), (3, 5, 8, 2),
    (4, 2, 33, 31), (5, 3, 101, 64), (8, 1, 13, 1),
    (1, 2, 301, 64), (2, 4, 150, 32), (4, 2, 150, 32), (2, 1, 301, 64),
    (1, 2, 1001, 64), (2, 4, 500, 32), (4, 2, 500, 32), (2, 1, 1001, 64),
    (2, 1, BLOCK, 64), (2, 1, BLOCK + 1, 64), (3, 2, 2 * BLOCK + 37, 64),
    (2, 3, 2 * BLOCK + 37, 7),
]


def _scaled(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


def _conv(x, kernels):
    """The encoder's block convolution over a whole map, its frames read straight from x."""
    c_in, t, f = x.shape
    out = np.empty((len(kernels), t * f))
    for _ in encoder._conv(t, f, kernels, lambda lo, hi: x[:, lo:hi], out):
        pass
    return out.reshape(len(kernels), t, f)


@pytest.mark.parametrize("c_in,c_out,t,f", CONV_SHAPES)
def test_conv_matches_tensordot_reference(c_in, c_out, t, f):
    rng = np.random.default_rng(c_in * 1000 + c_out * 100 + t + f)
    x = _scaled(rng, (c_in, t, f))
    kernels = rng.standard_normal((c_out, c_in, 3, 3))
    assert ref.bitwise_equal(_conv(x, kernels), ref.conv_same(x, kernels))


@pytest.mark.parametrize("c", [1, 2, 4])
@pytest.mark.parametrize("t", [2, 3, 8, 51, 301])
@pytest.mark.parametrize("f", [2, 3, 4, 5, 7, 32, 64])
def test_pooling_matches_reshape_mean_reference(c, t, f):
    """Includes the one-band maps (f of 2 or 3), where the add order differs.
    The backward pass, which takes the ReLU mask too, also from an odd frame
    to one before the end."""
    rng = np.random.default_rng(c * 10000 + t * 100 + f)
    x = _scaled(rng, (c, t, f))
    pooled = np.empty((c, t // 2, f // 2))
    encoder._avgpool2(x, pooled)
    assert ref.bitwise_equal(pooled, ref.avgpool2(x))
    grad = _scaled(rng, pooled.shape)
    expected = ref.avgpool2_backward(grad, x.shape)
    live = np.ones(x.shape, dtype=bool)
    assert ref.bitwise_equal(encoder._avgpool2_backward(grad / 4.0, live, 0, t), expected)
    live = rng.uniform(size=x.shape) < 0.5
    assert ref.bitwise_equal(encoder._avgpool2_backward(grad / 4.0, live, 1, t - 1),
                             (expected * live)[:, 1:-1])


# (conv_channels, pool_after, n_mels, min_frames): the default; one band
# after pooling; no pooling; pooling after the first layer only; three layers
ENCODERS = [((2, 4), (0, 1), 64, 4), ((3, 2, 2), (0, 1, 2), 8, 8), ((2, 3), (), 16, 1),
            ((2, 2), (0,), 16, 2), ((2, 3, 2), (1,), 32, 4)]


@pytest.mark.parametrize("channels,pool_after,n_mels,min_frames", ENCODERS)
def test_streamed_encoder_matches_whole_map_reference(channels, pool_after, n_mels, min_frames):
    """Forward and backward at frame counts from the shortest the config takes
    to several blocks, odd and even, and across each block edge."""
    cfg = EncoderConfig(conv_channels=channels, pool_after=pool_after, n_mels=n_mels,
                        min_frames=min_frames)
    ws = init_random(cfg, sum(channels))
    rng = np.random.default_rng(n_mels)
    for t in sorted({min_frames, 8, 9, 33, 101, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2,
                     2 * BLOCK + 37, 641, 1001}):
        feat = rng.standard_normal((t, n_mels))
        grad_embedding = rng.standard_normal(cfg.embed_dim)
        embedding, cache = forward(feat, ws)
        expected, ref_cache = ref.forward(feat, ws)
        assert ref.bitwise_equal(embedding, expected), t
        assert all(np.array_equal(a, b) for a, b in zip(cache.pre_acts, ref_cache[0])), t
        got = encoder.backward(cache, grad_embedding)
        assert ref.bitwise_equal(got, ref.backward(ws, ref_cache, grad_embedding)), t


def _step_inputs(rng):
    """3001 frames of magnitudes, every seventh frame's energies on the log floor."""
    mag = rng.uniform(0.0, 0.2, (3001, N_BINS))
    mag[::7] = 1e-8
    return mag


def test_loss_and_grad_matches_whole_maps_at_every_frame_count():
    """The first layer logging the energies a block at a time, the last one
    dividing its blocks into them, and backward convolutions of 64-row blocks:
    the loss and energy gradient of whole maps at every frame count to 400,
    around 512, and at several blocks."""
    ws = init_random(EncoderConfig(), 5)
    rng = np.random.default_rng(30)
    mag, mel, e_ref = _step_inputs(rng), mel_matrix(512, 64), rng.standard_normal(128)
    for t in [*range(4, 401), 511, 512, 513, 1001, 3001]:
        loss, grad_energy = attack.loss_and_grad(mag[:t], mel, ws, e_ref)
        expected_loss, expected = ref.loss_and_energy_grad(mag[:t], mel, ws, e_ref)
        assert ref.bitwise_equal([loss], [expected_loss]), t
        assert ref.bitwise_equal(grad_energy, expected), t


@pytest.mark.parametrize("channels,pool_after,n_mels,min_frames", ENCODERS)
def test_loss_and_grad_matches_whole_maps_for_each_encoder(channels, pool_after, n_mels,
                                                           min_frames):
    """The configurations above, at frame counts across their block edges."""
    cfg = EncoderConfig(conv_channels=channels, pool_after=pool_after, n_mels=n_mels,
                        min_frames=min_frames)
    ws = init_random(cfg, 7)
    rng = np.random.default_rng(n_mels + 1)
    mag, mel, e_ref = _step_inputs(rng), mel_matrix(512, n_mels), rng.standard_normal(128)
    for t in sorted({min_frames, *range(9, 400, 23), 511, 512, 513, 1001}):
        loss, grad_energy = attack.loss_and_grad(mag[:t], mel, ws, e_ref)
        expected_loss, expected = ref.loss_and_energy_grad(mag[:t], mel, ws, e_ref)
        assert ref.bitwise_equal([loss], [expected_loss]), t
        assert ref.bitwise_equal(grad_energy, expected), t


@pytest.mark.parametrize("cfg", [
    EncoderConfig(),
    EncoderConfig(conv_channels=(3, 2, 2), pool_after=(0, 1, 2), n_mels=8, min_frames=8),
], ids=["default", "one-band"])
def test_whole_ifgsm_run_matches_reference_ops(cfg):
    """50 steps on 3 s of speech; the one-band config pools 8 mels down to 1.

    The reference runs every step allocating, and the caller's x is never written."""
    ws = init_random(cfg, 3)
    spec = stft(speaker_utterance(5, 1, seconds=3.0))
    x = spec.magnitude
    clean = x.copy()
    e_ref, _ = forward(log_mel(x, mel_matrix(512, cfg.n_mels)), ws)
    fast = ifgsm(x, ws, e_ref, AttackConfig())
    assert ref.bitwise_equal(x, clean)
    slow = ref.ifgsm(x, ws, e_ref, AttackConfig())
    assert not np.array_equal(fast.adv_magnitude, x)
    assert ref.bitwise_equal(fast.adv_magnitude, slow.adv_magnitude)
    assert ref.bitwise_equal(fast.loss_trajectory, slow.loss_trajectory)


def test_ten_second_fgsm_matches_reference_ops(monkeypatch):
    """One step on 10 s: every convolution map and the log-mel backward pass
    span several time blocks."""
    ws = init_random(EncoderConfig(), 3)
    x = stft(speaker_utterance(7, 0, seconds=10.0)).magnitude
    clean = x.copy()
    assert x.shape[0] > 2 * BLOCK
    e_ref, _ = forward(log_mel(x, mel_matrix(512, 64)), ws)
    fast = fgsm(x, ws, e_ref, AttackConfig.epsilon)
    assert ref.bitwise_equal(x, clean)
    monkeypatch.setattr(attack, "ifgsm", ref.ifgsm)
    slow = fgsm(x, ws, e_ref, AttackConfig.epsilon)
    assert not np.array_equal(fast.adv_magnitude, x)
    assert ref.bitwise_equal(fast.adv_magnitude, slow.adv_magnitude)
    assert ref.bitwise_equal(fast.loss_trajectory, slow.loss_trajectory)


def test_zero_gradient_fallback_and_zero_clamp_match_reference_ops():
    """Magnitudes under the log floor: with e_ref = embed(x) the first gradient
    is exactly zero, so the first step is the all-ones fallback, and later
    steps push entries below zero, onto the clamp."""
    ws = init_random(EncoderConfig(), 0)
    x = np.full((301, N_BINS), 1e-7)
    e_ref = attack.embed(x, ws)
    cfg = AttackConfig(iterations=10)
    first = ifgsm(x, ws, e_ref, AttackConfig(iterations=1))
    assert np.array_equal(first.adv_magnitude, x + cfg.alpha)
    fast = ifgsm(x, ws, e_ref, cfg)
    assert np.all(x == 1e-7)
    assert np.count_nonzero(fast.adv_magnitude == 0.0) > 100
    slow = ref.ifgsm(x, ws, e_ref, cfg)
    assert ref.bitwise_equal(fast.adv_magnitude, slow.adv_magnitude)
    assert ref.bitwise_equal(fast.loss_trajectory, slow.loss_trajectory)


def test_log_mel_backward_writes_its_energy_gradient_over_the_energies():
    """Two blocks and a remainder, the first 40 frames under the log floor:
    the reference's bits, grad_out and mag untouched, and the energies
    replaced by grad_out / energies above the floor and 0 on it."""
    rng = np.random.default_rng(9)
    mel = mel_matrix(512, 64)
    mag = rng.uniform(0.0, 0.2, (2 * BLOCK_FRAMES + 37, N_BINS))
    mag[:40] = 1e-8
    grad_out = _scaled(rng, (len(mag), 64))
    energies = mel_energies(mag, mel)
    clean_energies, clean_grad_out, clean_mag = energies.copy(), grad_out.copy(), mag.copy()
    expected = ref.log_mel_backward(grad_out, mag, mel, clean_energies)
    grad_energy = log_energies_backward(grad_out, energies)
    assert grad_energy is energies
    assert ref.bitwise_equal(log_mel_backward(grad_energy, mag, mel, None), expected)
    assert ref.bitwise_equal(grad_out, clean_grad_out) and ref.bitwise_equal(mag, clean_mag)
    live = clean_energies > LOG_FLOOR
    assert 0 < live.sum() < live.size
    assert ref.bitwise_equal(energies, np.where(live, grad_out / clean_energies, 0.0))


def test_blocked_products_match_the_whole_matrix_products():
    """`mel_energies` and the gradient product of `log_mel_backward` over
    `row_blocks`, against the whole-matrix products, at every frame count to
    700 and at 1001 and 3001. On OpenBLAS a GEMM of fewer than about 1200
    outputs takes another path with other bits: 128-row blocks at 8 and 16
    mels, or a short tail block of the 257-bin gradient, would not match.
    A map of one block is the whole product, so only maps of more are run."""
    rng = np.random.default_rng(29)
    mag = rng.uniform(0.0, 0.2, (3001, N_BINS))
    twice, blocked = 2.0 * mag, np.empty_like(mag)
    for n_mels in (8, 16, 64):
        mel = mel_matrix(512, n_mels)
        grad_energy = _scaled(rng, (len(mag), n_mels))
        for t in [*range(1, 701), 1001, 3001]:
            if len(row_blocks(t, n_mels, 0)) > 1:
                expected = ref.mel_energies(mag[:t], mel)
                assert ref.bitwise_equal(mel_energies(mag[:t], mel), expected), (n_mels, t)
            if len(row_blocks(t, N_BINS, 0)) > 1:
                for rows in row_blocks(t, N_BINS, 0):
                    log_mel_backward(grad_energy[rows], mag[rows], mel, blocked[rows])
                whole = grad_energy[:t] @ mel
                whole *= twice[:t]
                assert ref.bitwise_equal(blocked[:t], whole), (n_mels, t)


def _pcm16(w: Waveform, path) -> bytes:
    write_wav(path, w)
    return path.read_bytes()


def _silent_stretch() -> Waveform:
    """2 s of speech whose middle 0.5 s is exactly zero, so whole frames have |S| = 0."""
    x = speaker_utterance(2, 0, seconds=2.0).samples.copy()
    x[12000:20000] = 0.0
    return Waveform(x, CANONICAL_RATE)


@pytest.mark.parametrize("n", [WIN_LENGTH, (BLOCK_FRAMES - 2) * HOP_LENGTH,
                               (BLOCK_FRAMES - 1) * HOP_LENGTH, BLOCK_FRAMES * HOP_LENGTH, 160_077])
def test_blocked_analysis_and_synthesis_match_whole_array_ffts(n):
    """3 frames; one frame short of a block of BLOCK_FRAMES, one block, one
    frame over; and 1001 frames, several blocks and a remainder."""
    w = Waveform(np.random.default_rng(n).standard_normal(n) * 0.1, CANONICAL_RATE)
    spectrum = stft(w).spectrum
    assert ref.bitwise_equal(spectrum.view(np.float64), ref.stft(w).spectrum.view(np.float64))
    scaled = spectrum * np.random.default_rng(n + 1).uniform(0.5, 1.5, spectrum.shape)
    assert ref.bitwise_equal(istft(scaled, n).samples, ref.istft(scaled, n).samples)


# the lengths above: 3 frames, around one block, and 1001 frames; and edge cases of
# the reflected edge buffers: no frame inside the signal (up to 519 samples), one
# or two tail frames, and head and tail buffers that overlap
LENGTHS = [WIN_LENGTH, (BLOCK_FRAMES - 2) * HOP_LENGTH, (BLOCK_FRAMES - 1) * HOP_LENGTH,
           BLOCK_FRAMES * HOP_LENGTH, 160_077, 480, 519, 520, 679, 681]


def test_analysis_matches_the_whole_signal_reflect_pad_at_every_short_length():
    """Every length from one window to 1120 samples: signals with no frame
    inside them (400-519 samples), every residue mod HOP_LENGTH, and so one
    and two tail frames, with head and tail buffers that overlap."""
    x = np.random.default_rng(400).standard_normal(7 * HOP_LENGTH) * 0.1
    for n in range(WIN_LENGTH, len(x) + 1):
        w = Waveform(x[:n], CANONICAL_RATE)
        spectrum = stft(w).spectrum.view(np.float64)
        assert ref.bitwise_equal(spectrum, ref.stft(w).spectrum.view(np.float64)), n


@pytest.mark.parametrize("n", [WIN_LENGTH, 160_077])
@pytest.mark.parametrize("extra", [-1, -HOP_LENGTH - 3, 3 * HOP_LENGTH])
def test_istft_trims_and_pads_like_the_whole_array_loop(n, extra):
    """Output lengths short of the signal, and past the last frame's window,
    where the samples are zeros."""
    spectrum = stft(Waveform(np.random.default_rng(n).standard_normal(n) * 0.1,
                             CANONICAL_RATE)).spectrum
    length = n + extra
    assert ref.bitwise_equal(istft(spectrum, length).samples, ref.istft(spectrum, length).samples)


@pytest.mark.parametrize("n", LENGTHS)
def test_magnitude_only_analysis_matches_abs_of_stft(n):
    w = Waveform(np.random.default_rng(n).standard_normal(n) * 0.1, CANONICAL_RATE)
    assert ref.bitwise_equal(stft_magnitude(w), np.abs(stft(w).spectrum))


@pytest.mark.parametrize("n", LENGTHS)
def test_resynthesize_matches_istft_of_magnitude_times_phasor(n):
    """The fused synthesis against the whole-array istft of the whole phasor product;
    the magnitude it is given is only read."""
    w = Waveform(np.random.default_rng(n).standard_normal(n) * 0.1, CANONICAL_RATE)
    spec = ref.stft(w)
    mag = spec.magnitude * np.random.default_rng(n + 1).uniform(0.5, 1.5, spec.spectrum.shape)
    held = mag.copy()
    fused = resynthesize(w, mag)
    assert ref.bitwise_equal(mag, held)
    assert ref.bitwise_equal(fused.samples, ref.istft(mag * ref.phasor(spec), n).samples)


def test_synthesis_matches_a_full_window_sum_at_every_short_length():
    """Every sample count of 3 to 9 frames, 1 s and 10 s through `resynthesize`,
    and 1 to 9 frames through `istft`: normalizing by a 6-frame map's head,
    interior and tail rows gives the bits of the whole squared-window sum."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal(160_000) * 0.1
    scale = rng.uniform(0.5, 1.5, (1001, N_BINS))
    for n in [*range(WIN_LENGTH, 9 * HOP_LENGTH), 16_000, 160_000]:
        w = Waveform(x[:n], CANONICAL_RATE)
        spec = ref.stft(w)
        mag = spec.magnitude * scale[: len(spec.spectrum)]
        assert ref.bitwise_equal(resynthesize(w, mag).samples,
                                 ref.istft(mag * ref.phasor(spec), n).samples), n
    spectrum = stft(Waveform(x[: 8 * HOP_LENGTH], CANONICAL_RATE)).spectrum
    for frames in range(1, 10):
        n = (frames - 1) * HOP_LENGTH
        assert ref.bitwise_equal(istft(spectrum[:frames], n).samples,
                                 ref.istft(spectrum[:frames], n).samples), frames


def test_resynthesize_refuses_a_magnitude_of_another_shape():
    w = speaker_utterance(0, 0, seconds=0.5)
    with pytest.raises(ValueError, match="does not match"):
        resynthesize(w, stft_magnitude(w)[:-1])


def _traced_peak(call):
    """The result of call() and the traced peak of making it."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _traced_ten_second_magnitude():
    """10 s of speech, its stft_magnitude, and the traced peak of that call."""
    w = speaker_utterance(3, 0, seconds=10.0)
    stft_magnitude(w)
    magnitude, peak = _traced_peak(lambda: stft_magnitude(w))
    return w, magnitude, peak


def test_ten_second_magnitude_analysis_holds_no_complex_spectrum():
    """A [T x 257] complex spectrum is two magnitudes' worth; with the result held
    too, holding one would put the traced peak at three magnitudes or more."""
    _, magnitude, peak = _traced_ten_second_magnitude()
    magnitude_bytes = 1001 * N_BINS * 8
    assert magnitude.nbytes == magnitude_bytes
    assert peak < 3 * magnitude_bytes


def test_ten_second_magnitude_analysis_makes_no_padded_copy():
    """Beyond the result, a block's frames and transforms trace at about 1.24
    times the signal's bytes; a reflect-padded copy of the signal on top of
    them puts that at 2.24."""
    w, magnitude, peak = _traced_ten_second_magnitude()
    assert peak - magnitude.nbytes < 1.5 * w.samples.nbytes


def test_ten_second_ifgsm_holds_no_other_array_of_the_magnitudes_size():
    """Beyond x and the iterate, two steps on 10 s trace a peak of about 1.03
    magnitudes' bytes: the energies, the encoder's masks and pooled maps, a
    layer's input gradient and one im2col block of at most 0.56 MiB. With
    the log features and their gradient as whole arrays and 1.1 MiB im2col
    blocks going back, it was 1.59; with the squared magnitude, the
    full-resolution conv outputs and pooling gradients, and the whole
    magnitude gradient as well, each made in turn, 1.85."""
    ws = init_random(EncoderConfig(), 3)
    x = stft_magnitude(speaker_utterance(3, 0, seconds=10.0))
    e_ref = attack.embed(stft_magnitude(speaker_utterance(4, 0, seconds=10.0)), ws)
    cfg = AttackConfig(iterations=2)
    ifgsm(x, ws, e_ref, cfg)  # the filterbank is cached
    _, peak = _traced_peak(lambda: ifgsm(x, ws, e_ref, cfg))
    assert peak - x.nbytes < 1.3 * x.nbytes  # x itself was made before tracing


def test_ten_second_resynthesis_holds_no_phasor_or_irfft_copy():
    """Beyond the magnitude (made before tracing) and the output, `resynthesize`
    on 10 s traces about 1.4 times the samples' bytes, all in one block of
    frames: its windowed frames, its transform turned into the phasor in
    place, and the transform's irfft. With a phasor array made from a
    magnitude array for each block it was 2.4."""
    w = speaker_utterance(3, 0, seconds=10.0)
    magnitude = stft_magnitude(w)
    resynthesize(w, magnitude)
    out, peak = _traced_peak(lambda: resynthesize(w, magnitude))
    assert peak - out.samples.nbytes < 2.0 * w.samples.nbytes


def test_ten_second_synthesis_holds_no_window_sum_of_the_signals_size():
    """`istft` only reads its spectrum, so beyond the output it traces about
    0.57 of the output's bytes, mostly one block's irfft. Normalizing by
    a squared-window sum of the whole output, with its masks, puts that at
    1.67. `resynthesize` normalizes alike, but its block loop peaks higher."""
    spectrum = stft(speaker_utterance(3, 0, seconds=10.0)).spectrum
    istft(spectrum, 160_000)
    out, peak = _traced_peak(lambda: istft(spectrum, 160_000))
    assert peak - out.samples.nbytes < 0.8 * out.samples.nbytes


def _angle_synthesis(w: Waveform, magnitude: np.ndarray) -> Waveform:
    """magnitude through w's clean angle, whole arrays from `reference_ops`."""
    return ref.istft(magnitude * ref.angle_phasor(ref.stft(w)), len(w))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phasor_synthesis_matches_angle_synthesis(tmp_path, seed):
    rng = np.random.default_rng(seed)
    w = Waveform(rng.standard_normal(int(rng.integers(16000, 48001))) * 0.1, CANONICAL_RATE)
    mag = stft_magnitude(w)
    steps = AttackConfig.epsilon * np.sign(rng.standard_normal(mag.shape))
    adv = np.maximum(mag + steps, 0.0)
    assert _pcm16(resynthesize(w, adv), tmp_path / "phasor.wav") == _pcm16(
        _angle_synthesis(w, adv), tmp_path / "angle.wav")


def test_zero_magnitude_bins_synthesize_with_phasor_one(tmp_path):
    """Silent frames have angle 0, so the phasor there must be 1, not 0 or NaN.

    Every other silent bin is raised by alpha: that comb puts energy in the
    middle of each window, where a phasor of 0 would drop it from the file.
    """
    w = _silent_stretch()
    mag = stft_magnitude(w)
    zero = mag == 0
    assert zero.sum() >= 40 * N_BINS
    assert np.all(np.angle(ref.stft(w).spectrum[zero]) == 0.0)
    adv = mag.copy()
    adv[zero & (np.arange(N_BINS) % 2 == 0)] += AttackConfig.alpha
    raised = _pcm16(resynthesize(w, adv), tmp_path / "phasor.wav")
    assert raised == _pcm16(_angle_synthesis(w, adv), tmp_path / "angle.wav")
    assert raised != _pcm16(resynthesize(w, mag), tmp_path / "clean.wav")


def test_resynthesize_matches_whole_arrays_over_a_zero_magnitude_stretch():
    """The silent frames' phasor of 1 comes from each block's own analysis."""
    w = _silent_stretch()
    spec = ref.stft(w)
    zero = spec.magnitude == 0
    adv = spec.magnitude.copy()
    adv[zero & (np.arange(N_BINS) % 2 == 0)] += AttackConfig.alpha
    expected = ref.istft(adv * ref.phasor(spec), len(w)).samples
    assert ref.bitwise_equal(resynthesize(w, adv).samples, expected)
    assert not ref.bitwise_equal(expected, ref.istft(spec.spectrum, len(w)).samples)


@pytest.mark.parametrize("method", ["fgsm", "ifgsm"])
def test_protect_utterance_matches_angle_synthesis(tmp_path, monkeypatch, method):
    """The same PCM16 samples with the attack's `resynthesize` swapped for
    whole-array synthesis through the clean angle, over silent frames. At
    1e-6 of the level every energy is on the log floor, so the first step
    is the all-ones escape: it raises the bins of the silent frames, whose
    phasor is then read (a sign step leaves a bin of |S| = 0 where it is)."""
    ws = init_random(EncoderConfig(), 0)
    loud = _silent_stretch()
    for w in (loud, Waveform(loud.samples * 1e-6, CANONICAL_RATE)):
        protected, _ = protect_utterance(w, ws, AttackConfig(), method, 32.0, 0)
        with monkeypatch.context() as patch:
            patch.setattr(attack, "resynthesize", _angle_synthesis)
            through_angles, _ = protect_utterance(w, ws, AttackConfig(), method, 32.0, 0)
        assert _pcm16(protected, tmp_path / "phasor.wav") == _pcm16(
            through_angles, tmp_path / "angle.wav")


def test_protect_utterance_matches_reference_ops(tmp_path):
    """Default ifgsm on 2 s with silent frames, float samples that no PCM16
    file holds, so they are held as they are: the same samples, WAV bytes
    and report as the allocating attack and whole-array analysis and
    synthesis, and the caller's waveform unchanged."""
    ws = init_random(EncoderConfig(), 0)
    w = _silent_stretch()
    assert attack._held_samples(w.samples) is w.samples
    clean = w.samples.copy()
    fast, fast_report = protect_utterance(w, ws, AttackConfig(), "ifgsm", 32.0, 0)
    assert ref.bitwise_equal(w.samples, clean)
    slow, slow_report = ref.protect_utterance(w, ws, AttackConfig())
    assert ref.bitwise_equal(fast.samples, slow.samples)
    assert _pcm16(fast, tmp_path / "fast.wav") == _pcm16(slow, tmp_path / "slow.wav")
    assert ref.bitwise_equal(
        [fast_report.snr_db, fast_report.delta_cosd, *fast_report.loss_trajectory],
        [slow_report.snr_db, slow_report.delta_cosd, *slow_report.loss_trajectory])



def test_protect_utterance_rebuilds_a_pcm16_input_bit_for_bit(tmp_path):
    """Three ifgsm steps on the 2 s stretch read back from its PCM16 file,
    held as int16 through the attack and made float again for synthesis and
    the SNR: the samples and report of `reference_ops`, which keeps the
    float input throughout."""
    write_wav(tmp_path / "in.wav", _silent_stretch())
    w = read_wav(tmp_path / "in.wav")
    assert attack._held_samples(w.samples).dtype == np.int16
    ws = init_random(EncoderConfig(), 0)
    cfg = AttackConfig(iterations=3)
    fast, fast_report = protect_utterance(w, ws, cfg, "ifgsm", 32.0, 0)
    slow, slow_report = ref.protect_utterance(w, ws, cfg)
    assert ref.bitwise_equal(fast.samples, slow.samples)
    assert ref.bitwise_equal(
        [fast_report.snr_db, fast_report.delta_cosd, *fast_report.loss_trajectory],
        [slow_report.snr_db, slow_report.delta_cosd, *slow_report.loss_trajectory])
