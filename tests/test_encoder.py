import hashlib
import math

import numpy as np
import pytest

from voicecloak.encoder import (
    EncoderConfig,
    WeightStore,
    backward,
    cosine_loss,
    cosine_loss_grad,
    forward,
    init_random,
    load_weights,
    save_weights,
)
from voicecloak.spectral import log_mel
from voicecloak.tensorfile import TensorFileError

# Embedding of a fixed random magnitude matrix under the default
# configuration at seed 42, recorded once from a gradient-checked build.
GOLDEN_INPUT_SEED = 20240817
GOLDEN_EMBEDDING = np.array([
    -0.027781037447744295, 0.020427887579376358, 0.0008225337582133136, -0.01777169486862877,
    0.04083615027173169, -0.12630446966976158, 0.004152673904184194, 0.016437102170488084,
    3.06439489768124e-05, -0.025069047282468143, 0.0025689778192412357, 0.0376911365547044,
    0.024779088572827547, 0.01426621373588833, -0.029687767890726097, -0.0521213413558448,
    0.041580713229834795, 0.019703909203233394, 0.042386227501948065, 0.02438139117571788,
    0.007959815187481156, -0.06239292947409997, -0.010614126364288507, 0.001485406780372324,
    -0.016960685388395763, 0.010988723057547164, 0.031945934078892235, 0.04029215055614489,
    0.020798271927682143, -0.00499802330358199, -0.0808769195231845, 0.030876920151302466,
    -0.06982874375985461, -0.022988990326880617, -0.016071049828342197, -0.010232922683895232,
    -0.01064011579599359, -0.01867400917724686, -0.010190422770065925, 0.00019363800808719703,
    -0.022484425817754387, 0.006227313811655182, -0.024393192621319768, 0.006322698067870178,
    0.09669717477325153, 0.013366812616756742, 0.0033920413421431794, -0.03493205970796503,
    -0.019791457675862892, -0.013252770988915448, 0.007498810374692008, 0.014781151971182273,
    -0.028500639035003595, -0.010488490256019578, 0.00986573368768545, 0.037120836624616245,
    0.012105861826670887, -0.03244230790099499, 0.005454885343721913, -0.021073418488661226,
    -0.03815116725436492, 0.0889775607919131, 0.05097156898792224, 0.05960461082482892,
    -0.060432792755435644, 0.03579458625117792, -0.03040556514691827, 0.0083751097320836,
    -0.015649680381567957, -0.014871938292460755, 0.0022729135647766435, -0.035768746525163764,
    0.047811624278399176, 0.04854285691424692, 0.015579924850684233, 0.001257939926103322,
    0.02499161454677397, -0.010747586028550873, -0.06594064386148309, 0.0035994626638204616,
    -0.015543038123103127, 0.027810778301004726, 0.0403271680334477, -0.018198199576784962,
    0.06004299116668986, 0.03144414078060706, -0.011433263925206421, 0.012026064454836342,
    -0.021663319518069064, -0.025911911292521937, -0.024290524767256117, 0.03168598728533385,
    -0.012776553641263923, -0.0164774169418633, -0.0035333355386237006, -0.05904116771283391,
    -0.03173422856178747, 0.03315344697718409, -0.0419314775135517, -0.014378767686645068,
    0.0224256605212771, -0.029272843890436488, -0.02496632671651582, 0.010120375694424213,
    -0.05566697373858693, 0.011805202649479526, 0.07241592095907401, -0.015388970476452761,
    0.07193372359408155, 0.027811066925339523, 0.029962388219984003, 0.02274782976190345,
    0.03653336690986886, 0.0026195030137380546, 0.03819679464392181, -0.009907801767821524,
    0.016139180107306573, 0.006007762732678808, -0.009014651819317997, -0.04861888276326634,
    -0.004288094814629843, -0.06181561116113133, 0.04893866098531135, -0.04621444095335272,
    0.044640091209027656, 0.007402232967659305, -0.001354055737291025, 0.047599421977411044,
])


SMALL_CFG = EncoderConfig(conv_channels=(2, 2), pool_after=(0,), embed_dim=8, n_mels=16)
NO_POOL_CFG = EncoderConfig(conv_channels=(3, 2), pool_after=(), embed_dim=8, n_mels=16)
REPEATED_POOL_CFG = EncoderConfig(conv_channels=(2, 3), pool_after=(0, 0), embed_dim=8, n_mels=16)


def _random_features(rng, frames=12, n_mels=64):
    return rng.standard_normal((frames, n_mels))


class TestEncoderConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert cfg.conv_channels == (2, 4)
        assert cfg.pool_after == (0, 1)
        assert cfg.embed_dim == 128
        assert cfg.n_mels == 64
        assert cfg.stats_dim == 2 * 4 * 16

    def test_stats_dim_without_pooling(self):
        cfg = EncoderConfig(conv_channels=(3,), pool_after=(), n_mels=10, embed_dim=4)
        assert cfg.stats_dim == 2 * 3 * 10

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"conv_channels": ()}, "at least one conv layer"),
            ({"conv_channels": (0, 2)}, "positive"),
            ({"embed_dim": 1}, "embed_dim"),
            ({"pool_after": (5,)}, "out of range"),
            ({"pool_after": (0, 1), "min_frames": 2}, "pool down"),
            ({"conv_channels": (2.9, 4)}, "conv_channels must be a list of integers"),
            ({"conv_channels": (True, 4)}, "conv_channels must be a list of integers"),
            ({"embed_dim": 16.7}, "embed_dim must be an integer"),
            ({"min_frames": True}, "min_frames must be an integer"),
            ({"pool_after": None}, "pool_after must be a list of integers"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EncoderConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = EncoderConfig(conv_channels=(2, 2), pool_after=(1,), embed_dim=16, n_mels=32)
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


class TestInitRandom:
    def test_deterministic_in_seed(self):
        a = init_random(EncoderConfig(), 5)
        b = init_random(EncoderConfig(), 5)
        c = init_random(EncoderConfig(), 6)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
        assert not np.array_equal(a.tensors["conv0.kernel"], c.tensors["conv0.kernel"])

    def test_bounds_variance_and_zero_biases(self):
        cfg = EncoderConfig()
        ws = init_random(cfg, 42)
        assert np.all(ws.tensors["conv0.bias"] == 0.0)
        assert np.all(ws.tensors["embed.bias"] == 0.0)
        k0 = ws.tensors["conv0.kernel"]
        assert np.max(np.abs(k0)) <= math.sqrt(6.0 / 9)
        w = ws.tensors["embed.weight"]
        bound = math.sqrt(6.0 / cfg.stats_dim)
        assert np.max(np.abs(w)) <= bound
        # uniform on [-b, b] has variance b^2/3 = 2/fan_in
        assert abs(w.var() / (2.0 / cfg.stats_dim) - 1.0) < 0.05

    @pytest.mark.parametrize(
        "cfg, seed, digest",
        [
            (EncoderConfig(), 0, "9fddefce5f8618efffe5f5731a838099619a0f3ae5afa3d6981aff1665097900"),
            (EncoderConfig(), 42, "cd219a5fb9f242751989b57784a115a1e6b07944d1a1d93ea8ef00dc4cbe49c1"),
            (SMALL_CFG, 0, "5ccdf9099d87b3900fd339ea1adb85792d02058cd49875229742e91ddc686fb6"),
            (SMALL_CFG, 42, "563041e57c19b4c0b5d209eb818a5e1176df0eb1aa4e7cb4e17ba1a9c8b2e2ca"),
            (NO_POOL_CFG, 0, "dd9eaeed6c0a9b25c75f767a9cb741fd0263a2bee15b3e83177096809c646f1b"),
            (NO_POOL_CFG, 42, "13357012dc0e497150975831f5919b0c6980b7b15a41ad5958e9f5e7b4ef4c57"),
            (REPEATED_POOL_CFG, 0, "f9a2e94e212034e3409fc05ab5fb64be50b268c8239b28f7d3b91407c0e61afe"),
            (REPEATED_POOL_CFG, 42, "3659c5bedf23583b7bb98d4811e1a0a72e019238b9fbf883f10f9ff2ea88ea39"),
        ],
        ids=["default-0", "default-42", "small-0", "small-42", "no-pool-0", "no-pool-42",
             "repeated-pool-0", "repeated-pool-42"],
    )
    def test_weight_file_bytes_are_pinned(self, tmp_path, cfg, seed, digest):
        # recorded from the per-layer init loop that the shape table replaced
        path = tmp_path / "w.bin"
        save_weights(init_random(cfg, seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_store_validates_shapes(self):
        ws = init_random(EncoderConfig(), 0)
        broken = dict(ws.tensors)
        broken["conv0.kernel"] = broken["conv0.kernel"][:, :, :2, :]
        with pytest.raises(ValueError, match="conv0.kernel"):
            WeightStore(ws.config, broken)
        missing = dict(ws.tensors)
        del missing["embed.bias"]
        with pytest.raises(ValueError, match="missing tensor"):
            WeightStore(ws.config, missing)

    def test_save_load_round_trip(self, tmp_path):
        ws = init_random(EncoderConfig(conv_channels=(2, 3), pool_after=(0,), embed_dim=8), 9)
        path = tmp_path / "w.bin"
        save_weights(ws, path)
        back = load_weights(path)
        assert back.config == ws.config
        for name in ws.tensors:
            np.testing.assert_array_equal(back.tensors[name], ws.tensors[name])

    @pytest.mark.parametrize(
        "config, field",
        [([1], "list indices"), ({"conv_channels": [2]}, "'pool_after'"),
         ({**EncoderConfig().to_dict(), "embed_dim": "x"}, "'x'"),
         ({**EncoderConfig().to_dict(), "embed_dim": 16.7}, "embed_dim must be an integer"),
         ({**EncoderConfig().to_dict(), "min_frames": True}, "min_frames must be an integer"),
         ({**EncoderConfig().to_dict(), "conv_channels": [2.9, 4]}, "conv_channels must be a"),
         ({**EncoderConfig().to_dict(), "conv_channels": [True, 4]}, "conv_channels must be a"),
         ({**EncoderConfig().to_dict(), "conv_channels": 5}, "conv_channels must be a list"),
         ({**EncoderConfig().to_dict(), "pool_after": None}, "pool_after must be a list")],
    )
    def test_load_rejects_malformed_config(self, tmp_path, config, field):
        from voicecloak import tensorfile

        path = tmp_path / "w.bin"
        tensorfile.save(path, {}, meta={"kind": "encoder-weights", "config": config})
        with pytest.raises(TensorFileError, match=f"bad encoder config: .*{field}"):
            load_weights(path)

    def test_load_rejects_foreign_file(self, tmp_path):
        from voicecloak import tensorfile

        path = tmp_path / "other.bin"
        tensorfile.save(path, {"x": np.zeros(3)}, meta={"kind": "embeddings"})
        with pytest.raises(TensorFileError, match="not an encoder weight file"):
            load_weights(path)


class TestForward:
    def test_embedding_shape(self, default_weights):
        rng = np.random.default_rng(0)
        e, _ = forward(_random_features(rng), default_weights)
        assert e.shape == (128,)

    def test_zero_features_give_zero_embedding(self, default_weights):
        e, _ = forward(np.zeros((8, 64)), default_weights)
        np.testing.assert_array_equal(e, np.zeros(128))

    def test_rejects_wrong_band_count(self, default_weights):
        with pytest.raises(ValueError, match="mel bands"):
            forward(np.zeros((8, 32)), default_weights)

    def test_rejects_one_dimensional_features(self, default_weights):
        with pytest.raises(ValueError, match=r"got shape \(64,\)"):
            forward(np.zeros(64), default_weights)

    def test_rejects_too_few_frames(self, default_weights):
        with pytest.raises(ValueError, match="too few frames"):
            forward(np.zeros((2, 64)), default_weights)

    def test_time_tiling_invariance_without_pooling(self):
        ws = init_random(EncoderConfig(conv_channels=(2, 4), pool_after=()), 42)
        rng = np.random.default_rng(3)
        base = rng.standard_normal((9, 64))
        e1, _ = forward(base, ws)
        e2, _ = forward(np.vstack([base, base]), ws)
        np.testing.assert_allclose(e2, e1, atol=1e-12)

    def test_golden_embedding(self, default_weights, mel64):
        mag = np.random.default_rng(GOLDEN_INPUT_SEED).uniform(0.0, 0.05, size=(31, 257))
        e, _ = forward(log_mel(mag, mel64), default_weights)
        np.testing.assert_allclose(e, GOLDEN_EMBEDDING, rtol=0.0, atol=1e-12)


class TestBackward:
    def test_matches_finite_differences(self, default_weights):
        rng = np.random.default_rng(4)
        feat = rng.standard_normal((10, 64))
        v = rng.standard_normal(128)
        _, cache = forward(feat, default_weights)
        grad = backward(cache, v)
        assert grad.shape == feat.shape
        h = 1e-6
        floor = 1e-3 * np.max(np.abs(grad))
        idx = [(i, j) for i in (0, 3, 9) for j in (0, 17, 33, 63)]
        for i, j in idx:
            up, down = feat.copy(), feat.copy()
            up[i, j] += h
            down[i, j] -= h
            eu, _ = forward(up, default_weights)
            ed, _ = forward(down, default_weights)
            fd = (v @ eu - v @ ed) / (2 * h)
            rel = abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), floor)
            assert rel < 1e-5

    def test_constant_features_take_zero_std_subgradient(self, default_weights):
        feat = np.tile(np.linspace(0.1, 1.0, 64), (8, 1))
        _, cache = forward(feat, default_weights)
        grad = backward(cache, np.ones(128))
        assert np.all(np.isfinite(grad))

    def test_rejects_wrong_grad_shape(self, default_weights):
        _, cache = forward(np.zeros((8, 64)), default_weights)
        with pytest.raises(ValueError, match="grad_embedding"):
            backward(cache, np.zeros(64))


class TestCosineLoss:
    def test_identities(self):
        e = np.array([1.0, 2.0, -3.0])
        assert cosine_loss(e, e) == pytest.approx(-1.0, abs=1e-12)
        assert cosine_loss(e, -e) == pytest.approx(1.0, abs=1e-12)
        assert cosine_loss(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(16), rng.standard_normal(16)
        assert cosine_loss(a, b) == pytest.approx(cosine_loss(3.0 * a, 0.2 * b), abs=1e-12)

    def test_rejects_zero_norm(self):
        with pytest.raises(ValueError, match="near-zero-norm"):
            cosine_loss(np.zeros(4), np.ones(4))

    def test_grad_rejects_zero_norm(self):
        with pytest.raises(ValueError, match="near-zero-norm"):
            cosine_loss_grad(np.ones(4), np.zeros(4))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        e, et = rng.standard_normal(12), rng.standard_normal(12)
        grad = cosine_loss_grad(e, et)
        h = 1e-7
        for k in range(12):
            up, down = et.copy(), et.copy()
            up[k] += h
            down[k] -= h
            fd = (cosine_loss(e, up) - cosine_loss(e, down)) / (2 * h)
            assert abs(fd - grad[k]) < 1e-6

    def test_grad_is_orthogonal_to_input(self):
        rng = np.random.default_rng(7)
        e, et = rng.standard_normal(20), rng.standard_normal(20)
        assert abs(cosine_loss_grad(e, et) @ et) < 1e-12
