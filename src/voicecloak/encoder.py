"""Speaker-embedding encoder: a small convolutional net with exact gradients.

The network maps log-mel features [frames x n_mels] to a fixed-size
embedding: a stack of 3x3/stride-1 ReLU convolutions (optionally followed
by 2x2 average pooling), temporal mean+std statistics pooling, and a final
linear map. Everything is float64 and hand-differentiated; `backward`
returns the exact input gradient that the perturbation loop consumes.

Convolutions pad circularly along time and with zeros along frequency.
Circular time padding makes the embedding exactly invariant to tiling a
signal an integer number of times (when pooling is disabled), matching
what statistics pooling is meant to provide.

Embeddings are plain 1-D float64 arrays; they are deliberately NOT
length-normalized here, the cosine loss normalizes.

Summation order is fixed, so results are reproducible bit for bit:

* a convolution is one BLAS GEMM (`np.dot`) of the kernels, flattened to
  [C_out, C_in*9], against explicit im2col rows ordered (c_in, dt, df);
* 2x2 pooling adds the top pair and the bottom pair first,
  ((a + b) + (c + d)) / 4, where a, b are the upper row; when the pooled
  map has a single band it adds left to right, (((a + b) + c) + d) / 4.
  Both equal NumPy's reshape-mean on the same map;
* the pooling backward writes grad / 4 into each of the four positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensorfile

NORM_EPS = 1e-12


@dataclass(frozen=True)
class EncoderConfig:
    """Layer plan of the encoder.

    conv_channels lists output channels per 3x3 conv layer; pool_after
    names the layers followed by 2x2 average pooling. min_frames declares
    the shortest input the configuration guarantees to survive pooling.

    The default keeps the first layers narrow on purpose: a wide random
    conv averages over many independent filters and yields embeddings
    that barely move under small input perturbations, while a narrow
    bottleneck behaves like a trained encoder in the one respect that
    matters here, namely sensitivity to targeted changes of its input.
    """

    conv_channels: tuple[int, ...] = (2, 4)
    pool_after: tuple[int, ...] = (0, 1)
    embed_dim: int = 128
    n_mels: int = 64
    min_frames: int = 4

    def __post_init__(self):
        # each field is an int, or a list or tuple of ints (stored as a tuple); bools are not ints
        for f in fields(self):
            value, is_list = getattr(self, f.name), isinstance(f.default, tuple)
            items = value if is_list else [value]
            if not isinstance(items, (list, tuple)) or any(type(v) is not int for v in items):
                kind = "a list of integers" if is_list else "an integer"
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
            if is_list:
                object.__setattr__(self, f.name, tuple(value))
        if len(self.conv_channels) < 1:
            raise ValueError("need at least one conv layer")
        if any(c < 1 for c in self.conv_channels):
            raise ValueError(f"conv channel counts must be positive: {self.conv_channels}")
        if self.embed_dim < 2:
            raise ValueError(f"embed_dim must be >= 2, got {self.embed_dim}")
        bad = [i for i in self.pool_after if not 0 <= i < len(self.conv_channels)]
        if bad:
            raise ValueError(f"pool_after indices {bad} out of range")
        t, f = self._pooled(self.min_frames), self._pooled(self.n_mels)
        if t < 1 or f < 1:
            raise ValueError(
                f"min_frames={self.min_frames} / n_mels={self.n_mels} pool down to"
                f" {t}x{f}; the pooled map must keep at least one step"
            )

    def _pooled(self, n: int) -> int:
        """An n-step time or band axis after pooling: each pooled layer halves it, rounding down."""
        return n // 2 ** len(set(self.pool_after))

    @property
    def stats_dim(self) -> int:
        """Length of the pooled mean+std vector feeding the linear map."""
        return 2 * self.conv_channels[-1] * self._pooled(self.n_mels)

    def to_dict(self) -> dict:
        return {
            "conv_channels": list(self.conv_channels),
            "pool_after": list(self.pool_after),
            "embed_dim": self.embed_dim,
            "n_mels": self.n_mels,
            "min_frames": self.min_frames,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        """Inverse of `to_dict`; a missing key raises KeyError naming it."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def _tensor_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    c_in = 1
    for i, c_out in enumerate(cfg.conv_channels):
        shapes[f"conv{i}.kernel"] = (c_out, c_in, 3, 3)
        shapes[f"conv{i}.bias"] = (c_out,)
        c_in = c_out
    shapes["embed.weight"] = (cfg.embed_dim, cfg.stats_dim)
    shapes["embed.bias"] = (cfg.embed_dim,)
    return shapes


@dataclass
class WeightStore:
    """Immutable-by-convention bundle of named tensors plus their config."""

    config: EncoderConfig
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        expected = _tensor_shapes(self.config)
        for name, shape in expected.items():
            if name not in self.tensors:
                raise ValueError(f"weight store is missing tensor {name!r}")
            got = self.tensors[name].shape
            if got != shape:
                raise ValueError(f"tensor {name!r} has shape {got}, config implies {shape}")
            if not np.all(np.isfinite(self.tensors[name])):
                raise ValueError(f"tensor {name!r} contains non-finite values")
        extra = set(self.tensors) - set(expected)
        if extra:
            raise ValueError(f"weight store has unexpected tensors {sorted(extra)}")


def init_random(cfg: EncoderConfig, seed: int) -> WeightStore:
    """He-style scaled uniform initialization, deterministic in the seed.

    Kernels and the linear map draw from U(-sqrt(6/fan_in), +sqrt(6/fan_in)),
    whose variance equals the He target 2/fan_in; biases start at zero.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(cfg).items():  # draws in table order
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / math.prod(shape[1:]))  # fan-in: every dim after the first
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return WeightStore(cfg, tensors)


def save_weights(ws: WeightStore, path) -> None:
    tensorfile.save(path, ws.tensors, meta={"kind": "encoder-weights", "config": ws.config.to_dict()})


def load_weights(path) -> WeightStore:
    tensors, meta = tensorfile.load(path)
    if meta.get("kind") != "encoder-weights" or "config" not in meta:
        raise tensorfile.TensorFileError(f"{path}: not an encoder weight file")
    try:
        config = EncoderConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise tensorfile.TensorFileError(f"{path}: bad encoder config: {exc!r}") from exc
    return WeightStore(config, tensors)


def _conv_same(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """3x3 stride-1 convolution, circular along time, zero-padded along freq.

    x is [C_in, T, F], kernels [C_out, C_in, 3, 3]; output [C_out, T, F].
    One GEMM of the flattened kernels against explicit im2col rows.
    """
    c_in, t, f = x.shape
    c_out = kernels.shape[0]
    # cols[c, dt, df, i, j] = x[c, (i + dt - 1) mod T, j + df - 1], and 0 where
    # j + df - 1 leaves the band; filled straight from x, with no padded copy
    cols = np.empty((c_in, 3, 3, t, f))
    shifts = ((slice(1, None), slice(None, -1)), (slice(None), slice(None)),
              (slice(None, -1), slice(1, None)))
    for dt, (t_out, t_in) in enumerate(shifts):
        for df, (f_out, f_in) in enumerate(shifts):
            cols[:, dt, df, t_out, f_out] = x[:, t_in, f_in]
    cols[:, :, 0, :, 0] = 0.0
    cols[:, :, 2, :, -1] = 0.0
    cols[:, 0, :, 0] = cols[:, 1, :, -1]  # the rows that wrap around in time
    cols[:, 2, :, -1] = cols[:, 1, :, 0]
    out = np.dot(kernels.reshape(c_out, c_in * 9), cols.reshape(c_in * 9, t * f))
    return out.reshape(c_out, t, f)


def _conv_same_input_grad(grad_out: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    # transposed conv = conv with channel-swapped, spatially flipped kernels;
    # valid because the padding geometry is symmetric under the flip
    flipped = np.flip(kernels, axis=(2, 3)).transpose(1, 0, 2, 3)
    return _conv_same(grad_out, np.ascontiguousarray(flipped))


def _avgpool2(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 mean pooling; trailing odd rows/cols are dropped."""
    _, t, f = x.shape
    t2, f2 = t // 2, f // 2
    if t2 < 1 or f2 < 1:
        raise ValueError(f"feature map {t}x{f} too small for 2x2 pooling")
    top = x[:, 0 : 2 * t2 : 2, : 2 * f2]
    bot = x[:, 1 : 2 * t2 : 2, : 2 * f2]
    s = top[:, :, 0::2] + top[:, :, 1::2]
    if f2 > 1:  # the add orders of NumPy's mean; see the module docstring
        s += bot[:, :, 0::2] + bot[:, :, 1::2]
    else:
        s += bot[:, :, 0::2]
        s += bot[:, :, 1::2]
    s /= 4.0
    return s


def _avgpool2_backward(grad: np.ndarray, unpooled_shape: tuple[int, ...]) -> np.ndarray:
    t2, f2 = grad.shape[1], grad.shape[2]
    out = np.zeros(unpooled_shape)
    quarter = grad / 4.0
    for dt in range(2):
        for df in range(2):
            out[:, dt : 2 * t2 : 2, df : 2 * f2 : 2] = quarter
    return out


@dataclass
class ForwardCache:
    """Single-use record of everything `backward` needs."""

    store: WeightStore
    pre_acts: list[np.ndarray]
    centered: np.ndarray
    sigma: np.ndarray


def forward(feat: np.ndarray, ws: WeightStore) -> tuple[np.ndarray, ForwardCache]:
    """Map [frames x n_mels] features to an embedding; the cache enables exact backprop.

    Conv stack -> per-(channel, band) temporal mean and standard deviation,
    concatenated -> linear map. Raises if the input is not 2-D or has fewer
    frames than the configured minimum.
    """
    cfg = ws.config
    if feat.ndim != 2:
        raise ValueError(f"features must be [frames x n_mels], got shape {feat.shape}")
    n_frames, n_mels = feat.shape
    if n_mels != cfg.n_mels:
        raise ValueError(f"features have {n_mels} mel bands, encoder expects {cfg.n_mels}")
    if n_frames < cfg.min_frames:
        raise ValueError(f"too few frames: {n_frames} < required {cfg.min_frames}")

    pre_acts = []
    a = feat[None, :, :]
    for i in range(len(cfg.conv_channels)):
        z = _conv_same(a, ws.tensors[f"conv{i}.kernel"])
        z += ws.tensors[f"conv{i}.bias"][:, None, None]
        r = np.maximum(z, 0.0)
        pre_acts.append(z)
        a = _avgpool2(r) if i in cfg.pool_after else r

    mu = a.mean(axis=1)  # [C, F]
    centered = a - mu[:, None, :]
    sigma = np.sqrt((centered**2).mean(axis=1))
    stats = np.concatenate([mu.ravel(), sigma.ravel()])
    embedding = ws.tensors["embed.weight"] @ stats + ws.tensors["embed.bias"]
    return embedding, ForwardCache(ws, pre_acts, centered, sigma)


def backward(cache: ForwardCache, grad_embedding: np.ndarray) -> np.ndarray:
    """Exact gradient of `forward` with respect to the input features.

    The std-pooling branch takes subgradient zero wherever the temporal
    variance is exactly zero (constant activations).
    """
    ws = cache.store
    cfg = ws.config
    if grad_embedding.shape != (cfg.embed_dim,):
        raise ValueError(
            f"grad_embedding shape {grad_embedding.shape} does not match ({cfg.embed_dim},)"
        )
    d_stats = ws.tensors["embed.weight"].T @ grad_embedding
    c, t_pooled, f = cache.centered.shape
    d_mu = d_stats[: c * f].reshape(c, f)
    d_sigma = d_stats[c * f :].reshape(c, f)

    # d sigma / d a_t = centered_t / (T * sigma); zero where sigma == 0
    sig_term = np.zeros_like(d_sigma)
    denom = cache.sigma * t_pooled
    np.divide(d_sigma, denom, out=sig_term, where=denom > 0.0)
    d_a = d_mu[:, None, :] / t_pooled + sig_term[:, None, :] * cache.centered

    for i in reversed(range(len(cfg.conv_channels))):
        z = cache.pre_acts[i]
        d_z = _avgpool2_backward(d_a, z.shape) if i in cfg.pool_after else d_a
        d_z *= z > 0.0  # in place: d_a is a fresh array no one else holds
        d_a = _conv_same_input_grad(d_z, ws.tensors[f"conv{i}.kernel"])
    return d_a[0]


def _norms(e: np.ndarray, e_tilde: np.ndarray) -> tuple[float, float]:
    """Both L2 norms; raises if either is near zero, where cosine is undefined."""
    norm_e, norm_t = float(np.linalg.norm(e)), float(np.linalg.norm(e_tilde))
    if norm_e <= NORM_EPS or norm_t <= NORM_EPS:
        raise ValueError(f"near-zero-norm embedding (norms {norm_e:.3e}, {norm_t:.3e})")
    return norm_e, norm_t


def cosine_loss(e: np.ndarray, e_tilde: np.ndarray) -> float:
    """Negative cosine similarity: -1 for parallel vectors, +1 anti-parallel."""
    norm_e, norm_t = _norms(e, e_tilde)
    return float(-(e @ e_tilde) / (norm_e * norm_t))


def cosine_loss_grad(e: np.ndarray, e_tilde: np.ndarray) -> np.ndarray:
    """Analytic gradient of `cosine_loss` with respect to e_tilde.

    e is held fixed (the reference embedding extracted once from the clean
    signal). The gradient is orthogonal to e_tilde: cosine is unchanged by
    rescaling, so the radial component vanishes.
    """
    norm_e, norm_t = _norms(e, e_tilde)
    dot = float(e @ e_tilde)
    return -e / (norm_e * norm_t) + (dot / (norm_e * norm_t**3)) * e_tilde
