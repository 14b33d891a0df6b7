"""Speaker-embedding encoder: a small convolutional net with exact gradients.

The network maps log-mel features [frames x n_mels] to a fixed-size
embedding: a stack of 3x3/stride-1 ReLU convolutions (optionally followed
by 2x2 average pooling), temporal mean+std statistics pooling, and a final
linear map. Everything is float64 and hand-differentiated; `backward`
returns the exact input gradient that the perturbation loop consumes.

Convolutions pad circularly along time and with zeros along frequency.
Circular time padding makes the embedding exactly invariant to tiling a
signal an integer number of times (when pooling is disabled), matching
what statistics pooling is meant to provide. The wrap is coded once, in
the convolution: it asks its caller only for frames inside the map, and
takes the halo frame before frame 0 and after the last frame from the
map's other end.

Embeddings are plain 1-D float64 arrays; they are deliberately NOT
length-normalized here, the cosine loss normalizes.

Summation order is fixed, so results are reproducible bit for bit:

* a convolution is one BLAS GEMM (`np.matmul`) per block of output frames
  (`row_blocks`, from even frames) of the kernels, flattened to
  [C_out, C_in*9], against explicit im2col rows ordered (c_in, dt, df).
  Each output column is the same `kernels @ column` dot product whichever
  block holds it, so the blocks change no bit of the result. A block reads
  its frames and one halo frame a side in one call, and one more call for
  each halo frame that wraps. No conv output or ReLU-input gradient
  of a whole map is made: `forward` pools each block as it comes,
  `backward` builds each block's gradient at the ReLU input (pooling
  backward times mask) from the pooled one. Going back, a block's im2col
  rows are capped at 0.56 MiB, 64 frames at the default config. Given
  `LogEnergies`, the first layer logs each block of energies as it reads
  it and the last transposed convolution divides each output block into
  the energies' rows, so no features or feature gradient are made either;
* 2x2 pooling adds the top pair and the bottom pair first,
  ((a + b) + (c + d)) / 4, where a, b are the upper row; when the pooled
  map has a single band it adds left to right, (((a + b) + c) + d) / 4.
  Both equal NumPy's reshape-mean on the same map;
* the pooling backward writes grad / 4 into each of the four positions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensorfile
from .spectral import log_energies, log_energies_backward, row_blocks

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
        return asdict(self)  # its tuples go to JSON as lists

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
    try:
        return WeightStore(config, tensors)
    except ValueError as exc:  # tensors missing, extra or mis-shaped for the config
        raise tensorfile.TensorFileError(f"{path}: {exc}") from exc


# (output, input) band slices of the three frequency taps df = 0, 1, 2
_BAND_SHIFTS = ((slice(1, None), slice(None, -1)), (slice(None), slice(None)),
                (slice(None, -1), slice(1, None)))


def _conv(t: int, f: int, kernels: np.ndarray, rows, out):
    """3x3 stride-1 convolution of a [C_in, t, f] map, circular along time and
    zero-padded along freq: yields (s, e, output [C_out, e - s, f]) for each
    block [s, e) of `row_blocks`, written into out[:, s * f : e * f] of out
    [C_out, t * f], or if out is None into a block buffer. rows(lo, hi) gives
    the map's frames [lo, hi), 0 <= lo < hi <= t. A block reads s - 1 to
    e + 1 in one call, and each halo frame that wraps from the other end."""
    c_out, c_in = kernels.shape[:2]
    weights = kernels.reshape(c_out, c_in * 9)
    blocks = row_blocks(t, c_out * f, c_in * 9 * f)
    longest = max(b.stop - b.start for b in blocks)
    # cols[c, dt, df, i, j] = frame s + i + dt - 1, band j + df - 1, and 0 outside the bands;
    # a shorter block uses the first n frames of each row
    cols = np.empty((c_in * 9, longest * f))
    view = cols.reshape(c_in, 3, 3, longest, f)
    view[:, :, 0, :, 0] = view[:, :, 2, :, -1] = 0.0  # no fill below writes these
    taps = [(view[:, dt, df, :, f_out], dt, f_in)
            for dt in range(3) for df, (f_out, f_in) in enumerate(_BAND_SHIFTS)]
    buffer = np.empty((c_out, longest * f)) if out is None else None
    for s, e in ((b.start, b.stop) for b in blocks):
        src, n = rows(max(s - 1, 0), min(e + 1, t)), e - s
        if s == 0 or e == t:  # the wrap: the halo frame from the map's other end
            src = np.concatenate([rows(t - 1, t)] * (s == 0) + [src] + [rows(0, 1)] * (e == t), 1)
        for tap, dt, f_in in taps:
            tap[:, :n] = src[:, dt : dt + n, f_in]
        dest = buffer[:, : n * f] if out is None else out[:, s * f : e * f]
        np.matmul(weights, cols[:, : n * f], out=dest)
        yield s, e, dest.reshape(c_out, n, f)


def _avgpool2(z: np.ndarray, out: np.ndarray) -> None:
    """Non-overlapping 2x2 mean pooling of z into out; trailing odd rows/cols are dropped."""
    t2, f2 = out.shape[1:]
    if f2 > 1:  # the add orders of NumPy's mean; see the module docstring
        pairs = z[:, : 2 * t2, 0 : 2 * f2 : 2] + z[:, : 2 * t2, 1 : 2 * f2 : 2]
        np.add(pairs[:, 0::2], pairs[:, 1::2], out=out)
    else:
        np.add(z[:, 0 : 2 * t2 : 2, :1], z[:, 0 : 2 * t2 : 2, 1:2], out=out)
        out += z[:, 1 : 2 * t2 : 2, :1]
        out += z[:, 1 : 2 * t2 : 2, 1:2]
    out /= 4.0


def _avgpool2_backward(quarter: np.ndarray, live: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Frames [lo, hi) of the gradient at the input of ReLU (mask live) and 2x2
    pooling, from quarter, the pooled gradient / 4: quarter times the mask
    in each of the four places, 0 in a trailing odd row or col."""
    (c, t, f), (t2, f2) = live.shape, quarter.shape[1:]
    a0, a1 = lo - lo % 2, min(hi + hi % 2, t)
    n2 = max(min(a1 // 2, t2) - a0 // 2, 0)
    out = np.empty((c, a1 - a0, f))
    if 2 * n2 < a1 - a0:  # a trailing odd row
        out[:, 2 * n2 :] = 0.0
    if 2 * f2 < f:  # a trailing odd col
        out[:, :, 2 * f2 :] = 0.0
    top = out[:, 0 : 2 * n2 : 2]
    top[:, :, 0 : 2 * f2 : 2] = top[:, :, 1 : 2 * f2 : 2] = quarter[:, a0 // 2 : a0 // 2 + n2]
    out[:, 1 : 2 * n2 : 2] = top
    out *= live[:, a0:a1]
    return out[:, lo - a0 : hi - a0]


@dataclass
class LogEnergies:
    """Features given as log_energies(energies) of [frames x n_mels] filterbank
    energies: `forward` logs them a block of frames at a time as its first
    layer reads them, and `backward` writes the gradient with respect to the
    energies over them, so no feature array or feature gradient is made."""

    energies: np.ndarray


@dataclass
class ForwardCache:
    """Single-use record of everything `backward` needs.

    pre_acts holds each conv layer's ReLU mask, z > 0 for its
    pre-activation z, as a boolean [C, T, F] array, and no float map of z.
    energies is the `LogEnergies` input's array, or None for a feature array.
    """

    store: WeightStore
    pre_acts: list[np.ndarray]
    centered: np.ndarray
    sigma: np.ndarray
    energies: np.ndarray | None


def forward(feat: np.ndarray | LogEnergies, ws: WeightStore) -> tuple[np.ndarray, ForwardCache]:
    """Map [frames x n_mels] features to an embedding; the cache enables exact backprop.

    feat is a feature array or `LogEnergies`. Conv stack -> per-(channel,
    band) temporal mean and standard deviation, concatenated -> linear map.
    Raises if the input is not 2-D or has fewer frames than the configured
    minimum.
    """
    cfg = ws.config
    energies = feat.energies if isinstance(feat, LogEnergies) else None
    x = feat if energies is None else energies
    if x.ndim != 2:
        raise ValueError(f"features must be [frames x n_mels], got shape {x.shape}")
    n_frames, n_mels = x.shape
    if n_mels != cfg.n_mels:
        raise ValueError(f"features have {n_mels} mel bands, encoder expects {cfg.n_mels}")
    if n_frames < cfg.min_frames:
        raise ValueError(f"too few frames: {n_frames} < required {cfg.min_frames}")

    pre_acts = []
    a = x[None, :, :]
    for i, c_out in enumerate(cfg.conv_channels):
        (t, f), pool = a.shape[1:], i in cfg.pool_after
        kernels, bias = ws.tensors[f"conv{i}.kernel"], ws.tensors[f"conv{i}.bias"][:, None, None]
        live = np.empty((c_out, t, f), dtype=bool)
        nxt = np.empty((c_out, t // 2, f // 2) if pool else (c_out, t, f))
        out = None if pool else nxt.reshape(c_out, -1)
        log = i == 0 and energies is not None  # the first layer logs LogEnergies as it reads

        def rows(lo, hi):
            return log_energies(a[:, lo:hi]) if log else a[:, lo:hi]

        for s, e, block in _conv(t, f, kernels, rows, out):
            block += bias
            np.greater(block, 0.0, out=live[:, s:e])
            np.maximum(block, 0.0, out=block)  # the ReLU, in the conv's own output
            if pool:  # s is even, so no pooled pair straddles two blocks
                _avgpool2(block, nxt[:, s // 2 : e // 2])
        pre_acts.append(live)
        a = nxt

    mu = a.mean(axis=1)  # [C, F]
    centered = a - mu[:, None, :]
    sigma = np.sqrt((centered**2).mean(axis=1))
    stats = np.concatenate([mu.ravel(), sigma.ravel()])
    embedding = ws.tensors["embed.weight"] @ stats + ws.tensors["embed.bias"]
    return embedding, ForwardCache(ws, pre_acts, centered, sigma, energies)


def backward(cache: ForwardCache, grad_embedding: np.ndarray) -> np.ndarray:
    """Exact gradient of `forward` with respect to the input features, or for
    `LogEnergies` with respect to the energies, written over them and returned.

    The std-pooling branch takes subgradient zero wherever the temporal
    variance is exactly zero (constant activations).
    """
    ws, cfg = cache.store, cache.store.config
    if grad_embedding.shape != (cfg.embed_dim,):
        raise ValueError(
            f"grad_embedding shape {grad_embedding.shape} does not match ({cfg.embed_dim},)"
        )
    d_stats = ws.tensors["embed.weight"].T @ grad_embedding
    c, t_pooled, f = cache.centered.shape
    d_mu, d_sigma = d_stats[: c * f].reshape(c, f), d_stats[c * f :].reshape(c, f)

    # d sigma / d a_t = centered_t / (T * sigma); zero where sigma == 0
    sig_term = np.zeros_like(d_sigma)
    denom = cache.sigma * t_pooled
    np.divide(d_sigma, denom, out=sig_term, where=denom > 0.0)
    d_a = d_mu[:, None, :] / t_pooled + sig_term[:, None, :] * cache.centered

    for i in reversed(range(len(cfg.conv_channels))):
        live, kernels, pool = cache.pre_acts[i], ws.tensors[f"conv{i}.kernel"], i in cfg.pool_after
        (_, t, f), d_out = live.shape, d_a
        if pool:
            d_out /= 4.0  # in place: d_a is a fresh array no one else holds

        def d_z(lo, hi):  # frames [lo, hi) of the gradient at the ReLU's input
            return (_avgpool2_backward(d_out, live, lo, hi) if pool
                    else d_out[:, lo:hi] * live[:, lo:hi])

        # transposed conv: channel-swapped, flipped kernels (the padding is symmetric under a flip)
        flipped = np.ascontiguousarray(kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        if i == 0 and cache.energies is not None:  # each block goes through the log's backward
            for s, e, block in _conv(t, f, flipped, d_z, None):
                log_energies_backward(block[0], cache.energies[s:e])
            return cache.energies
        d_a = np.empty((kernels.shape[1], t, f))
        for _ in _conv(t, f, flipped, d_z, d_a.reshape(len(d_a), -1)):
            pass
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
