"""Versioned on-disk container for named float64 tensors.

Layout: one line of UTF-8 JSON (version, free-form metadata, and a tensor
manifest with name/shape/offset), a newline, then a contiguous
little-endian float64 blob. Offsets count blob elements, not bytes.
Both encoder weight files and embedding archives use this container.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class TensorFileError(ValueError):
    """Raised for version, manifest, or blob inconsistencies."""


def save(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Write tensors in manifest order; rejects non-finite values."""
    manifest = []
    parts = []
    offset = 0
    for name, tensor in tensors.items():
        arr = np.asarray(tensor, dtype=np.float64)  # keeps 0-d shapes, unlike ascontiguousarray
        if not np.all(np.isfinite(arr)):
            raise TensorFileError(f"tensor {name!r} contains non-finite values")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        parts.append(arr.reshape(-1))
        offset += arr.size
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "tensors": manifest,
    }
    blob = np.concatenate(parts) if parts else np.zeros(0)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob.astype("<f8", copy=False).tobytes())


def _manifest_entry(path, i: int, entry) -> tuple[str, tuple[int, ...], int]:
    """Manifest entry i as (name, shape, offset), or TensorFileError naming the field."""
    if not isinstance(entry, dict):
        raise TensorFileError(f"{path}: tensors[{i}] must be a JSON object, got {entry!r}")
    name = entry.get("name")
    if not isinstance(name, str):
        raise TensorFileError(f"{path}: tensors[{i}] needs a string 'name', got {name!r}")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise TensorFileError(
            f"{path}: tensor {name!r} has 'shape' {shape!r}; need a list of integers >= 0"
        )
    offset = entry.get("offset")
    if type(offset) is not int:
        raise TensorFileError(f"{path}: tensor {name!r} has 'offset' {offset!r}; need an integer")
    return name, tuple(shape), offset


def load(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read tensors back; returns (tensors, meta).

    Validates the header's structure and format version, that manifest
    entries tile the blob contiguously, and that every value is finite.
    Any malformed file raises TensorFileError naming the field at fault.
    """
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n")
    if sep < 0:
        raise TensorFileError(f"{path}: missing header terminator")
    try:
        header = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TensorFileError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise TensorFileError(f"{path}: header must be a JSON object, got {type(header).__name__}")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise TensorFileError(
            f"{path}: format_version {version} not supported (expected {FORMAT_VERSION})"
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise TensorFileError(f"{path}: 'meta' must be a JSON object, got {type(meta).__name__}")
    manifest = header.get("tensors", [])
    if not isinstance(manifest, list):
        raise TensorFileError(f"{path}: 'tensors' must be a JSON list, got {type(manifest).__name__}")
    n_bytes = len(raw) - sep - 1
    if n_bytes % 8:
        raise TensorFileError(
            f"{path}: blob of {n_bytes} bytes is not a whole number of float64 values"
            " (length mismatch)"
        )
    blob = np.frombuffer(raw[sep + 1 :], dtype="<f8")
    tensors: dict[str, np.ndarray] = {}
    expected_offset = 0
    for i, entry in enumerate(manifest):
        name, shape, offset = _manifest_entry(path, i, entry)
        if name in tensors:
            raise TensorFileError(f"{path}: tensor {name!r} is listed twice")
        size = math.prod(shape)
        if offset != expected_offset:
            raise TensorFileError(
                f"{path}: tensor {name!r} at offset {offset}, expected {expected_offset}"
                " (manifest does not tile the blob)"
            )
        if offset + size > blob.size:
            raise TensorFileError(
                f"{path}: tensor {name!r} needs elements [{offset}, {offset + size})"
                f" but the blob holds only {blob.size} (length mismatch)"
            )
        try:
            tensors[name] = blob[offset : offset + size].reshape(shape).copy()
        except ValueError as exc:  # an empty tensor whose dims numpy cannot represent
            raise TensorFileError(f"{path}: tensor {name!r} has 'shape' {list(shape)}: {exc}") from exc
        if not np.all(np.isfinite(tensors[name])):
            raise TensorFileError(f"{path}: tensor {name!r} contains non-finite values")
        expected_offset = offset + size
    if expected_offset != blob.size:
        raise TensorFileError(
            f"{path}: blob holds {blob.size} elements but the manifest accounts"
            f" for {expected_offset} (length mismatch)"
        )
    return tensors, meta


def load_embeddings(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read an embedding archive back; returns (embeddings, meta).

    Beyond `load`'s checks, the meta must say `kind` "embeddings" with an
    integer `embed_dim` of at least 1, and the archive must hold at least
    one tensor, each of shape (embed_dim,). Anything else raises
    TensorFileError naming the path and the field or key at fault.
    """
    tensors, meta = load(path)
    if meta.get("kind") != "embeddings":
        raise TensorFileError(f"{path}: meta 'kind' is {meta.get('kind')!r}, not 'embeddings'")
    dim = meta.get("embed_dim")
    if type(dim) is not int or dim < 1:
        raise TensorFileError(f"{path}: meta 'embed_dim' is {dim!r}; need an integer >= 1")
    if not tensors:
        raise TensorFileError(f"{path}: holds no embeddings")
    for key, tensor in tensors.items():
        if tensor.shape != (dim,):
            raise TensorFileError(
                f"{path}: embedding {key!r} has shape {list(tensor.shape)};"
                f" need [{dim}] (embed_dim)"
            )
    return tensors, meta
