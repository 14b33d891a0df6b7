import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicecloak import tensorfile
from voicecloak.tensorfile import TensorFileError


@pytest.fixture
def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(7),
        "scalarish": rng.standard_normal(()),
    }


def test_round_trip_is_bit_exact(tmp_path, sample_tensors):
    path = tmp_path / "t.bin"
    meta = {"kind": "weights", "note": 3}
    tensorfile.save(path, sample_tensors, meta)
    back, got_meta = tensorfile.load(path)
    assert got_meta == meta
    assert list(back) == list(sample_tensors)  # manifest preserves order
    for name, tensor in sample_tensors.items():
        assert back[name].shape == tensor.shape
        np.testing.assert_array_equal(back[name], np.asarray(tensor, dtype=np.float64))


def test_accepts_non_contiguous_input(tmp_path):
    arr = np.arange(12.0).reshape(3, 4).T
    path = tmp_path / "t.bin"
    tensorfile.save(path, {"t": arr}, {})
    back, _ = tensorfile.load(path)
    np.testing.assert_array_equal(back["t"], arr)


def test_empty_dict_round_trip(tmp_path):
    path = tmp_path / "empty.bin"
    tensorfile.save(path, {}, {})
    back, meta = tensorfile.load(path)
    assert back == {} and meta == {}


def test_save_rejects_non_finite(tmp_path, sample_tensors):
    sample_tensors["a"][0, 0] = np.inf
    with pytest.raises(TensorFileError, match="'a'.*non-finite"):
        tensorfile.save(tmp_path / "t.bin", sample_tensors, {})


def test_load_rejects_truncated_blob(tmp_path, sample_tensors):
    path = tmp_path / "t.bin"
    tensorfile.save(path, sample_tensors, {})
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])  # drop the last two float64 values
    with pytest.raises(TensorFileError, match="length mismatch"):
        tensorfile.load(path)


def test_load_rejects_trailing_garbage(tmp_path, sample_tensors):
    path = tmp_path / "t.bin"
    tensorfile.save(path, sample_tensors, {})
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 16)
    with pytest.raises(TensorFileError, match="length mismatch"):
        tensorfile.load(path)


def test_load_rejects_bad_version(tmp_path, sample_tensors):
    path = tmp_path / "t.bin"
    tensorfile.save(path, sample_tensors, {})
    raw = path.read_bytes()
    sep = raw.find(b"\n")
    header = json.loads(raw[:sep])
    header["format_version"] = 99
    path.write_bytes(json.dumps(header).encode() + raw[sep:])
    with pytest.raises(TensorFileError, match="format_version 99"):
        tensorfile.load(path)


def test_load_rejects_unreadable_header(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"not json at all\n" + b"\x00" * 8)
    with pytest.raises(TensorFileError, match="unreadable header"):
        tensorfile.load(path)


def test_load_rejects_missing_terminator(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"{}")
    with pytest.raises(TensorFileError, match="terminator"):
        tensorfile.load(path)


def test_load_rejects_gapped_manifest(tmp_path, sample_tensors):
    path = tmp_path / "t.bin"
    tensorfile.save(path, sample_tensors, {})
    raw = path.read_bytes()
    sep = raw.find(b"\n")
    header = json.loads(raw[:sep])
    header["tensors"][1]["offset"] += 1
    path.write_bytes(json.dumps(header).encode() + raw[sep:])
    with pytest.raises(TensorFileError, match="does not tile"):
        tensorfile.load(path)


def test_load_rejects_non_finite_blob(tmp_path):
    path = tmp_path / "t.bin"
    tensorfile.save(path, {"v": np.zeros(4)}, {})
    raw = bytearray(path.read_bytes())
    sep = raw.find(b"\n")
    raw[sep + 1 : sep + 9] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match="'v'.*non-finite"):
        tensorfile.load(path)


def _write_with_header(path, header, blob=b""):
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)


def _header(tensors, meta=None):
    return {"format_version": tensorfile.FORMAT_VERSION, "meta": meta or {}, "tensors": tensors}


_ONE_ZERO = b"\x00" * 8


@pytest.mark.parametrize(
    "header, blob, field",
    [
        pytest.param(_header([{"shape": [1], "offset": 0}]), _ONE_ZERO, "'name'", id="no-name"),
        pytest.param([1, 2, 3], b"", "header must be a JSON object", id="list-header"),
        pytest.param(_header(5), b"", "'tensors'", id="int-tensors"),
        pytest.param(_header(["v"]), _ONE_ZERO, r"tensors\[0\]", id="string-entry"),
        pytest.param(_header([{"name": "v", "shape": [1], "offset": 0}]), _ONE_ZERO[:7],
                     "7 bytes", id="7-byte-blob"),
        pytest.param(_header([{"name": "v", "shape": "ab", "offset": 0}]), _ONE_ZERO,
                     "'v' has 'shape'", id="string-shape"),
        pytest.param(_header([{"name": "v", "shape": [-1], "offset": 0}]), b"",
                     "'v' has 'shape'", id="negative-dim"),
        pytest.param(_header([{"name": "v", "shape": [0, 2**70], "offset": 0}]), b"",
                     "'v' has 'shape'", id="unrepresentable-dim"),
        pytest.param(_header([{"name": "v", "shape": [1], "offset": 0.0}]), _ONE_ZERO,
                     "'v' has 'offset'", id="float-offset"),
        pytest.param(_header([{"name": "v", "shape": [1], "offset": 0}] * 2), _ONE_ZERO * 2,
                     "'v' is listed twice", id="duplicate-name"),
        pytest.param(_header([], [1]), b"", "'meta'", id="list-meta"),
    ],
)
def test_load_names_the_malformed_field(tmp_path, header, blob, field):
    path = tmp_path / "t.bin"
    _write_with_header(path, header, blob)
    with pytest.raises(TensorFileError, match=field):
        tensorfile.load(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_load_of_a_mutated_file_raises_tensorfile_error_or_round_trips(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp() / "mutated-tensorfile"
    root.mkdir(exist_ok=True)
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2), "c": np.array(3.0)}
    tensorfile.save(root / "orig.bin", tensors, {"kind": "x"})
    raw = (root / "orig.bin").read_bytes()
    sep = raw.find(b"\n")
    header, blob = json.loads(raw[:sep]), raw[sep + 1 :]
    where = data.draw(st.sampled_from(["top", "entry", "field", "blob", "header bytes"]))
    if where == "top":
        key = data.draw(st.sampled_from(["format_version", "meta", "tensors"]))
        header[key] = data.draw(_JSON)
    elif where == "entry":
        header["tensors"][data.draw(st.integers(0, 2))] = data.draw(_JSON)
    elif where == "field":
        entry = header["tensors"][data.draw(st.integers(0, 2))]
        key = data.draw(st.sampled_from(["name", "shape", "offset"]))
        if data.draw(st.booleans()):
            del entry[key]
        else:
            entry[key] = data.draw(_JSON)
    elif where == "blob":
        cut = data.draw(st.integers(0, len(blob) + 16))
        blob = (blob + data.draw(st.binary(min_size=16, max_size=16)))[:cut]
    head = json.dumps(header).encode()
    if where == "header bytes":
        head = data.draw(st.binary(max_size=40))
    path = root / "mutated.bin"
    path.write_bytes(head + b"\n" + blob)
    try:
        loaded, meta = tensorfile.load(path)
    except TensorFileError:
        return
    tensorfile.save(root / "again.bin", loaded, meta)
    back, back_meta = tensorfile.load(root / "again.bin")
    assert back_meta == meta
    assert list(back) == list(loaded)
    for name, tensor in loaded.items():
        assert back[name].shape == tensor.shape
        np.testing.assert_array_equal(back[name], tensor)


def test_load_embeddings_returns_an_archive_as_saved(tmp_path):
    path = tmp_path / "e.bin"
    embeddings = {"a": np.arange(3.0), "b": np.ones(3)}
    meta = {"kind": "embeddings", "embed_dim": 3, "weights": "w.bin"}
    tensorfile.save(path, embeddings, meta)
    back, got_meta = tensorfile.load_embeddings(path)
    assert got_meta == meta
    assert list(back) == ["a", "b"]
    np.testing.assert_array_equal(back["a"], embeddings["a"])


@pytest.mark.parametrize(
    "tensors, meta, field",
    [
        pytest.param({"a": np.ones(3)}, {"kind": "encoder-weights", "embed_dim": 3},
                     "meta 'kind' is 'encoder-weights', not 'embeddings'", id="weights"),
        pytest.param({"a": np.ones(3)}, {"embed_dim": 3}, "meta 'kind' is None", id="no-kind"),
        pytest.param({"a": np.ones(3)}, {"kind": "embeddings"}, "meta 'embed_dim' is None",
                     id="no-dim"),
        pytest.param({"a": np.ones(1)}, {"kind": "embeddings", "embed_dim": True},
                     "meta 'embed_dim' is True", id="bool-dim"),
        pytest.param({}, {"kind": "embeddings", "embed_dim": 0}, "meta 'embed_dim' is 0",
                     id="zero-dim"),
        pytest.param({"a": np.ones(3)}, {"kind": "embeddings", "embed_dim": 3.0},
                     r"meta 'embed_dim' is 3\.0", id="float-dim"),
        pytest.param({"a": np.ones(3), "b": np.ones(4)}, {"kind": "embeddings", "embed_dim": 3},
                     r"embedding 'b' has shape \[4\]; need \[3\]", id="long"),
        pytest.param({"a": np.ones((1, 3))}, {"kind": "embeddings", "embed_dim": 3},
                     r"embedding 'a' has shape \[1, 3\]", id="2-d"),
        pytest.param({"a": np.array(1.0)}, {"kind": "embeddings", "embed_dim": 1},
                     r"embedding 'a' has shape \[\]", id="0-d"),
        pytest.param({}, {"kind": "embeddings", "embed_dim": 3}, "holds no embeddings",
                     id="empty"),
    ],
)
def test_load_embeddings_names_the_path_and_the_field(tmp_path, tensors, meta, field):
    path = tmp_path / "e.bin"
    tensorfile.save(path, tensors, meta)
    with pytest.raises(TensorFileError, match=rf"^{re.escape(str(path))}: {field}"):
        tensorfile.load_embeddings(path)


_SHAPES = st.lists(st.integers(0, 4), max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_load_embeddings_of_a_mutated_archive_raises_only_tensorfile_error(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp() / "mutated-embeddings"
    root.mkdir(exist_ok=True)
    embeddings = {"a": np.arange(3.0), "b": np.ones(3)}
    tensorfile.save(root / "orig.bin", embeddings, {"kind": "embeddings", "embed_dim": 3})
    raw = (root / "orig.bin").read_bytes()
    sep = raw.find(b"\n")
    header, blob = json.loads(raw[:sep]), np.frombuffer(raw[sep + 1 :], "<f8")
    for _ in range(data.draw(st.integers(1, 3))):
        where = data.draw(st.sampled_from(["kind", "embed_dim", "shape", "count"]))
        if where == "kind":
            header["meta"]["kind"] = data.draw(st.sampled_from(["embeddings", "encoder-weights"])
                                               | _JSON)
        elif where == "embed_dim":
            header["meta"]["embed_dim"] = data.draw(st.integers(-1, 5) | _JSON)
        elif where == "shape" and header["tensors"]:
            i = data.draw(st.integers(0, len(header["tensors"]) - 1))
            header["tensors"][i]["shape"] = data.draw(_SHAPES)
        elif where == "count":
            header["tensors"] = header["tensors"][: data.draw(st.integers(0, 2))]
    if data.draw(st.booleans()):  # retile the blob to the shapes, so `load` accepts it
        offset, parts = 0, [np.zeros(0)]
        for entry in header["tensors"]:
            entry["offset"] = offset
            size = int(np.prod(entry["shape"]))
            parts.append(np.resize(blob, size))
            offset += size
        blob = np.concatenate(parts)
    path = root / "mutated.bin"
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob.astype("<f8").tobytes())
    try:
        loaded, meta = tensorfile.load_embeddings(path)
    except TensorFileError:
        return
    assert meta["kind"] == "embeddings" and type(meta["embed_dim"]) is int
    assert loaded and all(v.shape == (meta["embed_dim"],) for v in loaded.values())
