import re

import numpy as np
import pytest

from rankpress.checkpoint import (
    CheckpointError,
    checkpoint_hash,
    load_checkpoint,
    save_checkpoint,
)
from rankpress.nets import build_teacher
from rankpress.pipeline import PipelineConfig


@pytest.fixture()
def net():
    return build_teacher(PipelineConfig(conv_widths=(4, 8), dense_widths=(8,), patch=16, seed=2))


def test_round_trip_bit_exact(net, tmp_path):
    spec, params = net
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, spec, params, meta={"epoch": "7", "note": "probe"})
    spec2, params2, meta = load_checkpoint(path)
    assert meta["epoch"] == "7" and meta["note"] == "probe"
    assert [l.name for l in spec2.layers] == [l.name for l in spec.layers]
    assert set(params2) == set(params)
    for k in params:
        assert np.array_equal(params[k].data, params2[k].data)
        assert params2[k].data.dtype == np.float32


def test_save_is_deterministic(net, tmp_path):
    spec, params = net
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, spec, params)
    save_checkpoint(b, spec, params)
    assert a.read_bytes() == b.read_bytes()
    assert checkpoint_hash(a) == checkpoint_hash(b)


def test_hash_tracks_parameters(net, tmp_path):
    spec, params = net
    a = tmp_path / "a.ckpt"
    save_checkpoint(a, spec, params)
    h1 = checkpoint_hash(a)
    k = next(iter(params))
    params[k].data.flat[0] += 1.0
    save_checkpoint(a, spec, params)
    assert checkpoint_hash(a) != h1


def test_corrupted_blob_rejected(net, tmp_path):
    spec, params = net
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, spec, params)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_tensor_rejected(net, tmp_path, value):
    spec, params = net
    params["conv2.bias"].data[-1] = value
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, spec, params)  # the checksums hold: only the value is wrong
    with pytest.raises(CheckpointError, match="conv2.bias holds a non-finite value"):
        load_checkpoint(path)


def test_truncated_file_rejected(net, tmp_path):
    spec, params = net
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, spec, params)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_magic_rejected(net, tmp_path):
    spec, params = net
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, spec, params)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0x20
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_loaded_params_keep_grad_flag(net, tmp_path):
    spec, params = net
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, spec, params)
    _, params2, _ = load_checkpoint(path)
    assert all(p.requires_grad for p in params2.values())


# Manifest edits, each on the text before the blob line of a 12x12, 4/8-channel net's
# checkpoint. "swapped-conv-dims" and "dense-width-disagrees" keep every tensor name but
# break the layer lines' shapes. Only the manifest checksum line catches the last three:
# two edits that still parse and fit the tensors, and the removal of that line.
MANIFEST_CORRUPTIONS = {
    "version-not-a-number": lambda m: m.replace("RPCK 1", "RPCK x"),
    "offset-past-blob": lambda m: re.sub(r"(tensor fc2\.bias 1) \d+", r"\1 99999", m),
    "empty-line": lambda m: m.replace("\nmeta", "\n\nmeta", 1),
    "non-utf8-meta": lambda m: m.replace("phase=probe", "phase=\xffprobe"),
    "unknown-layer-kind": lambda m: m.replace("layer fc1 dense", "layer fc1 pool!"),
    "layer-line-too-short": lambda m: m.replace("layer fc1 dense 8 8 0 1 0", "layer fc1 dense 8"),
    "geometry-too-small": lambda m: m.replace("geometry 2 12 12", "geometry 2 2 2"),
    "swapped-conv-dims": lambda m: m.replace("conv1.weight 4,2,3,3", "conv1.weight 2,4,3,3"),
    "dense-width-disagrees": lambda m: m.replace("fc1 dense 8 8", "fc1 dense 8 9").replace(
        "fc2 dense 8 1", "fc2 dense 9 1"
    ),
    "conv2-stride-edited": lambda m: m.replace("layer conv2 conv 4 8 3 1 1", "layer conv2 conv 4 8 3 2 1"),
    "meta-value-edited": lambda m: m.replace("phase=probe", "phase=probf"),
    "manifest-checksum-dropped": lambda m: re.sub(r"\nmanifest crc32 [0-9a-f]+$", "", m),
}


@pytest.mark.parametrize("corruption", sorted(MANIFEST_CORRUPTIONS))
def test_corrupt_manifest_rejected(corruption, tmp_path):
    spec, params = build_teacher(PipelineConfig(conv_widths=(4, 8), dense_widths=(8,), patch=12))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, spec, params, meta={"phase": "probe"})
    data = path.read_bytes()
    cut = data.index(b"\nblob ")
    manifest = data[:cut].decode("latin-1")
    edited = MANIFEST_CORRUPTIONS[corruption](manifest)
    assert edited != manifest
    path.write_bytes(edited.encode("latin-1") + data[cut:])
    with pytest.raises(CheckpointError, match="m.ckpt"):
        load_checkpoint(path)
