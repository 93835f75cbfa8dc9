import builtins
import errno
import gc
import os
import struct
import tracemalloc

import numpy as np
import pytest

from morvit import checkpoint
from morvit.checkpoint import (
    Checkpoint,
    load_checkpoint,
    pack_rng_state,
    params_from_checkpoint,
    save_checkpoint,
    unpack_rng_state,
)
from morvit.config import PRESETS, serialize_config
from morvit.errors import DataError
from morvit.model import init_params
from morvit.optim import init_optimizer
from morvit.tensor import Tensor
from oracles import joined_checkpoint_bytes


def cfg():
    return PRESETS["tiny-desk"].validate()


def test_roundtrip_bit_exact(tmp_path):
    c = cfg()
    params = init_params(c)
    named = params.named()
    opt = init_optimizer(named, lr=c.lr)
    opt.step = 17
    for name in opt.m:
        opt.m[name] += 0.125
        opt.v[name] += 0.5
    gen = np.random.Generator(np.random.Philox(42))
    gen.standard_normal(13)  # advance so buffer state is non-trivial
    rng_state = gen.bit_generator.state

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, c, named, optimizer=opt, rng_state=rng_state)
    ck = load_checkpoint(path)

    assert ck.version == 2
    assert serialize_config(ck.config) == serialize_config(c)
    for name, t in named.items():
        assert ck.tensors[name].tobytes() == t.data.tobytes()
        assert ck.tensors[name].dtype == t.data.dtype
    assert ck.optimizer.step == 17
    assert ck.optimizer.lr == opt.lr
    for name in opt.m:
        assert ck.optimizer.m[name].tobytes() == opt.m[name].tobytes()
        assert ck.optimizer.v[name].tobytes() == opt.v[name].tobytes()

    restored = np.random.Generator(np.random.Philox(0))
    restored.bit_generator.state = ck.rng_state
    assert restored.standard_normal(8).tobytes() == gen.standard_normal(8).tobytes()


def test_save_load_identical_files(tmp_path):
    c = cfg()
    named = init_params(c).named()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, c, named)
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck.config, ck.tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_float32_tensors_roundtrip(tmp_path):
    c = cfg()
    table = {"w": Tensor(np.linspace(0, 1, 7, dtype=np.float32))}
    path = tmp_path / "f32.ckpt"
    save_checkpoint(path, c, table)
    ck = load_checkpoint(path)
    assert ck.tensors["w"].dtype == np.float32
    assert ck.tensors["w"].tobytes() == table["w"].data.tobytes()


def test_params_from_checkpoint_restores_model(tmp_path):
    c = cfg()
    params = init_params(c)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, c, params.named())
    restored = params_from_checkpoint(load_checkpoint(path))
    for (na, ta), (nb, tb) in zip(params.named().items(), restored.named().items()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(b"MORV" + (9).to_bytes(4, "little") + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_truncated_checkpoint(tmp_path):
    c = cfg()
    named = init_params(c).named()
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, c, named)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(DataError):
        load_checkpoint(cut)


def test_trailing_bytes_rejected(tmp_path):
    c = cfg()
    named = init_params(c).named()
    path = tmp_path / "pad.ckpt"
    save_checkpoint(path, c, named)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataError):
        load_checkpoint(path)


def as_v1(raw):
    """Format v1 bytes of a v2 checkpoint: the same layout, no CRC trailer."""
    return raw[:4] + struct.pack("<I", 1) + raw[8:-4]


def test_v1_checkpoint_still_loads(tmp_path):
    c = cfg()
    named = init_params(c).named()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, c, named, rng_state=np.random.Generator(np.random.Philox(3))
                    .bit_generator.state)
    v2 = load_checkpoint(path)
    path.write_bytes(as_v1(path.read_bytes()))
    v1 = load_checkpoint(path)
    assert (v1.version, v2.version) == (1, 2)
    assert serialize_config(v1.config) == serialize_config(v2.config)
    assert {n: a.tobytes() for n, a in v1.tensors.items()} == \
        {n: a.tobytes() for n, a in v2.tensors.items()}
    assert pack_rng_state(v1.rng_state) == pack_rng_state(v2.rng_state)


def _flipped(raw, bit):
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_v2_bit_flips_raise_data_error(tmp_path):
    # every bit of the header, the config text and the tensor names, plus a
    # sample of the rest; format v1 loaded most payload flips silently, and a
    # flip in a name raised UnicodeDecodeError
    c = cfg()
    named = init_params(c).named()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, c, named, optimizer=init_optimizer(named, lr=c.lr),
                    rng_state=np.random.Generator(np.random.Philox(0)).bit_generator.state)
    raw = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<Q", raw, 8)
    bits = set(range(8 * (16 + cfg_len)))
    for name in named:
        nb = name.encode("utf-8")
        at = raw.index(struct.pack("<I", len(nb)) + nb) + 4
        bits.update(range(8 * at, 8 * (at + len(nb))))
    bits.update(np.random.default_rng(0).integers(0, 8 * len(raw), 400).tolist())
    bad = tmp_path / "bad.ckpt"
    for bit in sorted(bits):
        bad.write_bytes(_flipped(raw, bit))
        with pytest.raises(DataError):
            load_checkpoint(bad)


def test_v1_corrupt_name_and_dims_raise_data_error(tmp_path):
    c = cfg()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, c, {"w": Tensor(np.zeros((0, 3)))})
    raw = as_v1(path.read_bytes())
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw.replace(b"\x01\x00\x00\x00w", b"\x01\x00\x00\x00\xff"))
    with pytest.raises(DataError, match="tensor name is not UTF-8"):
        load_checkpoint(bad)
    bad.write_bytes(raw.replace(struct.pack("<2Q", 0, 3), struct.pack("<2Q", 0, 2**63)))
    with pytest.raises(DataError, match="bad dims"):
        load_checkpoint(bad)


class _HalfWriter:
    """A file whose write stores half of the bytes, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_old_checkpoint(tmp_path, monkeypatch):
    c = cfg()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, c, init_params(c).named())
    before = path.read_bytes()

    def half_writing_open(file, mode="r", *args, **kw):
        fh = builtins.open(file, mode, *args, **kw)
        return _HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(checkpoint, "open", half_writing_open, raising=False)
    with pytest.raises(DataError):
        save_checkpoint(path, c, init_params(c.replace(seed=1)).named())
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_rng_state_pack_unpack_identity():
    gen = np.random.Generator(np.random.Philox(123))
    gen.random(5)
    state = gen.bit_generator.state
    again = unpack_rng_state(pack_rng_state(state))
    assert again["state"]["counter"].tolist() == state["state"]["counter"].tolist()
    assert again["state"]["key"].tolist() == state["state"]["key"].tolist()
    assert again["buffer"].tolist() == state["buffer"].tolist()
    assert again["buffer_pos"] == state["buffer_pos"]


def test_save_streams_the_joined_packers_bytes(tmp_path):
    # a desk-bench static/unshared model with optimizer and RNG state: a
    # 12.9 MB file, whose save peaked at 25.9 MB when it was joined first
    c = PRESETS["desk-bench"].replace(routing_mode="static", share_params=False).validate()
    named = init_params(c).named()
    opt = init_optimizer(named, lr=c.lr)
    gen = np.random.Generator(np.random.Philox(7))
    for moments in (opt.m, opt.v):
        for arr in moments.values():
            arr[...] = gen.normal(size=arr.shape)
    opt.step = 3
    rng = gen.bit_generator.state
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, c, named, opt, rng)
    assert open(path, "rb").read() == joined_checkpoint_bytes(c, named, opt, rng)
    gc.collect()
    tracemalloc.start()
    try:
        save_checkpoint(path, c, named, opt, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    odd = {"empty": np.zeros((0, 3)), "scalar": np.array(2.5),
           "single": np.arange(6, dtype=np.float32).reshape(2, 3),
           "strided": np.arange(12.0).reshape(3, 4)[:, ::2]}
    save_checkpoint(path, cfg(), odd)
    assert open(path, "rb").read() == joined_checkpoint_bytes(cfg(), odd)


def test_arrays_keep_their_shape_and_bytes_through_a_checkpoint(tmp_path):
    grid = np.arange(12.0).reshape(3, 4)
    odd = {"s": np.array(2.5), "transposed": grid.T, "strided": np.arange(8.0)[::3],
           "empty": np.zeros((0, 3))}
    path = tmp_path / "odd.ckpt"
    save_checkpoint(path, cfg(), odd)
    back = load_checkpoint(path).tensors
    for name, arr in odd.items():
        assert back[name].shape == arr.shape, name
        assert back[name].tobytes() == arr.tobytes(), name


def test_a_tensor_that_cannot_be_packed_leaves_no_file(tmp_path):
    path = tmp_path / "model.ckpt"
    with pytest.raises(KeyError):
        save_checkpoint(path, cfg(), {"ints": np.arange(3)})
    assert os.listdir(tmp_path) == []
