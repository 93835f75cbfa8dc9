import builtins
import errno
import os

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

    assert ck.version == 1
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
