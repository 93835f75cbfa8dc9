"""Versioned binary checkpoints with bit-exact round-trips.

Layout (all integers little-endian):

    magic   4 bytes         b"MORV"
    u32     format version  (currently 1)
    u64     config length, then that many bytes of UTF-8 config text
    u32     tensor count, then per tensor:
              u32 name length | name UTF-8 | u8 dtype tag (0=f64, 1=f32)
              u8 rank | rank x u64 dims | raw little-endian payload
    u8      optimizer present? if 1:
              u64 step | f64 lr | f64 beta1 | f64 beta2 | f64 eps
              tensor table for first moments, then one for second moments
              (same encoding as above)
    u8      rng present? if 1: 13 x u64
              (Philox counter[4], key[2], buffer[4], buffer_pos,
               has_uint32, uinteger)
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, parse_config, serialize_config
from .errors import DataError
from .optim import OptimizerState
from .tensor import Tensor

MAGIC = b"MORV"
VERSION = 1
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_TAGS = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


@dataclass
class Checkpoint:
    version: int
    config: RunConfig
    tensors: dict               # name -> np.ndarray
    optimizer: OptimizerState   # or None
    rng_state: dict             # Philox state dict, or None


def _pack_tensor_table(buf, table):
    buf.append(struct.pack("<I", len(table)))
    for name, arr in table.items():
        nb = name.encode("utf-8")
        arr = np.ascontiguousarray(arr)
        tag = _TAGS[arr.dtype]
        buf.append(struct.pack("<I", len(nb)))
        buf.append(nb)
        buf.append(struct.pack("<BB", tag, arr.ndim))
        buf.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        buf.append(arr.astype(_DTYPES[tag], copy=False).tobytes())


class _Reader:
    def __init__(self, raw, path):
        self.raw = raw
        self.off = 0
        self.path = path

    def take(self, n):
        if self.off + n > len(self.raw):
            raise DataError(f"{self.path}: truncated checkpoint")
        out = self.raw[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_tensor_table(rd):
    (count,) = rd.unpack("<I")
    table = {}
    for _ in range(count):
        (nlen,) = rd.unpack("<I")
        name = rd.take(nlen).decode("utf-8")
        tag, rank = rd.unpack("<BB")
        if tag not in _DTYPES:
            raise DataError(f"{rd.path}: unknown dtype tag {tag}")
        dims = rd.unpack(f"<{rank}Q") if rank else ()
        dtype = _DTYPES[tag]
        n = int(np.prod(dims, dtype=np.int64)) if dims else 1
        arr = np.frombuffer(rd.take(n * dtype.itemsize), dtype=dtype).reshape(dims).copy()
        table[name] = arr
    return table


def pack_rng_state(state):
    inner = state["state"]
    words = list(np.asarray(inner["counter"], dtype=np.uint64))
    words += list(np.asarray(inner["key"], dtype=np.uint64))
    words += list(np.asarray(state["buffer"], dtype=np.uint64))
    words += [np.uint64(state["buffer_pos"]), np.uint64(state["has_uint32"]),
              np.uint64(state["uinteger"])]
    return struct.pack("<13Q", *[int(w) for w in words])


def unpack_rng_state(raw):
    words = struct.unpack("<13Q", raw)
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array(words[0:4], dtype=np.uint64),
            "key": np.array(words[4:6], dtype=np.uint64),
        },
        "buffer": np.array(words[6:10], dtype=np.uint64),
        "buffer_pos": int(words[10]),
        "has_uint32": int(words[11]),
        "uinteger": int(words[12]),
    }


def save_checkpoint(path, cfg, named_tensors, optimizer=None, rng_state=None):
    """Write config, tensors, optional optimizer state and RNG state.

    The bytes go to ``<path>.tmp`` first and then replace ``path`` in one
    rename, so a write that fails partway leaves any old checkpoint intact.
    """
    buf = [MAGIC, struct.pack("<I", VERSION)]
    cfg_bytes = serialize_config(cfg).encode("utf-8")
    buf.append(struct.pack("<Q", len(cfg_bytes)))
    buf.append(cfg_bytes)
    table = {
        name: (t.data if isinstance(t, Tensor) else np.asarray(t))
        for name, t in named_tensors.items()
    }
    _pack_tensor_table(buf, table)
    if optimizer is None:
        buf.append(b"\x00")
    else:
        buf.append(b"\x01")
        buf.append(struct.pack("<Qdddd", optimizer.step, optimizer.lr,
                               optimizer.beta1, optimizer.beta2, optimizer.eps))
        _pack_tensor_table(buf, optimizer.m)
        _pack_tensor_table(buf, optimizer.v)
    if rng_state is None:
        buf.append(b"\x00")
    else:
        buf.append(b"\x01")
        buf.append(pack_rng_state(rng_state))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(buf))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise DataError(f"cannot write checkpoint {path}: {exc}")


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}")
    rd = _Reader(raw, path)
    if rd.take(4) != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    (version,) = rd.unpack("<I")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = rd.unpack("<Q")
    cfg = parse_config(rd.take(cfg_len).decode("utf-8"))
    tensors = _read_tensor_table(rd)
    optimizer = None
    (has_opt,) = rd.unpack("<B")
    if has_opt:
        step, lr, b1, b2, eps = rd.unpack("<Qdddd")
        m = _read_tensor_table(rd)
        v = _read_tensor_table(rd)
        optimizer = OptimizerState(lr=lr, beta1=b1, beta2=b2, eps=eps, step=step, m=m, v=v)
    rng_state = None
    (has_rng,) = rd.unpack("<B")
    if has_rng:
        rng_state = unpack_rng_state(rd.take(13 * 8))
    if rd.off != len(raw):
        raise DataError(f"{path}: {len(raw) - rd.off} trailing bytes")
    return Checkpoint(version=version, config=cfg, tensors=tensors,
                      optimizer=optimizer, rng_state=rng_state)


def params_from_checkpoint(ckpt: Checkpoint):
    """Rebuild ModelParams from a checkpoint's tensor table."""
    from .model import init_params

    params = init_params(ckpt.config)
    named = params.named()
    missing = set(named) - set(ckpt.tensors)
    extra = set(ckpt.tensors) - set(named)
    if missing or extra:
        raise DataError(
            f"checkpoint tensor set mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
        )
    for name, t in named.items():
        arr = ckpt.tensors[name]
        if arr.shape != t.data.shape:
            raise DataError(f"checkpoint tensor {name}: shape {arr.shape} != {t.data.shape}")
        t.data = arr.astype(t.data.dtype, copy=True)
    return params
