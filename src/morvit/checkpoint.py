"""Versioned binary checkpoints with bit-exact round-trips.

Layout (all integers little-endian):

    magic   4 bytes         b"MORV"
    u32     format version  (currently 2; version 1 files still load)
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
    u32     zlib.crc32 of every byte before it (version 2 only)

The CRC is checked before anything past the version is parsed, so a flipped
bit anywhere in a version 2 file is a ``DataError``, not a wrong tensor, a
config error or a decode error. Version 1 has no CRC; its corruption is
caught only where it breaks the layout.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, parse_config, serialize_config
from .errors import DataError
from .optim import OptimizerState
from .tensor import Tensor

MAGIC = b"MORV"
VERSION = 2
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
        self.end = len(raw)     # bytes past it (a CRC trailer) are not content
        self.path = path

    def take(self, n):
        if self.off + n > self.end:
            raise DataError(f"{self.path}: truncated checkpoint")
        out = self.raw[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n, what):
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: {what} is not UTF-8: {exc}")


def _read_tensor_table(rd):
    (count,) = rd.unpack("<I")
    table = {}
    for _ in range(count):
        (nlen,) = rd.unpack("<I")
        name = rd.text(nlen, "tensor name")
        tag, rank = rd.unpack("<BB")
        if tag not in _DTYPES:
            raise DataError(f"{rd.path}: unknown dtype tag {tag}")
        dims = rd.unpack(f"<{rank}Q") if rank else ()
        dtype = _DTYPES[tag]
        payload = rd.take(math.prod(dims) * dtype.itemsize)  # Python ints cannot wrap
        try:
            arr = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:  # more dims than numpy allows, or one too large
            raise DataError(f"{rd.path}: tensor {name!r} has bad dims {dims}: {exc}")
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
    body = b"".join(buf)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(struct.pack("<I", zlib.crc32(body)))
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
    if version not in (1, VERSION):
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if version >= 2:
        rd.end -= 4
        if rd.end < rd.off:
            raise DataError(f"{path}: truncated checkpoint")
        if zlib.crc32(memoryview(raw)[: rd.end]) != struct.unpack_from("<I", raw, rd.end)[0]:
            raise DataError(f"{path}: checksum mismatch, the checkpoint is corrupt")
    (cfg_len,) = rd.unpack("<Q")
    cfg = parse_config(rd.text(cfg_len, "config"))
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
    if rd.off != rd.end:
        raise DataError(f"{path}: {rd.end - rd.off} trailing bytes")
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
