"""Dataset ingestion: CIFAR-10 binary files and a synthetic generator.

The synthetic set exists to probe depth adaptivity on a desk budget: each
image mixes flat "easy" patches with textured "hard" patches, and the class
is decodable only from the hard ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 x 1024 channel-plane bytes
CIFAR_CLASSES = 10


@dataclass
class DatasetRecord:
    image: np.ndarray  # (H, W, C) float64 in [0, 1]
    label: int


def load_cifar10_binary(path):
    """Parse a CIFAR-10 binary batch file into records.

    Each record is one label byte followed by the R, G and B planes of a
    32 x 32 image, row-major. Pixels are scaled to [0, 1] by /255.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if len(raw) % CIFAR_RECORD_BYTES:
        raise DataError(
            f"{path}: length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES} bytes"
        )
    records = []
    for off in range(0, len(raw), CIFAR_RECORD_BYTES):
        label = raw[off]
        if label >= CIFAR_CLASSES:
            raise DataError(f"{path}: record at byte {off} has label {label} > 9")
        planes = np.frombuffer(raw, dtype=np.uint8, count=3072, offset=off + 1)
        image = planes.reshape(3, 32, 32).transpose(1, 2, 0).astype(np.float64) / 255.0
        records.append(DatasetRecord(image=image, label=int(label)))
    return records


# Hard-patch textures, one per class, all invariant under horizontal flips.
# 0: horizontal stripes, 1: vertical stripes, 2: pixel checkerboard,
# 3: coarse 2x2 checkerboard. Classes beyond 3 reuse patterns with an
# inverted palette.
_LO, _HI = 0.2, 0.8
_TEXTURE_NOISE = 0.3
_EASY_NOISE = 0.02
# a minority of hard patches carry an off-class texture, so the task keeps a
# loss floor instead of saturating (majority vote over hard patches decodes
# the label essentially always)
_DISTRACTOR_P = 0.25


@functools.cache
def _texture(cls, p):
    """Read-only noise-free p x p texture of class ``cls``, built once."""
    rows = np.arange(p).reshape(p, 1)
    cols = np.arange(p).reshape(1, p)
    kind = cls % 4
    if kind == 0:
        mask = rows % 2 == 0
    elif kind == 1:
        mask = cols % 2 == 0
    elif kind == 2:
        mask = (rows + cols) % 2 == 0
    else:
        mask = ((rows // 2) + (cols // 2)) % 2 == 0
    lo, hi = (_LO, _HI) if cls < 4 else (_HI, _LO)
    texture = np.where(mask, hi, lo).astype(np.float64)
    texture.flags.writeable = False
    return texture


def _hard_patch(cls, p, gen):
    patch = _texture(cls, p) + gen.normal(0.0, _TEXTURE_NOISE, size=(p, p))
    return np.clip(patch, 0.0, 1.0)


def synth_mixed_difficulty(n, seed, cfg, hard_fraction=None):
    """Generate n labeled images of easy/hard patches, deterministic in seed.

    Every image gets exactly round(hard_fraction * N) hard patches at random
    grid positions; easy patches are flat mid-gray with tiny noise and carry
    no class information, so the label is decodable only from the hard ones.
    Most hard patches carry the image's class texture; a _DISTRACTOR_P
    minority carry some other class's texture. Images with zero hard patches
    are labeled class 0 by construction. Returns (records, hard_masks) where
    each mask marks the hard patches in patch-grid order.
    """
    if n < 1:
        raise DataError("synthetic generator needs n >= 1")
    if hard_fraction is None:
        hard_fraction = cfg.synth_hard_fraction
    gen = np.random.Generator(np.random.Philox(seed))
    p = cfg.patch_size
    gh, gw = cfg.grid_h, cfg.grid_w
    n_patches = gh * gw
    hard_count = round(hard_fraction * n_patches)

    records, masks = [], []
    for _ in range(n):
        label = int(gen.integers(0, cfg.num_classes)) if hard_count > 0 else 0
        hard_at = gen.choice(n_patches, size=hard_count, replace=False) if hard_count else np.empty(0, dtype=np.int64)
        mask = np.zeros(n_patches, dtype=bool)
        mask[hard_at] = True
        image = np.empty((cfg.image_h, cfg.image_w, cfg.channels), dtype=np.float64)
        for idx in range(n_patches):
            r, c = divmod(idx, gw)
            if mask[idx]:
                cls = label
                if cfg.num_classes > 1 and gen.random() < _DISTRACTOR_P:
                    cls = (label + 1 + int(gen.integers(0, cfg.num_classes - 1))) % cfg.num_classes
                tile = _hard_patch(cls, p, gen)
            else:
                level = gen.uniform(0.3, 0.7)
                tile = np.clip(level + gen.normal(0.0, _EASY_NOISE, size=(p, p)), 0.0, 1.0)
            image[r * p : (r + 1) * p, c * p : (c + 1) * p, :] = tile[:, :, None]
        records.append(DatasetRecord(image=image, label=label))
        masks.append(mask)
    return records, masks


def synth_train_set(cfg):
    return synth_mixed_difficulty(cfg.synth_samples, cfg.seed, cfg)


def synth_holdout_set(cfg):
    # independent stream: distinct Philox key
    return synth_mixed_difficulty(cfg.synth_holdout, cfg.seed + 1, cfg)


def check_geometry(records, cfg, where="dataset"):
    expect = (cfg.image_h, cfg.image_w, cfg.channels)
    for rec in records:
        if rec.image.shape != expect:
            raise DataError(
                f"{where}: image shape {rec.image.shape} does not match config {expect}"
            )
        if not (0 <= rec.label < cfg.num_classes):
            raise DataError(f"{where}: label {rec.label} out of range")
    return records
