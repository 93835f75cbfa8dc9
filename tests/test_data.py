import hashlib

import numpy as np
import pytest

from morvit.config import PRESETS
from morvit.data import (
    DatasetRecord,
    load_cifar10_binary,
    synth_holdout_set,
    synth_mixed_difficulty,
    synth_train_set,
)
from morvit.errors import DataError


def cifar_bytes(records):
    """Assemble raw CIFAR-10 bytes: label, R plane, G plane, B plane."""
    blob = bytearray()
    for label, image in records:
        blob.append(label)
        u8 = np.round(image * 255).astype(np.uint8)
        for ch in range(3):
            blob.extend(u8[:, :, ch].tobytes())
    return bytes(blob)


def test_cifar_two_record_roundtrip(tmp_path):
    g = np.random.Generator(np.random.Philox(1))
    imgs = [(3, g.integers(0, 256, size=(32, 32, 3)) / 255.0),
            (9, g.integers(0, 256, size=(32, 32, 3)) / 255.0)]
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar_bytes(imgs))
    records = load_cifar10_binary(path)
    assert len(records) == 2
    for rec, (label, image) in zip(records, imgs):
        assert rec.label == label
        assert np.array_equal(rec.image, image)


def test_cifar_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    assert load_cifar10_binary(path) == []


def test_cifar_truncated_file(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x00" * 3072)
    with pytest.raises(DataError):
        load_cifar10_binary(path)


def test_cifar_bad_label(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes([10]) + b"\x00" * 3072)
    with pytest.raises(DataError):
        load_cifar10_binary(path)


def test_cifar_missing_file():
    with pytest.raises(DataError):
        load_cifar10_binary("/no/such/file.bin")


# ---------------------------------------------------------------- synthetic

def cfg():
    return PRESETS["desk-synth"].validate()


def test_synth_deterministic_bytes():
    a, ma = synth_mixed_difficulty(4, 7, cfg())
    b, mb = synth_mixed_difficulty(4, 7, cfg())
    for ra, rb in zip(a, b):
        assert ra.image.tobytes() == rb.image.tobytes()
        assert ra.label == rb.label
    for xa, xb in zip(ma, mb):
        assert np.array_equal(xa, xb)


def test_synth_different_seeds_differ():
    a, _ = synth_mixed_difficulty(2, 1, cfg())
    b, _ = synth_mixed_difficulty(2, 2, cfg())
    assert a[0].image.tobytes() != b[0].image.tobytes()


def test_synth_easy_only_is_class_zero():
    records, masks = synth_mixed_difficulty(6, 3, cfg(), hard_fraction=0.0)
    for rec, mask in zip(records, masks):
        assert rec.label == 0
        assert not mask.any()


def test_synth_hard_fraction_exact():
    c = cfg()
    for frac in (0.25, 0.5, 0.75):
        records, masks = synth_mixed_difficulty(5, 4, c, hard_fraction=frac)
        expected = round(frac * c.num_patches)
        for mask in masks:
            assert int(mask.sum()) == expected


def test_synth_pixels_and_labels_in_range():
    c = cfg()
    records, _ = synth_mixed_difficulty(8, 5, c)
    for rec in records:
        assert rec.image.min() >= 0.0 and rec.image.max() <= 1.0
        assert 0 <= rec.label < c.num_classes


def test_synth_streams_are_independent():
    c = cfg()
    train = synth_train_set(c)[0]
    hold = synth_holdout_set(c)[0]
    assert len(train) == c.synth_samples
    assert len(hold) == c.synth_holdout
    assert train[0].image.tobytes() != hold[0].image.tobytes()


# sha256 over each record's image bytes, int64 label and hard-patch mask, as
# the generator wrote them before it cached its class textures
SYNTH_SHA256 = {
    ("desk-bench", "train"): "11544d9febd557184a3cced345af09a723bc5db56eae79416cada4c39f377c56",
    ("desk-bench", "holdout"): "be1fe232ad6b3055206596d7db8182ed3ef254869d0cfcaaa0109c04992f5671",
    ("desk-synth", "train"): "cddc7f2089ab963e9a5e775e09e9ad4423e23f7a91857311aaf8baed39958d1e",
    ("desk-synth", "holdout"): "17a1afd96e4ecf8b329a350a1085aa09d10db87c7e829b3789c22f1d3e004808",
}


@pytest.mark.parametrize("preset,split", sorted(SYNTH_SHA256))
def test_synth_sets_are_byte_stable(preset, split):
    c = PRESETS[preset].validate()
    records, masks = (synth_train_set if split == "train" else synth_holdout_set)(c)
    digest = hashlib.sha256()
    for rec, mask in zip(records, masks):
        digest.update(rec.image.tobytes())
        digest.update(np.int64(rec.label).tobytes())
        digest.update(mask.tobytes())
    assert digest.hexdigest() == SYNTH_SHA256[preset, split]


def test_synth_rejects_empty_request():
    with pytest.raises(DataError):
        synth_mixed_difficulty(0, 0, cfg())
