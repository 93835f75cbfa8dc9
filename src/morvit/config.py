"""Run configuration: one flat record covering architecture and training.

Config files are UTF-8 text, one ``key=value`` per line, ``#`` lines are
comments. Keys are exactly the ``RunConfig`` field names; unknown keys are
errors. ``parse_config(serialize_config(c)) == c`` holds bit-exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

ROUTING_MODES = ("expert_choice", "token_choice", "static")

# The least value of every bounded integer field.
_LOWER_BOUNDS = dict.fromkeys(
    ("image_h", "image_w", "channels", "patch_size", "hidden", "mlp_size", "heads",
     "num_classes", "max_recursion", "batch_size", "epochs", "synth_samples",
     "synth_holdout"), 1) | {"seed": 0, "completed_epochs": 0}


@dataclass
class RunConfig:
    # geometry
    image_h: int = 16
    image_w: int = 16
    channels: int = 3
    patch_size: int = 4
    # encoder
    hidden: int = 32
    mlp_size: int = 64
    heads: int = 2
    num_classes: int = 4
    # recursion / routing
    max_recursion: int = 4
    beta: float = 0.5
    routing_lambda: float = 0.01
    routing_mode: str = "expert_choice"
    share_params: bool = True
    seed: int = 0
    # training
    lr: float = 5e-4
    epochs: int = 30
    batch_size: int = 8
    augment_flip: bool = False
    synth_samples: int = 512
    synth_holdout: int = 256
    synth_hard_fraction: float = 0.75
    completed_epochs: int = 0

    def validate(self):
        for name, low in _LOWER_BOUNDS.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ConfigError(
                f"image {self.image_h}x{self.image_w} not divisible by patch size {self.patch_size}"
            )
        if self.hidden % self.heads:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"beta must be in [0, 1), got {self.beta}")
        if not 0.0 <= self.synth_hard_fraction <= 1.0:
            raise ConfigError(
                f"synth_hard_fraction must be in [0, 1], got {self.synth_hard_fraction}")
        if self.routing_lambda < 0.0:
            raise ConfigError("routing_lambda must be nonnegative")
        if self.routing_mode not in ROUTING_MODES:
            raise ConfigError(f"routing_mode must be one of {ROUTING_MODES}")
        return self

    @property
    def grid_h(self):
        return self.image_h // self.patch_size

    @property
    def grid_w(self):
        return self.image_w // self.patch_size

    @property
    def num_patches(self):
        return self.grid_h * self.grid_w

    @property
    def tokens(self):
        # patches plus the class token
        return self.num_patches + 1

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size * self.channels

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"{f.name}={_format_value(getattr(cfg, f.name))}" for f in dataclasses.fields(RunConfig)]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val, lineno)
    return RunConfig(**values).validate()


def _parse_value(key, val, lineno):
    ftype = _FIELDS[key]
    try:
        if ftype in ("bool", bool):
            if val not in ("true", "false"):
                raise ValueError
            return val == "true"
        if ftype in ("int", int):
            return int(val)
        if ftype in ("float", float):
            return float(val)
        return val
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value {val!r} for key {key!r}")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


# Named presets. vit-b16 / mor-b16 are the full-scale geometries (used for
# parameter accounting, never trained here); the desk-* presets fit in
# seconds-to-minutes on one CPU core; tiny-desk is the gradient-check size.
PRESETS = {
    "vit-b16": RunConfig(
        image_h=224, image_w=224, channels=3, patch_size=16,
        hidden=768, mlp_size=3072, heads=12, num_classes=1000,
        max_recursion=12, beta=0.0, routing_lambda=0.0,
        routing_mode="static", share_params=False,
    ),
    "mor-b16": RunConfig(
        image_h=224, image_w=224, channels=3, patch_size=16,
        hidden=768, mlp_size=3072, heads=12, num_classes=1000,
        max_recursion=4, beta=0.5, routing_lambda=0.01,
        routing_mode="expert_choice", share_params=True,
    ),
    "tiny-desk": RunConfig(
        image_h=8, image_w=8, channels=3, patch_size=4,
        hidden=8, mlp_size=16, heads=2, num_classes=3,
        max_recursion=2, beta=0.5, routing_lambda=0.01,
        routing_mode="expert_choice", share_params=True,
    ),
    "desk-synth": RunConfig(
        image_h=16, image_w=16, channels=3, patch_size=4,
        hidden=32, mlp_size=64, heads=2, num_classes=4,
        max_recursion=4, beta=0.5, routing_lambda=0.01,
        routing_mode="expert_choice", share_params=True,
        lr=5e-4, epochs=30, batch_size=8,
        synth_samples=512, synth_holdout=256, synth_hard_fraction=0.75,
    ),
    "desk-bench": RunConfig(
        image_h=64, image_w=64, channels=3, patch_size=8,
        hidden=128, mlp_size=256, heads=4, num_classes=4,
        max_recursion=4, beta=0.5, routing_lambda=0.01,
        routing_mode="expert_choice", share_params=True,
        lr=3e-3, epochs=2, batch_size=8,
        synth_samples=96, synth_holdout=64, synth_hard_fraction=0.5,
    ),
}


def resolve_config(spec: str) -> RunConfig:
    """Load a config from a file path, or from a preset name."""
    import os

    if os.path.exists(spec):
        return load_config(spec)
    if spec in PRESETS:
        return dataclasses.replace(PRESETS[spec]).validate()
    raise ConfigError(f"{spec!r} is neither a config file nor a preset "
                      f"(presets: {', '.join(sorted(PRESETS))})")
