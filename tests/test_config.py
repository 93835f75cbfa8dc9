import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morvit.config import PRESETS, RunConfig, load_config, parse_config, serialize_config
from morvit.errors import ConfigError

SIZES = ("image_h", "image_w", "channels", "patch_size", "hidden", "mlp_size", "heads",
         "num_classes", "max_recursion", "batch_size", "epochs", "synth_samples",
         "synth_holdout")


@pytest.mark.parametrize("name", SIZES)
def test_validate_rejects_a_size_below_one(name):
    for value in (0, -1):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {value}"):
            PRESETS["tiny-desk"].replace(**{name: value}).validate()


@pytest.mark.parametrize("name", ("seed", "completed_epochs"))
def test_validate_rejects_a_negative_count(name):
    cfg = PRESETS["tiny-desk"].replace(**{name: 0}).validate()
    with pytest.raises(ConfigError, match=f"{name} must be >= 0, got -1"):
        cfg.replace(**{name: -1}).validate()


@pytest.mark.parametrize("fraction", (-0.5, 1.5))
def test_validate_rejects_a_hard_fraction_outside_0_1(fraction):
    for ok in (0.0, 1.0):
        PRESETS["tiny-desk"].replace(synth_hard_fraction=ok).validate()
    with pytest.raises(ConfigError, match="synth_hard_fraction must be in"):
        PRESETS["tiny-desk"].replace(synth_hard_fraction=fraction).validate()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_is_valid(preset):
    PRESETS[preset].validate()


@pytest.mark.parametrize("lr", (float("nan"), float("inf"), 0.0, -1.0))
def test_validate_rejects_an_lr_that_is_not_finite_and_positive(lr):
    with pytest.raises(ConfigError, match="lr must be finite and > 0"):
        PRESETS["tiny-desk"].replace(lr=lr).validate()


@pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0))
def test_validate_rejects_a_routing_lambda_that_is_not_finite_and_nonnegative(value):
    PRESETS["tiny-desk"].replace(routing_lambda=0.0).validate()
    with pytest.raises(ConfigError, match="routing_lambda must be finite and >= 0"):
        PRESETS["tiny-desk"].replace(routing_lambda=value).validate()


NAMES = [f.name for f in dataclasses.fields(RunConfig)]
FLOAT_NAMES = [f.name for f in dataclasses.fields(RunConfig) if f.type in ("float", float)]
VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-0.0", "0", "1", "-1", "0.5",
                     "9" * 40, "9" * 5000, "1_0", "true", "false", "token_choice", "static",
                     "\u00e9", "\u0661\u0662", "\u00bd", ""]),
    st.integers(-10**40, 10**40).map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)
TINY_TEXT = serialize_config(PRESETS["tiny-desk"])


@settings(max_examples=300, deadline=None)
@given(over=st.dictionaries(st.sampled_from(NAMES), VALUES, max_size=4),
       drop=st.sets(st.sampled_from(NAMES)), extra=st.lists(st.text(max_size=12), max_size=2))
@example(over={"routing_lambda": "nan"}, drop=set(), extra=[])
@example(over={"routing_lambda": "inf", "lr": "-0.0"}, drop=set(), extra=[])
def test_config_text_is_a_valid_config_or_a_config_error(over, drop, extra):
    # a tiny-desk config file with some lines rewritten, some dropped and
    # some lines of any text added
    lines = dict(line.split("=", 1) for line in TINY_TEXT.splitlines())
    lines.update(over)
    text = "\n".join([f"{k}={v}" for k, v in lines.items() if k in over or k not in drop]
                     + extra)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert all(math.isfinite(getattr(cfg, name)) for name in FLOAT_NAMES)
    assert cfg.validate() is cfg


@settings(max_examples=200, deadline=None)
@given(raw=st.one_of(st.binary(max_size=64),
                     st.binary(max_size=16).map(lambda b: TINY_TEXT.encode() + b)))
@example(raw=b"\xff")
@example(raw=TINY_TEXT.encode() + b"lr=\xff\n")
def test_load_config_on_any_bytes_raises_only_config_error(raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "arbitrary.cfg"
    path.write_bytes(raw)
    try:
        load_config(str(path))
    except ConfigError:
        pass
