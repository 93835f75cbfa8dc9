import pytest

from morvit.config import PRESETS
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
