import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from morvit.checkpoint import load_checkpoint, save_checkpoint
from morvit.cli import build_parser, main
from morvit.config import PRESETS, serialize_config
from morvit.model import init_params
from test_data import cifar_bytes

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))


def micro_cfg(**kw):
    base = PRESETS["tiny-desk"].replace(
        num_classes=4, max_recursion=3, epochs=2, batch_size=8,
        synth_samples=32, synth_holdout=16, lr=1e-3, synth_hard_fraction=0.75,
    )
    return base.replace(**kw).validate()


@pytest.fixture()
def micro_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    save_config(micro_cfg(), str(path))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- usage

def test_no_args_is_usage_error(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 1
    assert "usage:" in err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--nope"])
    assert exc.value.code == 1


def test_help_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    parser = build_parser()
    sections = [parser.format_help()]
    subactions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    for name, sub in subactions[0].choices.items():
        sections.append("=" * 20 + f" morvit {name} " + "=" * 20 + "\n" + sub.format_help())
    text = "\n".join(sections)
    golden = open(os.path.join(GOLDEN, "cli_help.txt"), encoding="utf-8").read()
    assert text == golden


# ---------------------------------------------------------------- pipeline

def test_train_then_eval_consistency(tmp_path, micro_config_file, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    code, out, err = run_cli(
        ["train", "--config", micro_config_file, "--data", "synth", "--out", ckpt], capsys
    )
    assert code == 0, err
    metrics = (tmp_path / "m.ckpt.metrics.tsv").read_text().splitlines()
    final_train_acc = float(metrics[-1].split("\t")[2])

    code, out, err = run_cli(["eval", "--ckpt", ckpt, "--data", "synth"], capsys)
    assert code == 0, err
    eval_acc = float([l for l in out.splitlines() if l.startswith("accuracy=")][0].split("=")[1])
    assert eval_acc == final_train_acc


def test_resume_with_a_different_config_is_exit_2(tmp_path, micro_config_file, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    code, _, err = run_cli(["train", "--config", micro_config_file, "--data", "synth",
                            "--out", ckpt], capsys)
    assert code == 0, err
    other = str(tmp_path / "other.cfg")
    save_config(micro_cfg(epochs=3, beta=0.25), other)
    code, _, err = run_cli(["train", "--config", other, "--data", "synth", "--out", ckpt,
                            "--resume", ckpt], capsys)
    assert code == 2
    assert "beta" in err


def test_eval_missing_data_file_is_exit_2(tmp_path, micro_config_file, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    cfg = micro_cfg()
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    code, out, err = run_cli(["eval", "--ckpt", ckpt, "--data", "/no/such.bin"], capsys)
    assert code == 2
    assert "/no/such.bin" in err


def test_train_bad_label_after_first_record_is_exit_2(tmp_path, capsys):
    cfg = micro_cfg(image_h=32, image_w=32, patch_size=8, epochs=1)
    cfg_path = str(tmp_path / "cifar.cfg")
    save_config(cfg, cfg_path)
    blob = bytearray()
    for label in (0, cfg.num_classes):  # CIFAR allows 0..9; this config only 0..3
        blob.append(label)
        blob.extend(bytes(3072))
    data = tmp_path / "batch.bin"
    data.write_bytes(bytes(blob))
    code, _, err = run_cli(
        ["train", "--config", cfg_path, "--data", str(data), "--out", str(tmp_path / "m.ckpt")],
        capsys,
    )
    assert code == 2
    assert f"label {cfg.num_classes} out of range" in err


def test_eval_nan_checkpoint_is_exit_3(tmp_path, capsys):
    cfg = micro_cfg()
    params = init_params(cfg)
    params.head.w.data[:] = np.nan
    ckpt = str(tmp_path / "nan.ckpt")
    save_checkpoint(ckpt, cfg, params.named())
    code, out, err = run_cli(["eval", "--ckpt", ckpt, "--data", "synth"], capsys)
    assert code == 3
    assert "numeric" in err


def test_eval_prints_depth_histogram_over_all_patches(tmp_path, capsys):
    cfg = micro_cfg()
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    code, out, err = run_cli(["eval", "--ckpt", ckpt, "--data", "synth"], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("accuracy=") and lines[1].startswith("mean_exit_depth=")
    assert all(l.startswith("class[") for l in lines[2:2 + cfg.num_classes])
    assert lines[-1].startswith("depth_histogram=")
    hist = ast.literal_eval(lines[-1].split("=", 1)[1])
    patches = cfg.synth_samples * cfg.num_patches
    assert sorted(hist) == list(range(1, cfg.max_recursion + 1))
    assert sum(hist.values()) == patches
    mean_depth = float(lines[1].split("=")[1])
    assert abs(sum(r * n for r, n in hist.items()) / patches - mean_depth) < 1e-12
    assert "warning" not in err


def test_eval_warns_on_a_degenerate_router(tmp_path, capsys):
    # zero predictor signal and bias -50 send every token to depth 1
    cfg = micro_cfg(routing_mode="token_choice")
    params = init_params(cfg)
    params.router.choice_w.data[:] = 0.0
    params.router.choice_b.data[:] = -50.0
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, params.named())
    code, out, err = run_cli(["eval", "--ckpt", ckpt, "--data", "synth"], capsys)
    assert code == 0, err
    patches = cfg.synth_samples * cfg.num_patches
    assert f"depth_histogram={{1: {patches}, 2: 0, 3: 0}}" in out
    assert "warning: degenerate routing" in err


def test_profile_bench_reports_the_blas_threads_that_applied(tmp_path):
    # an explicit OPENBLAS_NUM_THREADS beats the MORVIT_THREADS default of 1
    cfg = micro_cfg()
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    env = {k: v for k, v in os.environ.items() if k != "MORVIT_THREADS"}
    env["OPENBLAS_NUM_THREADS"] = "2"
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-m", "morvit.cli", "profile", "--ckpt", ckpt, "--bench",
         "--batch", "2", "--repeats", "3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(threads=2, precision=f64)" in proc.stdout


def test_profile_beta_sweep_non_increasing(tmp_path, capsys):
    cfg = micro_cfg()
    params = init_params(cfg)
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, params.named())
    code, out, err = run_cli(["profile", "--ckpt", ckpt, "--beta-sweep"], capsys)
    assert code == 0, err
    rows = [l.split("\t") for l in out.splitlines() if "\t" in l and not l.startswith("beta")]
    flops = [int(r[1]) for r in rows]
    assert len(flops) == 5
    assert all(flops[i + 1] <= flops[i] for i in range(len(flops) - 1))


def test_profile_reports_breakdown(tmp_path, capsys):
    cfg = micro_cfg()
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    code, out, err = run_cli(["profile", "--ckpt", ckpt], capsys)
    assert code == 0
    assert "params=" in out and "total_flops=" in out and "flops[attention]=" in out


def test_depthmap_csv_and_json(tmp_path, capsys):
    cfg = micro_cfg()
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    out_csv = str(tmp_path / "map.csv")
    code, _, err = run_cli(
        ["depthmap", "--ckpt", ckpt, "--input", "synth:0", "--out", out_csv, "--format", "csv"],
        capsys,
    )
    assert code == 0, err
    rows = open(out_csv).read().strip().splitlines()
    assert len(rows) == cfg.grid_h
    assert all(len(r.split(",")) == cfg.grid_w for r in rows)

    out_json = str(tmp_path / "map.json")
    code, _, _ = run_cli(
        ["depthmap", "--ckpt", ckpt, "--input", "synth:0", "--out", out_json, "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(open(out_json).read())
    assert sum(doc["histogram"].values()) == cfg.num_patches


def test_depthmap_npy_input_and_geometry_error(tmp_path, capsys):
    cfg = micro_cfg()
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    img = np.random.Generator(np.random.Philox(5)).random((cfg.image_h, cfg.image_w, cfg.channels))
    npy = str(tmp_path / "img.npy")
    np.save(npy, img)
    code, _, err = run_cli(
        ["depthmap", "--ckpt", ckpt, "--input", npy, "--out", str(tmp_path / "m.csv")], capsys
    )
    assert code == 0, err

    bad = str(tmp_path / "bad.npy")
    np.save(bad, np.zeros((3, 3, 3)))
    code, _, err = run_cli(
        ["depthmap", "--ckpt", ckpt, "--input", bad, "--out", str(tmp_path / "n.csv")], capsys
    )
    assert code == 2
    assert "bad.npy" in err


def test_ablate_writes_table(tmp_path, capsys):
    cfg = micro_cfg(epochs=1, synth_samples=12, synth_holdout=8)
    cfg_path = str(tmp_path / "run.cfg")
    save_config(cfg, cfg_path)
    table_path = str(tmp_path / "table.tsv")
    code, out, err = run_cli(
        ["ablate", "--config", cfg_path, "--data", "synth", "--out", table_path], capsys
    )
    assert code == 0, err
    lines = open(table_path).read().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("variant\t")


def test_eval_and_ablate_read_each_checkpoint_once(tmp_path, micro_config_file, capsys,
                                                   monkeypatch):
    import morvit.checkpoint

    ckpt = str(tmp_path / "m.ckpt")
    code, _, err = run_cli(["train", "--config", micro_config_file, "--data", "synth",
                            "--out", ckpt], capsys)
    assert code == 0, err
    loads = []

    def counting_load(path):
        loads.append(path)
        return load_checkpoint(path)

    monkeypatch.setattr(morvit.checkpoint, "load_checkpoint", counting_load)
    code, _, err = run_cli(["eval", "--ckpt", ckpt, "--data", "synth"], capsys)
    assert code == 0, err
    assert loads == [ckpt]
    loads.clear()
    cfg_path = str(tmp_path / "ablate.cfg")
    save_config(micro_cfg(epochs=1, synth_samples=12, synth_holdout=8), cfg_path)
    code, _, err = run_cli(["ablate", "--config", cfg_path, "--data", "synth",
                            "--out", str(tmp_path / "table.tsv")], capsys)
    assert code == 0, err
    assert len(loads) == 4 and len(set(loads)) == 4  # one per variant


def cifar_file(path, n, seed=9):
    g = np.random.Generator(np.random.Philox(seed))
    recs = [(i % 10, g.integers(0, 256, size=(32, 32, 3)) / 255.0) for i in range(n)]
    path.write_bytes(cifar_bytes(recs))
    return recs


def cifar_config_file(tmp_path):
    path = str(tmp_path / "cifar.cfg")
    save_config(micro_cfg(image_h=32, image_w=32, patch_size=8, num_classes=10), path)
    return path


def test_ablate_scores_a_data_file_on_its_held_out_tail(tmp_path, capsys, monkeypatch):
    import morvit.train

    seen = {}

    def recording_ablation(cfg, records, holdout, epochs=None):
        seen.update(records=records, holdout=holdout)
        return [{"variant": "mor", "routing_mode": "expert_choice", "share_params": True,
                 "top1": 0.5, "params": 1, "images_per_second": 1.0}]

    monkeypatch.setattr(morvit.train, "run_ablation", recording_ablation)
    recs = cifar_file(tmp_path / "batch.bin", 17)
    code, _, err = run_cli(["ablate", "--config", cifar_config_file(tmp_path), "--data",
                            str(tmp_path / "batch.bin"), "--out", str(tmp_path / "t.tsv")], capsys)
    assert code == 0, err
    assert len(seen["records"]) == 15 and len(seen["holdout"]) == 2  # 17 // 8 held out
    for rec, (label, image) in zip(seen["records"] + seen["holdout"], recs):
        assert rec.label == label and np.array_equal(rec.image, image)


def test_ablate_rejects_a_data_file_too_small_to_hold_out(tmp_path, capsys):
    cifar_file(tmp_path / "one.bin", 1)
    code, _, err = run_cli(["ablate", "--config", cifar_config_file(tmp_path), "--data",
                            str(tmp_path / "one.bin"), "--out", str(tmp_path / "t.tsv")], capsys)
    assert code == 2
    assert "at least 2 records" in err


def test_bad_config_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key=1\n")
    code, _, err = run_cli(
        ["train", "--config", str(bad), "--data", "synth", "--out", str(tmp_path / "x.ckpt")],
        capsys,
    )
    assert code == 2
    assert "nonsense_key" in err


def test_preset_name_as_config(tmp_path, capsys):
    # presets resolve by name; use a micro override through flags
    ckpt = str(tmp_path / "m.ckpt")
    code, _, err = run_cli(
        ["train", "--config", "tiny-desk", "--data", "synth", "--out", ckpt, "--epochs", "1"],
        capsys,
    )
    assert code == 0, err
    assert load_checkpoint(ckpt).config.epochs == 1


# ---------------------------------------------------------------- bounds

def assert_clean_error(code, err, expected=2):
    assert code == expected, err
    assert "morvit: error:" in err or "morvit profile: error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["hidden", "patch_size", "batch_size"])
def test_train_config_with_a_zero_size_is_exit_2(tmp_path, capsys, field):
    path = str(tmp_path / "zero.cfg")
    save_config(micro_cfg().replace(**{field: 0}), path)
    code, _, err = run_cli(
        ["train", "--config", path, "--data", "synth", "--out", str(tmp_path / "m.ckpt")], capsys
    )
    assert_clean_error(code, err)
    assert f"{field} must be >= 1" in err


@pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--seed", "-1")])
def test_train_flag_out_of_bounds_is_exit_2(tmp_path, micro_config_file, capsys, flag, value):
    code, _, err = run_cli(["train", "--config", micro_config_file, "--data", "synth",
                            "--out", str(tmp_path / "m.ckpt"), flag, value], capsys)
    assert_clean_error(code, err)
    assert f"{flag[2:]} must be >= " in err


def test_resume_with_nothing_left_to_train_is_exit_2(tmp_path, micro_config_file, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    argv = ["train", "--config", micro_config_file, "--data", "synth", "--out", ckpt]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    code, _, err = run_cli(argv + ["--resume", ckpt], capsys)
    assert_clean_error(code, err)
    assert "nothing left to train" in err


@pytest.mark.parametrize("flag, value", [("--batch", "0"), ("--repeats", "2")])
def test_profile_bench_bounds_are_usage_errors(tmp_path, capsys, flag, value):
    cfg = micro_cfg()
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--ckpt", ckpt, "--bench", flag, value])
    assert_clean_error(exc.value.code, capsys.readouterr().err, expected=1)


def test_depthmap_input_that_is_not_npy_is_exit_2(tmp_path, capsys):
    cfg = micro_cfg()
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    text = tmp_path / "img.txt"
    text.write_text("not an array\n")
    objects = str(tmp_path / "objects.npy")
    np.save(objects, np.array([{"a": 1}], dtype=object), allow_pickle=True)
    for path in (str(text), objects):
        code, _, err = run_cli(
            ["depthmap", "--ckpt", ckpt, "--input", path, "--out", str(tmp_path / "m.csv")], capsys
        )
        assert_clean_error(code, err)
        assert "not a .npy array" in err


def test_train_out_in_a_missing_directory_is_exit_2(tmp_path, micro_config_file, capsys):
    out = str(tmp_path / "missing" / "m.ckpt")
    code, _, err = run_cli(
        ["train", "--config", micro_config_file, "--data", "synth", "--out", out], capsys
    )
    assert_clean_error(code, err)
    assert "cannot write metrics" in err


def test_eval_on_an_empty_data_file_is_exit_2(tmp_path, capsys):
    cfg = micro_cfg(image_h=32, image_w=32, patch_size=8)
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, cfg, init_params(cfg).named())
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    code, _, err = run_cli(["eval", "--ckpt", ckpt, "--data", str(empty)], capsys)
    assert_clean_error(code, err)
    assert "non-empty" in err
