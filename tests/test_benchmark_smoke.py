"""Short runs of the whole-program benchmark, so its own output checks gate
every change: logits against the plain-numpy reference forward, central
differences, 2 x MACs == count_flops and, traced, one encoder_block call
per recursion step.
A static check names every program attribute the benchmark reaches."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

from morvit.config import PRESETS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_names_exist():
    # Parsed, not imported: importing run.py rewrites os.environ.
    path = os.path.join(ROOT, "benchmark", "run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    modules = {
        alias.asname or alias.name: importlib.import_module(f"morvit.{alias.name}")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "morvit"
        for alias in node.names
    }
    # module.attr, and (module, "attr") next to each other in a tuple, as in
    # LAYER_SPANS, or in a call's arguments, as in tracer.patch(train, "Tape", ...)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add((node.value.id, node.attr))
        seq = node.elts if isinstance(node, ast.Tuple) else getattr(node, "args", None)
        if isinstance(seq, list):
            names.update((a.id, b.value) for a, b in zip(seq, seq[1:])
                         if isinstance(a, ast.Name) and isinstance(b, ast.Constant)
                         and isinstance(b.value, str))
    names = {(m, a) for m, a in names if m in modules}
    assert {("routing", "scatter_rows"), ("train", "forward_sample"), ("train", "Tape")} <= names
    missing = sorted({f"{m}.{a}" for m, a in names if not hasattr(modules[m], a)})
    assert not missing, f"benchmark/run.py uses names the program lacks: {missing}"


@pytest.mark.parametrize("workload,trace", [
    ("mor-bench", 0), ("vit-bench", 0), ("tc-synth", 0), ("tc-synth", 1),
])
def test_benchmark_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmark", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    if trace:
        # one block call per recursion step of a batch, whatever the images'
        # mix of depths (tc-synth runs the desk-synth preset)
        cfg = PRESETS["desk-synth"]
        calls = result["metrics"]["backbone.encoder_block_calls_per_img"]["value"]
        assert 0 < calls <= cfg.max_recursion / cfg.batch_size
