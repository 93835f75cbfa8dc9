"""Short runs of the whole-program benchmark, so its own output checks gate
every change: logits against the plain-numpy reference forward, central
differences, 2 x MACs == count_flops and, traced, the encoder_block span."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
        assert result["metrics"]["backbone.encoder_block_calls_per_img"]["value"] > 0
