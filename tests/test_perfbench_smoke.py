"""Benchmark harness: smoke mode checks every op kind, and every trace target resolves."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_op_verifies():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: all ops verified" in proc.stdout.splitlines()


def test_every_trace_target_resolves():
    # spans.install binds each target by name; a renamed or deleted one would break --trace.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    resolved = 0
    for layer, names in spans.TARGETS.items():
        module = importlib.import_module(f"graphforms.{layer}")
        for name in names:
            obj = module
            for attr in name.split("."):
                obj = getattr(obj, attr)
            assert callable(obj), f"{layer}.{name}"
            resolved += 1
    assert resolved == 47
