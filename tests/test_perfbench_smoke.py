"""Benchmark harness: every op kind verifies, every trace target resolves, traced calls run."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import graphforms as gf

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


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    # spans.install binds each target by name; a renamed or deleted one would break --trace.
    spans = load_spans()
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


def test_traced_resolvent_and_domination_calls_run(monkeypatch):
    # The solve hook takes one right-hand side; a 2-D solve routed through _solve breaks it.
    spans = load_spans()
    # every binding install makes goes through monkeypatch, so it is undone after the test
    monkeypatch.setattr(spans, "setattr", monkeypatch.setattr, raising=False)
    tracer = spans.Tracer()
    spans.install(tracer)
    q = gf.assemble(gf.make_path(7, 1.0), boundary=["v6"], extra_killing={"v3": 0.5})
    phi = np.linspace(0.0, 1.0, q.n) * q.active
    f = np.linspace(-1.0, 1.0, q.n)
    lower, upper = gf.CounterexampleSetup(n=9).build()[1:3]
    tracer.begin_op(0)
    try:
        h = gf.ResolventHandle(q)
        h.apply(0.5, np.ones(h.dim))
        gf.truncated_form_via_resolvent(h, phi, f)
        gf.truncated_coefficients(h, 0.5, phi, [["v0", "v1"], [2], ["v6"]])
        gf.check_silverstein(gf.FormPair(lower, upper))
    finally:
        tracer.end_op()
    assert tracer.fn_calls[("resolvent", "ResolventHandle._solve")] > 0
    assert tracer.fn_calls[("domination", "check_silverstein")] == 1
    assert all(span[-1] is None for span in tracer.spans)
