"""The benchmark's output checks must keep catching corrupted outputs."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_hooks_resolve():
    # the layer tracer wraps these names by lookup; a missing one passes
    # every other test and fails only the traced benchmark jobs
    spec = importlib.util.spec_from_file_location(
        "trace_layers", ROOT / "bench" / "trace_layers.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("swstream.cli")
    missing = []
    for module_name, attr, *_ in tracer.HOOKS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert not missing
