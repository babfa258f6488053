import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import swstream

SRC = Path(swstream.__file__).resolve().parents[1]


def test_cli_imports_no_scipy():
    # the package runs on numpy alone; scipy is a test dependency
    code = ("import sys, swstream.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_export_resolves():
    for info in pkgutil.iter_modules(swstream.__path__):
        module = importlib.import_module(f"swstream.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"swstream.{info.name}.{name}"
    tree = ast.parse(Path(swstream.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"swstream.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"swstream.{node.module}.{alias.name}"
                assert hasattr(swstream, alias.asname or alias.name)


def test_version_matches_pyproject():
    # read with a regex: tomllib arrived in Python 3.11
    text = (SRC.parent / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert swstream.__version__ == version
