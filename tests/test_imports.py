import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy

import swstream
from swstream.info_core import EXAMPLE_1

SRC = Path(swstream.__file__).resolve().parents[1]


def _run(code: str) -> str:
    """The standard output of `python -c code` on this source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_imports_no_scipy():
    # the package runs on numpy alone; scipy is a test dependency
    code = ("import sys, swstream.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run(code).strip() == "[]"


def test_cli_entry_points_load_no_numpy():
    # the benchmark harness looks both up on every job, before set-up ends;
    # `simulate` loads no exponent code either
    code = ("import sys, swstream.cli as cli; "
            "getattr(cli, 'curve_row'); getattr(cli, 'run_trials'); "
            "print('numpy' in sys.modules, 'swstream.exponents' in sys.modules)")
    assert _run(code).strip() == "False False"


def test_exponent_commands_run_without_numpy(tmp_path):
    # a None entry in sys.modules makes every import of numpy fail
    source = tmp_path / "source.json"
    source.write_text(EXAMPLE_1.to_json())
    exponents = ["exponents", str(source), "--rx", "0.4:0.8:0.2", "--ry", "0.6",
                 "--threads", "1", "--out", str(tmp_path / "e")]
    reproduce = ["reproduce-example1", "--threads", "1", "--out", str(tmp_path / "r")]
    code = ("import sys; sys.modules['numpy'] = None; "
            "import swstream, swstream.exponents; from swstream import cli; "
            f"print(cli.main({exponents!r}), cli.main({reproduce!r}))")
    assert _run(code).split("\n")[-2] == "0 0"
    assert len((tmp_path / "e" / "exponents.csv").read_text().splitlines()) == 1 + 3
    for ry in ("0.49", "0.67"):
        lines = (tmp_path / "r" / f"example1_ry{ry}.csv").read_text().splitlines()
        assert len(lines) == 1 + 76


def test_exponent_command_loads_no_dataclasses(tmp_path):
    # its value classes are written out: `dataclasses`, with the `inspect`
    # that it loads, took about 10 ms of each exponent command's start-up
    source = tmp_path / "source.json"
    source.write_text(EXAMPLE_1.to_json())
    args = ["exponents", str(source), "--rx", "0.4:0.8:0.2", "--ry", "0.6",
            "--threads", "1", "--out", str(tmp_path / "e")]
    code = (f"import sys; from swstream import cli; rc = cli.main({args!r}); "
            "print(rc, [m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert _run(code).splitlines()[-1] == "0 []"


def test_simulate_loads_no_openssl(tmp_path):
    # codec takes BLAKE2b from _blake2, which hashlib.blake2b is: hashlib
    # loads OpenSSL's _hashlib, about 3.4 MB of each simulate process.
    # numpy 1.x imports numpy.random, and through `secrets` hashlib, on
    # `import numpy`; numpy 2 does so on first use. So the package may load
    # no more of the two than numpy itself does
    config = tmp_path / "trials.json"
    config.write_text(json.dumps({
        "source": json.loads(EXAMPLE_1.to_json()), "schedule_x": [1], "schedule_y": None,
        "n": 8, "delays": [0, 2], "trials": 100, "base_seed": 11, "decoder": "si_ml"}))
    args = ["simulate", str(config), "--threads", "1", "--out", str(tmp_path / "s")]
    code = ("import sys, numpy; "
            "ssl = lambda: [m for m in ('hashlib', '_hashlib') if m in sys.modules]; "
            f"base = ssl(); from swstream import cli; rc = cli.main({args!r}); "
            "import swstream.verify; print(rc, ssl(), base, sep='|')")
    rc, loaded, base = _run(code).splitlines()[-1].split("|")
    assert rc == "0" and loaded == base
    if int(numpy.__version__.split(".")[0]) >= 2:
        assert loaded == "[]"


def test_sim_imports_no_process_pool():
    # only a parallel run_trials loads concurrent.futures (and logging with it)
    code = "import sys, swstream.sim; print('concurrent.futures' in sys.modules)"
    assert _run(code).strip() == "False"


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
    # the names the package root imports on first use
    for name, module in swstream._LAZY.items():
        want = getattr(importlib.import_module(f"swstream.{module}"), name)
        assert getattr(swstream, name) is want, f"swstream.{name}"


def test_version_matches_pyproject():
    # read with a regex: tomllib arrived in Python 3.11
    text = (SRC.parent / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
    assert swstream.__version__ == version
