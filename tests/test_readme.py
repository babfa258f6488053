"""The README's examples run against the current API."""

import json
import re
from pathlib import Path

from swstream import cli
from swstream.info_core import JointDistribution

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _json_block(name):
    """The ```json block that follows the README line saying what `name` holds."""
    match = re.search(rf"`{re.escape(name)}` holds[^\n]*\n\n```json\n(.*?)```", README,
                      re.DOTALL)
    assert match, f"no {name} block in README.md"
    return match.group(1)


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["x_hat"]) == 12


def test_source_json_loads():
    d = JointDistribution.from_json(_json_block("source.json"))
    assert (d.alphabet_x, d.alphabet_y) == (2, 2)


def test_trials_json_loads(tmp_path):
    path = tmp_path / "trials.json"
    path.write_text(_json_block("trials.json"))
    cfg = cli._load_trial_config(str(path), None)
    assert (cfg.decoder, cfg.n, cfg.trials) == ("si_ml", 16, 10000)


def test_ci_simulates_the_readme_config():
    # CI's cross-thread simulate check runs the README config from a file
    ci = (ROOT / ".github" / "simulate" / "readme.json").read_text()
    assert json.loads(ci) == json.loads(_json_block("trials.json"))
