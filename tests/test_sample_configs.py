"""The shipped sample configs must load and run end to end."""

import json
import pathlib
import re

import pytest

from sdelab.cli import main as cli_main
from sdelab.config import load_config

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
SAMPLES = sorted(CONFIG_DIR.glob("*.ini"))


def test_samples_present():
    names = {p.name for p in SAMPLES}
    assert {"retarded-mixing.ini", "neutral-simulate.ini",
            "jump-check.ini", "halanay-rate.ini"} <= names


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_sample_loads(path):
    cfg = load_config(path)
    assert cfg.task in ("simulate", "mixing", "check", "halanay")
    assert cfg.out_dir is not None


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_sample_runs(path, tmp_path):
    task = load_config(path).task
    code = cli_main([task, "--config", str(path),
                     "--output", str(tmp_path / "out")])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["task"] == task
    assert manifest["status"] == "ok"
    for name in manifest["artifacts"]:
        assert (tmp_path / "out" / name).exists()


def test_readme_ini_example_loads(tmp_path):
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0], encoding="utf-8")
    cfg = load_config(path)
    assert cfg.task == "mixing" and cfg.eta is not None
    assert cfg.out_dir == str(tmp_path / "out" / "mixing")
