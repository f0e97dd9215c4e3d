"""Every demo script imports cleanly against the library and has a main;
every demo config parses, names a registered experiment and leaves the
output directory to ``subweibull run --out``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from subweibull import experiments as ex

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
CONFIGS = sorted(DEMO_DIR.glob("*.cfg"))


def test_demos_exist():
    assert DEMOS and CONFIGS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_demo_config_parses(path):
    config = ex.parse_config(path.read_text())
    assert config.experiment in ex.REGISTRY
    assert config.output_dir is None
