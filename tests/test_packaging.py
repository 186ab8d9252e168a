import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

from beamlink import cli

ROOT = Path(__file__).resolve().parents[1]


def _runtime_imports():
    """Top-level modules that ``src/beamlink`` imports from outside the stdlib."""
    names = set()
    for path in (ROOT / "src" / "beamlink").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_runtime_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req)[0] for req in project["dependencies"]}
    assert _runtime_imports() == declared == {"numpy"}


def test_console_script_resolves():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["beamlink"].partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert callable(target) and target is cli.main
