"""The demo scripts keep working as the library's names change.

Every demo's ``trailgrade`` imports must resolve. Demos 01-04 run in about a
second each, so they run in full; 05 and 06 train networks for 10-20 s and 05
writes to ``demos/out/``, so those two are only import-checked.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
ALL_DEMOS = sorted(DEMOS.glob("*.py"))
FAST_DEMOS = [p for p in ALL_DEMOS if p.name[:2] in {"01", "02", "03", "04"}]


def trailgrade_imports(path):
    """(module, name) for each ``trailgrade`` import; name is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trailgrade":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "trailgrade")


def test_every_demo_is_found():
    assert len(ALL_DEMOS) == 6
    assert len(FAST_DEMOS) == 4


@pytest.mark.parametrize("path", ALL_DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(trailgrade_imports(path))
    assert imports, f"{path.name} imports nothing from trailgrade"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or ImportError


@pytest.mark.parametrize("path", FAST_DEMOS, ids=lambda p: p.name)
def test_fast_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
