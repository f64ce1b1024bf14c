"""The package stays within the Python version that pyproject.toml
declares, and the README names only what the package defines."""

from __future__ import annotations

import ast
import importlib
import re
from functools import reduce
from pathlib import Path

import pytest

import visage

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(visage.__file__).parent.rglob("*.py"))


def _python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_module_parses_at_python_floor(source):
    ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=_python_floor())


def test_readme_python_api_names_resolve():
    """Every name in the README "Python API" bullet list, dotted names
    included, is an attribute of the module it is listed under."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (`visage\.[^\n]*(?:\n  [^\n]*)*)", section, re.MULTILINE)
    listed = [re.findall(r"`([^`]+)`", bullet) for bullet in bullets]
    assert len(listed) >= 9 and all(len(names) > 1 for names in listed)
    for module_name, *names in listed:
        module = importlib.import_module(module_name)
        for name in names:
            try:
                reduce(getattr, name.split("."), module)
            except AttributeError:
                pytest.fail(f"README lists {module_name}.{name}, which does not exist")
