"""The package stays within the Python version that pyproject.toml declares."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import visage
from visage.cohort import _STRICT_CELL, _strict_row

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(visage.__file__).parent.rglob("*.py"))


def _python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_module_parses_at_python_floor(source):
    ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=_python_floor())


def test_strict_pattern_has_no_311_regex_syntax():
    """Possessive quantifiers and atomic groups arrived in Python 3.11."""
    for pattern in (_STRICT_CELL, _strict_row(64).pattern):
        for token in ("++", "*+", "?+", "}+", "(?>"):
            assert token not in pattern, (pattern, token)
