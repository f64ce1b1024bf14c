"""Shared builders for test cohorts, and a runner for child interpreters.

Tests construct Cohort objects directly where possible; CSV fixtures
are only used by the loader and CLI tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import visage
from visage.cohort import Cohort


def make_cohort(times, events, **columns) -> Cohort:
    """Build a cohort from parallel arrays, with ids ``p0000``, ``p0001``, ….

    Keyword columns are Cohort fields; ``chrono_age`` defaults to 60.0
    and an ``embedding`` column takes an (n, d) array.
    """
    n = len(times)
    columns.setdefault("chrono_age", [60.0] * n)
    return Cohort(ids=[f"p{i:04d}" for i in range(n)], time=times, event=events, **columns)


def run_child(*args):
    """Run a Python child that imports visage from where this process found it."""
    package_root = str(Path(visage.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
