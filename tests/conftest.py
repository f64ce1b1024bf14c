"""Shared builders for test cohorts.

Tests construct Cohort objects directly where possible; CSV fixtures
are only used by the loader and CLI tests.
"""

from __future__ import annotations

from visage.cohort import Cohort


def make_cohort(times, events, **columns) -> Cohort:
    """Build a cohort from parallel arrays, with ids ``p0000``, ``p0001``, ….

    Keyword columns are Cohort fields; ``chrono_age`` defaults to 60.0
    and an ``embedding`` column takes an (n, d) array.
    """
    n = len(times)
    columns.setdefault("chrono_age", [60.0] * n)
    return Cohort(ids=[f"p{i:04d}" for i in range(n)], time=times, event=events, **columns)
