"""Shared builders for test cohorts.

Tests construct Cohort objects directly where possible; CSV fixtures
are only used by the loader and CLI tests.
"""

from __future__ import annotations

import numpy as np

from visage.cohort import Cohort, PatientRecord


def make_cohort(times, events, **columns) -> Cohort:
    """Build a cohort from parallel arrays.

    Keyword columns map to PatientRecord fields; an ``embedding``
    column takes an (n, d) array.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    n = times.size
    embedding = columns.pop("embedding", None)
    records = []
    for i in range(n):
        kwargs = {}
        for name, values in columns.items():
            value = values[i]
            if isinstance(value, (np.floating, np.integer)):
                value = float(value)
            kwargs[name] = value
        if embedding is not None:
            kwargs["embedding"] = tuple(float(v) for v in embedding[i])
        records.append(
            PatientRecord(
                id=f"p{i:04d}",
                time=float(times[i]),
                event=bool(events[i]),
                chrono_age=float(kwargs.pop("chrono_age", 60.0)),
                **kwargs,
            )
        )
    dim = None if embedding is None else int(np.asarray(embedding).shape[1])
    return Cohort.from_records(records, embedding_dim=dim)
