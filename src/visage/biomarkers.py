"""Facial-age and risk biomarkers: derivation, scaling, stratification.

The face age difference (FAD) is predicted age minus chronological age,
in years. Risk scores are compared against fixed cuts after min-max
scaling to [0, 1], so strata labels mean the same thing across
datasets of different score distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import SCHEMES
from ._inputs import vectors
from .errors import AnalysisError, ConstantInputError, DataError

FAD_BAND_CUTS = (-10.0, -5.0, 0.0, 5.0, 10.0, 20.0)


@dataclass(frozen=True)
class BiomarkerColumn:
    """Per-subject values aligned to a cohort; NaN marks excluded subjects."""

    values: np.ndarray


@dataclass(frozen=True)
class StrataAssignment:
    """One label per subject, as a read-only object array, and the
    display order of the possible labels."""

    labels: np.ndarray
    order: tuple[str, ...]


def compute_fad(predicted_age, chrono_age) -> BiomarkerColumn:
    """Face age difference in years, predicted minus chronological.

    ``predicted_age`` entries may be None or NaN for subjects without a
    prediction; those subjects are excluded (NaN value). ``chrono_age``
    must be finite.
    """
    (chrono,) = vectors(chrono_age=chrono_age)
    pred = np.asarray(predicted_age, dtype=float)
    if pred.shape != chrono.shape:
        raise DataError("predicted_age must align with chrono_age")
    values = pred - chrono
    values.flags.writeable = False
    return BiomarkerColumn(values)


def fad_for_cohort(cohort) -> BiomarkerColumn:
    """FAD column for a cohort, excluding subjects without predictions."""
    return compute_fad(cohort.predicted_age, cohort.chrono_age)


def minmax_scale(raw) -> np.ndarray:
    """Scale to [0, 1] by the observed minimum and maximum.

    Requires at least two distinct finite values; a constant input has
    no defined scaling and raises ConstantInputError.
    """
    (x,) = vectors(raw=raw)
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        raise ConstantInputError("cannot min-max scale a constant input")
    return (x - lo) / (hi - lo)


class _Bins(NamedTuple):
    cuts: tuple[float, ...]
    labels: tuple[str, ...]  # one per bin, lowest bin first
    side: str = "right"  # "right": a value on a cut joins the upper bin; "left": the lower
    order: tuple[str, ...] | None = None  # display order, when it is not bin order


_BINS = {
    "fad_bands": _Bins(
        FAD_BAND_CUTS,
        (
            f"<{FAD_BAND_CUTS[0]:g}",
            *(f"{lo:g} to {hi:g}" for lo, hi in zip(FAD_BAND_CUTS[:-1], FAD_BAND_CUTS[1:])),
            f"{FAD_BAND_CUTS[-1]:g}+",
        ),
    ),
    "fad_ge5": _Bins((5.0,), ("<5", "≥5")),
    "fad_le_minus5": _Bins((-5.0,), ("≤-5", ">-5"), "left", (">-5", "≤-5")),
    "risk_half": _Bins((0.5,), ("<0.5", "≥0.5")),
    "risk_quartiles": _Bins((0.25, 0.5, 0.75), ("<0.25", "0.25-0.49", "0.5-0.74", "≥0.75")),
    "risk_deciles": _Bins(
        tuple(np.round(np.arange(0.1, 1.0, 0.1), 10)),
        tuple(f"{lo:.1f}-{lo + 0.1:.1f}" for lo in np.arange(0.0, 1.0, 0.1)),
    ),
}


def stratify(values, scheme: str) -> StrataAssignment:
    """Assign every subject to a stratum by fixed cuts.

    Each bin runs from one cut to the next. A value equal to a cut goes
    to the bin above it, so a risk of exactly 0.25 lands in the second
    quartile; the top bin is closed, so a risk of 1.0 lands in the top
    one. ``fad_le_minus5`` is the exception: its cut belongs to the bin
    below, so a FAD of exactly -5 is "≤-5". Risk schemes require values
    inside [0, 1]; apply :func:`minmax_scale` first.
    """
    (values,) = vectors(values=values)
    if scheme not in SCHEMES:
        raise DataError(f"unknown scheme {scheme!r}; valid: {', '.join(SCHEMES)}")
    if scheme.startswith("risk_") and (values.min() < 0.0 or values.max() > 1.0):
        raise DataError("risk scheme requires values in [0, 1]")
    bins = _BINS[scheme]
    labels = np.array(bins.labels, dtype=object)[np.searchsorted(bins.cuts, values, bins.side)]
    labels.flags.writeable = False
    return StrataAssignment(labels, bins.order or bins.labels)


def group_indices(assignment: StrataAssignment) -> dict[str, np.ndarray]:
    """Subject indices per stratum, in display order, occupied only."""
    out: dict[str, np.ndarray] = {}
    for name in assignment.order:
        idx = np.nonzero(assignment.labels == name)[0]
        if idx.size:
            out[name] = idx
    return out


def cosine_similarity_profile(a, b) -> tuple[np.ndarray, float]:
    """Row-wise cosine similarity between two (n, d) embedding matrices.

    Returns the per-subject similarities and their median. Rows must
    align and no row may have zero norm.
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.ndim != 2 or xa.shape != xb.shape or xa.size == 0:
        raise DataError(f"need two non-empty matrices of one shape, got {xa.shape} and {xb.shape}")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise DataError("embeddings hold non-finite values")
    norms_a = np.linalg.norm(xa, axis=1)
    norms_b = np.linalg.norm(xb, axis=1)
    if np.any(norms_a == 0) or np.any(norms_b == 0):
        raise AnalysisError("zero-norm embedding row")
    sims = np.sum(xa * xb, axis=1) / (norms_a * norms_b)
    return sims, float(np.median(sims))

