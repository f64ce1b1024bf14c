"""Nonparametric survival estimation.

Implements the product-limit estimator with Greenwood variance and
log-log confidence bands, the k-sample log-rank test, and median
follow-up by reverse Kaplan-Meier. Tied deaths and censorings at the
same time are resolved deaths-first, so a subject censored at t is
still at risk for the deaths at t.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from ._inputs import vectors
from ._stats import Z95, chi2_sf
from .errors import DataError, MedianNotReachedError


@dataclass(frozen=True)
class SurvivalCurve:
    """A fitted product-limit curve.

    Attributes
    ----------
    times : ndarray
        Ascending distinct event (death) times, in days.
    survival : ndarray
        S(t) just after each event time; non-increasing, within [0, 1].
    at_risk : ndarray
        Number at risk just before each event time.
    events : ndarray
        Number of deaths at each event time.
    variance : ndarray
        Greenwood variance of S(t) at each event time.
    n : int
        Subjects at time zero.
    max_time : float
        Largest observed time, event or censoring; estimates beyond it
        are extrapolations and get flagged as truncated.
    """

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    variance: np.ndarray
    n: int
    max_time: float


@dataclass(frozen=True)
class KMEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    truncated: bool = False


@dataclass(frozen=True)
class LogRankResult:
    chi_square: float
    dof: int
    p_value: float


def kaplan_meier(times, events) -> SurvivalCurve:
    """Fit the product-limit estimator.

    Parameters
    ----------
    times : array-like
        Follow-up in days, all > 0.
    events : array-like
        True where the subject died at ``times``, False where censored.

    Returns
    -------
    SurvivalCurve
        Steps at distinct death times only. A fully censored input
        yields an empty step set, i.e. the constant curve S = 1.

    Notes
    -----
    The variance is Greenwood's formula
    ``S(t)^2 * sum d_j / (n_j (n_j - d_j))`` accumulated over event
    times up to t; when the curve reaches zero the variance is clamped
    to zero.
    """
    t, e = vectors(times=times, events=events)
    order = np.argsort(t, kind="stable")
    t, e = t[order], e[order]
    n_total = t.size

    event_times, deaths = np.unique(t[e], return_counts=True)
    # Risk set counts just before each event time; deaths at tied times
    # precede censorings, so ties remain in the risk set.
    at_risk = n_total - np.searchsorted(t, event_times, side="left")

    with np.errstate(divide="ignore", invalid="ignore"):
        frac = 1.0 - deaths / at_risk
        survival = np.cumprod(frac)
        green_terms = np.where(
            at_risk > deaths,
            deaths / (at_risk * (at_risk - deaths).astype(float)),
            np.inf,
        )
        variance = survival**2 * np.cumsum(green_terms)
    variance = np.where(survival <= 0.0, 0.0, variance)

    for arr in (event_times, survival, at_risk, deaths, variance):
        arr.flags.writeable = False
    return SurvivalCurve(
        times=event_times,
        survival=survival,
        at_risk=at_risk,
        events=deaths,
        variance=variance,
        n=n_total,
        max_time=float(t[-1]),
    )


def km_estimate_at(curve: SurvivalCurve, t: float) -> KMEstimate:
    """Evaluate the right-continuous step curve at time ``t``.

    The 95% interval uses the log-log transform: with
    theta = log(-log S), the limits are ``S ** exp(±z * se_theta)``,
    which stay inside [0, 1] by construction. Degenerate values S = 1
    and S = 0 get the point interval. Querying past the last observed
    time returns the final value flagged as truncated.
    """
    if not 0 <= t < np.inf:
        raise DataError(f"time must be finite and >= 0, got {t}")
    idx = int(np.searchsorted(curve.times, t, side="right")) - 1
    truncated = t > curve.max_time
    if idx < 0:
        return KMEstimate(1.0, 1.0, 1.0, truncated)
    s = float(curve.survival[idx])
    var = float(curve.variance[idx])
    if s >= 1.0:
        return KMEstimate(1.0, 1.0, 1.0, truncated)
    if s <= 0.0:
        return KMEstimate(0.0, 0.0, 0.0, truncated)
    se_theta = np.sqrt(var) / (s * abs(np.log(s)))
    ci_low = s ** np.exp(Z95 * se_theta)
    ci_high = s ** np.exp(-Z95 * se_theta)
    return KMEstimate(s, float(ci_low), float(ci_high), truncated)


def reverse_km_median_followup(times, events) -> float:
    """Median follow-up by the reverse Kaplan-Meier method.

    The censoring indicator is flipped, so censorings become the events
    of interest, and the median of the resulting curve is the smallest
    time at which it drops to 0.5 or below. Raises
    MedianNotReachedError when the flipped curve never does.
    """
    t, e = vectors(times=times, events=events)
    flipped = kaplan_meier(t, ~e)
    below = np.nonzero(flipped.survival <= 0.5)[0]
    if below.size == 0:
        raise MedianNotReachedError("reverse KM curve never reaches 0.5")
    return float(flipped.times[below[0]])


def log_rank(groups) -> LogRankResult:
    """k-sample log-rank test.

    Parameters
    ----------
    groups : sequence of (times, events) pairs
        One pair per group, each as for :func:`kaplan_meier`.

    Returns
    -------
    LogRankResult
        Chi-square statistic with k-1 degrees of freedom and its
        p-value. Identical groups give statistic 0 and p = 1.

    Notes
    -----
    Uses the hypergeometric variance of the observed-minus-expected
    death counts at each distinct event time; time points where the
    pooled risk set has a single subject contribute no variance.
    """
    if len(groups) < 2:
        raise DataError("log-rank needs at least two groups")
    try:
        parsed = [vectors(times=t, events=e) for t, e in groups]
    except (TypeError, ValueError):
        raise DataError("each group must be a (times, events) pair") from None
    k = len(parsed)

    t_all = np.concatenate([t for t, _ in parsed])
    e_all = np.concatenate([e for _, e in parsed])
    event_times = np.unique(t_all[e_all])

    n_ij = np.empty((k, event_times.size))
    d_ij = np.zeros((k, event_times.size))
    for i, (ti, ei) in enumerate(parsed):
        n_ij[i] = ti.size - np.searchsorted(np.sort(ti), event_times, side="left")
        death_times, counts = np.unique(ti[ei], return_counts=True)
        d_ij[i, np.searchsorted(event_times, death_times)] = counts

    n_j = n_ij.sum(axis=0)
    d_j = d_ij.sum(axis=0)
    observed = d_ij.sum(axis=1)
    expected = (n_ij * (d_j / n_j)).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(n_j > 1, d_j * (n_j - d_j) / (n_j - 1.0), 0.0)
    p = n_ij / n_j
    cov = np.diag((scale * p).sum(axis=1)) - (scale * p) @ p.T

    diff = (observed - expected)[: k - 1]
    v = cov[: k - 1, : k - 1]
    if not np.any(diff):
        chi = 0.0
    else:
        try:
            chi = float(diff @ np.linalg.solve(v, diff))
        except np.linalg.LinAlgError:
            chi = float(diff @ np.linalg.pinv(v) @ diff)
    dof = k - 1
    return LogRankResult(chi, dof, chi2_sf(chi, dof))


def curve_to_csv(curve: SurvivalCurve) -> str:
    """Render a curve as ``time,survival,ci_low,ci_high,at_risk,events``."""
    out = io.StringIO()
    out.write("time,survival,ci_low,ci_high,at_risk,events\n")
    for i, u in enumerate(curve.times):
        est = km_estimate_at(curve, float(u))
        out.write(
            f"{float(u)!r},{float(curve.survival[i])!r},{est.ci_low!r},"
            f"{est.ci_high!r},{int(curve.at_risk[i])},{int(curve.events[i])}\n"
        )
    return out.getvalue()
