"""Cox proportional hazards regression.

Covers design construction from cohort columns (indicator expansion for
categoricals, per-unit scaling for continuous terms, threshold splits),
maximum partial likelihood fitting with Efron or Breslow tie handling,
Wald inference, univariate screening with block likelihood-ratio tests
for categoricals, and AIC comparison across models on an identical row
set.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._inputs import positive, vectors
from ._stats import Z95, chi2_sf, norm_sf
from .biomarkers import compute_fad
from .cohort import CATEGORY_FIELDS, Cohort
from .errors import AnalysisError, DataError, SingularDesignError, VisageError

CONTINUOUS_FIELDS = ("chrono_age", "predicted_age", "risk_raw", "risk_scaled", "fad")

MAX_ITER = 100
GRAD_TOL = 1e-8
REL_LL_TOL = 1e-9
# A step that lowers the log-likelihood by at most LL_ROUNDING * |ll| is
# taken whole: a drop that small is the rounding of a sum of n logs
# (thousands of ulps at n = 1e5), not a worse point. Being far below
# REL_LL_TOL, such a step also ends the iteration.
LL_ROUNDING = 1e-12
SEPARATION_BOUND = 50.0
PIVOT_TOL = 2.0**-39  # eps ** 0.75, R coxph's toler.chol; see _identified_inverse


@dataclass(frozen=True)
class Covariate:
    """Declaration of one model term.

    kind "continuous" uses the field value divided by ``per`` (so
    ``per=10`` reports a hazard ratio per decade of age and ``per=0.1``
    per 0.1 of a scaled risk score). kind "categorical" expands the
    field into indicator columns against ``reference``. kind
    "threshold" produces a single 0/1 indicator for value ``op``
    ``threshold``. The derived field "fad" is the face age difference
    of :func:`visage.biomarkers.compute_fad`.
    """

    field: str
    kind: str = "continuous"
    per: float = 1.0
    reference: str | None = None
    threshold: float | None = None
    op: str = ">="

    def base_name(self) -> str:
        if self.kind == "threshold":
            return f"{self.field}{self.op}{self.threshold:g}"
        if self.kind == "continuous" and self.per != 1.0:
            return f"{self.field}_per_{self.per:g}"
        return self.field


@dataclass(frozen=True)
class DesignMatrix:
    """Expanded model matrix aligned to the cohort's row order.

    ``matrix`` has one row per cohort subject (zeros on excluded rows)
    and ``included`` flags the rows that enter the fit: a row is
    excluded when any declared covariate is unknown or missing for it,
    which reproduces the per-model subject counts of a table built from
    partially observed fields.
    """

    names: tuple[str, ...]
    matrix: np.ndarray
    included: np.ndarray


@dataclass(frozen=True)
class CoxFit:
    names: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    log_pl: float
    log_pl_null: float
    hr: np.ndarray
    ci95: np.ndarray
    wald_p: np.ndarray
    aic: float
    n_used: int
    n_events: int
    ties_method: str
    converged: bool
    iterations: int
    flags: tuple[str, ...]
    row_fingerprint: str


@dataclass(frozen=True)
class ScreenEntry:
    covariate: Covariate
    p: float
    retained: bool
    error: str | None = None


@dataclass(frozen=True)
class ScreenResult:
    retained: tuple[Covariate, ...]
    entries: tuple[ScreenEntry, ...]


@dataclass(frozen=True)
class AicEntry:
    label: str
    aic: float
    delta: float


def _continuous_values(cohort: Cohort, name: str) -> np.ndarray:
    """The field's column, NaN where missing; "fad" is :func:`compute_fad`'s."""
    if name == "fad":
        return compute_fad(cohort.predicted_age, cohort.chrono_age).values
    if name not in CONTINUOUS_FIELDS:
        raise DataError(f"unknown continuous field {name!r}")
    return getattr(cohort, name)


def build_design(cohort: Cohort, covariates: Sequence[Covariate]) -> DesignMatrix:
    """Expand covariate declarations into a model matrix.

    Raises DataError for an unknown field, a categorical reference
    level absent from the data, or a column constant across the
    included rows (including indicators emptied by exclusions). An
    empty covariate list yields a zero-column design (null model).
    """
    n = len(cohort)
    included = np.ones(n, dtype=bool)
    columns: list[np.ndarray] = []
    names: list[str] = []

    for cov in covariates:
        if cov.kind == "continuous":
            positive(f"{cov.field}: per", cov.per)
            vals = _continuous_values(cohort, cov.field)
            included &= np.isfinite(vals)
            columns.append(vals / cov.per)
            names.append(cov.base_name())
        elif cov.kind == "threshold":
            if cov.threshold is None or cov.op not in (">=", "<="):
                raise DataError(f"{cov.field}: threshold kind needs threshold and op >=/<=")
            vals = _continuous_values(cohort, cov.field)
            hit = vals >= cov.threshold if cov.op == ">=" else vals <= cov.threshold
            included &= np.isfinite(vals)
            columns.append(hit.astype(float))
            names.append(cov.base_name())
        elif cov.kind == "categorical":
            if cov.field not in CATEGORY_FIELDS:
                raise DataError(f"unknown categorical field {cov.field!r}")
            values = getattr(cohort, cov.field)
            levels = sorted(set(values) - {"unknown"})
            if cov.reference is None:
                raise DataError(f"{cov.field}: categorical covariate needs a reference level")
            if cov.reference not in levels:
                raise DataError(
                    f"{cov.field}: reference level {cov.reference!r} absent from data"
                )
            included &= values != "unknown"
            for level in levels:
                if level == cov.reference:
                    continue
                columns.append((values == level).astype(float))
                names.append(f"{cov.base_name()}={level}")
        else:
            raise DataError(f"unknown covariate kind {cov.kind!r}")

    matrix = np.column_stack(columns) if columns else np.zeros((n, 0))
    matrix[~included] = 0.0
    if not included.any():
        raise DataError("every row excluded by unknown or missing covariate values")
    for j, name in enumerate(names):
        col = matrix[included, j]
        if np.all(col == col[0]):
            raise DataError(f"column {name!r} is constant across included rows")
    matrix.flags.writeable = False
    included.flags.writeable = False
    return DesignMatrix(tuple(names), matrix, included)


class _SortedFitData:
    """Per-fit arrangement and ties method shared by repeated likelihood evaluations."""

    def __init__(self, X: np.ndarray, times: np.ndarray, events: np.ndarray, ties: str):
        if ties not in ("efron", "breslow"):
            raise DataError(f"unknown ties method {ties!r}")
        order = np.argsort(times, kind="stable")
        self.X = np.ascontiguousarray(X[order])
        self.t = times[order]
        self.e = events[order]
        self.n, self.k = self.X.shape
        if not self.e.any():
            raise AnalysisError("no events among included rows")

        death_times = self.t[self.e]
        uniq, first, counts = np.unique(death_times, return_index=True, return_counts=True)
        self.group_first = first                      # first death row per tie group
        self.risk_start = np.searchsorted(self.t, uniq, side="left")
        self.group_of_death = group_of_death = np.repeat(np.arange(uniq.size), counts)
        # The share of its tie group's phi that leaves each death's risk set:
        # Efron's l / d for the l-th of d tied deaths, none for Breslow.
        within = np.arange(death_times.size) - first[group_of_death]
        efron = within / counts[group_of_death]
        self.tie_frac = efron if ties == "efron" else np.zeros_like(efron)
        self.x_death_total = self.X[self.e].sum(axis=0)

    def _risk_less_ties(self, values: np.ndarray) -> np.ndarray:
        """Each death's risk-set sum of ``values`` (rows in time order) less its tie share."""
        g = self.group_of_death
        risk = np.cumsum(values[::-1], axis=0)[::-1][self.risk_start][g]
        tie = np.add.reduceat(values[self.e], self.group_first, axis=0)[g]
        frac = self.tie_frac if values.ndim == 1 else self.tie_frac[:, None]
        # In place: both are fresh copies from their fancy indexing.
        tie *= frac
        risk -= tie
        return risk

    def derivatives(self, beta: np.ndarray):
        """Log partial likelihood with its analytic gradient and Hessian;
        -inf with zero derivatives when a denominator is not positive.

        The Hessian needs, for each death, the risk set's sum of phi x x'
        less the death's tie share of its group's. Summed over deaths with
        weight 1 / denom, that is one weighted sum over rows: each row's
        phi x x' weighted by 1 / denom summed over the deaths whose risk
        set holds it, less its tie group's shares when it is a death. So
        no per-row or per-time k x k array is formed.
        """
        eta = self.X @ beta
        shift = float(np.max(eta))
        phi = np.exp(eta - shift)
        g = self.group_of_death
        denom = self._risk_less_ties(phi)
        if np.any(denom <= 0):
            return -np.inf, np.zeros(self.k), np.zeros((self.k, self.k))
        ll = float(np.sum(eta[self.e]) - np.sum(np.log(denom)) - g.size * shift)
        num = self._risk_less_ties(phi[:, None] * self.X)

        inv = 1.0 / denom
        score = self.x_death_total - np.einsum("e,ei->i", inv, num)
        ratio = num  # scaled in place: num is not read again
        ratio *= inv[:, None]

        entering = np.zeros(self.n)  # a tie group's 1 / denom, from its risk set's first row
        entering[self.risk_start] = np.bincount(g, inv)
        weight = phi * np.cumsum(entering)
        weight[self.e] -= phi[self.e] * np.bincount(g, self.tie_frac * inv)[g]
        second = np.einsum("ia,ib->ab", self.X * weight[:, None], self.X)
        hess = -(second - np.einsum("ei,ej->ij", ratio, ratio))
        return ll, score, hess


def partial_likelihood(X, times, events, beta, ties: str = "efron"):
    """Evaluate the log partial likelihood and its derivatives.

    ``X`` is (n,) or (n, k) for n times; a 1-d ``X`` is one column, and
    ``beta`` is a finite 1-d array of length k. Arrays are taken as-is
    (no exclusion masking). Returns the tuple (log_pl, score, hessian)
    under the requested tie correction.
    """
    t, e = vectors(times=times, events=events)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] != t.size:
        raise DataError(f"X must hold one row per time, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("X holds non-finite values")
    try:
        b = np.asarray(beta, dtype=float)
    except (TypeError, ValueError):
        raise DataError("beta must be numeric") from None
    if b.shape != (X.shape[1],):
        raise DataError(f"beta must be a 1-d array of length {X.shape[1]}, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise DataError("beta holds non-finite values")
    return _SortedFitData(X, t, e, ties).derivatives(b)


def _fingerprint(included: np.ndarray, times: np.ndarray, events: np.ndarray) -> str:
    """The CRC-32 of the inclusion mask, of the times and of the event
    flags, as 24 hex digits. A checksum, not a cryptographic digest: it
    tells apart row sets that differ by accident, and zlib, unlike a
    SHA-256, keeps OpenSSL (3.4 MB resident) out of a fit's memory."""
    return "".join(f"{zlib.crc32(a.tobytes()):08x}" for a in (included, times, events))


def _with_information(op, hess: np.ndarray, message: str, *args) -> np.ndarray:
    """``op(-hess, *args)``; a singular information matrix ``-hess`` raises
    SingularDesignError with ``message`` and its condition number."""
    try:
        return op(-hess, *args)
    except np.linalg.LinAlgError:
        raise SingularDesignError(message, condition_number=float(np.linalg.cond(-hess))) from None


def _identified_inverse(information: np.ndarray) -> np.ndarray:
    """The inverse of ``information``; LinAlgError unless the pivots of
    its Cholesky factor scaled to unit diagonal exceed ``PIVOT_TOL`` and
    the inverse's diagonal is positive. A Cox model has no intercept, so
    two indicators of one binary field leave the information singular,
    and rounding can still let it factor and invert, with a huge, zero or
    negative variance."""
    diagonal = np.diag(information)
    if (diagonal > 0).all():
        unit = np.linalg.cholesky(information / np.sqrt(np.outer(diagonal, diagonal)))
        if (np.diag(unit) ** 2 > PIVOT_TOL).all():
            covariance = np.linalg.inv(information)
            if (np.diag(covariance) > 0).all():
                return covariance
    raise np.linalg.LinAlgError


def fit_cox(design: DesignMatrix, times, events, ties: str = "efron") -> CoxFit:
    """Maximize the partial likelihood by Newton-Raphson.

    Convergence requires the max absolute score below 1e-8 or a
    relative log-likelihood change below 1e-9; steps are halved until
    the log likelihood does not decrease by more than its rounding
    (``LL_ROUNDING`` relative), keeping the ascent monotone.
    A coefficient walking past +/-50 is reported as separation with an
    unbounded hazard ratio; a step whose derivatives overflow is
    reported as separation too, and the fit stops before it. Hitting
    the 100-iteration cap reports converged=False rather than raising.
    A design that cannot be identified (two indicators summing to 1, say)
    raises SingularDesignError.
    """
    times, events = vectors(times=times, events=events)
    if times.size != design.matrix.shape[0]:
        raise DataError("times/events do not align with the design matrix rows")
    mask = design.included
    X = design.matrix[mask]
    if not np.isfinite(X).all():
        raise DataError("design matrix holds non-finite values on included rows")
    data = _SortedFitData(X, times[mask], events[mask], ties)
    del X  # data holds its own copy, sorted by time

    beta = np.zeros(data.k)
    ll, grad, hess = data.derivatives(beta)
    ll_null = ll
    flags: list[str] = []
    ll_settled = False
    iterations = 0

    while True:
        converged = ll_settled or float(np.max(np.abs(grad), initial=0.0)) < GRAD_TOL
        if converged or iterations == MAX_ITER:
            break
        iterations += 1
        delta = _with_information(np.linalg.solve, hess, "singular information matrix", grad)
        with np.errstate(over="ignore", invalid="ignore"):
            step = data.derivatives(beta + delta)
            halvings = 0
            while step[0] < ll - LL_ROUNDING * abs(ll) and halvings < 40:
                delta = delta / 2.0
                step = data.derivatives(beta + delta)
                halvings += 1
        if not all(np.isfinite(a).all() for a in step):  # exp left float range
            flags.append("separation")
            break
        prev_ll = ll
        beta = beta + delta
        ll, grad, hess = step
        if float(np.max(np.abs(beta))) > SEPARATION_BOUND:
            flags.append("separation")
            break
        ll_settled = abs(ll - prev_ll) <= REL_LL_TOL * max(1.0, abs(prev_ll))

    covariance = _with_information(
        _identified_inverse, hess, "information matrix not positive definite at the solution"
    )
    se = np.sqrt(np.diag(covariance))

    with np.errstate(over="ignore"):
        hr = np.exp(beta)
        ci95 = np.column_stack((np.exp(beta - Z95 * se), np.exp(beta + Z95 * se)))
    p = np.array([2.0 * norm_sf(v) for v in np.abs(beta / se)])
    if "separation" in flags:
        runaway = np.abs(beta) >= SEPARATION_BOUND
        hr = np.where(runaway & (beta > 0), np.inf, hr)
        hr = np.where(runaway & (beta < 0), 0.0, hr)

    return CoxFit(
        names=design.names,
        beta=beta,
        se=se,
        log_pl=float(ll),
        log_pl_null=float(ll_null),
        hr=hr,
        ci95=ci95,
        wald_p=p,
        aic=float(-2.0 * ll + 2.0 * data.k),
        n_used=int(mask.sum()),
        n_events=int(data.e.sum()),
        ties_method=ties,
        converged=bool(converged),
        iterations=iterations,
        flags=tuple(flags),
        row_fingerprint=_fingerprint(mask, times, events),
    )


def univariate_screen(
    cohort: Cohort,
    candidates: Sequence[Covariate],
    alpha: float = 0.05,
    ties: str = "efron",
) -> ScreenResult:
    """Keep candidates whose single-covariate fit is significant.

    Continuous and threshold terms are judged by their Wald p-value;
    a categorical term is judged as a block by the likelihood-ratio
    test against the null model, on its own exclusion-adjusted rows.
    Candidates whose fit fails are recorded with the error and skipped.
    Input order is preserved in ``retained``. ``alpha`` must lie in (0, 1).
    """
    positive("alpha", alpha, below=1.0)
    entries: list[ScreenEntry] = []
    retained: list[Covariate] = []
    for cov in candidates:
        try:
            fit = fit_cox(build_design(cohort, [cov]), cohort.time, cohort.event, ties)
            if cov.kind == "categorical":
                lr = 2.0 * (fit.log_pl - fit.log_pl_null)
                p = chi2_sf(max(lr, 0.0), len(fit.names))
            else:
                p = float(fit.wald_p[0])
        except VisageError as err:
            entries.append(ScreenEntry(cov, float("nan"), False, error=str(err)))
            continue
        keep = p < alpha
        entries.append(ScreenEntry(cov, p, keep))
        if keep:
            retained.append(cov)
    return ScreenResult(tuple(retained), tuple(entries))


def compare_aic(fits: Sequence[CoxFit], labels: Sequence[str]) -> tuple[AicEntry, ...]:
    """Rank fits by AIC, ascending. All fits must share one row set.

    The row-set fingerprint (checksums of the inclusion mask, the times
    and the event flags) must agree across fits, since AIC values computed on
    different subjects are not comparable.
    """
    if not fits:
        raise DataError("no fits to compare")
    if len(labels) != len(fits):
        raise DataError("labels do not align with fits")
    prints = {fit.row_fingerprint for fit in fits}
    if len(prints) > 1:
        raise DataError("fits were computed on different row sets; AIC not comparable")
    best = min(fit.aic for fit in fits)
    entries = [
        AicEntry(label, fit.aic, fit.aic - best) for label, fit in zip(labels, fits)
    ]
    entries.sort(key=lambda entry: entry.aic)
    return tuple(entries)


def fit_to_dict(fit: CoxFit) -> dict:
    """JSON-ready summary carrying everything a results table needs."""
    columns = zip(
        fit.names, fit.beta.tolist(), fit.se.tolist(), fit.hr.tolist(),
        fit.ci95.tolist(), fit.wald_p.tolist(),
    )
    return {
        "covariates": [
            {"name": name, "beta": beta, "se": se, "hr": hr, "ci95": ci95, "p": p}
            for name, beta, se, hr, ci95, p in columns
        ],
        "log_pl": fit.log_pl,
        "log_pl_null": fit.log_pl_null,
        "aic": fit.aic,
        "n_used": fit.n_used,
        "n_events": fit.n_events,
        "ties_method": fit.ties_method,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "flags": list(fit.flags),
        "row_fingerprint": fit.row_fingerprint,
    }
