"""Cox proportional hazards regression.

Covers design construction from cohort columns (indicator expansion for
categoricals, per-unit scaling for continuous terms, threshold splits),
maximum partial likelihood fitting with Efron or Breslow tie handling,
Wald inference, univariate screening with block likelihood-ratio tests
for categoricals, biomarker fits adjusted for screened covariates, and
AIC comparison across models on an identical row set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._inputs import positive, vectors
from ._stats import Z95, chi2_sf, norm_sf
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


@dataclass(frozen=True)
class Covariate:
    """Declaration of one model term.

    kind "continuous" uses the field value divided by ``per`` (so
    ``per=10`` reports a hazard ratio per decade of age and ``per=0.1``
    per 0.1 of a scaled risk score). kind "categorical" expands the
    field into indicator columns against ``reference``. kind
    "threshold" produces a single 0/1 indicator for value ``op``
    ``threshold``. The derived field "fad" is predicted_age minus
    chrono_age, in years.
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
    partially observed fields. ``spans`` maps each input covariate to
    its half-open column range.
    """

    names: tuple[str, ...]
    matrix: np.ndarray
    included: np.ndarray
    spans: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class CoxRow:
    name: str
    beta: float
    se: float
    hr: float
    ci_low: float
    ci_high: float
    p: float


@dataclass(frozen=True)
class CoxFit:
    names: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    covariance: np.ndarray
    log_pl: float
    log_pl_null: float
    hr: np.ndarray
    ci95: np.ndarray
    wald_z: np.ndarray
    wald_p: np.ndarray
    aic: float
    n_used: int
    n_events: int
    ties_method: str
    converged: bool
    iterations: int
    flags: tuple[str, ...]
    row_fingerprint: str

    def row(self, name: str) -> CoxRow:
        try:
            i = self.names.index(name)
        except ValueError:
            raise KeyError(f"no covariate named {name!r}; have {self.names}") from None
        return CoxRow(
            name,
            float(self.beta[i]),
            float(self.se[i]),
            float(self.hr[i]),
            float(self.ci95[i, 0]),
            float(self.ci95[i, 1]),
            float(self.wald_p[i]),
        )

    def rows(self) -> tuple[CoxRow, ...]:
        return tuple(self.row(name) for name in self.names)


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
    """The field's column, NaN where missing; "fad" is predicted minus chrono age."""
    if name == "fad":
        return cohort.predicted_age - cohort.chrono_age
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
    spans: list[tuple[int, int]] = []

    for cov in covariates:
        start = len(columns)
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
        spans.append((start, len(columns)))

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
    return DesignMatrix(tuple(names), matrix, included, tuple(spans))


class _SortedFitData:
    """Per-fit arrangement shared by repeated likelihood evaluations."""

    def __init__(self, X: np.ndarray, times: np.ndarray, events: np.ndarray):
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
        group_of_death = np.repeat(np.arange(uniq.size), counts)
        within = np.arange(death_times.size) - first[group_of_death]
        self.efron_frac = within / counts[group_of_death]
        self.group_of_death = group_of_death
        self.x_death_total = self.X[self.e].sum(axis=0)

    def derivatives(self, beta: np.ndarray, ties: str):
        """Log partial likelihood with its analytic gradient and Hessian;
        -inf with zero derivatives when a denominator is not positive.

        The Hessian needs, for each death, the risk set's sum of
        phi x x' less the death's Efron share of its tie group's. Summed
        over deaths with weight 1 / denom, that is one weighted sum over
        rows: each row's phi x x' weighted by 1 / denom summed over the
        deaths whose risk set holds it, less its tie group's Efron
        weights when it is a death. So no per-row or per-time k x k
        array is formed.
        """
        eta = self.X @ beta
        shift = float(np.max(eta))
        phi = np.exp(eta - shift)
        risk_phi = np.cumsum(phi[::-1])[::-1]
        tie_phi = np.add.reduceat(phi[self.e], self.group_first)
        g = self.group_of_death
        frac = self.efron_frac if ties == "efron" else np.zeros_like(self.efron_frac)
        denom = risk_phi[self.risk_start][g] - frac * tie_phi[g]
        if np.any(denom <= 0):
            return -np.inf, np.zeros(self.k), np.zeros((self.k, self.k))
        ll = float(np.sum(eta[self.e]) - np.sum(np.log(denom)) - g.size * shift)

        phi_x = phi[:, None] * self.X
        risk_phi_x = np.cumsum(phi_x[::-1], axis=0)[::-1]
        tie_phi_x = np.add.reduceat(phi_x[self.e], self.group_first, axis=0)
        num = risk_phi_x[self.risk_start][g] - frac[:, None] * tie_phi_x[g]

        inv = 1.0 / denom
        score = self.x_death_total - np.einsum("e,ei->i", inv, num)
        ratio = num * inv[:, None]

        entering = np.zeros(self.n)  # a tie group's 1 / denom, from its risk set's first row
        entering[self.risk_start] = np.bincount(g, inv)
        weight = phi * np.cumsum(entering)
        weight[self.e] -= phi[self.e] * np.bincount(g, frac * inv)[g]
        second = np.einsum("ia,ib->ab", self.X * weight[:, None], self.X)
        hess = -(second - np.einsum("ei,ej->ij", ratio, ratio))
        return ll, score, hess


def partial_likelihood(X, times, events, beta, ties: str = "efron"):
    """Evaluate the log partial likelihood and its derivatives.

    Arrays are taken as-is (no exclusion masking). Returns the tuple
    (log_pl, score, hessian) under the requested tie correction.
    """
    if ties not in ("efron", "breslow"):
        raise DataError(f"unknown ties method {ties!r}")
    t, e = vectors(times=times, events=events)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != t.size:
        X = X.T
    if X.ndim != 2 or X.shape[0] != t.size:
        raise DataError(f"X must hold one row per time, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("X holds non-finite values")
    return _SortedFitData(X, t, e).derivatives(np.asarray(beta, dtype=float), ties)


def _fingerprint(included: np.ndarray, times: np.ndarray, events: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(included.tobytes())
    h.update(times.tobytes())
    h.update(events.tobytes())
    return h.hexdigest()


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
    """
    if ties not in ("efron", "breslow"):
        raise DataError(f"unknown ties method {ties!r}")
    times, events = vectors(times=times, events=events)
    if times.size != design.matrix.shape[0]:
        raise DataError("times/events do not align with the design matrix rows")
    mask = design.included
    X = design.matrix[mask]
    if not np.isfinite(X).all():
        raise DataError("design matrix holds non-finite values on included rows")
    data = _SortedFitData(X, times[mask], events[mask])

    beta = np.zeros(data.k)
    ll, grad, hess = data.derivatives(beta, ties)
    ll_null = ll
    flags: list[str] = []
    converged = float(np.max(np.abs(grad), initial=0.0)) < GRAD_TOL
    iterations = 0

    while not converged and iterations < MAX_ITER:
        iterations += 1
        try:
            delta = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                "singular information matrix",
                condition_number=float(np.linalg.cond(-hess)),
            ) from None
        with np.errstate(over="ignore", invalid="ignore"):
            step = data.derivatives(beta + delta, ties)
            halvings = 0
            while step[0] < ll - LL_ROUNDING * abs(ll) and halvings < 40:
                delta = delta / 2.0
                step = data.derivatives(beta + delta, ties)
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
        converged = (
            float(np.max(np.abs(grad), initial=0.0)) < GRAD_TOL
            or abs(ll - prev_ll) <= REL_LL_TOL * max(1.0, abs(prev_ll))
        )

    try:
        covariance = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        raise SingularDesignError(
            "information matrix not invertible at the solution",
            condition_number=float(np.linalg.cond(-hess)),
        ) from None
    se = np.sqrt(np.clip(np.diag(covariance), 0.0, None))

    with np.errstate(over="ignore"):
        hr = np.exp(beta)
        ci95 = np.column_stack((np.exp(beta - Z95 * se), np.exp(beta + Z95 * se)))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.nan)
    p = np.array([2.0 * norm_sf(v) for v in np.abs(z)])
    if "separation" in flags:
        runaway = np.abs(beta) >= SEPARATION_BOUND
        hr = np.where(runaway & (beta > 0), np.inf, hr)
        hr = np.where(runaway & (beta < 0), 0.0, hr)

    return CoxFit(
        names=design.names,
        beta=beta,
        se=se,
        covariance=covariance,
        log_pl=float(ll),
        log_pl_null=float(ll_null),
        hr=hr,
        ci95=ci95,
        wald_z=z,
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
            fit = fit_adjusted(cohort, cov, ties=ties)
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


def fit_adjusted(
    cohort: Cohort,
    biomarker: Covariate,
    adjustments: Sequence[Covariate] = (),
    ties: str = "efron",
) -> CoxFit:
    """Fit the biomarker together with adjustment covariates.

    The biomarker is the first design term, so the fit's first columns
    are its univariate fit's columns (categorical levels come from every
    row). With no adjustments this is the univariate biomarker fit.
    """
    design = build_design(cohort, [biomarker, *adjustments])
    return fit_cox(design, cohort.times(), cohort.events(), ties)


def compare_aic(fits: Sequence[CoxFit], labels: Sequence[str] | None = None) -> tuple[AicEntry, ...]:
    """Rank fits by AIC, ascending. All fits must share one row set.

    The row-set fingerprint (hash of inclusion mask plus times and
    event flags) must agree across fits, since AIC values computed on
    different subjects are not comparable.
    """
    if not fits:
        raise DataError("no fits to compare")
    if labels is None:
        labels = [f"model{i}" for i in range(len(fits))]
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
    return {
        "covariates": [
            {
                "name": row.name,
                "beta": row.beta,
                "se": row.se,
                "hr": row.hr,
                "ci95": [row.ci_low, row.ci_high],
                "p": row.p,
            }
            for row in fit.rows()
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
