"""Partial-likelihood fits against a grid-search oracle.

The oracle below is a direct loop translation of the partial
likelihood definition: for every death time, the deaths' linear
predictors minus the log of risk-set sums, with Efron's within-tie
downweighting written out term by term. It shares no code with the
module under test.
"""

from __future__ import annotations

import re
import time as time_mod
import tracemalloc

import numpy as np
import pytest

from visage._stats import Z95
from visage.cohort import Cohort
from visage import cox
from visage.cox import (
    Covariate,
    DesignMatrix,
    build_design,
    compare_aic,
    fit_cox,
    fit_to_dict,
    _SortedFitData,
    partial_likelihood,
    univariate_screen,
)
from visage.errors import AnalysisError, DataError, SingularDesignError
from visage.synth import SimCovariate, SimSpec, simulate
from tests.conftest import make_cohort, run_child


def oracle_log_pl(beta, x, times, events, ties):
    """Exact log partial likelihood, vectorized only over candidate
    betas (axis -1 of ``beta``)."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    x = np.asarray(x, dtype=float)
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    ll = np.zeros(beta.shape)
    for u in np.unique(t[e]):
        dead = (t == u) & e
        risk = t >= u
        d = int(dead.sum())
        ll += (x[dead, None] * beta).sum(axis=0)
        exp_risk = np.exp(x[risk, None] * beta).sum(axis=0)
        exp_dead = np.exp(x[dead, None] * beta).sum(axis=0)
        if ties == "breslow":
            ll -= d * np.log(exp_risk)
        else:
            for l in range(d):
                ll -= np.log(exp_risk - (l / d) * exp_dead)
    return ll


def grid_argmax(x, times, events, ties):
    grid = np.arange(-5.0, 5.0 + 1e-12, 1e-4)
    return grid[np.argmax(oracle_log_pl(grid, x, times, events, ties))]


# n=12 toy data with tied deaths (to separate Efron from Breslow),
# censoring, and a binary covariate.
TOY_X = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
TOY_T = np.array([1, 1, 2, 3, 3, 3, 5, 6, 7, 8, 9, 10], dtype=float)
TOY_E = np.array([1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1], dtype=bool)


def toy_cohort() -> Cohort:
    return make_cohort(TOY_T, TOY_E, risk_scaled=TOY_X)


class TestGridOracle:
    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_toy_beta_matches_grid(self, ties):
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        fit = fit_cox(design, TOY_T, TOY_E, ties)
        assert fit.converged
        target = grid_argmax(TOY_X, TOY_T, TOY_E, ties)
        assert abs(fit.beta[0] - target) < 1e-3

    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_efron_breslow_disagree_on_ties(self, ties):
        """Sanity on the oracle itself: with tied deaths the two
        corrections give different likelihood values."""
        ll_e = oracle_log_pl(0.5, TOY_X, TOY_T, TOY_E, "efron")[0]
        ll_b = oracle_log_pl(0.5, TOY_X, TOY_T, TOY_E, "breslow")[0]
        assert abs(ll_e - ll_b) > 1e-6

    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_loglik_values_match_oracle(self, ties):
        for beta in (-1.0, 0.0, 0.7):
            ll, _, _ = partial_likelihood(TOY_X, TOY_T, TOY_E, [beta], ties)
            np.testing.assert_allclose(
                ll, oracle_log_pl(beta, TOY_X, TOY_T, TOY_E, ties)[0], rtol=1e-12
            )

    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_random_instances_match_grid(self, ties):
        rng = np.random.default_rng(41)
        for _ in range(5):
            n = 15
            x = rng.integers(0, 2, n).astype(float)
            t = rng.integers(1, 8, n).astype(float)
            e = rng.random(n) < 0.75
            if e.sum() < 2 or len(set(x[e])) < 2:
                continue
            cohort = make_cohort(t, e, risk_scaled=x)
            design = build_design(cohort, [Covariate("risk_scaled")])
            fit = fit_cox(design, t, e, ties)
            if fit.flags:
                continue  # separation happens on small instances
            assert abs(fit.beta[0] - grid_argmax(x, t, e, ties)) < 1e-3


class TestDerivatives:
    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_score_matches_central_differences(self, ties):
        rng = np.random.default_rng(7)
        n, k = 40, 3
        X = rng.normal(size=(n, k))
        t = rng.integers(1, 20, n).astype(float)
        e = rng.random(n) < 0.7
        beta = np.array([0.3, -0.5, 0.1])
        _, score, _ = partial_likelihood(X, t, e, beta, ties)
        h = 1e-6
        fd = np.empty(k)
        for j in range(k):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            lp, _, _ = partial_likelihood(X, t, e, bp, ties)
            lm, _, _ = partial_likelihood(X, t, e, bm, ties)
            fd[j] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(score, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_hessian_matches_score_differences(self, ties):
        rng = np.random.default_rng(13)
        n, k = 40, 3
        X = rng.normal(size=(n, k))
        t = rng.integers(1, 20, n).astype(float)
        e = rng.random(n) < 0.7
        beta = np.array([0.2, 0.0, -0.4])
        _, _, hessian = partial_likelihood(X, t, e, beta, ties)
        h = 1e-5
        fd = np.empty((k, k))
        for j in range(k):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            _, sp, _ = partial_likelihood(X, t, e, bp, ties)
            _, sm, _ = partial_likelihood(X, t, e, bm, ties)
            fd[:, j] = (sp - sm) / (2 * h)
        np.testing.assert_allclose(hessian, fd, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_one_d_x_is_its_column(self, ties):
        """A 1-d X gives the bits of the same values as an (n, 1) column."""
        flat = partial_likelihood(TOY_X, TOY_T, TOY_E, [0.4], ties)
        column = partial_likelihood(TOY_X[:, None], TOY_T, TOY_E, [0.4], ties)
        assert flat[0] == column[0]
        for got, expect in zip(flat[1:], column[1:]):
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "beta, message",
        [([0.2, 0.1], r"length 1, got shape \(2,\)"), (0.2, r"length 1, got shape \(\)"),
         ([float("nan")], "non-finite"), (["a"], "numeric")],
        ids=["too_long", "scalar", "nan", "text"],
    )
    def test_bad_beta_rejected(self, beta, message):
        """``beta`` must be a finite 1-d array with one value per column
        of ``X``; otherwise DataError names it, rather than a numpy
        error escaping or the derivatives coming back NaN."""
        X = np.array([[0.5], [1.0], [-0.3]])
        with pytest.raises(DataError, match=rf"^beta\b.*{message}"):
            partial_likelihood(X, [1.0, 2.0, 3.0], [1, 0, 1], beta)

    def test_unknown_ties_rejected(self):
        """Both entry points reject an unknown ties method with the same
        DataError, raised where the fit data is arranged."""
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        with pytest.raises(DataError, match=r"^unknown ties method 'exact'$"):
            partial_likelihood(TOY_X, TOY_T, TOY_E, [0.4], "exact")
        with pytest.raises(DataError, match=r"^unknown ties method 'exact'$"):
            fit_cox(design, TOY_T, TOY_E, "exact")


def nkk_derivatives(data, beta):
    """The derivatives as computed before the weighted row sum: the n x k x k
    array of phi x x' and its reversed cumulative sum over all rows."""
    eta = data.X @ beta
    shift = float(np.max(eta))
    phi = np.exp(eta - shift)
    phi_d = phi[data.e]
    phi_x = phi[:, None] * data.X
    phi_xx = phi_x[:, :, None] * data.X[:, None, :]

    risk_phi = np.cumsum(phi[::-1])[::-1]
    risk_phi_x = np.cumsum(phi_x[::-1], axis=0)[::-1]
    risk_phi_xx = np.cumsum(phi_xx[::-1], axis=0)[::-1]

    tie_phi = np.add.reduceat(phi_d, data.group_first)
    tie_phi_x = np.add.reduceat(phi_x[data.e], data.group_first, axis=0)
    tie_phi_xx = np.add.reduceat(phi_xx[data.e], data.group_first, axis=0)

    g = data.group_of_death
    frac = data.tie_frac
    denom = risk_phi[data.risk_start][g] - frac * tie_phi[g]
    if np.any(denom <= 0):
        return -np.inf, np.zeros(data.k), np.zeros((data.k, data.k))
    num = risk_phi_x[data.risk_start][g] - frac[:, None] * tie_phi_x[g]
    quad = risk_phi_xx[data.risk_start][g] - frac[:, None, None] * tie_phi_xx[g]

    inv = 1.0 / denom
    ll = float(np.sum(eta[data.e]) - np.sum(np.log(denom)) - g.size * shift)
    score = data.x_death_total - np.einsum("e,ei->i", inv, num)
    ratio = num * inv[:, None]
    hess = -(np.einsum("e,eij->ij", inv, quad) - np.einsum("ei,ej->ij", ratio, ratio))
    return ll, score, hess


class TestNkkOracle:
    """The weighted row sum against the n x k x k cumulative sums it replaced."""

    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    def test_matches_nkk_cumsum(self, k, tied, ties):
        rng = np.random.default_rng(100 * k + tied)
        n = 400
        X = rng.normal(size=(n, k))
        X[:, 0] = rng.random(n) < 0.4  # a 0/1 indicator column
        t = rng.integers(1, 60, n).astype(float) if tied else rng.exponential(100.0, n)
        e = rng.random(n) < 0.6
        beta = rng.normal(0.0, 0.3, k)
        data = _SortedFitData(X, t, e, ties)
        ll, score, hess = data.derivatives(beta)
        ll_old, score_old, hess_old = nkk_derivatives(data, beta)
        np.testing.assert_allclose(ll, ll_old, rtol=1e-12)
        np.testing.assert_allclose(score, score_old, rtol=1e-12)
        np.testing.assert_allclose(hess, hess_old, rtol=1e-12)


class TestMemory:
    def test_derivatives_peak_in_place(self):
        """One evaluation at n = 20k, k = 3 on day-rounded times: its
        traced peak stays below 3.9 n x k float matrices. Tie shares and
        ratios are updated in place; computed out of place they held 4.27
        matrices (2.05 MB), and in place 3.48 (1.67 MB)."""
        rng = np.random.default_rng(7)
        n, k = 20_000, 3
        X = rng.normal(size=(n, k))
        t = np.ceil(rng.exponential(300.0, n))
        e = rng.random(n) < 0.6
        data = _SortedFitData(X, t, e, "efron")
        beta = np.array([0.1, -0.2, 0.05])
        expected = nkk_derivatives(data, beta)
        tracemalloc.start()
        try:
            got = data.derivatives(beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.9 * n * k * 8
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12)


class TestFitBehavior:
    def test_consistency_single_seed(self):
        """Binary covariate with true log-HR 0.7; uniform(0, 1200)
        censoring removes roughly 30% of events."""
        rng = np.random.default_rng(2)
        n = 2000
        x = rng.integers(0, 2, n).astype(float)
        t_event = rng.exponential(1 / (0.002 * np.exp(0.7 * x)))
        c = rng.uniform(0, 1200, n)
        t = np.minimum(t_event, c)
        e = t_event <= c
        cohort = make_cohort(t, e, risk_scaled=x)
        design = build_design(cohort, [Covariate("risk_scaled")])
        fit = fit_cox(design, t, e)
        assert 0.25 < 1 - e.mean() < 0.35
        assert abs(fit.beta[0] - 0.7) < 0.1

    def test_null_loglik_is_beta_zero(self):
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        fit = fit_cox(design, TOY_T, TOY_E)
        ll0, _, _ = partial_likelihood(TOY_X, TOY_T, TOY_E, [0.0], "efron")
        np.testing.assert_allclose(fit.log_pl_null, ll0, rtol=1e-12)
        assert fit.log_pl >= fit.log_pl_null

    def test_wald_and_interval_shape(self):
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        fit = fit_cox(design, TOY_T, TOY_E)
        assert fit.names == ("risk_scaled",)
        (ci_low, ci_high), hr, beta = fit.ci95[0], fit.hr[0], fit.beta[0]
        assert ci_low < hr < ci_high
        np.testing.assert_allclose(hr, np.exp(beta), rtol=1e-12)
        np.testing.assert_allclose(ci_low, np.exp(beta - Z95 * fit.se[0]), rtol=1e-12)
        assert 0.0 <= fit.wald_p[0] <= 1.0

    def test_aic_formula(self):
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        fit = fit_cox(design, TOY_T, TOY_E)
        np.testing.assert_allclose(fit.aic, -2 * fit.log_pl + 2, rtol=1e-12)

    def test_separation_flagged(self):
        """Perfectly separating covariate on a small scale (0 vs 0.1):
        the coefficient drifts toward +inf and crosses the detection
        bound before the likelihood plateau can satisfy the tolerances."""
        t = np.array([1, 2, 3, 10, 11, 12], dtype=float)
        e = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
        x = np.array([0.1, 0.1, 0.1, 0.0, 0.0, 0.0])
        cohort = make_cohort(t, e, risk_scaled=x)
        design = build_design(cohort, [Covariate("risk_scaled")])
        fit = fit_cox(design, t, e)
        assert "separation" in fit.flags
        assert np.isinf(fit.hr[0])

    def test_plateaued_separation_still_converges(self):
        """The same geometry at unit scale stalls on the likelihood
        plateau inside the detection bound; the fit reports convergence
        with a finite, huge hazard ratio rather than a flag."""
        t = np.array([1, 2, 3, 10, 11, 12], dtype=float)
        e = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
        x = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        cohort = make_cohort(t, e, risk_scaled=x)
        design = build_design(cohort, [Covariate("risk_scaled")])
        fit = fit_cox(design, t, e)
        assert fit.converged
        assert fit.beta[0] > 5.0

    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    def test_separation_on_a_wide_scale_stops_at_its_last_finite_point(self, ties):
        """Every death has the largest x in its risk set and x spans 20
        units, so exp of the linear predictor leaves the float range near
        beta = 35, before beta reaches SEPARATION_BOUND. The fit stops at
        the last point whose derivatives are finite and flags separation."""
        x = np.array([-11.5, -1.8, -5.8, -11.9, -3.7, 8.8])
        t = np.array([5, 2, 4, 6, 3, 1], dtype=float)
        e = np.array([1, 1, 0, 0, 0, 1], dtype=bool)
        design = build_design(make_cohort(t, e, predicted_age=60.0 + x), [Covariate("fad")])
        fit = fit_cox(design, t, e, ties)
        assert fit.flags == ("separation",)
        assert not fit.converged
        assert np.isfinite(fit.beta).all() and np.isfinite(fit.se).all()
        assert 30.0 < fit.beta[0] < cox.SEPARATION_BOUND
        ll, _, hess = partial_likelihood(design.matrix, t, e, fit.beta, ties)
        assert ll == fit.log_pl
        np.testing.assert_allclose(fit.se[0], np.sqrt(-1.0 / hess[0, 0]), rtol=1e-12)

    def test_halved_step_then_converges(self, monkeypatch):
        """The first Newton step from beta = 0 overshoots on this design and
        is halved once; the fit still reaches the optimum."""
        X = np.array([
            [0.8, 0.5, 1.0, 1.7, 1.0, -2.6, 0.5, 0.2, 4.2, 1.8, -2.3, -1.7, 0.7, -0.6],
            [0.4, -0.6, 0.3, 0.9, 1.3, 0.1, -0.2, 1.1, -6.0, -0.1, 0.7, 0.2, -1.2, 1.0],
        ]).T
        t = np.array([2, 4, 4, 2, 5, 1, 4, 5, 1, 1, 8, 2, 7, 5], dtype=float)
        e = np.array([0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0], dtype=bool)
        points = []
        derivatives = cox._SortedFitData.derivatives

        def counting(data, beta):
            points.append(beta)
            return derivatives(data, beta)

        monkeypatch.setattr(cox._SortedFitData, "derivatives", counting)
        fit = fit_cox(DesignMatrix(("a", "b"), X, np.ones(14, dtype=bool)), t, e, "efron")
        # Each point is evaluated once: beta = 0, one trial point per
        # iteration, and one more for the halving.
        assert len(points) == 1 + fit.iterations + 1
        assert fit.converged and fit.flags == ()
        _, score, _ = partial_likelihood(X, t, e, fit.beta, "efron")
        assert np.max(np.abs(score)) < 1e-6

    def test_fit_reaches_the_newton_point(self):
        """On this cohort the third Newton step lowers the log-likelihood
        by a few ulps of rounding; halving it (the old absolute 1e-13
        rule) left beta 1e-8 relative short of the optimum. The
        returned beta must be a fixed point of one more Newton step."""
        spec = SimSpec(
            n=300,
            beta_true=(0.05, 0.3, 0.02),
            censor_model=("uniform", 1500.0),
            covariate_model=(
                SimCovariate("fad", ("normal", 0.0, 6.0)),
                SimCovariate("sex", ("bernoulli", 0.5)),
                SimCovariate("chrono_age", ("uniform", 40.0, 80.0)),
            ),
            seed=3,
        )
        cohort = simulate(spec).cohort
        design = build_design(cohort, [Covariate("fad", per=10.0)])
        fit = fit_cox(design, cohort.times(), cohort.events())
        mask = design.included
        _, score, hess = partial_likelihood(
            design.matrix[mask], cohort.times()[mask], cohort.events()[mask], fit.beta
        )
        step = np.linalg.solve(-hess, score)
        assert fit.converged
        assert abs(step[0]) < 1e-10 * abs(fit.beta[0])

    def test_runtime_twenty_fits(self):
        rng = np.random.default_rng(0)
        start = time_mod.perf_counter()
        for seed in range(20):
            r = np.random.default_rng(seed)
            x = r.integers(0, 2, 2000).astype(float)
            t_event = r.exponential(1 / (0.002 * np.exp(0.7 * x)))
            c = r.uniform(0, 1500, 2000)
            t = np.minimum(t_event, c)
            e = t_event <= c
            cohort = make_cohort(t, e, risk_scaled=x)
            design = build_design(cohort, [Covariate("risk_scaled")])
            fit_cox(design, t, e)
        assert time_mod.perf_counter() - start < 5.0
        del rng


class TestRandomDesigns:
    def test_every_fit_is_finite_or_raises(self):
        """A seeded sweep of small designs: n 5-29 subjects, k 1-3
        covariates on scales 0.3-30, event rates 0.1-0.9, both tie
        methods. Wide scales separate with the linear predictor past the
        range of exp; every fit must still return finite estimates, or
        raise AnalysisError (no events, a singular information matrix).
        A RuntimeWarning fails the test."""
        rng = np.random.default_rng(5)
        fitted = 0
        for _ in range(300):
            n = int(rng.integers(5, 30))
            k = int(rng.integers(1, 4))
            scale = rng.uniform(0.3, 30.0, k)
            X = rng.normal(size=(n, k)) * scale
            t = rng.permutation(n) + 1.0
            e = rng.random(n) < rng.uniform(0.1, 0.9)
            design = DesignMatrix(tuple(f"x{j}" for j in range(k)), X, np.ones(n, dtype=bool))
            for ties in ("efron", "breslow"):
                try:
                    fit = fit_cox(design, t, e, ties)
                except AnalysisError:
                    continue
                assert np.isfinite(fit.beta).all() and np.isfinite(fit.se).all(), (n, k, ties)
                assert np.isfinite(fit.log_pl)
                fitted += 1
        assert fitted > 500


class TestFitInvariants:
    def test_no_ties_efron_equals_breslow(self):
        rng = np.random.default_rng(53)
        n = 60
        x = rng.normal(size=n)
        t = rng.exponential(1 / (0.01 * np.exp(0.5 * x)))  # continuous, no ties
        e = rng.random(n) < 0.8
        cohort = make_cohort(t, e, risk_raw=x)
        design = build_design(cohort, [Covariate("risk_raw")])
        fe = fit_cox(design, t, e, "efron")
        fb = fit_cox(design, t, e, "breslow")
        np.testing.assert_allclose(fe.beta, fb.beta, atol=1e-10)

    def test_covariate_rescale_invariance(self):
        """Scaling a covariate by c divides beta by c and leaves the
        likelihood, AIC and other HRs unchanged to solver tolerance."""
        rng = np.random.default_rng(59)
        n = 120
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        t = rng.exponential(1 / (0.01 * np.exp(0.4 * a - 0.3 * b)))
        e = rng.random(n) < 0.8
        cohort = make_cohort(t, e, risk_raw=a, predicted_age=60 + b)
        base = fit_cox(
            build_design(cohort, [Covariate("risk_raw"), Covariate("predicted_age")]),
            t, e,
        )
        scaled = fit_cox(
            build_design(
                cohort,
                [Covariate("risk_raw", per=10.0), Covariate("predicted_age")],
            ),
            t, e,
        )
        np.testing.assert_allclose(scaled.beta[0], base.beta[0] * 10.0, rtol=1e-6)
        np.testing.assert_allclose(scaled.log_pl, base.log_pl, rtol=1e-9)
        np.testing.assert_allclose(scaled.aic, base.aic, rtol=1e-9)
        np.testing.assert_allclose(scaled.hr[1], base.hr[1], rtol=1e-6)

    def test_zero_covariates_null_model(self):
        design = build_design(toy_cohort(), [])
        fit = fit_cox(design, TOY_T, TOY_E)
        assert fit.converged
        assert fit.beta.size == 0
        np.testing.assert_allclose(fit.log_pl, fit.log_pl_null, rtol=1e-15)
        np.testing.assert_allclose(fit.aic, -2 * fit.log_pl)

    def test_aic_arithmetic(self):
        """logPL -100 with k=3 gives AIC 206."""
        assert -2 * (-100.0) + 2 * 3 == 206.0


class TestDesignBuilder:
    def test_sex_indicator_reference_female(self):
        cohort = make_cohort(
            [5, 6, 7], [1, 1, 1], sex=["female", "male", "female"]
        )
        design = build_design(
            cohort, [Covariate("sex", kind="categorical", reference="female")]
        )
        assert design.names == ("sex=male",)
        np.testing.assert_array_equal(design.matrix[:, 0], [0.0, 1.0, 0.0])

    def test_age_per_decade(self):
        cohort = make_cohort([5, 6], [1, 1], chrono_age=[60.0, 70.0])
        design = build_design(cohort, [Covariate("chrono_age", per=10.0)])
        np.testing.assert_array_equal(design.matrix[:, 0], [6.0, 7.0])
        assert design.names == ("chrono_age_per_10",)

    def test_risk_per_tenth(self):
        cohort = make_cohort([5, 6], [1, 1], risk_scaled=[0.2, 0.35])
        design = build_design(cohort, [Covariate("risk_scaled", per=0.1)])
        np.testing.assert_allclose(design.matrix[:, 0], [2.0, 3.5])

    def test_threshold_indicator(self):
        cohort = make_cohort(
            [5, 6, 7],
            [1, 1, 1],
            predicted_age=[68.0, 61.0, 70.0],
            chrono_age=[61.0, 60.0, 59.0],
        )
        design = build_design(
            cohort, [Covariate("fad", kind="threshold", threshold=5.0)]
        )
        assert design.names == ("fad>=5",)
        np.testing.assert_array_equal(design.matrix[:, 0], [1.0, 0.0, 1.0])

    def test_missing_value_excludes_row(self):
        cohort = make_cohort([5, 6, 7], [1, 1, 1], risk_scaled=[0.2, None, 0.8])
        design = build_design(cohort, [Covariate("risk_scaled")])
        np.testing.assert_array_equal(design.included, [True, False, True])

    def test_unknown_category_excludes_row(self):
        cohort = make_cohort([5, 6, 7], [1, 1, 1], sex=["female", "unknown", "male"])
        design = build_design(
            cohort, [Covariate("sex", kind="categorical", reference="female")]
        )
        np.testing.assert_array_equal(design.included, [True, False, True])

    def test_constant_column_rejected(self):
        cohort = make_cohort([5, 6, 7], [1, 1, 1], risk_scaled=[0.4, 0.4, 0.4])
        with pytest.raises(DataError):
            build_design(cohort, [Covariate("risk_scaled")])

    def test_duplicate_column_singular_at_fit(self):
        """Rank deficiency between columns surfaces at fit time with a
        condition estimate."""
        rng = np.random.default_rng(47)
        n = 30
        v = rng.normal(size=n)
        t = rng.integers(1, 40, n).astype(float)
        e = rng.random(n) < 0.8
        cohort = make_cohort(t, e, risk_raw=v, risk_scaled=(v - v.min()) / np.ptp(v))
        design = build_design(cohort, [Covariate("risk_raw"), Covariate("risk_raw")])
        with pytest.raises(SingularDesignError):
            fit_cox(design, t, e)

    @pytest.mark.parametrize("seed", range(8))
    def test_indicators_summing_to_one_not_identified(self, seed):
        """Both indicators of sex sum to 1 on every row, and a Cox model
        has no intercept, so the fit cannot be identified. Rounding may
        let the information matrix factor and invert (with variances of
        about 1e14); the fit raises instead of reporting that, or a
        clipped zero, as a standard error."""
        rng = np.random.default_rng(seed)
        n = 60
        sex = np.where(rng.random(n) < 0.5, "male", "female")
        t = rng.integers(1, 1500, n).astype(float)
        e = rng.random(n) < 0.7
        design = build_design(make_cohort(t, e, sex=sex), [
            Covariate("sex", "categorical", reference="female"),
            Covariate("sex", "categorical", reference="male"),
        ])
        assert design.names == ("sex=male", "sex=female")
        with pytest.raises(SingularDesignError):
            fit_cox(design, t, e)

    def test_absent_reference_rejected(self):
        cohort = make_cohort([5, 6], [1, 1], sex=["male", "male"])
        with pytest.raises(DataError):
            build_design(
                cohort, [Covariate("sex", kind="categorical", reference="female")]
            )


class TestScreen:
    def test_empty_candidates(self):
        result = univariate_screen(toy_cohort(), [])
        assert result.retained == ()
        assert result.entries == ()

    @pytest.mark.parametrize("alpha", [float("nan"), 0.0, 1.0, 7.0, -0.05])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        """NaN retained nothing and 7 everything, silently."""
        with pytest.raises(DataError, match="alpha"):
            univariate_screen(toy_cohort(), [Covariate("predicted_age")], alpha=alpha)

    def test_informative_retained_noise_dropped(self):
        rng = np.random.default_rng(19)
        n = 1000
        signal = rng.normal(size=n)
        noise = rng.normal(size=n)
        t = rng.exponential(1 / (0.002 * np.exp(1.0 * signal)))
        e = np.ones(n, dtype=bool)
        cohort = make_cohort(
            t, e, risk_scaled=0.5 + 0.1 * np.clip(signal, -4, 4), predicted_age=60 + noise
        )
        result = univariate_screen(
            cohort,
            [Covariate("risk_scaled"), Covariate("predicted_age")],
        )
        names = [c.base_name() for c in result.retained]
        assert "risk_scaled" in names
        by_name = {entry.covariate.base_name(): entry for entry in result.entries}
        assert by_name["risk_scaled"].p < 0.05

    def test_noise_type_one_rate(self):
        """An independent covariate should be retained ~5% of the time."""
        retained = 0
        n_rep = 200
        for seed in range(n_rep):
            rng = np.random.default_rng(1000 + seed)
            n = 150
            noise = rng.normal(size=n)
            t = rng.exponential(500, size=n)
            e = np.ones(n, dtype=bool)
            cohort = make_cohort(t, e, predicted_age=60 + noise)
            result = univariate_screen(cohort, [Covariate("predicted_age")])
            retained += bool(result.retained)
        assert 0.01 < retained / n_rep < 0.11


class TestAdjustedAndAic:
    @staticmethod
    def _two_signal_cohort(seed):
        rng = np.random.default_rng(seed)
        n = 1500
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        t = rng.exponential(1 / (0.002 * np.exp(0.6 * a + 0.6 * b)))
        e = np.ones(n, dtype=bool)
        return make_cohort(t, e, risk_raw=a, predicted_age=60 + b), t, e

    def test_adjusted_keeps_both_effects(self):
        cohort, t, e = self._two_signal_cohort(29)
        design = build_design(cohort, [Covariate("risk_raw"), Covariate("predicted_age")])
        adjusted = fit_cox(design, t, e)
        assert adjusted.names == ("risk_raw", "predicted_age")
        assert adjusted.hr[0] > 1.0
        assert adjusted.wald_p[0] < 0.05
        assert adjusted.wald_p[1] < 0.05

    def test_single_fit_rank_one(self):
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        fit = fit_cox(design, TOY_T, TOY_E)
        entries = compare_aic([fit], ["only"])
        assert len(entries) == 1
        assert entries[0].delta == 0.0

    def test_combined_aic_lowest(self):
        cohort, t, e = self._two_signal_cohort(31)
        fits = []
        for covs in (
            [Covariate("risk_raw")],
            [Covariate("predicted_age")],
            [Covariate("risk_raw"), Covariate("predicted_age")],
        ):
            design = build_design(cohort, covs)
            fits.append(fit_cox(design, t, e))
        entries = compare_aic(fits, ["a", "b", "combined"])
        assert entries[0].label == "combined"
        assert entries[0].aic < entries[1].aic

    def test_aic_comparison_rejects_different_rows(self):
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        fit_full = fit_cox(design, TOY_T, TOY_E)
        cohort_sub = make_cohort(TOY_T[:10], TOY_E[:10], risk_scaled=TOY_X[:10])
        design_sub = build_design(cohort_sub, [Covariate("risk_scaled")])
        fit_sub = fit_cox(design_sub, TOY_T[:10], TOY_E[:10])
        with pytest.raises(DataError):
            compare_aic([fit_full, fit_sub], ["full", "sub"])

    def test_aic_comparison_rejects_one_flipped_event_flag(self):
        """Row sets with the same rows and times differ in one event flag:
        their fingerprints differ, so the fits are not compared."""
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        flipped = TOY_E.copy()
        flipped[3] = not flipped[3]
        fit = fit_cox(design, TOY_T, TOY_E)
        fit_flipped = fit_cox(design, TOY_T, flipped)
        assert re.fullmatch("[0-9a-f]{24}", fit.row_fingerprint)
        assert fit.row_fingerprint != fit_flipped.row_fingerprint
        with pytest.raises(DataError, match="different row sets"):
            compare_aic([fit, fit_flipped], ["observed", "flipped"])

    def test_fit_loads_no_openssl(self):
        """The row fingerprint is a zlib checksum, so a fit in a fresh
        interpreter leaves hashlib's OpenSSL module unloaded."""
        code = """
import sys
import numpy as np
openssl_with_numpy = "_hashlib" in sys.modules
from visage.cohort import Cohort
from visage.cox import Covariate, build_design, fit_cox
t = np.array([5.0, 8, 3, 9, 12, 4, 7, 10])
e = np.array([1, 0, 1, 1, 0, 1, 1, 0], bool)
cohort = Cohort(ids=[f"p{i}" for i in range(8)], time=t, event=e,
                chrono_age=np.linspace(50, 80, 8),
                risk_scaled=[0.9, 0.2, 0.7, 0.4, 0.1, 0.8, 0.3, 0.6])
design = build_design(cohort, [Covariate("risk_scaled"), Covariate("chrono_age", per=10)])
fit_cox(design, cohort.time, cohort.event)
print(openssl_with_numpy, "_hashlib" in sys.modules)
"""
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        with_numpy, after_fit = proc.stdout.split()
        if with_numpy == "True":
            pytest.skip("this numpy loads OpenSSL on import")
        assert after_fit == "False"

    def test_fit_to_dict_roundtrippable(self):
        design = build_design(toy_cohort(), [Covariate("risk_scaled")])
        fit = fit_cox(design, TOY_T, TOY_E)
        out = fit_to_dict(fit)
        assert out["converged"] is True
        assert out["covariates"][0]["name"] == "risk_scaled"
        import json

        json.dumps(out)
