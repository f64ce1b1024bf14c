"""Reported 95 % intervals against the simulator's truth.

Each test draws replicate cohorts with fixed seeds, builds the interval
that visage reports for each one, and counts how often it holds the true
value. The seeds (``range(400)`` for Cox, ``range(1000)`` for KM) were
fixed before any coverage was computed and are not chosen to pass.

Tolerances come from the binomial spread of the replicate count. A
calibrated interval covers with probability p0 = 0.95, so over R
replicates the observed coverage has standard deviation
sqrt(p0 (1 - p0) / R): 0.0109 at R = 400 and 0.0069 at R = 1000. The
module makes 11 checks of nominal coverage (five Cox settings, six KM
quantile and size pairs). To keep the chance that any of them fails on
a calibrated method below 1 %, each check allows z = 3.32 standard
deviations, the two-sided normal quantile for 0.01 / 11. That gives
0.95 +/- 0.036 for Cox and 0.95 +/- 0.023 for KM. A mean coefficient
is called biased when it lies more than z Monte Carlo standard errors
(the replicates' standard deviation over sqrt(R)) from the truth.

The Cox cohorts follow one design: n = 300, one covariate ``chrono_age``
~ N(60, 10), uniform censoring on (0, 1500) days, and synth's
exponential event times. ``synth`` does not centre the linear predictor,
so at a baseline hazard of 0.05/day the hazard is about e^(60 beta)
times larger: with day-rounded times the deaths crowd onto the first
days. At beta = 0.1 nearly every death lands on day 1 and neither ties
method covers at all; that degenerate case is not tested.

The time-dependent AUC check holds the IPCW estimate against the
uncensored truth. Each of ``AUC_SEEDS`` (200 replicates) draws n = 2000
subjects with one covariate ``fad`` ~ N(0, 6), beta = 0.1 per year, a
baseline hazard of 0.002/day and day-rounded times, and scores them by
their true linear predictor. The estimate under uniform censoring on
(0, 1500) days is compared with the plain ROC area of the same cohort
uncensored: synth draws death times from their own substream, so
dropping the censoring leaves them as they were. Where the weights undo
the censoring, the difference has mean 0. The mean over the replicates
must lie within z Monte Carlo standard errors (the differences' standard
deviation over sqrt(R)) of 0 at 180, 365 and 730 days. These three
checks have a 1 % budget of their own: z = 2.94, the two-sided normal
quantile for 0.01 / 3. On the test seeds the standard errors are
0.0003, 0.0004 and 0.0007 and the means lie within 0.72 of them; cases
left unweighted, which over-represent early deaths, put the means 6.2
and 11.5 standard errors above 0 at 365 and 730 days.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from visage._stats import Z95
from visage.cox import Covariate, build_design, fit_cox
from visage.metrics import time_dependent_auc
from visage.survival import kaplan_meier, km_estimate_at
from visage.synth import SimCovariate, SimSpec, simulate

Z = 3.32
COX_SEEDS = range(400)
KM_SEEDS = range(1000)
AUC_SEEDS = range(200)
AUC_HORIZONS = (180.0, 365.0, 730.0)
Z_AUC = 2.94


def nominal_band(replicates: int) -> tuple[float, float]:
    half = Z * np.sqrt(0.95 * 0.05 / replicates)
    return 0.95 - half, 0.95 + half


@functools.cache
def cox_replicates(hazard: float, beta: float, rounded: bool) -> dict:
    """Per ties method, the fitted coefficients and their standard errors
    over ``COX_SEEDS``, plus the mean number of distinct death days."""
    fits = {"efron": ([], []), "breslow": ([], [])}
    death_days = []
    for seed in COX_SEEDS:
        spec = SimSpec(
            n=300,
            beta_true=(beta,),
            baseline_hazard=hazard,
            censor_model=("uniform", 1500.0),
            covariate_model=(SimCovariate("chrono_age", ("normal", 60.0, 10.0)),),
            round_days=rounded,
            seed=seed,
        )
        cohort = simulate(spec).cohort
        design = build_design(cohort, [Covariate("chrono_age")])
        t, e = cohort.times(), cohort.events()
        death_days.append(np.unique(t[e]).size)
        for ties, (betas, ses) in fits.items():
            fit = fit_cox(design, t, e, ties)
            betas.append(fit.beta[0])
            ses.append(fit.se[0])
    out = {ties: (np.array(b), np.array(s)) for ties, (b, s) in fits.items()}
    out["death_days"] = float(np.mean(death_days))
    return out


def coverage(betas: np.ndarray, ses: np.ndarray, beta: float) -> float:
    return float(np.mean(np.abs(betas - beta) <= Z95 * ses))


def biased_low(betas: np.ndarray, beta: float) -> bool:
    return betas.mean() < beta - Z * betas.std() / np.sqrt(betas.size)


class TestCoxWaldCoverage:
    @pytest.mark.parametrize(
        "hazard, rounded, ties",
        [
            (0.002, False, "efron"),
            (0.002, False, "breslow"),
            (0.002, True, "efron"),
            (0.002, True, "breslow"),
            (0.05, True, "efron"),
        ],
        ids=["exact-efron", "exact-breslow", "rounded-efron", "rounded-breslow",
             "mild-ties-efron"],
    )
    def test_nominal(self, hazard, rounded, ties):
        """beta = 0.03 per year of age. At 0.002/day about 280 deaths fall
        on about 150 distinct days once rounded; at 0.05/day (Efron only)
        about 300 deaths fall on about 19 days. Coverage lies in
        0.95 +/- 0.036 (module docstring)."""
        betas, ses = cox_replicates(hazard, 0.03, rounded)[ties]
        low, high = nominal_band(len(COX_SEEDS))
        assert low <= coverage(betas, ses, 0.03) <= high

    def test_heavy_ties_under_cover(self):
        """The limit of both tie approximations, stated as it is.

        Mild ties (0.05/day, beta = 0.03, about 19 death days): on the
        test seeds Breslow's mean coefficient is 13.7 % low, while its
        coverage, 0.940, stays in the nominal band (the bias is about
        two-thirds of a standard error); Efron covers 0.955. Heavy ties
        (0.05/day, beta = 0.05, about 9 death days, so nearly every
        death is tied): Efron covers 0.833 with beta 12.9 % low, and
        Breslow covers 0.015 with beta 44.1 % low.

        Asserted: Efron's coverage lies below the nominal band; Breslow's
        lies below Efron's by more than 0.117, which is z times the largest
        standard deviation of a difference of two coverages over R = 400,
        sqrt(2 * 0.25 / 400); both coefficients are biased low, Breslow's
        more. An exact ties method, or any change to these fits, moves
        these numbers and shows up here.
        """
        mild = cox_replicates(0.05, 0.03, True)
        assert biased_low(mild["breslow"][0], 0.03)

        heavy = cox_replicates(0.05, 0.05, True)
        assert heavy["death_days"] < 12
        efron = coverage(*heavy["efron"], 0.05)
        breslow = coverage(*heavy["breslow"], 0.05)
        assert efron < nominal_band(len(COX_SEEDS))[0]
        assert breslow < efron - Z * np.sqrt(2 * 0.25 / len(COX_SEEDS))
        assert biased_low(heavy["efron"][0], 0.05)
        assert heavy["breslow"][0].mean() < heavy["efron"][0].mean()


class TestKaplanMeierBand:
    @pytest.mark.parametrize("n", [50, 300])
    def test_log_log_band_covers(self, n):
        """Exponential death times at rate 1/365 per day against uniform
        censoring on (0, 3 * 365) days, so S = 0.25 falls at 506 days with
        about 13 % of the cohort still at risk. The log-log band of
        ``km_estimate_at`` at the true quantile times covers S = 0.75,
        0.5 and 0.25, each within 0.95 +/- 0.023 (module docstring)."""
        rate = 1 / 365.0
        levels = (0.75, 0.5, 0.25)
        hits = np.zeros(len(levels))
        for seed in KM_SEEDS:
            rng = np.random.default_rng(seed)
            death = rng.exponential(1 / rate, n)
            censor = rng.uniform(0.0, 3 / rate, n)
            curve = kaplan_meier(np.minimum(death, censor), death <= censor)
            for i, s in enumerate(levels):
                est = km_estimate_at(curve, -np.log(s) / rate)
                hits[i] += est.ci_low <= s <= est.ci_high
        low, high = nominal_band(len(KM_SEEDS))
        for s, rate_covered in zip(levels, hits / len(KM_SEEDS)):
            assert low <= rate_covered <= high, f"S = {s}: coverage {rate_covered}"


class TestTimeDependentAuc:
    def test_ipcw_estimate_unbiased(self):
        """The IPCW estimate under censoring minus the ROC area of the
        same cohort uncensored has mean 0 within Z_AUC Monte Carlo
        standard errors at each horizon (module docstring)."""
        differences = []
        for seed in AUC_SEEDS:
            aucs = []
            for censor_model in (("uniform", 1500.0), ("none",)):
                result = simulate(SimSpec(
                    n=2000,
                    beta_true=(0.1,),
                    censor_model=censor_model,
                    covariate_model=(SimCovariate("fad", ("normal", 0.0, 6.0)),),
                    seed=seed,
                ))
                marker, cohort = np.array(result.truth["eta"]), result.cohort
                aucs.append([
                    time_dependent_auc(marker, cohort.time, cohort.event, horizon).auc
                    for horizon in AUC_HORIZONS
                ])
            differences.append(np.subtract(*aucs))
        differences = np.array(differences)
        errors = differences.std(axis=0) / np.sqrt(len(AUC_SEEDS))
        for horizon, mean, error in zip(AUC_HORIZONS, differences.mean(axis=0), errors):
            assert abs(mean) <= Z_AUC * error, f"{horizon:g} days: mean {mean:.5f}, SE {error:.5f}"
