"""Estimator tests against hand computations and closed-form oracles.

The hand numbers below were worked out with exact fractions before the
estimators existed; they are frozen here and must never be regenerated
from the code under test.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from visage.errors import DataError, MedianNotReachedError
from visage.survival import (
    _loglog_band,
    kaplan_meier,
    km_estimate_at,
    log_rank,
    reverse_km_median_followup,
)
from tests.conftest import run_child


class TestKaplanMeier:
    def test_hand_product_limit(self):
        """times [5,8,12], events [1,1,0]:

        S(5) = 2/3, S(8) = 2/3 * 1/2 = 1/3, S(12) = 1/3 (censored).
        """
        curve = kaplan_meier([5, 8, 12], [1, 1, 0])
        assert curve.times.tolist() == [5.0, 8.0]
        np.testing.assert_allclose(curve.survival, [2 / 3, 1 / 3], rtol=1e-15)
        assert curve.at_risk.tolist() == [3, 2]
        assert curve.events.tolist() == [1, 1]

    def test_hand_greenwood_variance(self):
        """Greenwood: var(t) = S(t)^2 * sum d/(n(n-d)).

        At t=5: (2/3)^2 * 1/(3*2) = 4/81 * ... worked with fractions:
        (4/9)*(1/6) = 2/27. At t=8: (1/9)*(1/6 + 1/2) = 2/27.
        """
        v5 = Fraction(2, 3) ** 2 * Fraction(1, 6)
        v8 = Fraction(1, 3) ** 2 * (Fraction(1, 6) + Fraction(1, 2))
        curve = kaplan_meier([5, 8, 12], [1, 1, 0])
        np.testing.assert_allclose(curve.variance, [float(v5), float(v8)], rtol=1e-15)

    def test_no_events_flat_one(self):
        curve = kaplan_meier([3, 6, 9], [0, 0, 0])
        assert curve.times.size == 0
        est = km_estimate_at(curve, 5.0)
        assert est.estimate == 1.0 and est.ci_low == 1.0 and est.ci_high == 1.0

    def test_all_events_reach_zero(self):
        curve = kaplan_meier([1, 2, 3], [1, 1, 1])
        assert curve.survival[-1] == 0.0
        assert curve.variance[-1] == 0.0

    def test_tied_event_times_grouped(self):
        curve = kaplan_meier([4, 4, 4, 9], [1, 1, 0, 1])
        assert curve.times.tolist() == [4.0, 9.0]
        assert curve.events.tolist() == [2, 1]
        np.testing.assert_allclose(curve.survival[0], 2 / 4)

    def test_exponential_closed_form(self):
        """n=200 exponential draws: KM within 3 SE of exp(-lambda t)."""
        rng = np.random.default_rng(11)
        lam = 0.01
        t = rng.exponential(1 / lam, size=200)
        curve = kaplan_meier(t, np.ones(200, dtype=bool))
        for q in (0.25, 0.5, 0.75):
            h = -np.log(1 - q) / lam
            est = km_estimate_at(curve, h)
            idx = np.searchsorted(curve.times, h, side="right") - 1
            se = float(np.sqrt(curve.variance[idx]))
            assert abs(est.estimate - np.exp(-lam * h)) < 3 * se

    def test_rejects_nonpositive_times(self):
        with pytest.raises(DataError):
            kaplan_meier([0.0, 5.0], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            kaplan_meier([1.0, 2.0], [1])


class TestEstimateAt:
    def test_t_zero_is_one(self):
        curve = kaplan_meier([5, 8, 12], [1, 1, 0])
        est = km_estimate_at(curve, 0.0)
        assert (est.estimate, est.ci_low, est.ci_high) == (1.0, 1.0, 1.0)
        assert not est.truncated

    def test_step_lookup_between_events(self):
        curve = kaplan_meier([5, 8, 12], [1, 1, 0])
        est = km_estimate_at(curve, 6.0)
        np.testing.assert_allclose(est.estimate, 2 / 3)
        assert not est.truncated

    def test_past_last_time_truncates(self):
        curve = kaplan_meier([5, 8, 12], [1, 1, 0])
        est = km_estimate_at(curve, 100.0)
        np.testing.assert_allclose(est.estimate, 1 / 3)
        assert est.truncated

    def test_past_last_time_truncates_without_deaths(self):
        curve = kaplan_meier([10, 20, 30], [0, 0, 0])
        est = km_estimate_at(curve, 500.0)
        assert (est.estimate, est.ci_low, est.ci_high) == (1.0, 1.0, 1.0)
        assert est.truncated
        assert not km_estimate_at(curve, 25.0).truncated

    def test_loglog_interval_brackets_estimate(self):
        rng = np.random.default_rng(3)
        t = rng.exponential(100, size=80)
        e = rng.random(80) < 0.7
        curve = kaplan_meier(t, e)
        for h in np.quantile(t, [0.2, 0.5, 0.8]):
            est = km_estimate_at(curve, float(h))
            if 0.0 < est.estimate < 1.0:
                assert 0.0 <= est.ci_low <= est.estimate <= est.ci_high <= 1.0

    def test_loglog_interval_hand_value(self):
        """One literal check of S^exp(+-z*se/(S log S)) at t=5."""
        curve = kaplan_meier([5, 8, 12], [1, 1, 0])
        s = 2 / 3
        se_theta = np.sqrt(float(Fraction(2, 27))) / abs(s * np.log(s))
        z = stats.norm.ppf(0.975)
        lo = s ** np.exp(z * se_theta)
        hi = s ** np.exp(-z * se_theta)
        est = km_estimate_at(curve, 5.0)
        np.testing.assert_allclose([est.ci_low, est.ci_high], [lo, hi], rtol=1e-12)

    def test_step_bands_match_estimate_at(self):
        """The band of each step from its S and variance, as ``km`` writes
        it, is ``km_estimate_at``'s at that step's time, bit for bit, on a
        tied, censored sample whose curve reaches 0."""
        rng = np.random.default_rng(31)
        t = np.ceil(rng.exponential(40.0, 400))
        e = rng.random(400) < 0.7
        e[t == t.max()] = True
        curve = kaplan_meier(t, e)
        assert curve.events.max() > 1 and curve.survival[-1] == 0.0
        steps = zip(curve.times.tolist(), curve.survival.tolist(), curve.variance.tolist())
        for u, s, var in steps:
            est = km_estimate_at(curve, u)
            band = _loglog_band(s, var)
            assert [x.hex() for x in band] == [est.ci_low.hex(), est.ci_high.hex()]


class TestReverseKM:
    def test_hand_median(self):
        """[(10,0),(20,0),(30,1),(40,0)] flipped gives drops at 10, 20
        and 40; S(20) = 3/4 * 2/3 = 1/2, so the median is 20."""
        assert reverse_km_median_followup([10, 20, 30, 40], [0, 0, 1, 0]) == 20.0

    def test_all_events_not_reached(self):
        with pytest.raises(MedianNotReachedError):
            reverse_km_median_followup([5, 6, 7], [1, 1, 1])

    def test_fully_censored_at_T_returns_T(self):
        t = np.full(50, 730.0)
        assert reverse_km_median_followup(t, np.zeros(50, dtype=bool)) == 730.0


def _two_group_logrank_oracle(groups):
    """Textbook two-group statistic computed with exact fractions."""
    times = []
    for g, (t, e) in enumerate(groups):
        times.extend((float(tt), int(ee), g) for tt, ee in zip(t, e))
    event_times = sorted({t for t, e, _ in times if e})
    observed = Fraction(0)
    expected = Fraction(0)
    variance = Fraction(0)
    for u in event_times:
        n = sum(1 for t, _, _ in times if t >= u)
        n0 = sum(1 for t, _, g in times if t >= u and g == 0)
        d = sum(1 for t, e, _ in times if t == u and e)
        d0 = sum(1 for t, e, g in times if t == u and e and g == 0)
        observed += d0
        expected += Fraction(d * n0, n)
        if n > 1:
            variance += (
                Fraction(d * (n - d), n - 1)
                * Fraction(n0, n)
                * (1 - Fraction(n0, n))
            )
    return float((observed - expected) ** 2 / variance)


class TestLogRank:
    def test_two_group_hand_statistic(self):
        a = ([2, 4, 6], [1, 1, 0])
        b = ([1, 3, 5], [1, 0, 1])
        result = log_rank([a, b])
        np.testing.assert_allclose(
            result.chi_square, _two_group_logrank_oracle([a, b]), rtol=1e-12
        )
        assert result.dof == 1
        np.testing.assert_allclose(
            result.p_value, stats.chi2.sf(result.chi_square, 1), rtol=1e-12
        )

    def test_two_group_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(4, 25))
            m = int(rng.integers(4, 25))
            a = (rng.integers(1, 15, n).astype(float), rng.random(n) < 0.7)
            b = (rng.integers(1, 15, m).astype(float), rng.random(m) < 0.7)
            if not (a[1].any() or b[1].any()):
                continue
            result = log_rank([a, b])
            np.testing.assert_allclose(
                result.chi_square,
                _two_group_logrank_oracle([a, b]),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_identical_groups_null(self):
        t = np.array([3.0, 6.0, 9.0, 12.0])
        e = np.array([1, 0, 1, 1], dtype=bool)
        result = log_rank([(t, e), (t.copy(), e.copy())])
        np.testing.assert_allclose(result.chi_square, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.p_value, 1.0)

    def test_three_groups_fivefold_hazard(self):
        rng = np.random.default_rng(17)
        groups = []
        for hazard in (0.01, 0.01, 0.05):
            t = rng.exponential(1 / hazard, size=300)
            groups.append((t, np.ones(300, dtype=bool)))
        result = log_rank(groups)
        assert result.dof == 2
        assert result.p_value < 0.001

    def test_group_out_of_every_risk_set_uses_the_pseudo_inverse(self, monkeypatch):
        """The first group is censored before the first death, so its row
        and column of the covariance are zero and the solve fails. The
        pseudo-inverse gives the other two groups' statistic, with the
        degrees of freedom still counting all three groups."""
        gone = ([1, 1.5], [0, 0])
        b = ([2, 4, 6, 8], [1, 1, 0, 1])
        c = ([3, 5, 7, 9], [1, 0, 1, 1])
        pinv_calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda m: pinv_calls.append(m) or pinv(m))
        result = log_rank([gone, b, c])
        assert len(pinv_calls) == 1
        assert result.dof == 2
        np.testing.assert_allclose(
            result.chi_square, _two_group_logrank_oracle([b, c]), rtol=1e-12
        )
        np.testing.assert_allclose(result.p_value, stats.chi2.sf(result.chi_square, 2), rtol=1e-12)

    def test_single_group_rejected(self):
        with pytest.raises(DataError):
            log_rank([([1, 2], [1, 1])])

    def test_type_one_error_calibration(self):
        """Under the null, rejection at alpha=0.05 should be ~5%."""
        rng = np.random.default_rng(23)
        rejections = 0
        n_rep = 500
        for _ in range(n_rep):
            t = rng.exponential(100, size=60)
            e = np.ones(60, dtype=bool)
            half = rng.permutation(60) < 30
            result = log_rank([(t[half], e[half]), (t[~half], e[~half])])
            rejections += result.p_value < 0.05
        rate = rejections / n_rep
        assert 0.02 < rate < 0.09

    def test_log_rank_and_bin_balancing_leave_numpy_ma_unloaded(self):
        """A plain np.unique imports numpy.ma on numpy 2.x (16 ms, 1.4 MB);
        log_rank, which every stratified km runs, and balance_bins take the
        distinct values without it."""
        code = """
import sys
import numpy as np
ma_with_numpy = "numpy.ma" in sys.modules
from visage.survival import log_rank
from visage.trainer import balance_bins
log_rank([(np.array([1.0, 2, 2, 4]), np.array([1, 1, 0, 1], bool)),
          (np.array([2.0, 3, 5]), np.array([1, 0, 1], bool))])
balance_bins(np.array([41.0, 52, 53, 67]), target=3)
print(ma_with_numpy, "numpy.ma" in sys.modules)
"""
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        with_numpy, after_calls = proc.stdout.split()
        if with_numpy == "True":
            pytest.skip("this numpy imports numpy.ma on import")
        assert after_calls == "False"
