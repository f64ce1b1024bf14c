"""Metric implementations against exhaustive oracles.

Every statistic here has a brute-force counterpart written from the
definition: explicit pair loops for concordance and ROC, full
enumeration for the rank tests. The fast implementations must agree
exactly (concordance, enumerations) or to float precision (AUC).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from visage.errors import AnalysisError, DataError, NoComparablePairsError
from visage.metrics import (
    _count_later_below,
    age_accuracy,
    harrell_c,
    time_dependent_auc,
    wilcoxon_rank_sum,
    wilcoxon_signed_rank,
)


def oracle_concordance(risk, t, e):
    """Textbook pair loop: earlier time must carry an event; equal
    times are comparable only when exactly one is an event."""
    conc = disc = tied = 0
    n = len(t)
    for i in range(n):
        for j in range(i + 1, n):
            if t[i] == t[j]:
                if e[i] == e[j]:
                    continue
                short, long_ = (i, j) if e[i] else (j, i)
            elif t[i] < t[j]:
                if not e[i]:
                    continue
                short, long_ = i, j
            else:
                if not e[j]:
                    continue
                short, long_ = j, i
            if risk[short] > risk[long_]:
                conc += 1
            elif risk[short] < risk[long_]:
                disc += 1
            else:
                tied += 1
    return conc, disc, tied


class TestCountLaterBelow:
    def test_counts_and_weighted_sums_match_a_scan(self):
        """Tied ranks, ranks past every query, starts at 0 and at n."""
        rng = np.random.default_rng(67)
        for n in (1, 2, 7, 64, 301):
            rank = rng.integers(0, max(1, n // 3), n)
            start = rng.integers(0, n + 1, 40)
            query = rng.integers(0, rank.max() + 3, 40)
            weights = rng.normal(size=n)
            below = [(np.arange(n) >= s) & (rank < q) for s, q in zip(start, query)]
            counts = _count_later_below(rank, start, query)
            sums = _count_later_below(rank, start, query, weights=weights)
            assert counts.dtype == np.int64
            assert counts.tolist() == [int(m.sum()) for m in below]
            np.testing.assert_allclose(sums, [weights[m].sum() for m in below], atol=1e-12)


class TestHarrellC:
    def test_perfect_ranking(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        r = np.array([4.0, 3.0, 2.0, 1.0])
        result = harrell_c(r, t, np.ones(4, dtype=bool))
        assert result.c_index == 1.0
        assert result.comparable_pairs == 6

    def test_anti_ranking(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        r = np.array([1.0, 2.0, 3.0, 4.0])
        result = harrell_c(r, t, np.ones(4, dtype=bool))
        assert result.c_index == 0.0

    def test_brute_force_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(3, 31))
            t = rng.integers(1, 10, n).astype(float)  # heavy time ties
            e = rng.random(n) < 0.6
            r = rng.integers(0, 6, n).astype(float)  # risk ties too
            conc, disc, tied = oracle_concordance(r, t, e)
            pairs = conc + disc + tied
            if pairs == 0:
                with pytest.raises(NoComparablePairsError):
                    harrell_c(r, t, e)
                continue
            result = harrell_c(r, t, e)
            assert (result.concordant, result.discordant, result.tied_risk) == (
                conc,
                disc,
                tied,
            )
            assert result.comparable_pairs == pairs
            assert result.c_index == (conc + 0.5 * tied) / pairs

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(67)
        t = rng.exponential(10, 50)
        e = rng.random(50) < 0.7
        r = rng.normal(size=50)
        a = harrell_c(r, t, e)
        b = harrell_c(np.exp(3 * r) + 7, t, e)
        assert a.c_index == b.c_index

    def test_negation_complement(self):
        rng = np.random.default_rng(71)
        t = rng.exponential(10, 40)
        e = rng.random(40) < 0.7
        r = rng.normal(size=40)  # continuous, no risk ties
        a = harrell_c(r, t, e)
        b = harrell_c(-r, t, e)
        np.testing.assert_allclose(a.c_index + b.c_index, 1.0, rtol=1e-12)

    def test_no_events_raises(self):
        with pytest.raises(NoComparablePairsError):
            harrell_c([1.0, 2.0], [3.0, 4.0], [False, False])

    def test_large_input_crosses_row_blocks(self):
        """n=1300 with heavy time and risk ties; counts must match a
        single full-matrix pass."""
        rng = np.random.default_rng(79)
        n = 1300
        t = rng.integers(1, 40, n).astype(float)
        e = rng.random(n) < 0.6
        r = rng.integers(0, 8, n).astype(float)

        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        ti, tj = t[:, None], t[None, :]
        ei, ej = e[:, None], e[None, :]
        short_i = upper & ((ti < tj) & ei | (ti == tj) & ei & ~ej)
        short_j = upper & ((ti > tj) & ej | (ti == tj) & ej & ~ei)
        ri, rj = r[:, None], r[None, :]
        conc = int(
            (short_i & (ri > rj)).sum() + (short_j & (rj > ri)).sum()
        )
        disc = int(
            (short_i & (ri < rj)).sum() + (short_j & (rj < ri)).sum()
        )
        tied = int(((short_i | short_j) & (ri == rj)).sum())

        result = harrell_c(r, t, e)
        assert (result.concordant, result.discordant, result.tied_risk) == (
            conc,
            disc,
            tied,
        )
        assert result.comparable_pairs == conc + disc + tied


    def test_nan_risk_rejected(self):
        """A NaN risk compares false with everything: 3 of the 6
        comparable pairs went unclassified and c came out 0.5."""
        with pytest.raises(DataError):
            harrell_c([3.0, 2.0, np.nan, 0.0], [1.0, 2.0, 3.0, 4.0], np.ones(4, dtype=bool))

    def test_nan_time_rejected(self):
        """A NaN time is neither earlier nor later: its pairs dropped out."""
        with pytest.raises(DataError):
            harrell_c([3.0, 2.0, 1.0, 0.0], [1.0, np.nan, 3.0, 4.0], np.ones(4, dtype=bool))

    def test_infinite_risk_rejected(self):
        with pytest.raises(DataError):
            harrell_c([np.inf, 2.0, 1.0], [1.0, 2.0, 3.0], np.ones(3, dtype=bool))


def oracle_roc_auc(marker, is_case):
    wins = ties = total = 0
    for i in np.flatnonzero(is_case):
        for j in np.flatnonzero(~is_case):
            total += 1
            if marker[i] > marker[j]:
                wins += 1
            elif marker[i] == marker[j]:
                ties += 1
    return (wins + 0.5 * ties) / total


def dense_time_auc(marker, times, events, horizon):
    """The weighted Mann-Whitney sum over the full case x control matrix."""
    from visage.metrics import _censor_survival_before
    from visage.survival import kaplan_meier

    m = np.asarray(marker, dtype=float)
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    cases = e & (t <= horizon)
    controls = t > horizon
    censor_curve = kaplan_meier(t, ~e)
    w_case = 1.0 / _censor_survival_before(censor_curve, t[cases])
    g_h = _censor_survival_before(censor_curve, np.array([np.nextafter(horizon, np.inf)]))[0]
    w_control = np.full(int(controls.sum()), 1.0 / g_h)
    mc = m[cases][:, None]
    mk = m[controls][None, :]
    wins = (mc > mk) + 0.5 * (mc == mk)
    return float(w_case @ wins @ w_control) / float(w_case.sum() * w_control.sum())


class TestTimeAUC:
    def test_matches_dense_matrix_with_censoring_and_tied_markers(self):
        rng = np.random.default_rng(107)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(5, 120))
            t = rng.integers(1, 60, n).astype(float)
            e = rng.random(n) < 0.6
            m = rng.integers(0, 5, n).astype(float)  # many tied markers
            horizon = float(rng.integers(5, 50))
            try:
                result = time_dependent_auc(m, t, e, horizon)
            except AnalysisError:
                continue
            np.testing.assert_allclose(
                result.auc, dense_time_auc(m, t, e, horizon), rtol=0, atol=1e-12
            )
            checked += 1
        assert checked > 150

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_marker_rejected(self, bad):
        """A NaN marker loses and ties every comparison: the AUC came out 0."""
        t = np.array([10.0, 20.0, 400.0, 500.0])
        with pytest.raises(DataError):
            time_dependent_auc([bad, bad, 0.2, 0.1], t, np.ones(4, dtype=bool), 91.0)

    def test_nan_time_rejected(self):
        t = np.array([10.0, np.nan, 400.0, 500.0])
        with pytest.raises(DataError):
            time_dependent_auc([0.9, 0.8, 0.2, 0.1], t, np.ones(4, dtype=bool), 91.0)


    def test_equals_empirical_roc_without_censoring(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = 30
            t = rng.integers(1, 50, n).astype(float)
            e = np.ones(n, dtype=bool)
            m = rng.normal(size=n)
            horizon = float(rng.integers(5, 45))
            is_case = t <= horizon
            if not is_case.any() or is_case.all():
                continue
            result = time_dependent_auc(m, t, e, horizon)
            np.testing.assert_allclose(
                result.auc, oracle_roc_auc(m, is_case), atol=1e-12
            )
            assert result.n_cases == int(is_case.sum())
            assert result.n_controls == int((~is_case).sum())

    def test_perfect_marker(self):
        t = np.array([10.0, 20.0, 400.0, 500.0])
        e = np.ones(4, dtype=bool)
        m = np.array([0.9, 0.8, 0.2, 0.1])
        for horizon in (91.0, 182.0, 365.0):
            assert time_dependent_auc(m, t, e, horizon).auc == 1.0

    def test_constant_marker_half(self):
        t = np.array([10.0, 20.0, 400.0, 500.0])
        e = np.ones(4, dtype=bool)
        result = time_dependent_auc(np.full(4, 0.3), t, e, 91.0)
        np.testing.assert_allclose(result.auc, 0.5)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(79)
        n = 60
        t = rng.exponential(100, n)
        e = rng.random(n) < 0.7
        m = rng.normal(size=n)
        h = float(np.median(t))
        if not ((t <= h) & e).any():
            pytest.skip("no cases at horizon for this seed")
        a = time_dependent_auc(m, t, e, h)
        b = time_dependent_auc(np.tanh(m) * 10 + 3, t, e, h)
        np.testing.assert_allclose(a.auc, b.auc, rtol=1e-12)

    def test_censored_before_horizon_excluded(self):
        """A subject censored before the horizon is neither case nor
        control."""
        t = np.array([10.0, 50.0, 400.0, 500.0])
        e = np.array([1, 0, 0, 0], dtype=bool)
        result = time_dependent_auc([0.9, 0.5, 0.2, 0.1], t, e, 91.0)
        assert result.n_cases == 1
        assert result.n_controls == 2

    def test_no_cases_raises(self):
        t = np.array([400.0, 500.0])
        e = np.ones(2, dtype=bool)
        with pytest.raises(AnalysisError):
            time_dependent_auc([0.1, 0.2], t, e, 91.0)

    def test_ipcw_hand_instance(self):
        """Censoring at day 70 reweights the later case.

        Censoring-survival KM: one censoring among three at risk at
        day 70, so G = 2/3 past it. Case weights 1/G(t-): 1 for the
        day-30 death, 3/2 for the day-80 death. With marker wins
        (5 > 3) and (1 < 3) against the single control, the weighted
        AUC is 1 / (1 + 3/2) = 0.4; unweighted it would be 0.5.
        """
        t = np.array([30.0, 70.0, 80.0, 100.0])
        e = np.array([1, 0, 1, 0], dtype=bool)
        m = np.array([5.0, 9.0, 1.0, 3.0])
        result = time_dependent_auc(m, t, e, 90.0)
        assert result.n_cases == 2
        assert result.n_controls == 1
        np.testing.assert_allclose(result.auc, 0.4, rtol=1e-12)


class TestAgeAccuracy:
    def test_exact_predictions(self):
        result = age_accuracy([50.0, 60.0], [50.0, 60.0])
        assert (result.mae, result.me, result.binwise_mae) == (0.0, 0.0, 0.0)

    def test_constant_shift(self):
        actual = np.array([30.0, 47.0, 61.0])
        result = age_accuracy(actual + 2.0, actual)
        np.testing.assert_allclose(
            [result.mae, result.me, result.binwise_mae], [2.0, 2.0, 2.0]
        )

    def test_two_bin_hand_instance(self):
        """Actuals 3 and 62 land in bins [0,5) and [60,65); absolute
        errors 1 and 5 average to 3 both overall and binwise."""
        result = age_accuracy([4.0, 67.0], [3.0, 62.0])
        np.testing.assert_allclose(result.mae, 3.0)
        np.testing.assert_allclose(result.binwise_mae, 3.0)
        assert len(result.bins) == 2
        starts = [b[0] for b in result.bins]
        assert starts == [0.0, 60.0]

    def test_mae_bounds_me(self):
        rng = np.random.default_rng(83)
        actual = rng.uniform(20, 90, 100)
        pred = actual + rng.normal(0, 5, 100)
        result = age_accuracy(pred, actual)
        assert result.mae >= abs(result.me)

    def test_single_bin_binwise_equals_mae(self):
        actual = np.array([61.0, 62.0, 63.0])
        pred = np.array([60.0, 65.0, 61.0])
        result = age_accuracy(pred, actual)
        np.testing.assert_allclose(result.binwise_mae, result.mae)


def oracle_signed_rank_p(diffs):
    """Two-sided exact p by full sign-flip enumeration with midranks."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = d.size
    from scipy.stats import rankdata

    ranks = rankdata(np.abs(d))
    w_obs = float(ranks[d > 0].sum())
    center = ranks.sum() / 2.0
    dev = abs(w_obs - center)
    hits = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = float(sum(r for r, s in zip(ranks, signs) if s))
        if abs(w - center) >= dev - 1e-9:
            hits += 1
    return hits / 2**n


class TestSignedRank:
    def test_hand_instance_n6(self):
        diffs = [1.5, -0.5, 2.0, 3.5, -1.0, 2.5]
        result = wilcoxon_signed_rank(diffs)
        assert result.method == "exact"
        np.testing.assert_allclose(result.p_value, oracle_signed_rank_p(diffs), rtol=1e-12)

    def test_enumeration_up_to_n10(self):
        rng = np.random.default_rng(89)
        for n in range(3, 11):
            for _ in range(5):
                diffs = np.round(rng.normal(0, 2, n), 1)
                diffs = diffs[diffs != 0]
                if diffs.size == 0:
                    continue
                result = wilcoxon_signed_rank(diffs)
                np.testing.assert_allclose(
                    result.p_value, oracle_signed_rank_p(diffs), rtol=1e-12
                )

    def test_symmetric_pairs_p_one(self):
        result = wilcoxon_signed_rank([1.0, -1.0, 2.0, -2.0])
        np.testing.assert_allclose(result.p_value, 1.0)

    def test_zeros_dropped(self):
        with_zeros = wilcoxon_signed_rank([0.0, 1.5, -0.5, 0.0, 2.0])
        without = wilcoxon_signed_rank([1.5, -0.5, 2.0])
        assert with_zeros.statistic == without.statistic
        assert with_zeros.p_value == without.p_value
        assert with_zeros.n_used == 3

    def test_all_zero_raises(self):
        with pytest.raises(AnalysisError):
            wilcoxon_signed_rank([0.0, 0.0, 0.0])

    def test_large_n_normal_branch(self):
        rng = np.random.default_rng(97)
        diffs = rng.normal(0.3, 1.0, 60)
        result = wilcoxon_signed_rank(diffs)
        assert result.method.startswith("normal")
        assert 0.0 <= result.p_value <= 1.0

    def test_monotone_transform_invariance(self):
        """Ranks of |d| and signs are unchanged by odd increasing maps."""
        diffs = np.array([1.5, -0.5, 2.0, 3.5, -1.0, 2.5])
        a = wilcoxon_signed_rank(diffs)
        b = wilcoxon_signed_rank(np.sign(diffs) * np.abs(diffs) ** 3)
        np.testing.assert_allclose(a.p_value, b.p_value, rtol=1e-12)


def oracle_rank_sum_p(a, b):
    """Exact permutation distribution of the group-a rank sum."""
    from scipy.stats import rankdata

    pooled = np.concatenate([a, b])
    ranks = rankdata(pooled)
    n_a = len(a)
    w_obs = float(ranks[:n_a].sum())
    mean_w = ranks.sum() * n_a / ranks.size
    dev = abs(w_obs - mean_w)
    hits = total = 0
    for combo in itertools.combinations(range(ranks.size), n_a):
        total += 1
        w = float(sum(ranks[i] for i in combo))
        if abs(w - mean_w) >= dev - 1e-9:
            hits += 1
    return hits / total


class TestRankSum:
    def test_disjoint_groups_minimal_p(self):
        result = wilcoxon_rank_sum([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert result.statistic == 0.0  # U for the first group
        np.testing.assert_allclose(result.p_value, 2 / math.comb(6, 3), rtol=1e-12)

    def test_single_elements(self):
        result = wilcoxon_rank_sum([1.0], [2.0])
        assert result.statistic in (0.0, 1.0)
        np.testing.assert_allclose(result.p_value, 1.0)

    def test_enumeration_up_to_ten(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n_a = int(rng.integers(1, 6))
            n_b = int(rng.integers(1, 11 - n_a))
            a = rng.normal(size=n_a)  # continuous, tie-free
            b = rng.normal(size=n_b)
            result = wilcoxon_rank_sum(a, b)
            assert result.method == "exact"
            np.testing.assert_allclose(
                result.p_value, oracle_rank_sum_p(a, b), rtol=1e-12
            )

    def test_ties_fall_back_to_normal(self):
        a = [1.0, 2.0, 2.0]
        b = [2.0, 3.0, 4.0]
        result = wilcoxon_rank_sum(a, b)
        assert "normal" in result.method and "ties" in result.method

    def test_identical_multisets_p_one(self):
        a = [3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0, 144.0, 233.0, 377.0]
        result = wilcoxon_rank_sum(a, list(a))
        np.testing.assert_allclose(result.p_value, 1.0)

    def test_empty_group_raises(self):
        with pytest.raises(DataError):
            wilcoxon_rank_sum([], [1.0])

