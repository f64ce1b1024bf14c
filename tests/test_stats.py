"""Closed-form normal and chi-square tails against scipy as the oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from visage._stats import Z95, chi2_sf, norm_sf


def test_two_sided_normal_p_matches_scipy():
    z = np.linspace(-37.0, 37.0, 20001)
    ours = np.array([2.0 * norm_sf(abs(v)) for v in z])
    np.testing.assert_allclose(ours, 2.0 * stats.norm.sf(np.abs(z)), rtol=1e-12, atol=0)


def test_normal_nan_stays_nan():
    assert math.isnan(norm_sf(float("nan")))


def test_z95_is_scipy_quantile_exactly():
    assert Z95 == float(stats.norm.ppf(0.975))


@pytest.mark.parametrize("dof", range(1, 51))
def test_chi2_matches_scipy(dof):
    x = np.concatenate([np.geomspace(1e-6, 1400.0, 800), np.linspace(0.05, 1400.0, 800)])
    ref = stats.chi2.sf(x, dof)
    keep = ref >= 1e-300
    ours = np.array([chi2_sf(v, dof) for v in x[keep]])
    np.testing.assert_allclose(ours, ref[keep], rtol=1e-12, atol=0)


@pytest.mark.parametrize("dof", [1, 2, 3, 10])
def test_chi2_at_or_below_zero_is_one(dof):
    assert chi2_sf(0.0, dof) == 1.0
    assert chi2_sf(-3.5, dof) == 1.0


def test_chi2_infinite_statistic_is_zero():
    assert chi2_sf(math.inf, 4) == 0.0


def test_chi2_rejects_zero_dof():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
