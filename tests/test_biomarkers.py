"""Biomarker transforms, fixed-cut stratification, and embedding
similarity."""

from __future__ import annotations

import numpy as np
import pytest

from visage.biomarkers import (
    _BINS,
    FAD_BAND_CUTS,
    SCHEMES,
    compute_fad,
    cosine_similarity_profile,
    fad_for_cohort,
    group_indices,
    minmax_scale,
    stratify,
)
from visage.cox import Covariate, build_design
from visage.errors import AnalysisError, ConstantInputError, DataError
from tests.conftest import make_cohort


class TestFad:
    def test_definition(self):
        col = compute_fad([70.0], [65.0])
        np.testing.assert_allclose(col.values, [5.0])

    def test_identity_zero(self):
        col = compute_fad([62.0, 71.0], [62.0, 71.0])
        np.testing.assert_allclose(col.values, [0.0, 0.0])

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(40, 90, 20)
        b = rng.uniform(40, 90, 20)
        np.testing.assert_allclose(
            compute_fad(a, b).values, -compute_fad(b, a).values
        )

    def test_missing_prediction_excluded(self):
        col = compute_fad([70.0, None, 66.0], [65.0, 60.0, 66.0])
        assert np.isnan(col.values[1])
        np.testing.assert_allclose(col.values[[0, 2]], [5.0, 0.0])

    def test_median_fad_synthetic(self):
        """predicted = chrono + N(1.1, 3) recovers a median near 1.1."""
        rng = np.random.default_rng(7)
        chrono = rng.uniform(40, 85, 4000)
        predicted = chrono + rng.normal(1.1, 3.0, 4000)
        cohort = make_cohort(
            np.ones(4000), np.ones(4000, dtype=bool),
            chrono_age=chrono, predicted_age=predicted,
        )
        col = fad_for_cohort(cohort)
        assert abs(np.median(col.values) - 1.1) < 0.2

    def test_cox_design_uses_the_same_definition(self):
        """A Cox "fad" column is compute_fad's: a NaN chrono_age raises
        fad_for_cohort's DataError, and a row without a prediction is
        left out of the design."""
        bad = make_cohort(
            [5.0, 8.0, 12.0], [True, True, False],
            chrono_age=[60.0, np.nan, 70.0], predicted_age=[62.0, 64.0, 71.0],
        )
        with pytest.raises(DataError) as expected:
            fad_for_cohort(bad)
        with pytest.raises(DataError) as got:
            build_design(bad, [Covariate("fad")])
        assert str(got.value) == str(expected.value)

        cohort = make_cohort(
            [5.0, 8.0, 12.0, 15.0], [True, True, False, True],
            chrono_age=[60.0, 65.0, 70.0, 50.0], predicted_age=[62.0, np.nan, 71.0, 58.0],
        )
        design = build_design(cohort, [Covariate("fad")])
        assert design.included.tolist() == [True, False, True, True]
        np.testing.assert_array_equal(design.matrix[:, 0], [2.0, 0.0, 1.0, 8.0])


class TestMinmax:
    def test_hand_values(self):
        np.testing.assert_allclose(minmax_scale([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_idempotent_on_spanning_data(self):
        x = np.array([0.0, 0.3, 0.7, 1.0])
        np.testing.assert_allclose(minmax_scale(x), x)

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=50)
        np.testing.assert_allclose(
            minmax_scale(3.7 * x + 11.0), minmax_scale(x), atol=1e-12
        )

    def test_order_preserved(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=100)
        s = minmax_scale(x)
        assert np.array_equal(np.argsort(x, kind="stable"), np.argsort(s, kind="stable"))

    def test_constant_rejected(self):
        with pytest.raises(ConstantInputError):
            minmax_scale([5.0, 5.0])


def looped_stratify(values, scheme):
    """The strata rules applied one value at a time, as ``stratify``
    once did scheme by scheme: (labels, display order, boundaries)."""
    if scheme == "fad_ge5":
        return ["≥5" if v >= 5.0 else "<5" for v in values], ("<5", "≥5"), (5.0,)
    if scheme == "fad_le_minus5":
        return ["≤-5" if v <= -5.0 else ">-5" for v in values], (">-5", "≤-5"), (-5.0,)
    if scheme == "risk_half":
        return ["≥0.5" if v >= 0.5 else "<0.5" for v in values], ("<0.5", "≥0.5"), (0.5,)
    if scheme == "fad_bands":
        cuts = FAD_BAND_CUTS
        order = (f"<{cuts[0]:g}", *(f"{lo:g} to {hi:g}" for lo, hi in zip(cuts, cuts[1:])),
                 f"{cuts[-1]:g}+")
    elif scheme == "risk_quartiles":
        cuts = (0.25, 0.5, 0.75)
        order = ("<0.25", "0.25-0.49", "0.5-0.74", "≥0.75")
    else:  # risk_deciles
        cuts = tuple(np.round(np.arange(0.1, 1.0, 0.1), 10))
        order = tuple(f"{lo:.1f}-{lo + 0.1:.1f}" for lo in np.arange(0.0, 1.0, 0.1))
    labels = [order[sum(v >= c for c in cuts)] for v in values]
    return labels, order, cuts


class TestStratify:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_looped_rules(self, scheme):
        """Every scheme agrees with the per-value rules on each cut, one
        float step either side of it, the ends of [0, 1] and random values."""
        cuts = np.array(looped_stratify([], scheme)[2], dtype=float)
        rng = np.random.default_rng(29)
        if scheme.startswith("risk"):
            extra = np.concatenate([[0.0, 1.0], rng.random(300)])
        else:
            extra = rng.uniform(-30.0, 30.0, 300)
        values = np.concatenate(
            [cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf), extra]
        )
        labels, order, boundaries = looped_stratify(values, scheme)
        assignment = stratify(values, scheme)
        assert list(assignment.labels) == labels
        assert not assignment.labels.flags.writeable
        assert assignment.order == order
        assert _BINS[scheme].cuts == boundaries
        assert [type(b) for b in _BINS[scheme].cuts] == [type(b) for b in boundaries]

    def test_fad_ge5_labels(self):
        assignment = stratify(np.array([7.0, 4.9, 5.0, -2.0]), "fad_ge5")
        assert list(assignment.labels) == ["≥5", "<5", "≥5", "<5"]

    def test_fad_le_minus5(self):
        assignment = stratify(np.array([-5.0, -4.9, 0.0]), "fad_le_minus5")
        assert list(assignment.labels) == ["≤-5", ">-5", ">-5"]

    def test_risk_quartile_labels(self):
        assignment = stratify(np.array([0.31, 0.1, 0.5, 0.75, 1.0]), "risk_quartiles")
        assert list(assignment.labels) == [
            "0.25-0.49",
            "<0.25",
            "0.5-0.74",
            "≥0.75",
            "≥0.75",
        ]

    def test_decile_boundaries_left_closed(self):
        assignment = stratify(np.array([0.0, 0.1, 0.95, 1.0]), "risk_deciles")
        assert assignment.labels[0] == "0.0-0.1"
        assert assignment.labels[1] == "0.1-0.2"
        assert assignment.labels[2] == "0.9-1.0"
        assert assignment.labels[3] == "0.9-1.0"  # last interval closed

    def test_fad_bands_cover_range(self):
        values = np.array([-50.0, -10.0, -7.0, -2.0, 3.0, 8.0, 15.0, 25.0])
        assignment = stratify(values, "fad_bands")
        assert assignment.labels[0] == "<-10"
        assert assignment.labels[1] == "-10 to -5"
        assert assignment.labels[-1] == "20+"
        assert len(set(assignment.labels)) == 7

    def test_partition_property(self):
        rng = np.random.default_rng(17)
        values = rng.random(300)
        for scheme in ("risk_quartiles", "risk_deciles", "risk_half"):
            assignment = stratify(values, scheme)
            assert len(assignment.labels) == 300
            groups = group_indices(assignment)
            assert sum(idx.size for idx in groups.values()) == 300

    def test_boundaries_strictly_increasing(self):
        for scheme in SCHEMES:
            b = np.asarray(_BINS[scheme].cuts)
            assert np.all(np.diff(b) > 0)

    def test_risk_range_enforced(self):
        with pytest.raises(DataError):
            stratify(np.array([0.5, 1.2]), "risk_half")

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            stratify(np.array([0.5, np.nan]), "risk_half")

    def test_unknown_scheme(self):
        with pytest.raises(DataError):
            stratify(np.array([0.5]), "tertiles")

    def test_group_indices_display_order(self):
        values = np.array([0.9, 0.1, 0.6, 0.3])
        groups = group_indices(stratify(values, "risk_quartiles"))
        assert list(groups) == ["<0.25", "0.25-0.49", "0.5-0.74", "≥0.75"]
        np.testing.assert_array_equal(groups["<0.25"], [1])

    def test_default_band_cuts_frozen(self):
        assert FAD_BAND_CUTS == (-10.0, -5.0, 0.0, 5.0, 10.0, 20.0)


class TestCosine:
    def test_identical_vectors(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(10, 8))
        sims, median = cosine_similarity_profile(a, a.copy())
        np.testing.assert_allclose(sims, 1.0, rtol=1e-12)
        np.testing.assert_allclose(median, 1.0, rtol=1e-12)

    def test_orthogonal_pairs(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[0.0, 3.0], [5.0, 0.0]])
        sims, median = cosine_similarity_profile(a, b)
        np.testing.assert_allclose(sims, 0.0, atol=1e-15)
        assert median == 0.0

    def test_positive_rescale_invariance(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(20, 16))
        b = rng.normal(size=(20, 16))
        scale = rng.uniform(0.1, 9.0, size=(20, 1))
        sims1, _ = cosine_similarity_profile(a, b)
        sims2, _ = cosine_similarity_profile(a * scale, b)
        np.testing.assert_allclose(sims1, sims2, rtol=1e-10)

    def test_independent_768_dim_median_near_zero(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(1000, 768))
        b = rng.normal(size=(1000, 768))
        _, median = cosine_similarity_profile(a, b)
        assert abs(median) < 0.05

    def test_zero_norm_rejected(self):
        with pytest.raises(AnalysisError):
            cosine_similarity_profile(np.zeros((1, 4)), np.ones((1, 4)))
