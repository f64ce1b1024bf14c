"""Simulator checks: determinism, analytic censoring rates, and the
round trip from generated cohorts through the fitting code."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from visage.cohort import load_cohort, save_cohort
from visage.cox import Covariate, build_design, fit_cox
from visage.errors import DataError
from visage.rng import substream
from visage.survival import kaplan_meier, log_rank
from visage.synth import SimCovariate, SimSpec, SimResult, simulate


BINARY = SimCovariate("sex", ("bernoulli", 0.5))


class TestDeterminism:
    def test_same_seed_identical_bytes(self, tmp_path):
        spec = SimSpec(
            n=150,
            beta_true=(0.5,),
            covariate_model=(BINARY,),
            censor_model=("uniform", 1200.0),
            seed=42,
        )
        a, b = simulate(spec), simulate(spec)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_cohort(a.cohort, pa)
        save_cohort(b.cohort, pb)
        assert pa.read_bytes() == pb.read_bytes()
        eta_a, eta_b = a.truth.pop("eta"), b.truth.pop("eta")
        assert a.truth == b.truth
        assert eta_a.dtype == eta_b.dtype == np.float64
        assert np.array_equal(eta_a, eta_b)

    def test_cohort_bytes_pinned(self, tmp_path):
        """The digest was recorded from the row-object implementation;
        simulate and save_cohort must keep writing the same file."""
        spec = SimSpec(
            n=300,
            beta_true=(0.05, 0.4, 0.8),
            censor_model=("uniform", 1500.0),
            covariate_model=(
                SimCovariate("fad", ("normal", 0.0, 6.0)),
                BINARY,
                SimCovariate("risk_scaled", ("beta", 2.0, 5.0)),
            ),
            embedding_dim=8,
            embedding_weights=(0.1, -0.2, 0.0, 0.3, 0.0, -0.1, 0.05, 0.0),
            seed=2024,
        )
        path = tmp_path / "cohort.csv"
        result = simulate(spec)
        save_cohort(result.cohort, path, result.embedding_blocks())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a7abebba1299e38cb1ae10396bc57c7bf035df2c7b538dd431bec8f550f4e7ec"
        )

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_redrawn_embedding_is_the_single_draw(self, tmp_path, n, dim):
        """The cohort holds no matrix. The e* cells that save_cohort writes
        from the redrawn blocks read back as the bits of one
        standard_normal((n, D)) draw of the synth/embeddings substream,
        on both sides of each block edge."""
        spec = SimSpec(n=n, embedding_dim=dim, embedding_weights=(0.5,) * dim, seed=9)
        result = simulate(spec)
        assert result.cohort.embedding is None
        path = tmp_path / "cohort.csv"
        save_cohort(result.cohort, path, result.embedding_blocks())
        single = substream(9, "synth/embeddings").standard_normal((n, dim))
        assert load_cohort(path).cohort.embedding.tobytes() == single.tobytes()

    def test_no_embedding_no_blocks(self, tmp_path):
        result = simulate(SimSpec(n=5, seed=1))
        assert list(result.embedding_blocks()) == []
        plain, redrawn = tmp_path / "plain.csv", tmp_path / "redrawn.csv"
        save_cohort(result.cohort, plain)
        save_cohort(result.cohort, redrawn, result.embedding_blocks())
        assert plain.read_bytes() == redrawn.read_bytes()

    def test_seed_changes_output(self):
        spec = SimSpec(n=50, seed=1)
        other = SimSpec(n=50, seed=2)
        ta = simulate(spec).cohort.times()
        tb = simulate(other).cohort.times()
        assert not np.array_equal(ta, tb)

    def test_rounding_is_ceiling_of_exact_times(self):
        """The exact-time and rounded runs share substreams, so the
        rounded cohort must be the ceiling of the exact one."""
        base = dict(
            n=200,
            beta_true=(0.7,),
            covariate_model=(BINARY,),
            censor_model=("uniform", 900.0),
            seed=7,
        )
        rounded = simulate(SimSpec(round_days=True, **base)).cohort
        exact = simulate(SimSpec(round_days=False, **base)).cohort
        np.testing.assert_array_equal(rounded.times(), np.ceil(exact.times()))
        np.testing.assert_array_equal(rounded.events(), exact.events())

    def test_exact_mode_gives_fractional_times(self):
        spec = SimSpec(n=100, round_days=False, seed=3)
        t = simulate(spec).cohort.times()
        assert np.any(t != np.floor(t))

    def test_rounded_mode_gives_whole_days(self):
        spec = SimSpec(n=100, round_days=True, seed=3)
        t = simulate(spec).cohort.times()
        np.testing.assert_array_equal(t, np.floor(t))


class TestMemory:
    def test_simulate_peak_below_half_the_matrix(self):
        """simulate reduces the embedding to eta a block of rows at a
        time: at n = 5k, D = 512 its allocation peak stays below half the
        20.5 MB matrix, and eta has the bits of the same reduction over
        the whole matrix."""
        n, dim, seed = 5_000, 512, 3
        weights = tuple(np.linspace(-0.1, 0.1, dim))
        spec = SimSpec(n=n, embedding_dim=dim, embedding_weights=weights, seed=seed)
        tracemalloc.start()
        try:
            result = simulate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * dim * 8 / 2
        whole = substream(seed, "synth/embeddings").standard_normal((n, dim))
        eta = result.truth["eta"]
        assert eta.dtype == np.float64
        assert np.array_equal(eta, np.einsum("ij,j->i", whole, weights))


class TestCensoringModels:
    """Empirical censored fraction vs the analytic value at n=10000.

    With event rate lam and censor time C, the censored fraction is
    P(T > C) = E[exp(-lam C)].
    """

    N = 10_000

    def test_uniform_window(self):
        # (1/(lam W))(1 - exp(-lam W)) with lam=0.002, W=1200 -> 0.37886
        spec = SimSpec(n=self.N, censor_model=("uniform", 1200.0), seed=11)
        got = simulate(spec).truth["censored_fraction"]
        lam, window = 0.002, 1200.0
        expect = (1.0 - np.exp(-lam * window)) / (lam * window)
        assert abs(got - expect) <= 0.03

    def test_exponential_competing_rate(self):
        # c/(c+lam) with both rates 0.002 -> exactly 1/2
        spec = SimSpec(n=self.N, censor_model=("exponential", 0.002), seed=13)
        got = simulate(spec).truth["censored_fraction"]
        assert abs(got - 0.5) <= 0.03

    def test_administrative_cutoff(self):
        # exp(-lam T) with lam=0.002, T=500 -> exp(-1)
        spec = SimSpec(n=self.N, censor_model=("admin", 500.0), seed=17)
        got = simulate(spec).truth["censored_fraction"]
        assert abs(got - np.exp(-1.0)) <= 0.03

    def test_no_censoring_model(self):
        spec = SimSpec(n=500, censor_model=("none",), seed=19)
        result = simulate(spec)
        assert result.truth["censored_fraction"] == 0.0
        assert result.cohort.event.all()

    def test_admin_below_all_events_km_flat_one(self):
        """Administrative cutoff far below any plausible event time:
        everything is censored and the product-limit curve never
        leaves 1."""
        spec = SimSpec(
            n=300, baseline_hazard=1e-8, censor_model=("admin", 30.0), seed=23
        )
        result = simulate(spec)
        cohort = result.cohort
        assert not np.any(cohort.events())
        np.testing.assert_array_equal(cohort.times(), np.full(300, 30.0))
        curve = kaplan_meier(cohort.times(), cohort.events())
        np.testing.assert_array_equal(curve.survival, np.ones_like(curve.survival))
        assert result.truth["censored_fraction"] == 1.0


class TestRecovery:
    def test_cox_beta_recovered(self):
        """beta = 0.7 on a binary covariate, n=2000: the partial
        likelihood estimate lands within +-0.1."""
        spec = SimSpec(
            n=2000,
            beta_true=(0.7,),
            covariate_model=(BINARY,),
            censor_model=("uniform", 1200.0),
            seed=29,
        )
        result = simulate(spec)
        cohort = result.cohort
        design = build_design(
            cohort, [Covariate("sex", kind="categorical", reference="female")]
        )
        fit = fit_cox(design, cohort.times(), cohort.events())
        assert abs(fit.beta[0] - 0.7) <= 0.1

    def test_null_beta_type_one_error(self):
        """beta = 0: the two-group log-rank should reject at roughly
        the nominal 5% rate over 500 seeds."""
        rejections = 0
        for seed in range(500):
            spec = SimSpec(
                n=80,
                beta_true=(0.0,),
                covariate_model=(BINARY,),
                censor_model=("uniform", 1500.0),
                seed=seed,
            )
            cohort = simulate(spec).cohort
            sexes = cohort.sex
            t, e = cohort.times(), cohort.events()
            male = sexes == "male"
            if male.all() or not male.any():
                continue
            test = log_rank([(t[male], e[male]), (t[~male], e[~male])])
            rejections += test.p_value < 0.05
        assert 0.02 <= rejections / 500 <= 0.09

    def test_eta_sidecar_consistent(self):
        spec = SimSpec(
            n=64,
            beta_true=(),
            covariate_model=(),
            embedding_dim=8,
            embedding_weights=tuple(0.25 * (-1.0) ** k for k in range(8)),
            seed=31,
        )
        result = simulate(spec)
        emb = np.concatenate(list(result.embedding_blocks()))
        assert emb.shape == (64, 8)
        w = np.asarray(result.truth["embedding_weights"])
        np.testing.assert_allclose(result.truth["eta"], emb @ w, rtol=1e-12)


class TestFieldMapping:
    def test_fad_drives_predicted_age(self):
        spec = SimSpec(
            n=40,
            beta_true=(0.1, 0.05),
            covariate_model=(
                SimCovariate("chrono_age", ("uniform", 40.0, 80.0)),
                SimCovariate("fad", ("normal", 2.0, 3.0)),
            ),
            seed=37,
        )
        cohort = simulate(spec).cohort
        assert not np.isnan(cohort.predicted_age).any()
        assert np.all((40.0 <= cohort.chrono_age) & (cohort.chrono_age <= 80.0))
        fads = cohort.predicted_age - cohort.chrono_age
        assert np.std(fads) > 0.5  # the normal draw, not a constant

    def test_risk_scaled_in_unit_interval(self):
        spec = SimSpec(
            n=40,
            beta_true=(1.2,),
            covariate_model=(SimCovariate("risk_scaled", ("beta", 0.25, 0.25)),),
            seed=41,
        )
        cohort = simulate(spec).cohort
        risks = cohort.risk_scaled
        assert np.all((risks >= 0.0) & (risks <= 1.0))

    def test_sex_bernoulli_maps_to_labels(self):
        spec = SimSpec(n=200, beta_true=(0.0,), covariate_model=(BINARY,), seed=43)
        cohort = simulate(spec).cohort
        labels = set(cohort.sex)
        assert labels == {"male", "female"}

    def test_truth_sidecar_fields(self):
        spec = SimSpec(
            n=25,
            beta_true=(0.7,),
            covariate_model=(BINARY,),
            censor_model=("admin", 1000.0),
            seed=47,
        )
        truth = simulate(spec).truth
        assert truth["n"] == 25
        assert truth["seed"] == 47
        assert truth["beta_true"] == [0.7]
        assert truth["censor_model"] == ["admin", 1000.0]
        assert truth["eta"].shape == (25,) and truth["eta"].dtype == np.float64
        assert not truth["eta"].flags.writeable
        assert truth["round_days"] is True
        assert truth["covariates"] == [{"field": "sex", "dist": ["bernoulli", 0.5]}]


class TestSpecValidation:
    def test_nonpositive_n(self):
        with pytest.raises(DataError):
            SimSpec(n=0)

    def test_nonpositive_baseline(self):
        with pytest.raises(DataError):
            SimSpec(n=10, baseline_hazard=0.0)

    def test_beta_covariate_mismatch(self):
        with pytest.raises(DataError):
            SimSpec(n=10, beta_true=(0.5, 0.2), covariate_model=(BINARY,))

    def test_unknown_censor_model(self):
        with pytest.raises(DataError):
            SimSpec(n=10, censor_model=("weibull", 2.0))

    def test_censor_model_missing_parameter(self):
        with pytest.raises(DataError):
            SimSpec(n=10, censor_model=("uniform",))

    def test_unknown_covariate_field(self):
        with pytest.raises(DataError):
            SimSpec(
                n=10,
                beta_true=(0.1,),
                covariate_model=(SimCovariate("height", ("normal", 170, 10)),),
            )

    def test_embedding_weights_without_dim(self):
        with pytest.raises(DataError):
            SimSpec(n=10, embedding_weights=(0.1, 0.2))

    @pytest.mark.parametrize("named, kwargs", [
        ("baseline_hazard", {"baseline_hazard": float("nan")}),
        ("baseline_hazard", {"baseline_hazard": float("inf")}),
        ("beta_true", {"beta_true": (float("nan"),), "covariate_model": (BINARY,)}),
        ("dist", {"beta_true": (0.1,), "covariate_model": (
            SimCovariate("fad", ("normal", 0.0, float("nan"))),
        )}),
        ("embedding_weights", {"embedding_dim": 2, "embedding_weights": (0.1, float("inf"))}),
        ("censor_model", {"censor_model": ("uniform", float("nan"))}),
        ("censor_model", {"censor_model": ("admin", float("inf"))}),
    ])
    def test_non_finite_setting_rejected(self, named, kwargs):
        with pytest.raises(DataError, match=named):
            SimSpec(n=10, **kwargs)

    @pytest.mark.parametrize("field, dist", [
        ("fad", ("normal", 0.0)),
        ("fad", ("normal", 0.0, 1.0, 5.0)),
        ("fad", ("normal", 0.0, -1.0)),
        ("fad", ("beta", 0.0, 1.0)),
        ("fad", ("uniform", 5.0, 1.0)),
        ("fad", ("gamma", 1.0, 2.0)),
        ("sex", ("bernoulli", 2.0)),
        ("sex", ("bernoulli", -0.1)),
    ])
    def test_distribution_checked(self, field, dist):
        with pytest.raises(DataError, match=rf"covariate_model\[0\] \({field}\) dist"):
            SimSpec(n=10, beta_true=(0.1,), covariate_model=(SimCovariate(field, dist),))

    def test_distribution_range_ends_accepted(self):
        """A point mass is a valid draw: sd 0, a == b, p 0 and 1."""
        covs = (
            SimCovariate("fad", ("normal", 1.0, 0.0)),
            SimCovariate("chrono_age", ("uniform", 60.0, 60.0)),
            SimCovariate("sex", ("bernoulli", 1.0)),
        )
        cohort = simulate(SimSpec(n=10, beta_true=(0.1, 0.1, 0.1), covariate_model=covs)).cohort
        assert (cohort.chrono_age == 60.0).all() and (cohort.sex == "male").all()

    def test_no_censoring_takes_no_parameter(self):
        with pytest.raises(DataError, match="censor_model 'none'"):
            SimSpec(n=10, censor_model=("none", 5.0))

    def test_embedding_weight_length_mismatch(self):
        with pytest.raises(DataError):
            SimSpec(n=10, embedding_dim=4, embedding_weights=(0.1, 0.2))
