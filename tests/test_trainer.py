"""Ranking loss, optimizer, training loops, and the two balancers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from visage.errors import AnalysisError, DataError
from visage.metrics import harrell_c
from visage.trainer import (
    DEFAULT_FACTOR_TABLE,
    MODEL_FORMAT,
    TrainConfig,
    _ROW_BLOCK,
    _AdamW,
    _forward,
    _backward,
    _split,
    balance_bins,
    balance_by_factors,
    factor_for_age,
    load_model,
    pairwise_rank_loss,
    save_model,
    train_age_model,
    train_risk_model,
)


def oracle_pair_loss(risks, times, events, smooth_lambda, form="logistic"):
    """Direct double loop over the loss definition."""
    r = np.asarray(risks, dtype=float)
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    n = r.size
    terms = []
    for i in range(n):
        if not e[i]:
            continue
        for j in range(n):
            if t[i] < t[j]:
                margin = r[i] - r[j]
                if form == "logistic":
                    terms.append(np.log1p(np.exp(-margin)))
                else:
                    terms.append(max(0.0, 1.0 - margin))
    pair = float(np.mean(terms)) if terms else 0.0
    order = np.lexsort((np.arange(n), t))
    smooth = float(smooth_lambda * np.sum(np.diff(r[order]) ** 2))
    return pair + smooth, len(terms)


def dense_pair_loss(risks, times, events, smooth_lambda, form="logistic"):
    """The loss and gradient from full n x n pair matrices."""
    r = np.asarray(risks, dtype=float)
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    n = r.size
    grad = np.zeros(n)
    pair_mask = e[:, None] & (t[:, None] < t[None, :])
    n_pairs = int(pair_mask.sum())
    pair_loss = 0.0
    if n_pairs:
        margin = r[:, None] - r[None, :]
        if form == "logistic":
            losses = np.maximum(-margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
            slope = -1.0 / (1.0 + np.exp(margin))
        else:
            losses = np.maximum(0.0, 1.0 - margin)
            slope = np.where(margin < 1.0, -1.0, 0.0)
        losses = np.where(pair_mask, losses, 0.0)
        slope = np.where(pair_mask, slope, 0.0)
        pair_loss = float(losses.sum() / n_pairs)
        grad += slope.sum(axis=1) / n_pairs
        grad -= slope.sum(axis=0) / n_pairs
    smooth_loss = 0.0
    if smooth_lambda > 0 and n > 1:
        order = np.lexsort((np.arange(n), t))
        diffs = r[order][1:] - r[order][:-1]
        smooth_loss = float(smooth_lambda * np.sum(diffs**2))
        contrib = np.zeros(n)
        np.add.at(contrib, order[1:], 2.0 * smooth_lambda * diffs)
        np.add.at(contrib, order[:-1], -2.0 * smooth_lambda * diffs)
        grad += contrib
    return pair_loss + smooth_loss, grad, n_pairs


class TestPairwiseLoss:
    @pytest.mark.parametrize("form", ["logistic", "hinge"])
    def test_blocked_matches_dense_matrices(self, form):
        """Many row blocks, tied times and tied risks, events at the
        latest time (rows with no later subject)."""
        rng = np.random.default_rng(13)
        n = 40 * _ROW_BLOCK + 7
        r = rng.integers(0, 12, n) * 0.25  # tied risks, margins on hinge kinks
        t = rng.integers(1, 60, n).astype(float)
        e = rng.random(n) < 0.6
        e[t == t.max()] = True
        for lam in (0.0, 1e-3):
            expect_loss, expect_grad, n_pairs = dense_pair_loss(r, t, e, lam, form)
            result = pairwise_rank_loss(r, t, e, lam, form)
            assert result.n_pairs == n_pairs
            np.testing.assert_allclose(result.loss, expect_loss, rtol=1e-12)
            np.testing.assert_allclose(result.grad, expect_grad, rtol=1e-10)

    @pytest.mark.parametrize(
        "risks, times",
        [
            ([np.nan, 0.2, 0.1], [1.0, 2.0, 3.0]),  # loss and gradient came out NaN
            ([0.3, 0.2, 0.1], [1.0, np.nan, 3.0]),  # the NaN time's pairs dropped out
            ([np.inf, 0.2, 0.1], [1.0, 2.0, 3.0]),
            ([0.3, 0.2, 0.1], [1.0, 2.0, np.inf]),
        ],
    )
    def test_non_finite_input_rejected(self, risks, times):
        with pytest.raises(DataError):
            pairwise_rank_loss(risks, times, [True, True, True])

    def test_symmetric_point_log2(self):
        result = pairwise_rank_loss([0.3, 0.3], [5.0, 10.0], [True, False])
        np.testing.assert_allclose(result.pair_loss, np.log(2), rtol=1e-12)
        assert result.n_pairs == 1

    def test_correctly_ranked_limit(self):
        result = pairwise_rank_loss([40.0, 0.0], [5.0, 10.0], [True, False])
        assert result.pair_loss < 1e-15

    @pytest.mark.parametrize("form", ["logistic", "hinge"])
    def test_loss_matches_oracle(self, form):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            r = rng.normal(size=n)
            t = rng.integers(1, 6, n).astype(float)
            e = rng.random(n) < 0.7
            lam = float(rng.choice([0.0, 1e-4, 0.05]))
            expect, n_pairs = oracle_pair_loss(r, t, e, lam, form)
            result = pairwise_rank_loss(r, t, e, lam, form)
            np.testing.assert_allclose(result.loss, expect, rtol=1e-12, atol=1e-15)
            assert result.n_pairs == n_pairs

    @pytest.mark.parametrize("form", ["logistic", "hinge"])
    def test_gradient_matches_central_differences(self, form):
        """Random 8-subject batch, h=1e-6, 1e-5 relative tolerance.

        Hinge has kinks at margin 1; the seeded draws keep margins away
        from them.
        """
        rng = np.random.default_rng(7)
        n = 8
        r = rng.normal(0, 0.3, n)
        t = rng.integers(1, 9, n).astype(float)
        e = rng.random(n) < 0.7
        lam = 1e-4
        result = pairwise_rank_loss(r, t, e, lam, form)
        h = 1e-6
        for i in range(n):
            rp, rm = r.copy(), r.copy()
            rp[i] += h
            rm[i] -= h
            fd = (
                pairwise_rank_loss(rp, t, e, lam, form).loss
                - pairwise_rank_loss(rm, t, e, lam, form).loss
            ) / (2 * h)
            np.testing.assert_allclose(result.grad[i], fd, rtol=1e-5, atol=1e-9)

    def test_equal_times_never_pair(self):
        result = pairwise_rank_loss([1.0, 0.0], [5.0, 5.0], [True, False])
        assert result.no_pairs
        assert result.pair_loss == 0.0

    def test_no_pairs_flagged_smooth_still_present(self):
        result = pairwise_rank_loss(
            [1.0, 0.0], [5.0, 5.0], [True, False], smooth_lambda=0.1
        )
        assert result.no_pairs
        assert result.smooth_loss > 0.0
        assert np.any(result.grad != 0.0)

    def test_shift_invariance_and_zero_sum_gradient(self):
        rng = np.random.default_rng(11)
        n = 10
        r = rng.normal(size=n)
        t = rng.integers(1, 20, n).astype(float)
        e = rng.random(n) < 0.7
        a = pairwise_rank_loss(r, t, e, 0.0)
        b = pairwise_rank_loss(r + 13.7, t, e, 0.0)
        np.testing.assert_allclose(a.loss, b.loss, rtol=1e-9)
        np.testing.assert_allclose(a.grad.sum(), 0.0, atol=1e-12)

    def test_smooth_term_zero_iff_constant(self):
        t = np.array([3.0, 1.0, 2.0])
        flat = pairwise_rank_loss([0.4, 0.4, 0.4], t, [1, 1, 1], 0.5)
        assert flat.smooth_loss == 0.0
        bumpy = pairwise_rank_loss([0.4, 0.5, 0.4], t, [1, 1, 1], 0.5)
        assert bumpy.smooth_loss > 0.0

    def test_smooth_hand_value(self):
        """times [1,2,3] with risks [0, 1, 3] in time order:
        lambda*((1-0)^2 + (3-1)^2) = 5*lambda."""
        result = pairwise_rank_loss(
            [0.0, 1.0, 3.0], [1.0, 2.0, 3.0], [0, 0, 0], smooth_lambda=0.01
        )
        np.testing.assert_allclose(result.smooth_loss, 0.05, rtol=1e-12)


class TestAdamW:
    def test_single_step_hand_formula(self):
        config = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        params = {"w": np.array([2.0]), "b": np.array([1.0])}
        opt = _AdamW(params, config)
        g = np.array([0.4])
        opt.step({"w": g.copy(), "b": g.copy()})
        m_hat = (1 - config.beta1) * g / (1 - config.beta1)
        v_hat = (1 - config.beta2) * g * g / (1 - config.beta2)
        update = m_hat / (np.sqrt(v_hat) + 1e-8)
        expect_w = 2.0 - 0.1 * (update + 0.5 * 2.0)
        expect_b = 1.0 - 0.1 * update  # no decay on bias
        np.testing.assert_allclose(params["w"], expect_w, rtol=1e-12)
        np.testing.assert_allclose(params["b"], expect_b, rtol=1e-12)

    def test_decay_skips_bias_keys(self):
        config = TrainConfig(learning_rate=1e-3, weight_decay=0.9)
        params = {"hidden_b": np.array([5.0]), "w": np.array([5.0])}
        opt = _AdamW(params, config)
        opt.step({"hidden_b": np.zeros(1), "w": np.zeros(1)})
        np.testing.assert_allclose(params["hidden_b"], 5.0)  # untouched
        assert params["w"][0] < 5.0  # decayed


class TestBackward:
    @pytest.mark.parametrize("hidden", [None, 4])
    def test_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(13)
        n, d = 8, 5
        X = rng.normal(size=(n, d))
        if hidden:
            params = {
                "hidden_w": rng.normal(0, 0.3, (hidden, d)),
                "hidden_b": rng.normal(0, 0.1, hidden),
                "w": rng.normal(0, 0.3, hidden),
                "b": np.array([0.2]),
            }
        else:
            params = {"w": rng.normal(0, 0.3, d), "b": np.array([0.2])}
        target = rng.normal(size=n)

        def loss_of(p):
            r, _ = _forward(p, X)
            return 0.5 * np.sum((r - target) ** 2)

        risks, hid = _forward(params, X)
        grads = _backward(params, X, hid, risks - target)
        h = 1e-6
        for key, g in grads.items():
            flat = params[key].ravel()
            g_flat = np.asarray(g, dtype=float).ravel()
            for idx in range(flat.size):
                saved = flat[idx]
                flat[idx] = saved + h
                up = loss_of(params)
                flat[idx] = saved - h
                down = loss_of(params)
                flat[idx] = saved
                np.testing.assert_allclose(
                    g_flat[idx], (up - down) / (2 * h), rtol=1e-4, atol=1e-8
                )


def linear_risk_data(seed, n=2000, d=16):
    """Exponential times with true hazard exp(w*.x).

    Weight scale 1.2 puts the oracle concordance (scoring by the true
    linear predictor itself) near 0.925, leaving headroom above the
    0.90 bar; at scale 0.35 the ceiling is only ~0.78, so a weaker
    draw would make the bar unreachable by any model.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w_true = np.where(np.arange(d) % 2 == 0, 1.2, -1.2)
    eta = X @ w_true
    t = rng.exponential(1 / (0.002 * np.exp(eta)))
    t = np.ceil(t)
    e = np.ones(n, dtype=bool)
    return X, t, e


class TestRiskTraining:
    def test_reaches_high_validation_c(self):
        X, t, e = linear_risk_data(17)
        result = train_risk_model(X, t, e, TrainConfig(seed=0))
        assert result.trace[-1].val_c >= 0.90

    def test_permuted_labels_stay_at_chance(self):
        X, t, e = linear_risk_data(19)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(t)
        result = train_risk_model(X, shuffled, e, TrainConfig(seed=0))
        assert abs(result.trace[-1].val_c - 0.5) <= 0.05

    def test_bit_identical_repeat(self):
        X, t, e = linear_risk_data(23, n=300)
        a = train_risk_model(X, t, e, TrainConfig(seed=5, epochs=3))
        b = train_risk_model(X, t, e, TrainConfig(seed=5, epochs=3))
        assert np.array_equal(a.model.params["w"], b.model.params["w"])
        assert a.model.params["b"][0] == b.model.params["b"][0]
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            assert np.array_equal(ca.params["w"], cb.params["w"])

    def test_different_seed_different_model(self):
        X, t, e = linear_risk_data(23, n=300)
        a = train_risk_model(X, t, e, TrainConfig(seed=5, epochs=2))
        b = train_risk_model(X, t, e, TrainConfig(seed=6, epochs=2))
        assert not np.array_equal(a.model.params["w"], b.model.params["w"])

    def test_epochs_zero_initial_model(self):
        X, t, e = linear_risk_data(29, n=100)
        result = train_risk_model(X, t, e, TrainConfig(seed=1, epochs=0))
        assert result.trace == ()
        assert result.checkpoints == ()
        assert result.model.params["w"].shape == (16,)

    def test_monotone_descent_fixed_order(self):
        X, t, e = linear_risk_data(31, n=400)
        result = train_risk_model(
            X, t, e, TrainConfig(seed=2, epochs=6, shuffle=False, learning_rate=1e-4)
        )
        losses = [s.train_loss for s in result.trace]
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev + 1e-3

    def test_all_censored_rejected(self):
        X = np.zeros((10, 3))
        with pytest.raises(AnalysisError):
            train_risk_model(X, np.arange(1, 11, dtype=float), np.zeros(10, bool))

    def test_checkpoints_one_per_epoch(self):
        X, t, e = linear_risk_data(37, n=150)
        result = train_risk_model(X, t, e, TrainConfig(seed=3, epochs=4))
        assert len(result.checkpoints) == 4
        assert len(result.trace) == 4
        assert [s.epoch for s in result.trace] == [1, 2, 3, 4]

    def test_split_is_trailing_fraction(self):
        config = TrainConfig(seed=9, validation_fraction=0.2)
        train_idx, val_idx = _split(50, config)
        assert val_idx.size == 10
        assert train_idx.size == 40
        assert set(train_idx) | set(val_idx) == set(range(50))
        again_train, again_val = _split(50, config)
        np.testing.assert_array_equal(train_idx, again_train)
        np.testing.assert_array_equal(val_idx, again_val)

    def test_monotone_link_positive_weight(self):
        X, t, e = linear_risk_data(41, n=300)
        result = train_risk_model(X, t, e, TrainConfig(seed=0, epochs=2))
        model = result.model
        j = int(np.argmax(np.abs(model.params["w"])))
        x0 = np.zeros((1, 16))
        x1 = x0.copy()
        x1[0, j] = 1.0
        lo, hi = model.predict(x0)[0], model.predict(x1)[0]
        if model.params["w"][j] > 0:
            assert hi > lo
        else:
            assert hi < lo

    def test_hidden_layer_variant_runs(self):
        X, t, e = linear_risk_data(43, n=200)
        result = train_risk_model(X, t, e, TrainConfig(seed=0, epochs=2, hidden=8))
        assert result.model.params["hidden_w"].shape == (8, 16)
        assert np.isfinite(result.model.predict(X)).all()

    def test_batch_without_pairs_steps_only_on_a_smoothness_gradient(self):
        """Every event shares the latest time, so no batch holds a pair:
        all batches count as skipped. Without the smoothness term their
        gradient is zero and the model stays at its initial weights; with
        it, each batch still steps."""
        rng = np.random.default_rng(79)
        n = 40
        X = rng.normal(size=(n, 4))
        e = np.arange(n) % 2 == 0
        t = np.where(e, 100.0, rng.uniform(1.0, 99.0, n))
        config = TrainConfig(seed=4, epochs=2, batch_size=4, learning_rate=1e-3)
        initial = train_risk_model(X, t, e, TrainConfig(seed=4, epochs=0)).model
        skipped = train_risk_model(X, t, e, TrainConfig(**{**vars(config), "smooth_lambda": 0.0}))
        stepped = train_risk_model(X, t, e, config)
        n_batches = -(-len(skipped.train_indices) // config.batch_size)
        for result in (skipped, stepped):
            assert [s.skipped_batches for s in result.trace] == [n_batches] * 2
        assert np.array_equal(skipped.model.params["w"], initial.params["w"])
        assert skipped.model.params["b"][0] == initial.params["b"][0]
        assert not np.array_equal(stepped.model.params["w"], skipped.model.params["w"])

    def test_hidden_width_zero_is_linear_and_negative_rejected(self):
        X, t, e = linear_risk_data(43, n=200)
        result = train_risk_model(X, t, e, TrainConfig(seed=0, epochs=1, hidden=0))
        assert "hidden_w" not in result.model.params
        with pytest.raises(DataError, match="hidden"):
            TrainConfig(hidden=-3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("name", [
        "learning_rate", "beta1", "beta2", "validation_fraction", "weight_decay", "smooth_lambda",
    ])
    def test_float_setting_outside_its_range_rejected(self, name, value):
        with pytest.raises(DataError, match=name):
            TrainConfig(**{name: value})


class TestAgeTraining:
    def test_constant_target_bias_converges(self):
        rng = np.random.default_rng(47)
        X = rng.normal(size=(64, 4))
        ages = np.full(64, 5.0)
        config = TrainConfig(seed=0, learning_rate=0.1, epochs=20, batch_size=16)
        result = train_age_model(X, ages, config)
        assert abs(result.model.params["b"][0] - 5.0) < 0.5
        assert result.trace[-1].val_mae < 0.5

    def test_linear_ground_truth_low_mae(self):
        rng = np.random.default_rng(53)
        n, d = 2000, 8
        X = rng.normal(size=(n, d))
        w_true = rng.uniform(-3, 3, d)
        ages = 60.0 + X @ w_true
        config = TrainConfig(seed=0, learning_rate=0.05, epochs=80, batch_size=64)
        result = train_age_model(X, ages, config)
        assert result.trace[-1].val_mae < 0.1 * float(np.std(ages))

    def test_deterministic(self):
        rng = np.random.default_rng(59)
        X = rng.normal(size=(80, 4))
        ages = rng.uniform(40, 80, 80)
        a = train_age_model(X, ages, TrainConfig(seed=4, epochs=3))
        b = train_age_model(X, ages, TrainConfig(seed=4, epochs=3))
        assert np.array_equal(a.model.params["w"], b.model.params["w"])

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            train_age_model(np.zeros((0, 3)), np.zeros(0))


class TestFactorBalancer:
    def test_anchor_factors(self):
        assert factor_for_age(30.0) == 1
        assert factor_for_age(52.0) == 2
        assert factor_for_age(100.0) == 20

    def test_replication_counts(self):
        ages = np.array([30.0, 52.0, 100.0])
        out = balance_by_factors(ages, seed=0)
        values, counts = np.unique(out, return_counts=True)
        by_index = dict(zip(values.tolist(), counts.tolist()))
        assert by_index == {0: 1, 1: 2, 2: 20}

    def test_factors_nondecreasing_with_age(self):
        factors = [factor_for_age(a) for a in np.arange(0.0, 116.0, 1.0)]
        assert all(b >= a for a, b in zip(factors, factors[1:]))
        assert factors[0] == 1 and factors[-1] == 20

    def test_age_outside_coverage(self):
        with pytest.raises(DataError):
            balance_by_factors(np.array([120.0]))

    def test_shuffle_deterministic(self):
        ages = np.array([30.0, 52.0, 100.0, 71.0])
        a = balance_by_factors(ages, seed=3)
        b = balance_by_factors(ages, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_table_is_data(self):
        table = ((0.0, 116.0, 3),)
        out = balance_by_factors(np.array([10.0, 20.0]), table=table, seed=0)
        assert out.size == 6

    def test_default_table_covers_zero_to_116(self):
        lows = [row[0] for row in DEFAULT_FACTOR_TABLE]
        highs = [row[1] for row in DEFAULT_FACTOR_TABLE]
        assert min(lows) == 0.0
        assert max(highs) == 116.0


class TestBinBalancer:
    def test_fixed_point_bin(self):
        ages = np.full(200, 62.0)
        out = balance_bins(ages, target=200, seed=0)
        assert sorted(out.tolist()) == list(range(200))

    def test_oversized_bin_distinct_subset(self):
        ages = np.full(400, 62.0)
        out = balance_bins(ages, target=200, seed=0)
        assert out.size == 200
        assert np.unique(out).size == 200

    def test_undersized_bin_all_originals_present(self):
        ages = np.full(50, 62.0)
        out = balance_bins(ages, target=200, seed=0)
        assert out.size == 200
        assert np.unique(out).size == 50

    def test_every_occupied_bin_hits_target(self):
        rng = np.random.default_rng(61)
        ages = rng.uniform(20, 90, 700)
        out = balance_bins(ages, target=120, seed=1)
        bins = np.floor(ages[out] / 5.0).astype(int)
        _, counts = np.unique(bins, return_counts=True)
        assert np.all(counts == 120)

    def test_empty_bins_skipped(self):
        ages = np.array([20.0, 21.0, 80.0])
        out = balance_bins(ages, target=10, seed=0)
        assert out.size == 20  # two occupied bins

    @pytest.mark.parametrize("bin_width, target, named", [
        (float("nan"), 10, "bin_width"),
        (float("inf"), 10, "bin_width"),
        (0.0, 10, "bin_width"),
        (5.0, 0, "target"),
    ])
    def test_bad_setting_rejected(self, bin_width, target, named):
        with pytest.raises(DataError, match=named):
            balance_bins(np.array([20.0, 21.0, 80.0]), bin_width=bin_width, target=target)


class TestModelIO:
    def test_roundtrip_linear(self, tmp_path):
        X, t, e = linear_risk_data(67, n=120)
        config = TrainConfig(seed=2, epochs=1)
        result = train_risk_model(X, t, e, config)
        path = tmp_path / "model.bin"
        save_model(result.model, path, kind="risk", config=config)
        loaded, header = load_model(path)
        np.testing.assert_allclose(
            loaded.params["w"], result.model.params["w"].astype(np.float32), rtol=1e-7
        )
        assert header["kind"] == "risk"
        assert header["seed"] == 2

    def test_roundtrip_hidden(self, tmp_path):
        X, t, e = linear_risk_data(71, n=120)
        config = TrainConfig(seed=2, epochs=1, hidden=4)
        result = train_risk_model(X, t, e, config)
        path = tmp_path / "model.bin"
        save_model(result.model, path, kind="risk", config=config)
        loaded, _ = load_model(path)
        assert loaded.params["hidden_w"].shape == (4, 16)
        ours = result.model.predict(X[:5])
        theirs = loaded.predict(X[:5])
        np.testing.assert_allclose(ours, theirs, atol=1e-5)

    @pytest.mark.parametrize("hidden", [None, 4])
    def test_loaded_model_writes_same_bytes(self, tmp_path, hidden):
        """The payload is the parameters in layout order: a loaded model
        saved again gives the file it was read from, and it predicts
        through the forward pass on its parameters."""
        X, t, e = linear_risk_data(79, n=120)
        config = TrainConfig(seed=2, epochs=1, hidden=hidden)
        result = train_risk_model(X, t, e, config)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(result.model, first, kind="risk", config=config)
        loaded, _ = load_model(first)
        save_model(loaded, second, kind="risk", config=config)
        assert second.read_bytes() == first.read_bytes()
        np.testing.assert_array_equal(loaded.predict(X), _forward(loaded.params, X)[0])

    def test_save_bytes_stable(self, tmp_path):
        X, t, e = linear_risk_data(73, n=100)
        config = TrainConfig(seed=3, epochs=1)
        result = train_risk_model(X, t, e, config)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(result.model, p1, kind="risk", config=config)
        save_model(result.model, p2, kind="risk", config=config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format": "something-else/9"}\n')
        with pytest.raises(DataError):
            load_model(path)

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"[1]\n")
        with pytest.raises(DataError, match="JSON object"):
            load_model(path)

    @pytest.mark.parametrize(
        "header,n_values",
        [
            ({"dim": 3, "hidden": None, "n_weights": 9}, 9),  # 4 values used, 5 ignored
            ({"dim": 3, "hidden": 4, "n_weights": 4}, 4),  # too few for a hidden layer
            ({"hidden": None, "n_weights": 4}, 4),  # no dim
        ],
        ids=["linear-extra-values", "hidden-short", "no-dim"],
    )
    def test_header_disagreeing_with_payload_rejected(self, tmp_path, header, n_values):
        path = tmp_path / "bad.bin"
        head = json.dumps({"format": MODEL_FORMAT, "dtype": "<f4", **header}).encode()
        path.write_bytes(head + b"\n" + np.ones(n_values, dtype="<f4").tobytes())
        with pytest.raises(DataError, match="dim"):
            load_model(path)
