"""Closed forms and properties of the dual-path Bayesian Tail Index scorer."""

import math

import numpy as np
import pytest

from oracles import w1_oracle
from tailscope.errors import ConfigurationError, UsageError
from tailscope.interaction import InteractiveMetrics
from tailscope.intrinsic import IntrinsicMetrics
from tailscope.perceiver import (
    DatasetStats,
    GaussianLayer,
    PerceiverParams,
    TailIndexResult,
    bayes_forward,
    default_params,
    fusion_weights,
    kl_diag_gaussian,
    metrics_vector,
    normalize_features,
    perceive,
    rank_supervision_loss,
    softplus,
    tail_index,
)


def scalar_layer(mu_w, mu_b, sigma=1.0):
    return GaussianLayer(
        mu_w=[[mu_w]], sigma_w=[[sigma]], mu_b=[mu_b], sigma_b=[sigma]
    )


def make_metrics(values):
    intr = IntrinsicMetrics(*values[:8])
    inter = InteractiveMetrics(*values[8:14])
    return intr, inter


class TestNormalize:
    def fit_stats(self, columns):
        return DatasetStats.fit(np.array(columns))

    def test_median_maps_to_zero(self):
        rows = np.outer(np.linspace(0.1, 0.5, 5), np.ones(14))
        stats = DatasetStats.fit(rows)
        intr, inter = make_metrics(list(rows[2]))
        f_i, f_r = normalize_features(intr, inter, stats)
        assert np.allclose(np.concatenate([f_i, f_r]), 0.0)

    def test_direct_formula(self):
        # median 1, IQR 2, value 5 -> 2.0 on the first metric
        stats = DatasetStats(
            median=np.concatenate([[1.0], np.zeros(13)]),
            scale=np.concatenate([[2.0], np.ones(13)]),
        )
        values = [0.0] * 14
        values[0] = 5.0
        f_i, _ = normalize_features(*make_metrics(values), stats=stats)
        assert f_i[0] == pytest.approx(2.0)

    def test_fit_quartiles(self):
        rows = np.zeros((5, 14))
        rows[:, 0] = [0.0, 0.5, 1.0, 1.5, 2.0]
        stats = DatasetStats.fit(rows)
        assert stats.median[0] == pytest.approx(1.0)
        assert stats.scale[0] == pytest.approx(1.0)

    def test_clipping(self):
        stats = DatasetStats(median=np.zeros(14), scale=np.ones(14))
        values = [0.0] * 14
        values[0] = 1e6
        f_i, _ = normalize_features(*make_metrics(values), stats=stats)
        assert f_i[0] == 10.0

    def test_degenerate_scale_flagged(self):
        rows = np.ones((4, 14))
        stats = DatasetStats.fit(rows)
        assert np.all(stats.scale == 1.0)
        assert len(stats.flags) == 14

    def test_needs_two_samples(self):
        with pytest.raises(UsageError):
            DatasetStats.fit(np.ones((1, 14)))

    def test_zscores_of_a_matrix_equal_each_rows_features(self, rng):
        rows = np.abs(rng.normal(0.0, 3.0, (9, 14))) * np.where(rng.random((9, 14)) < 0.2, 1e6, 1.0)
        rows[:, 9:11] = rng.random((9, 2))  # r_lon and r_lat lie in [0, 1)
        stats = DatasetStats.fit(rows[:5])
        z = stats.zscores(rows)
        for row, z_row in zip(rows, z):
            f_i, f_r = normalize_features(*make_metrics(list(row)), stats=stats)
            assert np.concatenate([f_i, f_r]).tobytes() == z_row.tobytes()


class TestBayesForward:
    def test_zero_means_give_zero(self):
        layers = (scalar_layer(0.0, 0.0, sigma=2.0), scalar_layer(0.0, 0.0, sigma=0.5))
        assert bayes_forward(layers, np.array([3.0]), mode="mean")[0] == 0.0

    def test_hand_computed_forward(self):
        layers = (scalar_layer(2.0, -1.0), scalar_layer(3.0, 0.5))
        out = bayes_forward(layers, np.array([2.0]), mode="mean")
        assert out[0] == pytest.approx(9.5, abs=1e-12)

    def test_tiny_sigma_sample_matches_mean(self):
        layers = (scalar_layer(2.0, -1.0, sigma=1e-15), scalar_layer(3.0, 0.5, sigma=1e-15))
        x = np.array([2.0])
        mean = bayes_forward(layers, x, mode="mean")
        sample = bayes_forward(layers, x, mode="sample", seed=123)
        assert abs(mean[0] - sample[0]) < 1e-12

    def test_sample_is_seed_deterministic(self):
        params = default_params(hidden=8, latent=4, seed=1)
        x = np.linspace(-1, 1, 8)
        a = bayes_forward(params.path_i, x, mode="sample", seed=42)
        b = bayes_forward(params.path_i, x, mode="sample", seed=42)
        c = bayes_forward(params.path_i, x, mode="sample", seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_one_draw_is_the_stream_of_one_draw_per_array(self):
        """Every eps in one standard_normal call gives the bits of a call per weight and bias array."""
        params = default_params(seed=3)
        x = np.linspace(-2, 2, 8)
        rng = np.random.default_rng(77)
        h = x
        for idx, layer in enumerate(params.path_i):
            w = layer.mu_w + layer.sigma_w * rng.standard_normal(layer.mu_w.shape)
            b = layer.mu_b + layer.sigma_b * rng.standard_normal(layer.mu_b.shape)
            h = w @ h + b
            h = np.maximum(h, 0.0) if idx == 0 else h
        assert bayes_forward(params.path_i, x, mode="sample", seed=77).tobytes() == h.tobytes()

    def test_shape_mismatch_raises(self):
        layers = (scalar_layer(1.0, 0.0),)
        with pytest.raises(ConfigurationError):
            bayes_forward(layers, np.array([1.0, 2.0]), mode="mean")

    def test_sample_needs_seed(self):
        with pytest.raises(UsageError):
            bayes_forward((scalar_layer(1.0, 0.0),), np.array([1.0]), mode="sample")


class TestKl:
    def test_standard_normal_posterior_is_zero(self):
        layer = GaussianLayer(
            mu_w=np.zeros((3, 2)), sigma_w=np.ones((3, 2)), mu_b=np.zeros(3), sigma_b=np.ones(3)
        )
        assert kl_diag_gaussian([layer]) == pytest.approx(0.0, abs=1e-15)

    def test_unit_shift_is_half(self):
        layer = GaussianLayer(mu_w=[[1.0]], sigma_w=[[1.0]], mu_b=[0.0], sigma_b=[1.0])
        # only the single weight deviates: KL = 0.5 * mu^2 = 0.5
        assert kl_diag_gaussian([layer]) == pytest.approx(0.5, abs=1e-12)

    def test_inflated_variance_closed_form(self):
        layer = GaussianLayer(mu_w=[[0.0]], sigma_w=[[math.e]], mu_b=[0.0], sigma_b=[1.0])
        assert kl_diag_gaussian([layer]) == pytest.approx(0.5 * (math.e**2 - 3.0), abs=1e-12)

    def test_non_negative_random(self, rng=np.random.default_rng(3)):
        for _ in range(50):
            layer = GaussianLayer(
                mu_w=rng.normal(size=(2, 2)),
                sigma_w=np.exp(rng.normal(size=(2, 2))),
                mu_b=rng.normal(size=2),
                sigma_b=np.exp(rng.normal(size=2)),
            )
            assert kl_diag_gaussian([layer]) >= 0.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            GaussianLayer(mu_w=[[0.0]], sigma_w=[[0.0]], mu_b=[0.0], sigma_b=[1.0])


class TestFusion:
    def test_equal_kl_splits_evenly(self):
        assert fusion_weights(2.5, 2.5, 3.0) == (0.5, 0.5)

    def test_zero_temperature_ignores_kl(self):
        assert fusion_weights(10.0, 0.1, 0.0) == (0.5, 0.5)

    def test_unit_case(self):
        alpha_i, alpha_r = fusion_weights(1.0, 0.0, 1.0)
        assert alpha_i == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)
        assert alpha_r == pytest.approx(1.0 / (math.e + 1.0), abs=1e-12)
        assert alpha_i + alpha_r == pytest.approx(1.0, abs=1e-12)

    def test_higher_kl_gets_more_weight(self):
        low, _ = fusion_weights(1.0, 1.0, 2.0)
        high, _ = fusion_weights(1.5, 1.0, 2.0)
        assert high > low

    def test_extreme_values_stable(self):
        alpha_i, alpha_r = fusion_weights(1e6, 0.0, 1.0)
        assert alpha_i == pytest.approx(1.0)
        assert alpha_r >= 0.0


class TestTailIndex:
    def test_softplus_zero_is_log_two(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_strongly_negative_preactivation(self):
        value = tail_index([1.0], [1.0], 0.5, 0.5, [(-50.0)], 0.0)
        assert 0.0 < value <= 1e-20

    def test_linear_fallback(self):
        value = tail_index([80.0], [80.0], 0.5, 0.5, [1.0], 0.0)
        assert value == pytest.approx(80.0, abs=1e-12)

    def test_monotone_in_preactivation(self):
        values = [tail_index([x], [x], 0.5, 0.5, [1.0], 0.0) for x in np.linspace(-5, 5, 21)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestPerceive:
    def test_result_invariants(self):
        params = default_params(hidden=8, latent=4, seed=5)
        f_i = np.linspace(-1, 1, 8)
        f_r = np.linspace(1, -1, 6)
        res = perceive(params, f_i, f_r)
        assert res.ti >= 0.0
        assert res.alpha_i + res.alpha_r == pytest.approx(1.0, abs=1e-12)
        assert res.kl_i >= 0.0 and res.kl_r >= 0.0

    def test_sample_mode_reproducible(self):
        params = default_params(hidden=8, latent=4, seed=5)
        f_i = np.linspace(-1, 1, 8)
        f_r = np.linspace(1, -1, 6)
        a = perceive(params, f_i, f_r, mode="sample", seed=99)
        b = perceive(params, f_i, f_r, mode="sample", seed=99)
        assert a.ti == b.ti
        assert np.array_equal(a.z_i, b.z_i)

    def test_fusion_weights_computed_once_per_direction(self):
        params = default_params(hidden=8, latent=4, seed=5)
        fusion_weights.cache_clear()
        for invert in (False, True, False, True):
            result = perceive(params, np.zeros(8), np.zeros(6), invert_fusion=invert)
            assert (result.alpha_i, result.alpha_r) == fusion_weights(*params.kl, -1.0 if invert else 1.0)
        assert fusion_weights.cache_info().misses == 2

    def test_invert_fusion_flips_weights(self):
        params = default_params(hidden=8, latent=4, seed=5)
        f_i = np.zeros(8)
        f_r = np.zeros(6)
        normal = perceive(params, f_i, f_r)
        flipped = perceive(params, f_i, f_r, invert_fusion=True)
        assert normal.alpha_i == pytest.approx(flipped.alpha_r, abs=1e-12)

    def test_json_round_trip(self, tmp_path):
        params = default_params(hidden=4, latent=3, seed=11)
        path = tmp_path / "params.json"
        params.save(path)
        loaded = PerceiverParams.load(path)
        assert np.array_equal(loaded.path_i[0].mu_w, params.path_i[0].mu_w)
        assert np.array_equal(loaded.w_o, params.w_o)
        assert loaded.lambda_temp == params.lambda_temp
        f_i, f_r = np.linspace(-1, 1, 8), np.linspace(1, -1, 6)
        assert perceive(loaded, f_i, f_r).ti == perceive(params, f_i, f_r).ti

    def test_shape_chain_validated(self):
        good = default_params(hidden=4, latent=3, seed=0)
        with pytest.raises(ConfigurationError):
            PerceiverParams(
                path_i=good.path_i,
                path_r=good.path_r,
                w_o=np.ones(5),  # latent is 3
                b_o=0.0,
            )


class TestRankSupervisionLoss:
    def test_identical_multisets_zero(self):
        assert rank_supervision_loss([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_case(self):
        assert rank_supervision_loss([0.0, 1.0], [1.0, 3.0]) == 1.5

    def test_permutation_invariance(self, rng=np.random.default_rng(7)):
        tis = rng.uniform(0, 5, size=20)
        ades = rng.uniform(0, 5, size=20)
        base = rank_supervision_loss(tis, ades)
        for _ in range(20):
            assert rank_supervision_loss(rng.permutation(tis), rng.permutation(ades)) == base

    def test_matches_oracle(self, rng=np.random.default_rng(8)):
        tis = rng.uniform(0, 5, size=17)
        ades = rng.uniform(0, 5, size=17)
        assert rank_supervision_loss(tis, ades) == pytest.approx(
            w1_oracle(list(tis), list(ades)), rel=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            rank_supervision_loss([1.0], [1.0, 2.0])


class TestMetricsVector:
    def test_order_intrinsic_then_interactive(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 0.5, 0.25, 12, 13, 14]
        intr, inter = make_metrics(values)
        assert metrics_vector(intr, inter).tolist() == values
