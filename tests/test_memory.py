"""Prototype memory, cognitive set mechanism and the analytic inner update."""

import copy
import json
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import central_difference_grad, cosine_oracle
from tailscope.errors import ConfigurationError, DegenerateInputWarning, UsageError, ValidationError
from tailscope.memory import (
    AdaptationBatch,
    CategoryPartition,
    CognitiveSetParams,
    GateMlp,
    PrototypeMemory,
    allocation,
    augment,
    default_tail_bias,
    initialize_memory,
    inner_update,
    partition_categories,
    proto_loss,
    proto_loss_and_grad,
    quantiles,
    sigmoid,
    similarity,
    softplus,
    update_prototypes,
    vigilance_adjust,
)


def zero_gate_mlp(input_dim, categories, hidden=4):
    return GateMlp(
        w_hidden=np.zeros((hidden, input_dim)),
        b_hidden=np.zeros(hidden),
        w_alloc=np.zeros((categories, hidden)),
        b_alloc=np.zeros(categories),
        w_gate=np.zeros(hidden),
        b_gate=0.0,
    )


def make_params(categories=3, feature_dim=4, **kwargs):
    defaults = dict(tau=10.0, rho_vig=0.5, gamma_steep=10.0)
    defaults.update(kwargs)
    return CognitiveSetParams(
        b_tail=default_tail_bias(categories),
        gate_mlp=zero_gate_mlp(feature_dim + 15, categories),
        **defaults,
    )


def random_batch(rng, b=4, d=4):
    return AdaptationBatch(
        f_m=rng.normal(size=(b, d)),
        f_i=rng.normal(size=(b, 8)),
        f_r=rng.normal(size=(b, 6)),
        ti=rng.uniform(0, 3, size=b),
    )


class TestPartition:
    def test_single_category(self):
        part = partition_categories([3.0, 1.0, 2.0], 1)
        assert part.assignments.tolist() == [0, 0, 0]
        assert part.boundaries.size == 0

    def test_eight_samples_four_bins(self, rng):
        tis = rng.permutation(np.arange(8.0))
        part = partition_categories(tis, 4)
        order = np.argsort(tis)
        for rank, idx in enumerate(order):
            assert part.assignments[idx] == rank // 2
        assert np.all(np.diff(part.boundaries) > 0)

    def test_all_equal_splits_stably_with_flag(self):
        part = partition_categories([1.0] * 8, 2)
        assert part.assignments.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert "ties" in part.flags

    def test_too_many_categories(self):
        with pytest.raises(UsageError):
            partition_categories([1.0, 2.0], 3)

    @pytest.mark.parametrize("kind", ["spread", "ties", "signed-zeros", "nan"])
    def test_boundaries_have_the_bits_of_numpy_quantile(self, rng, kind):
        """np.quantile loads numpy.ma; ``quantiles`` keeps its bits, the zero a +-0 tie yields and NaN included."""
        for n in range(1, 51):
            tis = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
            if kind == "ties":
                tis = rng.integers(-2, 3, n).astype(float)
            elif kind == "signed-zeros":
                tis = rng.choice([0.0, -0.0, 1.0, -1.0], n)
            elif kind == "nan":
                tis[rng.integers(n)] = np.nan
            for c in range(1, 11):
                probs = [k / c for k in range(1, c)]
                want = np.quantile(tis, probs)
                assert quantiles(tis, probs).tobytes() == want.tobytes()
                if c > n:
                    continue
                part = partition_categories(tis, c)
                assert part.boundaries.tobytes() == want.tobytes()
                order = np.argsort(tis, kind="stable")
                bins = np.minimum(np.arange(n) * c // n, c - 1)
                firsts = [np.searchsorted(bins, k) for k in range(1, c)]
                assert part.flags == (("ties",) if any(tis[order][i] == tis[order][i - 1] for i in firsts) else ())
                assert np.array_equal(part.assignments[order], bins)


class TestPrototypeMemory:
    def test_initialize_rows_are_category_means(self, rng):
        features = rng.normal(size=(6, 3))
        part = partition_categories(np.arange(6.0), 2)
        mem = initialize_memory(features, part)
        assert np.allclose(mem.prototypes[0], features[:3].mean(axis=0))
        assert np.allclose(mem.prototypes[1], features[3:].mean(axis=0))
        assert mem.eta == PrototypeMemory(prototypes=np.ones((2, 3))).eta
        assert np.array_equal(mem.boundaries, part.boundaries)

    def test_rejects_zero_rows_and_bad_eta(self):
        with pytest.raises(ValidationError):
            PrototypeMemory(prototypes=np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            PrototypeMemory(prototypes=np.ones((2, 3)), eta=1.5)

    def test_category_of_uses_boundaries(self):
        mem = PrototypeMemory(prototypes=np.ones((3, 2)), boundaries=[1.0, 2.0])
        assert mem.category_of(0.5) == 0
        assert mem.category_of(1.5) == 1
        assert mem.category_of(9.0) == 2

    def test_category_of_reads_its_own_copy_of_the_boundaries(self):
        """A caller's later write to its boundaries array moves neither path of ``category_of``."""
        boundaries = np.array([0.2, 1.0])
        mem = PrototypeMemory(prototypes=np.eye(3), boundaries=boundaries)
        boundaries[0] = 0.9
        assert mem.category_of(0.3) == mem.category_of(np.array([0.3]))[0] == 1

    def test_category_of_breaks_ties_as_searchsorted_right(self):
        """A value equal to a cut point, or to tied cut points, goes above them, one at a time or as a batch."""
        cuts = [-1.0, 0.0, 0.0, 2.5]
        mem = PrototypeMemory(prototypes=np.ones((5, 2)), boundaries=cuts)
        tis = np.array([-2.0, -1.0, -0.0, 0.0, 1e-300, 2.5, np.nextafter(2.5, 0.0), 7.0])
        want = np.searchsorted(cuts, tis, side="right")
        got = [mem.category_of(ti) for ti in tis]
        assert all(type(c) is int for c in got) and got == want.tolist()
        assert [mem.category_of(float(ti)) for ti in tis] == want.tolist()
        assert np.array_equal(mem.category_of(tis), want)
        assert mem.category_of(0) == want[3] and mem.category_of(np.int64(3)) == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_category_of_rejects_non_finite_ti(self, bad):
        mem = PrototypeMemory(prototypes=np.ones((3, 2)), boundaries=[1.0, 2.0])
        with pytest.raises(ValidationError, match="Tail Index must be finite"):
            mem.category_of(bad)
        with pytest.raises(ValidationError, match="ti has a non-finite value in row 2"):
            mem.category_of(np.array([0.0, 1.0, bad, bad]))

    def test_json_round_trip(self, tmp_path):
        mem = PrototypeMemory(prototypes=[[1.0, 2.0], [3.0, 4.0]], eta=0.8, boundaries=[0.5])
        path = tmp_path / "memory.json"
        mem.save(path)
        loaded = PrototypeMemory.load(path)
        assert np.array_equal(loaded.prototypes, mem.prototypes)
        assert loaded.eta == 0.8
        assert loaded.boundaries.tolist() == [0.5]

    def test_missing_prototypes_key_names_it(self):
        with pytest.raises(ConfigurationError, match="'prototypes'"):
            PrototypeMemory.from_jsonable({"eta": 0.9})

    def test_malformed_eta_names_it(self):
        with pytest.raises(ConfigurationError, match="'eta'"):
            PrototypeMemory.from_jsonable({"prototypes": [[1.0, 2.0]], "eta": "x"})

    def test_non_object_json_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            PrototypeMemory.from_jsonable([[1.0, 2.0]])

    def test_load_non_json_names_the_path(self, tmp_path):
        path = tmp_path / "memory.json"
        path.write_text("prototypes: [[1, 2]]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="memory.json"):
            PrototypeMemory.load(path)

    @pytest.mark.parametrize("name", ["missing.json", ""], ids=["missing", "directory"])
    def test_load_unreadable_file_names_the_path(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(ConfigurationError, match="cannot read") as exc:
            PrototypeMemory.load(path)
        assert str(path) in str(exc.value)


class TestAdaptationBatch:
    @pytest.mark.parametrize("name", ["f_m", "f_i", "f_r", "ti"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry_naming_array_and_row(self, rng, name, bad):
        batch = random_batch(rng, b=5)
        arrays = {key: getattr(batch, key).copy() for key in ("f_m", "f_i", "f_r", "ti")}
        arrays[name].reshape(5, -1)[2, -1] = bad
        arrays[name].reshape(5, -1)[4, 0] = bad
        with pytest.raises(ValidationError, match=rf"^{name} has a non-finite value in row 2$"):
            AdaptationBatch(**arrays)


class TestUpdatePrototypes:
    def test_full_momentum_keeps_memory(self, rng):
        mem = PrototypeMemory(prototypes=rng.normal(size=(2, 4)), eta=1.0)
        batch = random_batch(rng, b=4, d=4)
        out = update_prototypes(mem, batch, [0, 0, 1, 1])
        assert np.array_equal(out.prototypes, mem.prototypes)

    def test_zero_momentum_single_sample(self, rng):
        mem = PrototypeMemory(prototypes=rng.normal(size=(2, 4)), eta=0.0)
        batch = random_batch(rng, b=1, d=4)
        out = update_prototypes(mem, batch, [1])
        assert np.allclose(out.prototypes[1], batch.f_m[0])
        assert np.array_equal(out.prototypes[0], mem.prototypes[0])

    def test_zero_momentum_equal_ti_gives_mean(self, rng):
        mem = PrototypeMemory(prototypes=rng.normal(size=(1, 4)), eta=0.0)
        batch = AdaptationBatch(
            f_m=rng.normal(size=(2, 4)),
            f_i=np.zeros((2, 8)),
            f_r=np.zeros((2, 6)),
            ti=np.array([2.0, 2.0]),
        )
        out = update_prototypes(mem, batch, [0, 0])
        assert np.allclose(out.prototypes[0], batch.f_m.mean(axis=0))

    def test_ti_shift_invariance(self, rng):
        mem = PrototypeMemory(prototypes=rng.normal(size=(2, 4)), eta=0.5)
        batch = random_batch(rng, b=5, d=4)
        shifted = AdaptationBatch(
            f_m=batch.f_m, f_i=batch.f_i, f_r=batch.f_r, ti=batch.ti + 123.0
        )
        assignments = [0, 1, 0, 1, 0]
        a = update_prototypes(mem, batch, assignments)
        b = update_prototypes(mem, shifted, assignments)
        assert np.allclose(a.prototypes, b.prototypes, rtol=1e-12, atol=1e-12)

    def test_large_ti_no_overflow(self, rng):
        mem = PrototypeMemory(prototypes=rng.normal(size=(1, 4)), eta=0.5)
        batch = AdaptationBatch(
            f_m=rng.normal(size=(2, 4)),
            f_i=np.zeros((2, 8)),
            f_r=np.zeros((2, 6)),
            ti=np.array([1000.0, 999.0]),
        )
        out = update_prototypes(mem, batch, [0, 0])
        assert np.all(np.isfinite(out.prototypes))


class TestAllocation:
    def test_zero_weights_uniform(self):
        params = make_params(categories=4)
        g = allocation(np.zeros(4 + 15), params)
        assert np.allclose(g, 0.25)

    def test_softmax_arithmetic(self):
        params = make_params(categories=2)
        mlp = params.gate_mlp
        biased = GateMlp(
            w_hidden=mlp.w_hidden,
            b_hidden=mlp.b_hidden,
            w_alloc=mlp.w_alloc,
            b_alloc=np.array([math.log(2.0), 0.0]),
            w_gate=mlp.w_gate,
            b_gate=0.0,
        )
        params = CognitiveSetParams(
            tau=10.0, rho_vig=0.5, gamma_steep=10.0, b_tail=params.b_tail, gate_mlp=biased
        )
        g = allocation(np.zeros(4 + 15), params)
        assert g == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)

    def test_logit_shift_invariance(self, rng):
        params = make_params(categories=3)
        mlp = params.gate_mlp
        h = rng.normal(size=mlp.input_dim)
        base = allocation(h, params)
        shifted_mlp = GateMlp(
            w_hidden=mlp.w_hidden,
            b_hidden=mlp.b_hidden,
            w_alloc=mlp.w_alloc,
            b_alloc=mlp.b_alloc + 7.5,
            w_gate=mlp.w_gate,
            b_gate=mlp.b_gate,
        )
        shifted = CognitiveSetParams(
            tau=10.0, rho_vig=0.5, gamma_steep=10.0, b_tail=params.b_tail, gate_mlp=shifted_mlp
        )
        assert np.allclose(allocation(h, shifted), base, atol=1e-12)

    def test_simplex_property(self, rng):
        params = CognitiveSetParams.create(categories=5, feature_dim=6, seed=3)
        for _ in range(20):
            g = allocation(rng.normal(size=6 + 15), params)
            assert np.all(g > 0)
            assert abs(g.sum() - 1.0) <= 1e-12


class TestSimilarity:
    def test_parallel_gives_tau(self):
        m = np.array([[2.0, 0.0], [0.0, 3.0]])
        s = similarity(np.array([4.0, 0.0]), m, tau=10.0)
        assert s[0] == pytest.approx(10.0, abs=1e-12)

    def test_orthogonal_gives_zero(self):
        m = np.array([[2.0, 0.0]])
        s = similarity(np.array([0.0, 5.0]), m, tau=10.0)
        assert s[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_cosine_oracle(self, rng):
        for _ in range(20):
            f = rng.normal(size=5)
            m = rng.normal(size=(3, 5))
            s = similarity(f, m, tau=7.0)
            for k in range(3):
                assert s[k] == pytest.approx(7.0 * cosine_oracle(list(f), list(m[k])), rel=1e-12)

    def test_zero_norm_row_flagged(self):
        m = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.warns(DegenerateInputWarning):
            s = similarity(np.array([1.0, 0.0]), m, tau=5.0)
        assert s[0] == 0.0
        assert s[1] == pytest.approx(5.0)

    def test_range_bounded_by_tau(self, rng):
        for _ in range(20):
            s = similarity(rng.normal(size=4), rng.normal(size=(6, 4)), tau=3.0)
            assert np.all(np.abs(s) <= 3.0 + 1e-12)


class TestVigilance:
    def test_at_threshold_blends_evenly(self):
        params = make_params(categories=2)
        g = np.array([1.0, 0.0])
        s = np.array([0.5, 0.1])  # max == rho_vig
        out = vigilance_adjust(g, s, params)
        assert np.allclose(out, (g + params.b_tail) / 2.0, atol=1e-12)

    def test_strong_match_keeps_allocation(self):
        params = make_params(categories=2, gamma_steep=1.0)
        g = np.array([0.9, 0.1])
        s = np.array([50.5, 0.0])
        assert np.allclose(vigilance_adjust(g, s, params), g, atol=1e-12)

    def test_weak_match_falls_back_to_tail_bias(self):
        params = make_params(categories=2, gamma_steep=1.0)
        g = np.array([0.9, 0.1])
        s = np.array([-49.5, -50.0])
        assert np.allclose(vigilance_adjust(g, s, params), params.b_tail, atol=1e-12)

    def test_monotone_along_segment(self, rng):
        params = make_params(categories=3)
        g = np.array([0.7, 0.2, 0.1])
        lams = []
        for max_s in np.linspace(-2, 2, 9):
            out = vigilance_adjust(g, np.array([max_s, -5.0, -5.0]), params)
            # recover lambda from the first coordinate
            lams.append((out[0] - params.b_tail[0]) / (g[0] - params.b_tail[0]))
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_stays_on_simplex(self, rng):
        params = make_params(categories=4)
        for _ in range(20):
            logits = rng.normal(size=4)
            g = np.exp(logits) / np.exp(logits).sum()
            out = vigilance_adjust(g, rng.normal(size=4), params)
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("shape", [(3,), (1,), (2, 1), (2, 6)])
    def test_category_count_must_match_params(self, shape):
        params = make_params(categories=5)
        width = shape[-1]
        with pytest.raises(ConfigurationError, match=rf"\b{width} categories, params 5\b"):
            vigilance_adjust(np.full(shape, 1.0 / width), np.zeros(shape), params)

    def test_nan_similarity_gives_all_nan(self):
        params = make_params(categories=3)
        g = np.array([0.2, 0.3, 0.5])
        s = np.array([[0.9, math.nan, 0.1], [0.2, 0.4, 0.6]])  # the NaN is not the first entry
        assert np.all(np.isnan(vigilance_adjust(g, s[0], params)))
        out = vigilance_adjust(np.stack([g, g]), s, params)
        assert np.all(np.isnan(out[0])) and np.all(np.isfinite(out[1]))


class TestProtoLoss:
    def test_neutral_similarity_log_two(self):
        assert proto_loss([[1.0]], [[0.0]]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_alignment_vanishes(self):
        assert proto_loss([[1.0]], [[50.0]]) < 1e-20

    def test_duplication_invariance(self, rng):
        g = rng.uniform(size=(3, 4))
        g = g / g.sum(axis=1, keepdims=True)
        s = rng.normal(size=(3, 4))
        base = proto_loss(g, s)
        doubled = proto_loss(np.vstack([g, g]), np.vstack([s, s]))
        assert doubled == pytest.approx(base, rel=1e-12)


class TestInnerUpdate:
    def test_zero_learning_rate_is_identity(self, rng):
        mem = PrototypeMemory(prototypes=rng.normal(size=(3, 4)))
        batch = random_batch(rng, b=4, d=4)
        params = make_params(categories=3, feature_dim=4)
        assert np.array_equal(inner_update(mem, batch, params, alpha_lr=0.0), mem.prototypes)

    def test_parallel_prototype_has_zero_gradient(self):
        f = np.array([[1.0, 2.0, 2.0]])
        mem_rows = 2.0 * f  # exactly parallel
        g_adj = np.array([[1.0]])
        loss, grad = proto_loss_and_grad(mem_rows, f, g_adj, tau=10.0)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        params_cases = 0
        for _ in range(25):
            c = int(rng.integers(1, 5))
            d = int(rng.integers(2, 9))
            b = int(rng.integers(1, 5))
            prototypes = rng.normal(size=(c, d))
            f_m = rng.normal(size=(b, d))
            g_adj = rng.uniform(size=(b, c))
            g_adj = g_adj / g_adj.sum(axis=1, keepdims=True)
            tau = float(rng.uniform(1.0, 10.0))
            _, grad = proto_loss_and_grad(prototypes, f_m, g_adj, tau)

            def loss_fn(matrix):
                return proto_loss_and_grad(np.array(matrix), f_m, g_adj, tau)[0]

            fd = np.array(central_difference_grad(loss_fn, prototypes.tolist(), step=1e-5))
            denom = max(np.abs(fd).max(), np.abs(grad).max(), 1e-12)
            assert np.abs(grad - fd).max() / denom < 1e-5
            params_cases += 1
        assert params_cases == 25

    def test_descent_with_backtracking(self, rng):
        params = make_params(categories=3, feature_dim=5, tau=5.0)
        for _ in range(10):
            mem = PrototypeMemory(prototypes=rng.normal(size=(3, 5)))
            batch = random_batch(rng, b=4, d=5)
            g_adj = np.stack(
                [
                    vigilance_adjust(
                        allocation(batch.h[i], params),
                        similarity(batch.f_m[i], mem.prototypes, params.tau),
                        params,
                    )
                    for i in range(len(batch))
                ]
            )
            before, grad = proto_loss_and_grad(mem.prototypes, batch.f_m, g_adj, params.tau)
            if np.abs(grad).max() < 1e-12:
                continue
            alpha = 1e-3
            for _ in range(8):  # backtracking
                after = proto_loss_and_grad(
                    mem.prototypes - alpha * grad, batch.f_m, g_adj, params.tau
                )[0]
                if after < before:
                    break
                alpha /= 2.0
            assert after < before

    def test_zero_norm_row_flagged_and_frozen(self, rng):
        prototypes = np.array([[0.0, 0.0], [1.0, 1.0]])
        f_m = rng.normal(size=(2, 2))
        g_adj = np.full((2, 2), 0.5)
        with pytest.warns(DegenerateInputWarning):
            _, grad = proto_loss_and_grad(prototypes, f_m, g_adj, tau=5.0)
        assert np.all(grad[0] == 0.0)


def assert_rows_match(batched, rows):
    """Batch result equals the stacked 1-D results to 1e-12 relative to their scale."""
    rows = np.stack(rows)
    assert batched.shape == rows.shape
    assert np.abs(batched - rows).max() <= 1e-12 * max(np.abs(rows).max(), 1e-300)


def per_sample_g_adj(mem, batch, params):
    """g' built one sample at a time with the 1-D calls: the reference for inner_update's batch chain."""
    return np.stack(
        [
            vigilance_adjust(
                allocation(batch.h[i], params),
                similarity(batch.f_m[i], mem.prototypes, params.tau),
                params,
            )
            for i in range(len(batch))
        ]
    )


def degenerate_cases(rng, c, d, b):
    """Params, a memory with a prototype row of norm below EPS_NORM (not zero) and a batch with a zero f_m row."""
    prototypes = rng.normal(size=(c, d))
    prototypes[-1] = 1e-14  # norm 1e-14 * sqrt(d) < EPS_NORM, allowed by PrototypeMemory
    batch = random_batch(rng, b=b, d=d)
    f_m = batch.f_m.copy()
    f_m[0] = 0.0
    batch = AdaptationBatch(f_m=f_m, f_i=batch.f_i, f_r=batch.f_r, ti=batch.ti)
    return PrototypeMemory(prototypes=prototypes), batch, CognitiveSetParams.create(categories=c, feature_dim=d, seed=1)


def frozen_unit_rows(x):
    """Unit rows, norms and kept-row mask, as ``similarity`` and ``proto_loss_and_grad`` each formed them."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    ok = norms >= 1e-12
    return np.divide(x, norms, out=np.zeros_like(x), where=ok), norms, ok


def frozen_similarity(f_m, prototypes, tau):
    """``similarity`` as each call computed it alone: the (D,) path's scaled dot products, else unit rows."""
    if f_m.ndim == 1:
        row_norms, f_norm = np.sqrt((prototypes * prototypes).sum(axis=1)), math.sqrt(f_m.dot(f_m))
        if np.all((row_norms >= 1e-12) & (row_norms < math.inf)) and 1e-12 <= f_norm < math.inf:
            out = prototypes.dot(f_m)
            out /= row_norms
            out *= tau / f_norm
            return out
    return tau * (frozen_unit_rows(f_m)[0] @ frozen_unit_rows(prototypes)[0].T)


def frozen_proto_loss_and_grad(prototypes, f_m, g_adj, tau):
    """``proto_loss_and_grad`` with its own normalisation and cosine product."""
    f_hat = frozen_unit_rows(f_m)[0]
    m_hat, row_norms, ok_m = frozen_unit_rows(prototypes)
    cos = f_hat @ m_hat.T
    s = tau * cos
    sign = 2.0 * g_adj - 1.0
    loss = float(np.mean(softplus(-np.sum(sign * s, axis=1))))
    w = (-sigmoid(-np.sum(sign * s, axis=1)) / len(f_m))[:, None] * sign * tau
    inv_norms = np.divide(1.0, row_norms, out=np.zeros_like(row_norms), where=ok_m)
    return loss, (w.T @ f_hat - (w * cos).sum(axis=0)[:, None] * m_hat) * inv_norms


def frozen_inner_update(mem, batch, params, alpha_lr):
    """``inner_update`` as a similarity call followed by a gradient call, each normalising on its own."""
    s = frozen_similarity(batch.f_m, mem.prototypes, params.tau)
    g_adj = vigilance_adjust(allocation(batch.h, params), s, params)
    return mem.prototypes - alpha_lr * frozen_proto_loss_and_grad(mem.prototypes, batch.f_m, g_adj, params.tau)[1]


class TestBatchForm:
    """Every (B, .) call equals the row-by-row 1-D calls; inner_update is their single batch chain, and it,
    similarity and proto_loss_and_grad read one cosine pass with the bits each computed alone before."""

    def random_case(self, rng):
        c, d, b = int(rng.integers(1, 7)), int(rng.integers(2, 12)), int(rng.integers(1, 9))
        params = CognitiveSetParams.create(
            categories=c, feature_dim=d, tau=float(rng.uniform(1.0, 10.0)), seed=int(rng.integers(1 << 30))
        )
        return PrototypeMemory(prototypes=rng.normal(size=(c, d))), random_batch(rng, b=b, d=d), params

    def test_rows_match_one_dimensional_calls(self, rng):
        sizes = set()
        for _ in range(40):
            mem, batch, params = self.random_case(rng)
            h, b = batch.h, len(batch)
            sizes.add(b)
            logits, gates = params.gate_mlp.forward(h)
            row_out = [params.gate_mlp.forward(h[i]) for i in range(b)]
            assert all(type(gate) is float for _, gate in row_out)
            assert_rows_match(logits, [lg for lg, _ in row_out])
            assert_rows_match(gates, [gate for _, gate in row_out])
            g = allocation(h, params)
            assert_rows_match(g, [allocation(h[i], params) for i in range(b)])
            s = similarity(batch.f_m, mem.prototypes, params.tau)
            assert_rows_match(s, [similarity(batch.f_m[i], mem.prototypes, params.tau) for i in range(b)])
            g_adj = vigilance_adjust(g, s, params)
            assert_rows_match(g_adj, [vigilance_adjust(g[i], s[i], params) for i in range(b)])
            f_v = augment(batch.f_m, h, g_adj, mem.prototypes, params)
            assert_rows_match(f_v, [augment(batch.f_m[i], h[i], g_adj[i], mem.prototypes, params) for i in range(b)])
        assert 1 in sizes

    def test_inner_update_matches_per_sample_reference(self, rng):
        for _ in range(40):
            mem, batch, params = self.random_case(rng)
            _, grad = proto_loss_and_grad(mem.prototypes, batch.f_m, per_sample_g_adj(mem, batch, params), params.tau)
            want = mem.prototypes - 1e-3 * grad
            got = inner_update(mem, batch, params, alpha_lr=1e-3)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_degenerate_entries_are_zero_and_warn_once(self, rng):
        mem, batch, params = degenerate_cases(rng, c=3, d=5, b=4)
        with pytest.warns(DegenerateInputWarning) as caught:
            s = similarity(batch.f_m, mem.prototypes, params.tau)
        assert len(caught) == 1
        assert np.all(s[0] == 0.0) and np.all(s[:, -1] == 0.0)
        with pytest.warns(DegenerateInputWarning):
            rows = [similarity(batch.f_m[i], mem.prototypes, params.tau) for i in range(len(batch))]
        assert_rows_match(s, rows)
        with pytest.warns(DegenerateInputWarning):  # a zero feature alone, against healthy prototypes
            assert np.all(similarity(batch.f_m, mem.prototypes[:-1], params.tau)[0] == 0.0)

    def test_inner_update_with_degenerate_rows(self, rng):
        mem, batch, params = degenerate_cases(rng, c=3, d=5, b=4)
        with pytest.warns(DegenerateInputWarning):
            g_adj = per_sample_g_adj(mem, batch, params)
            _, grad = proto_loss_and_grad(mem.prototypes, batch.f_m, g_adj, params.tau)
            got = inner_update(mem, batch, params, alpha_lr=1e-3)
        want = mem.prototypes - 1e-3 * grad
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got[-1], mem.prototypes[-1])  # directionless row gets zero gradient

    def test_one_dimensional_return_types(self, rng):
        mem, batch, params = self.random_case(rng)
        c = mem.categories
        logits, gate = params.gate_mlp.forward(batch.h[0])
        assert logits.shape == (c,) and type(gate) is float
        g = allocation(batch.h[0], params)
        s = similarity(batch.f_m[0], mem.prototypes, params.tau)
        g_adj = vigilance_adjust(g, s, params)
        assert g.shape == s.shape == g_adj.shape == (c,)
        assert augment(batch.f_m[0], batch.h[0], g_adj, mem.prototypes, params).shape == (mem.dim,)

    def test_three_dimensional_input_rejected(self, rng):
        mem, batch, params = self.random_case(rng)
        g = allocation(batch.h, params)
        s = similarity(batch.f_m, mem.prototypes, params.tau)
        with pytest.raises(ConfigurationError, match=r"\(D,\) or \(B, D\)"):
            params.gate_mlp.forward(batch.h[None])
        with pytest.raises(ConfigurationError):
            allocation(batch.h[None], params)
        with pytest.raises(ConfigurationError):
            similarity(batch.f_m[None], mem.prototypes, params.tau)
        with pytest.raises(ConfigurationError):
            vigilance_adjust(g[None], s[None], params)
        with pytest.raises(ConfigurationError):
            augment(batch.f_m[0], batch.h, g[0], mem.prototypes, params)
        with pytest.raises(ConfigurationError):
            augment(batch.f_m, np.vstack([batch.h, batch.h]), g, mem.prototypes, params)
        with pytest.raises(ConfigurationError):
            augment(batch.f_m, batch.h, g[0], mem.prototypes, params)

    def test_empty_batch_is_a_usage_error(self, rng):
        mem, batch, params = self.random_case(rng)
        empty = AdaptationBatch(f_m=batch.f_m[:0], f_i=batch.f_i[:0], f_r=batch.f_r[:0], ti=batch.ti[:0])
        with pytest.raises(UsageError, match="empty batch"):
            inner_update(mem, empty, params)

    @pytest.mark.parametrize("call", [
        lambda: proto_loss(np.zeros((0, 3)), np.zeros((0, 3))),
        lambda: proto_loss_and_grad(np.ones((3, 4)), np.zeros((0, 4)), np.zeros((0, 3)), 2.0),
    ], ids=["proto_loss", "proto_loss_and_grad"])
    def test_loss_and_gradient_refuse_an_empty_batch(self, call):
        with pytest.raises(UsageError, match="^empty batch$"):
            call()

    def shared_pass_cases(self, rng, n):
        for i in range(n):
            mem, batch, params = self.random_case(rng)
            if i % 3 == 0:  # a zero feature row, and on every other such case a prototype row below EPS_NORM
                f_m = batch.f_m.copy()
                f_m[0] = 0.0
                batch = AdaptationBatch(f_m=f_m, f_i=batch.f_i, f_r=batch.f_r, ti=batch.ti)
                if i % 2 == 0:
                    mem = PrototypeMemory(prototypes=np.vstack([mem.prototypes[:-1], np.full(mem.dim, 1e-14)]))
            g = rng.uniform(size=(len(batch), mem.categories))
            yield mem, batch, params, g / g.sum(axis=1, keepdims=True)

    def test_outputs_equal_the_separate_formulas(self, rng):
        for mem, batch, params, g_adj in self.shared_pass_cases(rng, 60):
            m, f, tau = mem.prototypes, batch.f_m, params.tau
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateInputWarning)
                assert np.array_equal(similarity(f, m, tau), frozen_similarity(f, m, tau))
                assert np.array_equal(similarity(f[0], m, tau), frozen_similarity(f[0], m, tau))
                loss, grad = proto_loss_and_grad(m, f, g_adj, tau)
                want_loss, want_grad = frozen_proto_loss_and_grad(m, f, g_adj, tau)
                assert loss == want_loss and np.array_equal(grad, want_grad)
                got = inner_update(mem, batch, params, alpha_lr=0.01)
                assert np.array_equal(got, frozen_inner_update(mem, batch, params, 0.01))

    @pytest.mark.parametrize("tiny_prototype", [False, True])
    def test_inner_update_warns_once_for_a_zero_feature_row(self, rng, tiny_prototype):
        mem, batch, params = degenerate_cases(rng, c=3, d=5, b=4)
        if not tiny_prototype:
            mem = PrototypeMemory(prototypes=rng.normal(size=(3, 5)))
        with pytest.warns(DegenerateInputWarning) as caught:
            inner_update(mem, batch, params)
        assert len(caught) == 1

    def test_gradient_has_the_same_bits_in_either_memory_order(self, rng):
        params = CognitiveSetParams.create(categories=5, feature_dim=64, seed=3)  # D = 64: numpy sums rows pairwise
        g_adj = np.full((32, 5), 0.2)
        for _ in range(10):
            prototypes, batch = rng.normal(size=(5, 64)), random_batch(rng, b=32, d=64)
            fortran = np.asfortranarray(prototypes)
            grads = [proto_loss_and_grad(m, batch.f_m, g_adj, 5.0)[1] for m in (fortran, prototypes)]
            assert grads[0].tobytes() == grads[1].tobytes()
            steps = [inner_update(PrototypeMemory(prototypes=m), batch, params) for m in (fortran, prototypes)]
            assert steps[0].tobytes() == steps[1].tobytes()


class TestAugment:
    def test_zero_memory_returns_feature(self, rng):
        params = make_params(categories=2, feature_dim=3)
        f_m = rng.normal(size=3)
        h = np.zeros(3 + 15)
        out = augment(f_m, h, np.array([0.5, 0.5]), np.zeros((2, 3)), params)
        assert np.array_equal(out, f_m)

    def test_one_hot_with_neutral_gate(self):
        params = make_params(categories=2, feature_dim=3)  # zero gate head -> sigmoid(0) = 0.5
        m_prime = np.array([[2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
        f_m = np.ones(3)
        out = augment(f_m, np.zeros(3 + 15), np.array([1.0, 0.0]), m_prime, params)
        assert np.allclose(out, f_m + 0.5 * m_prime[0])

    def test_saturated_gate_suppresses_injection(self):
        params = make_params(categories=2, feature_dim=3)
        mlp = params.gate_mlp
        gated = GateMlp(
            w_hidden=mlp.w_hidden,
            b_hidden=mlp.b_hidden,
            w_alloc=mlp.w_alloc,
            b_alloc=mlp.b_alloc,
            w_gate=mlp.w_gate,
            b_gate=-50.0,
        )
        params = CognitiveSetParams(
            tau=10.0, rho_vig=0.5, gamma_steep=10.0, b_tail=params.b_tail, gate_mlp=gated
        )
        m_prime = np.ones((2, 3))
        f_m = np.zeros(3)
        out = augment(f_m, np.zeros(3 + 15), np.array([0.5, 0.5]), m_prime, params)
        assert np.linalg.norm(out - f_m) < 1e-20 * np.linalg.norm(m_prime)


class TestSerialization:
    def test_cognitive_params_round_trip(self):
        params = CognitiveSetParams.create(categories=4, feature_dim=5, seed=2)
        clone = CognitiveSetParams.from_jsonable(json.loads(json.dumps(params.to_jsonable())))
        assert clone.tau == params.tau
        assert np.array_equal(clone.b_tail, params.b_tail)
        assert np.array_equal(clone.gate_mlp.w_hidden, params.gate_mlp.w_hidden)

    def test_missing_key_names_it(self):
        with pytest.raises(ConfigurationError, match="'rho_vig'"):
            CognitiveSetParams.from_jsonable({"tau": 1})

    def test_gate_mlp_hidden_weights_must_be_a_matrix(self):
        data = CognitiveSetParams.create(categories=2, feature_dim=3).to_jsonable()
        data["gate_mlp"]["w_hidden"] = [1.0, 2.0]
        with pytest.raises(ConfigurationError, match="w_hidden"):
            CognitiveSetParams.from_jsonable(data)

    def test_b_tail_must_be_probability_vector(self):
        with pytest.raises(ConfigurationError):
            CognitiveSetParams(
                tau=1.0,
                rho_vig=0.0,
                gamma_steep=1.0,
                b_tail=np.array([0.5, 0.6]),
                gate_mlp=zero_gate_mlp(19, 2),
            )

    def test_default_tail_bias_ramps_upward(self):
        bias = default_tail_bias(4)
        assert bias.tolist() == [0.1, 0.2, 0.3, 0.4]


class TestSigmoid:
    SPECIAL = [0.0, -0.0, 745.0, -745.0, math.inf, -math.inf, math.nan]

    def test_extremes(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)

    def test_float_path_within_one_ulp_of_array_path(self, rng):
        xs = self.SPECIAL + (rng.normal(scale=20.0, size=200)).tolist()
        arrays = sigmoid(np.array(xs))
        for x, want in zip(xs, arrays.tolist()):
            got = sigmoid(x)
            assert type(got) is float
            assert (math.isnan(got) and math.isnan(want)) or abs(got - want) <= math.ulp(want), x

    def test_array_path_keeps_the_two_branch_bits(self, rng):
        x = np.concatenate([self.SPECIAL, rng.normal(scale=20.0, size=200), [1e-300, -1e-300, 36.7, -36.7, 0.5]])
        e = np.exp(-np.abs(x))
        two_branch = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert sigmoid(x).tobytes() == two_branch.tobytes()
        assert sigmoid(x.reshape(2, -1)).tobytes() == two_branch.tobytes()


class TestOneSampleSimilarity:
    """The (D,) path scales dot products; degenerate input falls back to zeros and one warning."""

    @pytest.mark.parametrize("case", ["zero-feature", "nan-feature", "zero-prototype-row", "nan-prototype-row"])
    def test_degenerate_input_gives_zeros_and_one_warning(self, rng, case):
        f, m = rng.normal(size=6), rng.normal(size=(4, 6))
        vector = f if case.endswith("feature") else m[2]  # a view of prototype row 2
        if case.startswith("zero"):
            vector[:] = 0.0
        else:
            vector[1] = math.nan
        zeroed = slice(None) if vector is f else 2
        with pytest.warns(DegenerateInputWarning) as caught:
            s = similarity(f, m, tau=4.0)
        assert len(caught) == 1
        assert np.all(s[zeroed] == 0.0) and np.all(np.isfinite(s))
        if vector is not f:
            keep = [0, 1, 3]
            assert_rows_match(s[keep][None], [similarity(f, m[keep], tau=4.0)])

    def test_healthy_input_raises_no_warning(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = similarity(rng.normal(size=6), rng.normal(size=(4, 6)), tau=4.0)
        assert s.shape == (4,) and np.all(np.abs(s) <= 4.0 + 1e-12)


def fresh_gate_mlp(mlp):
    """A new GateMlp with the same weights and an empty memo."""
    return GateMlp(*(getattr(mlp, name) for name in (*GateMlp._ARRAYS, "b_gate")))


def plain_similarity(f, m, tau):
    """The one-sample similarity recomputed from scratch with @."""
    return m @ f / np.sqrt((m * m).sum(axis=1)) * (tau / math.sqrt(f @ f))


class TestGateKernel:
    """One einsum kernel for (D,) and (B, D): a row's bits do not depend on its batch, so the
    (D,) reads after a batch forward are served from the memo of its rows."""

    def test_batch_rows_equal_one_row_forwards_bit_for_bit(self, rng):
        shapes = [(b, 79, 32, 5) for b in (1, 2, 3, 7, 64, 512)]
        shapes += [tuple(int(v) for v in rng.integers(1, 24, 4)) for _ in range(40)]
        for b, d, hidden, c in shapes:
            mlp = GateMlp.create(input_dim=d, categories=c, hidden=hidden, seed=int(rng.integers(1 << 30)))
            wide = rng.normal(size=(b, 2 * d))
            for h in (wide[:, :d].copy(), np.asfortranarray(wide[:, :d]), wide[:, ::2]):
                logits, gates = fresh_gate_mlp(mlp).forward(h)
                assert logits.shape == (b, c) and gates.shape == (b,)
                for i in range(b if b < 64 else 8):
                    want_logits, want_gate = fresh_gate_mlp(mlp).forward(h[i])
                    assert logits[i].tobytes() == want_logits.tobytes()
                    assert gates[i] == want_gate

    def test_a_row_of_the_last_forward_runs_no_einsum(self, rng, monkeypatch):
        mlp = GateMlp.create(input_dim=9, categories=3, hidden=6, seed=2)
        h = rng.normal(size=(5, 9))
        logits, gates = mlp.forward(h)
        wants = [fresh_gate_mlp(mlp).forward(row) for row in h]

        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum ran for a row of the last forward")

        monkeypatch.setattr(np, "einsum", no_einsum)
        for i, (want_logits, want_gate) in enumerate(wants):
            got_logits, got_gate = mlp.forward(h[i].copy())
            assert got_logits.tobytes() == want_logits.tobytes() == logits[i].tobytes()
            assert type(got_gate) is float and got_gate == want_gate == gates[i]
            with pytest.raises(ValueError, match="read-only"):
                got_logits[0] = 0.0

    def test_memo_holds_only_the_rows_of_the_last_forward(self, rng):
        mlp = GateMlp.create(input_dim=4, categories=2, hidden=3, seed=1)
        first, second, one = rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), rng.normal(size=4)

        def keys(rows):
            return sorted(row.tobytes() for row in np.atleast_2d(rows))

        # first[0] and second[1] are hits, not forwards: the memo stays as it was
        steps = [(first, first), (first[0], first), (second, second), (second[1], second), (one, one), (first[1], first[1])]
        for h, last in steps:
            mlp.forward(h)
            assert sorted(mlp._rows) == keys(last)
        mlp.forward(np.vstack([first, first]))  # repeated rows share one entry
        assert sorted(mlp._rows) == keys(first)

    def test_a_pickle_or_copy_carries_the_weights_not_the_memo(self, rng):
        mlp = GateMlp.create(input_dim=6, categories=3, hidden=4, seed=5)
        h = rng.normal(size=(64, 6))
        logits, gates = mlp.forward(h)
        for twin in (pickle.loads(pickle.dumps(mlp)), copy.deepcopy(mlp), copy.copy(mlp)):
            assert twin._rows == {}
            got_logits, got_gates = twin.forward(h)
            assert got_logits.tobytes() == logits.tobytes() and got_gates.tobytes() == gates.tobytes()


class TestOneSampleMemos:
    """The gate-row and row-norm memos give a recompute's bits and cannot go stale."""

    def test_gate_hit_equals_fresh_recompute(self, rng):
        mlp = GateMlp.create(input_dim=6, categories=4, hidden=5, seed=3)
        a, nan = rng.normal(size=6), rng.normal(size=6)
        nan[2] = math.nan
        inputs = [a, a.copy(), np.zeros(6), np.full(6, -0.0), np.zeros(6), nan, nan.copy(), a, np.full(6, -0.0)]
        for h in inputs:
            logits, gate = mlp.forward(h)
            want_logits, want_gate = fresh_gate_mlp(mlp).forward(h)
            assert logits.tobytes() == want_logits.tobytes()  # bit-equal, NaN and the sign of zero included
            assert gate == want_gate or (math.isnan(gate) and math.isnan(want_gate))
            assert mlp.forward(h.copy())[0] is logits  # same bytes: served from the memo
        assert np.isnan(mlp.forward(nan)[1])

    def test_weights_are_read_only_copies(self, rng):
        w_hidden, w_alloc = rng.normal(size=(5, 6)), rng.normal(size=(4, 5))
        mlp = GateMlp(w_hidden, np.zeros(5), w_alloc, np.zeros(4), rng.normal(size=5), 0.5)
        kept = fresh_gate_mlp(mlp)
        h = rng.normal(size=6)
        mlp.forward(h)
        w_hidden[:] = 1.0
        w_alloc *= -2.0
        assert mlp.forward(h)[0].tobytes() == kept.forward(h)[0].tobytes()
        assert mlp.forward(-h)[0].tobytes() == kept.forward(-h)[0].tobytes()
        for name in GateMlp._ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(mlp, name)[0] = 1.0

    def test_returned_logits_cannot_change_the_next_call(self, rng):
        mlp = GateMlp.create(input_dim=6, categories=4, hidden=5, seed=3)
        h = rng.normal(size=6)
        logits, _ = mlp.forward(h)
        want = logits.copy()
        with pytest.raises(ValueError, match="read-only"):
            logits[0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            logits += 1.0
        assert np.array_equal(mlp.forward(h)[0], want)
        params = CognitiveSetParams(tau=10.0, rho_vig=0.5, gamma_steep=10.0, b_tail=default_tail_bias(4), gate_mlp=mlp)
        g = allocation(h, params)
        g[:] = 0.0  # allocation's result is the caller's to change
        assert np.array_equal(mlp.forward(h)[0], want)

    def test_similarity_sees_in_place_changes_to_the_prototypes(self, rng):
        f, m = rng.normal(size=4), rng.normal(size=(3, 4))
        assert np.array_equal(similarity(f, m, 2.0), plain_similarity(f, m, 2.0))
        m[1] += 1.0
        assert np.array_equal(similarity(f, m, 2.0), plain_similarity(f, m, 2.0))
        m[2] = 0.0
        with pytest.warns(DegenerateInputWarning):
            assert similarity(f, m, 2.0)[2] == 0.0
        m[2] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(similarity(f, m, 2.0), plain_similarity(f, m, 2.0))

    def test_similarity_gives_the_same_bits_in_either_memory_order(self, rng):
        """C and Fortran order have the same bytes, so the row norms must not depend on the order."""
        for _ in range(300):
            f, m = rng.normal(size=64), rng.normal(size=(5, 64)) * 10.0 ** rng.uniform(-3, 3, (5, 1))
            fortran, other = np.asfortranarray(m), (rng.normal(size=64), rng.normal(size=(2, 64)), 3.0)
            similarity(*other)  # another matrix in the memo
            fresh = similarity(f, fortran, 3.0)
            similarity(*other)
            similarity(f, m, 3.0)  # the C-ordered matrix's norms in the memo
            assert similarity(f, fortran, 3.0).tobytes() == fresh.tobytes()

    def test_similarity_keys_the_norms_on_shape_as_well_as_bytes(self, rng):
        flat = rng.normal(size=12)
        wide, tall = flat.reshape(2, 6), flat.reshape(3, 4)
        assert wide.tobytes() == tall.tobytes()
        f6, f4 = rng.normal(size=6), rng.normal(size=4)
        for f, m in [(f6, wide), (f4, tall), (f6, wide), (f4, tall)]:
            assert np.array_equal(similarity(f, m, 3.0), plain_similarity(f, m, 3.0))


class TestSoftplus:
    def test_one_softplus_serves_perceiver_and_proto_loss(self, rng):
        from tailscope import perceiver

        assert perceiver.softplus is softplus
        m = np.concatenate([rng.normal(scale=30.0, size=64), [0.0, -0.0, 1e-300, 800.0, -800.0]])
        inline = np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(m)))  # proto_loss's former formula
        assert softplus(-m).tobytes() == inline.tobytes()
        assert proto_loss(np.ones((m.size, 1)), m[:, None]) == float(np.mean(inline))
        assert softplus(-5.0) == float(np.maximum(-5.0, 0.0) + np.log1p(np.exp(-5.0)))


def _batch():
    """Four samples of four features."""
    return AdaptationBatch(np.ones((4, 4)), np.zeros((4, 8)), np.zeros((4, 6)), np.zeros(4))


def _gate(**arrays):
    """A 3-input, 2-category gate of hidden width 4, with ``arrays`` in place of its own."""
    return replace(zero_gate_mlp(3, 2), **arrays)


CHECKS = [
    (lambda: _gate(b_hidden=np.zeros(3)), ConfigurationError, "b_hidden does not match w_hidden rows"),
    (lambda: _gate(w_alloc=np.zeros((2, 3))), ConfigurationError, "w_alloc columns must match the hidden width"),
    (lambda: _gate(b_alloc=np.zeros(3)), ConfigurationError, "b_alloc does not match w_alloc rows"),
    (lambda: _gate(w_gate=np.zeros(3)), ConfigurationError, "w_gate must match the hidden width"),
    (lambda: _gate(b_gate=math.inf), ConfigurationError, "b_gate must be finite"),
    (lambda: CognitiveSetParams(gate_mlp=_gate()), ConfigurationError, "b_tail and gate_mlp are required"),
    (lambda: make_params(tau=0.0), ConfigurationError, "tau must be > 0, got 0.0"),
    (lambda: make_params(gamma_steep=math.nan), ConfigurationError, "gamma_steep must be > 0, got nan"),
    (lambda: make_params(rho_vig=math.inf), ConfigurationError, "rho_vig must be finite"),
    (lambda: CognitiveSetParams(b_tail=default_tail_bias(3), gate_mlp=_gate()), ConfigurationError,
     "b_tail covers 3 categories, gate mlp 2"),
    (lambda: PrototypeMemory(np.ones(3)), ValidationError, "prototypes must be a (C, D) matrix, got (3,)"),
    (lambda: PrototypeMemory(np.full((2, 2), np.nan)), ValidationError, "prototypes contain non-finite values"),
    (lambda: PrototypeMemory(np.ones((3, 2)), boundaries=[1.0]), ValidationError, "expected 2 boundaries, got (1,)"),
    (lambda: PrototypeMemory(np.ones((3, 2)), boundaries=[2.0, 1.0]), ValidationError,
     "boundaries must be ascending"),
    (lambda: PrototypeMemory(np.ones((3, 2))).category_of(1.0), UsageError, "memory has no boundaries recorded"),
    (lambda: AdaptationBatch(np.zeros(3), np.zeros((3, 8)), np.zeros((3, 6)), np.zeros(3)), ValidationError,
     "f_m must be (B, D), got (3,)"),
    (lambda: AdaptationBatch(np.zeros((3, 4)), np.zeros((2, 8)), np.zeros((3, 6)), np.zeros(3)), ValidationError,
     "f_i must have 3 rows, got (2, 8)"),
    (lambda: AdaptationBatch(np.zeros((3, 4)), np.zeros((3, 8)), np.zeros((3, 6)), np.zeros(2)), ValidationError,
     "ti must have shape (3,), got (2,)"),
    (lambda: partition_categories(np.zeros((2, 2)), 1), UsageError, "tis must be 1-D"),
    (lambda: partition_categories([1.0, 2.0], 0), UsageError, "need at least 1 category, got 0"),
    (lambda: update_prototypes(PrototypeMemory(np.ones((3, 4))), _batch(), [0, 0]), UsageError,
     "need one assignment per sample, got (2,)"),
    (lambda: update_prototypes(PrototypeMemory(np.ones((3, 2))), _batch(), [0] * 4), UsageError,
     "feature dim 4 != memory dim 2"),
    (lambda: update_prototypes(PrototypeMemory(np.ones((3, 4))), _batch(), [0, 1, 2, 3]), UsageError,
     "assignment out of category range"),
    (lambda: proto_loss(np.zeros((2, 3)), np.zeros((2, 2))), UsageError, "shape mismatch: g' (2, 3) vs s (2, 2)"),
    (lambda: proto_loss_and_grad(np.ones((3, 4)), np.ones((2, 4)), np.zeros((2, 2)), 1.0), UsageError,
     "g' must be (B, C) = (2, 3), got (2, 2)"),
    (lambda: inner_update(PrototypeMemory(np.ones((3, 2))), _batch(), make_params()), UsageError,
     "feature dim 4 != memory dim 2"),
    (lambda: augment(np.zeros(4), np.zeros(19), np.zeros(2), np.ones((3, 4)), make_params()), ConfigurationError,
     "g' of shape (2,) does not match prototype matrix (3, 4)"),
    (lambda: augment(np.zeros(4), np.zeros(19), np.zeros(3), np.ones((3, 5)), make_params()), ConfigurationError,
     "feature shape (4,) does not match prototype dim 5"),
]


@pytest.mark.parametrize("call, error, text", CHECKS, ids=[text for _, _, text in CHECKS])
def test_each_check_raises_its_error(call, error, text):
    """Each shape, range and finiteness check of the memory layer raises its own error and text."""
    with pytest.raises(error) as info:
        call()
    assert text in str(info.value)
