"""Displacement metrics, losses and the worst-case stratification protocol."""

import json
import math
import re

import numpy as np
import pytest

from oracles import worst_case_oracle
from tailscope import evaluation
from tailscope.errors import MAX_MAGNITUDE, ParseError, UsageError, ValidationError
from tailscope.evaluation import (
    EvalReport,
    ForecastSample,
    Forecasts,
    LossWeights,
    ade_per_mode,
    evaluate,
    min_ade,
    min_fde,
    miss_rate,
    parse_forecast_jsonl,
    rmse,
    task_loss,
    total_loss,
    worst_case_subsets,
)


def straight_gt(horizon=5):
    return np.column_stack([np.arange(horizon, dtype=float), np.zeros(horizon)])


def offset_mode(gt, dx=0.0, dy=0.0):
    return gt + np.array([dx, dy])


def sample_from_offsets(sample_id, offsets, probs=None, horizon=5):
    gt = straight_gt(horizon)
    modes = np.stack([offset_mode(gt, dx, dy) for dx, dy in offsets])
    if probs is None:
        probs = np.full(len(offsets), 1.0 / len(offsets))
    return ForecastSample(sample_id=sample_id, modes=modes, probs=probs, gt=gt)


def random_sample(rng, sample_id, k=4, horizon=6):
    gt = rng.normal(size=(horizon, 2))
    modes = gt[None] + rng.normal(size=(k, horizon, 2))
    probs = rng.uniform(0.1, 1.0, size=k)
    probs = probs / probs.sum()
    return ForecastSample(sample_id=sample_id, modes=modes, probs=probs, gt=gt)


class TestMinAde:
    def test_exact_mode_gives_zero(self):
        sample = sample_from_offsets("s", [(0.0, 0.0), (9.0, 0.0)])
        assert min_ade(sample, 2) == 0.0

    def test_constant_offset_distance(self):
        sample = sample_from_offsets("s", [(3.0, 4.0)], probs=np.array([1.0]))
        assert min_ade(sample, 1) == pytest.approx(5.0, abs=1e-12)

    def test_min_over_modes(self):
        sample = sample_from_offsets("s", [(2.0, 0.0), (1.5, 0.0)])
        assert min_ade(sample, 2) == pytest.approx(1.5, abs=1e-12)

    def test_k_truncates_by_probability(self):
        # best mode has low probability; k=1 must use the high-probability one
        sample = sample_from_offsets(
            "s", [(2.0, 0.0), (0.0, 0.0)], probs=np.array([0.9, 0.1])
        )
        assert min_ade(sample, 1) == pytest.approx(2.0, abs=1e-12)
        assert min_ade(sample, 2) == 0.0

    def test_k_out_of_range(self):
        sample = sample_from_offsets("s", [(1.0, 0.0)], probs=np.array([1.0]))
        with pytest.raises(UsageError):
            min_ade(sample, 2)

    def test_non_increasing_in_k(self, rng):
        for i in range(30):
            sample = random_sample(rng, f"s{i}")
            values = [min_ade(sample, k) for k in range(1, sample.n_modes + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bounded_by_top_mode_ade(self, rng):
        from tailscope.evaluation import ade_per_mode

        for i in range(20):
            sample = random_sample(rng, f"s{i}")
            top_mode_ade = float(ade_per_mode(sample)[np.argmax(sample.probs)])
            for k in range(1, sample.n_modes + 1):
                assert min_ade(sample, k) <= top_mode_ade + 1e-15


class TestMinFde:
    def test_final_points_coincide(self):
        gt = straight_gt()
        modes = np.stack([np.vstack([gt[:-1] + 5.0, gt[-1:]])])
        sample = ForecastSample("s", modes, np.array([1.0]), gt)
        assert min_fde(sample, 1) == 0.0
        assert min_ade(sample, 1) > 0.0

    def test_min_over_final_offsets(self):
        sample = sample_from_offsets("s", [(5.0, 0.0), (0.0, 2.0)])
        assert min_fde(sample, 2) == pytest.approx(2.0, abs=1e-12)


class TestMissRate:
    def test_exact_forecasts_never_miss(self):
        samples = [sample_from_offsets(f"s{i}", [(0.0, 0.0)], probs=np.array([1.0])) for i in range(4)]
        assert miss_rate(samples, 1) == 0.0

    def test_miss_above_threshold(self):
        samples = [sample_from_offsets("s", [(0.0, 2.5)], probs=np.array([1.0]))]
        assert miss_rate(samples, 1, threshold=2.0) == 1.0

    def test_boundary_is_not_a_miss(self):
        samples = [sample_from_offsets("s", [(0.0, 2.0)], probs=np.array([1.0]))]
        assert miss_rate(samples, 1, threshold=2.0) == 0.0

    def test_non_increasing_in_threshold_and_k(self, rng):
        samples = [random_sample(rng, f"s{i}") for i in range(40)]
        rates_t = [miss_rate(samples, 2, threshold=t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(rates_t, rates_t[1:]))
        rates_k = [miss_rate(samples, k) for k in (1, 2, 3, 4)]
        assert all(a >= b for a, b in zip(rates_k, rates_k[1:]))

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            miss_rate([], 1)


class TestRmse:
    def test_exact_forecasts(self):
        samples = [sample_from_offsets(f"s{i}", [(0.0, 0.0)], probs=np.array([1.0])) for i in range(3)]
        out = rmse(samples)
        assert np.all(out["per_horizon"] == 0.0)
        assert out["overall"] == 0.0

    def test_constant_offset(self):
        samples = [sample_from_offsets("s", [(1.0, 0.0)], probs=np.array([1.0]))]
        out = rmse(samples)
        assert np.allclose(out["per_horizon"], 1.0, atol=1e-12)
        assert out["overall"] == pytest.approx(1.0, abs=1e-12)

    def test_two_sample_pooling(self):
        a = sample_from_offsets("a", [(1.0, 0.0)], probs=np.array([1.0]))
        b = sample_from_offsets("b", [(3.0, 0.0)], probs=np.array([1.0]))
        out = rmse([a, b])
        assert np.allclose(out["per_horizon"], math.sqrt(5.0), atol=1e-12)

    def test_uses_highest_probability_mode(self):
        sample = sample_from_offsets(
            "s", [(0.0, 0.0), (2.0, 0.0)], probs=np.array([0.2, 0.8])
        )
        assert rmse([sample])["overall"] == pytest.approx(2.0, abs=1e-12)

    def test_mixed_horizons_rejected(self):
        a = sample_from_offsets("a", [(0.0, 0.0)], probs=np.array([1.0]), horizon=5)
        b = sample_from_offsets("b", [(0.0, 0.0)], probs=np.array([1.0]), horizon=6)
        with pytest.raises(UsageError):
            rmse([a, b])


class TestWorstCase:
    def test_hundred_samples_top_five(self):
        errors = {f"s{i:03d}": float(i) for i in range(1, 101)}
        out = worst_case_subsets(errors, [5.0])
        assert out[5.0]["count"] == 5
        assert out[5.0]["mean"] == pytest.approx(98.0)
        assert sorted(out[5.0]["sample_ids"]) == [f"s{i:03d}" for i in range(96, 101)]

    def test_top_hundred_percent_is_whole_set_mean(self):
        errors = {f"s{i}": float(i) for i in range(10)}
        out = worst_case_subsets(errors, [100.0])
        assert out[100.0]["count"] == 10
        assert out[100.0]["mean"] == pytest.approx(4.5)

    def test_ties_resolved_by_descending_id(self):
        errors = {f"s{i}": 1.0 for i in range(10)}
        out = worst_case_subsets(errors, [20.0])
        assert out[20.0]["sample_ids"] == ["s9", "s8"]
        assert out[20.0]["mean"] == 1.0

    def test_matches_brute_force_oracle(self, rng):
        errors = {f"s{i:04d}": float(rng.uniform(0, 50)) for i in range(333)}
        for p in (1.0, 2.5, 33.3, 100.0):
            got = worst_case_subsets(errors, [p])[p]
            want = worst_case_oracle(errors, p)
            assert got["count"] == want["count"]
            assert got["sample_ids"] == want["sample_ids"]
            assert got["mean"] == pytest.approx(want["mean"], rel=1e-12)

    def test_percent_bounds(self):
        with pytest.raises(UsageError):
            worst_case_subsets({"a": 1.0}, [0.0])
        with pytest.raises(UsageError):
            worst_case_subsets({"a": 1.0}, [100.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_error_rejected_naming_first_id(self, bad):
        with pytest.raises(UsageError, match=r"^sample 'b': non-finite error"):
            worst_case_subsets({"a": 1.0, "b": bad, "c": 0.5, "d": bad}, [34.0])

    def test_empty_stratum_rejected(self, rng):
        errors = {f"s{i}": float(i) for i in range(50)}
        with pytest.raises(UsageError, match=r"^percent 1e-12 of 50 samples selects no sample$"):
            worst_case_subsets(errors, [5.0, 1e-12])
        assert worst_case_subsets(errors, [1.0])[1.0]["count"] == 1
        samples = [random_sample(rng, f"s{i}") for i in range(50)]
        with pytest.raises(UsageError, match="selects no sample"):
            evaluate(samples, ks=(1,), percents=(1e-12,), rank_metric="min_ade", rank_k=1)


class TestLosses:
    def test_exact_confident_mode_zero_loss(self):
        sample = sample_from_offsets("s", [(0.0, 0.0)], probs=np.array([1.0]))
        out = task_loss(sample)
        assert out["l_task"] == 0.0
        assert out["k_star"] == 0

    def test_exact_half_confident_mode(self):
        sample = sample_from_offsets(
            "s", [(0.0, 0.0), (4.0, 0.0)], probs=np.array([0.5, 0.5])
        )
        out = task_loss(sample, LossWeights(lambda_cls=1.0))
        assert out["l_task"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_classification_weight(self):
        sample = sample_from_offsets("s", [(1.0, 0.0)], probs=np.array([1.0]))
        out = task_loss(sample, LossWeights(lambda_cls=0.0))
        assert out["l_task"] == pytest.approx(1.0, abs=1e-12)  # mean squared L2 of 1 m offset

    def test_total_loss_weighting(self):
        assert total_loss(0.0, 0.0, 0.0) == 0.0
        assert total_loss(1.0, 2.0, 3.0) == 6.0
        assert total_loss(1.0, 2.0, 3.0, LossWeights(lambda_1=0.5, lambda_2=2.0)) == 8.0

    def test_probability_floor(self):
        sample = sample_from_offsets(
            "s", [(0.0, 0.0), (4.0, 0.0)], probs=np.array([0.0, 1.0])
        )
        out = task_loss(sample, LossWeights(lambda_cls=1.0))
        assert out["k_star"] == 0  # exact mode wins despite zero probability
        assert out["l_task"] == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_weights_non_negative(self):
        with pytest.raises(ValidationError):
            LossWeights(lambda_1=-0.5)


class TestSquaredErrorKernel:
    """One kernel computes every squared pointwise error, with the bits of the
    spellings it replaced."""

    SHAPES = [(1, 1), (2, 5), (6, 30), (5, 12)]

    def drawn(self, rng, k, t):
        for i in range(25):
            sample = random_sample(rng, f"s{i}", k=k, horizon=t)
            scale = 10.0 ** rng.integers(-3, 4)
            yield ForecastSample(sample.sample_id, np.round(sample.modes * scale, 3), sample.probs, sample.gt * scale)

    @pytest.mark.parametrize("k, t", SHAPES)
    def test_ade_per_mode_equals_norm_spelling(self, rng, k, t):
        for sample in self.drawn(rng, k, t):
            old = np.linalg.norm(sample.modes - sample.gt[None], axis=2).mean(axis=1)
            assert np.array_equal(ade_per_mode(sample), old)

    @pytest.mark.parametrize("k, t", SHAPES)
    def test_task_loss_equals_power_spelling(self, rng, k, t):
        for sample in self.drawn(rng, k, t):
            k_star = int(np.argmin(np.linalg.norm(sample.modes - sample.gt[None], axis=2).mean(axis=1)))
            mse = float(np.mean(np.sum((sample.modes[k_star] - sample.gt) ** 2, axis=1)))
            nll = -math.log(max(float(sample.probs[k_star]), 1e-12))
            assert task_loss(sample) == {"l_task": mse + nll, "k_star": k_star}


class TestSampleBounds:
    def test_zero_horizon_rejected(self):
        with pytest.raises(ValidationError, match=r"^sample 'z': horizon must be >= 1, got 0$"):
            ForecastSample("z", np.zeros((2, 0, 2)), np.array([0.5, 0.5]), np.zeros((0, 2)))

    @pytest.mark.parametrize("field", ["modes", "gt"])
    @pytest.mark.parametrize("bad", [1e151, -1e200, 1e308])
    def test_coordinate_beyond_bound_rejected(self, field, bad):
        arrays = {"modes": np.zeros((2, 3, 2)), "gt": np.zeros((3, 2))}
        arrays[field].flat[-1] = bad
        with pytest.raises(ValidationError, match=r"^sample 'x': a mode or gt coordinate beyond 1e\+150$"):
            ForecastSample("x", probs=np.array([0.5, 0.5]), **arrays)

    @pytest.mark.filterwarnings("error")
    def test_bound_itself_scores_without_overflow(self):
        gt = np.full((3, 2), -MAX_MAGNITUDE)
        samples = [ForecastSample(f"s{i}", np.full((2, 3, 2), MAX_MAGNITUDE), np.array([0.5, 0.5]), gt) for i in range(3)]
        report = evaluate(samples, ks=(1, 2), percents=(50.0,), rank_metric="min_fde", rank_k=2)
        assert math.isfinite(report.aggregate["rmse"]["overall"])
        assert math.isfinite(task_loss(samples[0])["l_task"])


class TestParseJsonl:
    def line(self, sample_id="a", modes=None, probs=None, gt=None):
        return json.dumps(
            {
                "sample_id": sample_id,
                "modes": modes or [[[0.0, 0.0], [1.0, 0.0]]],
                "probs": probs or [1.0],
                "gt": gt or [[0.0, 0.0], [1.0, 0.0]],
            }
        )

    def test_round_trip(self):
        text = self.line("a") + "\n" + self.line("b") + "\n"
        samples = parse_forecast_jsonl(text)
        assert [s.sample_id for s in samples] == ["a", "b"]

    def test_bad_json_names_line(self):
        text = self.line("a") + "\n{oops\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_forecast_jsonl(text)

    def test_missing_key_names_line(self):
        text = '{"sample_id": "a"}\n'
        with pytest.raises(ParseError, match="line 1"):
            parse_forecast_jsonl(text)

    def test_bad_probs_rejected(self):
        text = self.line(probs=[0.4])
        with pytest.raises(ParseError, match="sum to 1"):
            parse_forecast_jsonl(text)

    def test_duplicate_id_rejected(self):
        text = self.line("a") + "\n" + self.line("a")
        with pytest.raises(ParseError, match="duplicate"):
            parse_forecast_jsonl(text)

    @pytest.mark.parametrize("field", ["modes", "probs", "gt"])
    @pytest.mark.parametrize(
        "leaf", [{}, "1", True, False, None], ids=["object", "string", "bool", "false", "null"]
    )
    def test_non_numeric_leaf_names_line(self, field, leaf):
        record = json.loads(self.line("b"))
        target = record[field]
        while isinstance(target[0], list):
            target = target[0]
        target[0] = leaf  # the other leaves stay numbers
        text = self.line("a") + "\n" + json.dumps(record) + "\n"
        with pytest.raises(ParseError, match=f"line 2: {field}: .*numbers"):
            parse_forecast_jsonl(text)

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"modes": [[[0.0, 0.0, 0.0], [1.0]]]}, "inhomogeneous"),
            ({"gt": [[0.0], [1.0, 0.0, 0.0]]}, "inhomogeneous"),
            ({"modes": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]], "probs": [0.5, 0.5]}, "inhomogeneous"),
            ({"probs": [0.5, 0.5]}, "one probability per mode"),
        ],
        ids=["mode-points", "gt-points", "mode-lengths", "probs-length"],
    )
    def test_ragged_arrays_name_line(self, fields, error):
        text = self.line("a") + "\n" + json.dumps({**json.loads(self.line("b")), **fields}) + "\n"
        with pytest.raises(ParseError, match=f"^line 2: .*{error}"):
            parse_forecast_jsonl(text)

    @pytest.mark.parametrize("ascii", [True, False])
    @pytest.mark.parametrize("sample_id", ['a"b', "a\\b", "\\", "é", "\u2028", "\x7f", "[]", '"', ""])
    def test_ids_read_as_json_reads_them(self, sample_id, ascii):
        line = json.dumps({**json.loads(self.line()), "sample_id": sample_id}, ensure_ascii=ascii)
        text = self.line("first") + "\n" + line + "\n"
        assert [s.sample_id for s in parse_forecast_jsonl(text)] == ["first", sample_id]

    @pytest.mark.parametrize(
        "line",
        [
            '{"sample_id": "a", "modes": [[[0.0, 0.0]7]], "probs": [1.0], "gt": [[0.0, 0.0]]}',
            '{"sample_id": "a", "modes": [[[0.0, 0.0]]], "probs": [1.0], "gt": [[0.0, 0.0]]}9',
            '{"sample_id": "a", "modes": [[[0.0, 0.0]]], "probs": [1.0], "gt": 1[[0.0, 0.0]]}',
            '{"sample_id": "a", "modes": 0.0[[[, 0.0]]], "probs": [1.0], "gt": [[0.0, 0.0]]}',
            '{"sample_id": "a"7, "modes": [[0.0[, 0.0]]], "probs": [1.0], "gt": [[0.0, 0.0]]}',
        ],
    )
    def test_stray_or_moved_number_is_invalid_json(self, line):
        """A number beside a bracket, a brace or a key, or moved across one."""
        with pytest.raises(ParseError, match=r"^line 1: invalid JSON \("):
            parse_forecast_jsonl(line + "\n")

    def test_space_inside_a_key_is_no_key(self):
        line = self.line().replace('"probs"', '"pro bs"')
        with pytest.raises(ParseError, match=r"^line 1: missing keys \['probs'\]$"):
            parse_forecast_jsonl(line)

    def test_integer_leaves_read_as_floats(self):
        (sample,) = parse_forecast_jsonl(self.line(modes=[[[0, 0], [1, 0.5]]], probs=[1], gt=[[0, 0], [2, 0]]))
        assert sample.modes.dtype == sample.probs.dtype == sample.gt.dtype == np.float64
        assert sample.modes.tolist() == [[[0.0, 0.0], [1.0, 0.5]]] and sample.gt.tolist() == [[0.0, 0.0], [2.0, 0.0]]

    TWO_MODES = {"modes": [[[0.0, 0.0], [1.0, 0.0]]] * 2, "probs": [0.5, 0.5]}

    @pytest.mark.parametrize(
        "lines, error",
        [
            ([{"probs": [0.4]}, "{oops"], r"line 2: sample 'b': probabilities"),
            (["{oops", {"gt": [[math.nan, 0.0], [1.0, 0.0]]}], r"line 2: invalid JSON"),
            ([{"sample_id": "a", "probs": [0.4]}], r"line 2: sample 'a': probabilities"),
            ([TWO_MODES, {**TWO_MODES, "probs": [0.5, 0.6]}, {"gt": [[math.inf, 0.0], [0.0, 0.0]]}], r"line 3: sample 'c'"),
            ([{"modes": [[[0.0, None], [1.0, 0.0]]]}, {"probs": [2.0]}], r"line 2: modes: .*NoneType"),
        ],
        ids=["probs-then-json", "json-then-nan", "probs-and-duplicate", "second-group-first", "null-then-probs"],
    )
    def test_first_failing_line_wins(self, lines, error):
        """Line 1 is valid; each later entry is a raw line or the fields that replace a valid line's."""
        text = [self.line("a")]
        for sample_id, entry in zip("bcd", lines):
            if isinstance(entry, str):
                text.append(entry)
            else:
                record = {**json.loads(self.line(sample_id)), **entry}
                text.append(json.dumps(record))
        with pytest.raises(ParseError, match=f"^{error}"):
            parse_forecast_jsonl("\n".join(text) + "\n")

    @pytest.mark.parametrize("sample_id", ["b", "true"], ids=["table-path", "per-sample-path"])
    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"gt": [[0.0, 1e200], [1.0, 0.0]]}, "a mode or gt coordinate beyond 1e\\+150"),
            ({"modes": [[[0.0, 0.0], [-1e151, 0.0]]]}, "a mode or gt coordinate beyond 1e\\+150"),
            ({"probs": [1e200]}, "probabilities must be"),
            ({"modes": [[[0.0, 0.0], [1e150, -1e150]]]}, None),
        ],
        ids=["gt", "modes", "probs", "bound-kept"],
    )
    def test_magnitude_bound_on_both_paths(self, sample_id, fields, error):
        """A ``true`` in the id sends the line down the per-sample path; both paths refuse the same lines."""
        text = self.line("a") + "\n" + json.dumps({**json.loads(self.line(sample_id)), **fields}) + "\n"
        if error is None:
            samples = parse_forecast_jsonl(text)
            assert samples[1].modes.tolist() == fields["modes"]
            assert all(a.flags.writeable for s in samples for a in (s.modes, s.probs, s.gt))
        else:
            with pytest.raises(ParseError, match=f"^line 2: sample '{sample_id}': {error}"):
                parse_forecast_jsonl(text)

    def test_empty_source_names_it(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n \r\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no forecast samples$"):
            parse_forecast_jsonl(path)
        for source in ("", b"\n"):
            with pytest.raises(ParseError, match="^forecast JSONL: no forecast samples$"):
                parse_forecast_jsonl(source)
        with pytest.raises(UsageError, match="evaluate needs at least one sample"):
            evaluate([])

    def test_non_utf8_bytes_name_line(self):
        data = (self.line("a") + "\n").encode() + b'{"sample_id": "\xff"}\n'
        with pytest.raises(ParseError, match="line 2: .*UTF-8"):
            parse_forecast_jsonl(data)


class TestFlatDecode:
    """Lines that end in ``"modes"``, ``"probs"`` and ``"gt"`` arrays of one
    shape, as ``json.dumps`` writes them with any separators and any id, are
    flattened straight into their table's row: the leaf-by-leaf path never
    runs on them."""

    @pytest.fixture(autouse=True)
    def no_leaf_by_leaf_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a json.dumps line went leaf by leaf")

        monkeypatch.setattr(evaluation, "_sample", forbidden)

    def test_golden_jsonl(self):
        from test_golden import golden_jsonl

        samples = parse_forecast_jsonl(golden_jsonl())
        assert [s.sample_id for s in samples] == [f"f{i:02d}" for i in range(40)]
        assert [t.probs.shape[1] for t in samples.groups] == [3, 6]

    def test_written_corpus(self, rng):
        """Shapes, ids and numbers of every kind json.dumps writes, with every line ending."""
        ids = ["a", "", "[x]", "é", "\U0001f600", 'q"\\', "1"]
        shapes = [(1, 1), (3, 8), (6, 30), (2, 1), (1, 5), (3, 8), (6, 30)]
        want, lines = [], []
        for sample_id, (k, t) in zip(ids, shapes):
            modes = rng.normal(scale=10.0 ** rng.integers(-300, 150), size=(k, t, 2))
            modes.flat[0], modes.flat[-1] = -0.0, MAX_MAGNITUDE
            gt = rng.normal(size=(t, 2)).round(3)
            probs = np.full(k, 1 / k)
            want.append(ForecastSample(sample_id, modes, probs, gt))
            record = {"sample_id": sample_id, "modes": modes.tolist(), "probs": probs.tolist(), "gt": gt.tolist()}
            if k == 2:  # integer leaves
                record["gt"] = [[int(x), -int(y)] for x, y in rng.integers(-5, 5, size=(t, 2))]
                want[-1] = ForecastSample(sample_id, modes, probs, record["gt"])
            lines.append(json.dumps(record, ensure_ascii=len(lines) % 2 == 0))
        lines[1] = json.dumps(json.loads(lines[1]), separators=(",", ":"))
        lines[2] = json.dumps(json.loads(lines[2]), separators=(" ,\t", " :  "))
        for end in ("\n", "\r\n", "\r"):
            samples = parse_forecast_jsonl(end.join(lines))
            assert len(samples) == len(want)
            for got, sample in zip(samples, want):
                assert got.sample_id == sample.sample_id
                for name in ("modes", "probs", "gt"):
                    assert getattr(got, name).tobytes() == getattr(sample, name).tobytes()


class TestEvaluate:
    def test_report_self_consistency(self, rng):
        samples = [random_sample(rng, f"s{i:03d}") for i in range(50)]
        report = evaluate(
            samples, ks=(1, 2, 4), percents=(10.0, 50.0), rank_metric="min_ade", rank_k=2
        )
        for k in (1, 2, 4):
            per = [row["min_ade"][str(k)] for row in report.per_sample]
            assert report.aggregate["min_ade"][str(k)] == pytest.approx(np.mean(per), rel=1e-12)
            per_f = [row["min_fde"][str(k)] for row in report.per_sample]
            assert report.aggregate["min_fde"][str(k)] == pytest.approx(np.mean(per_f), rel=1e-12)
        # worst-case strata recomputable from the per-sample table
        by_id = {row["sample_id"]: row for row in report.per_sample}
        for key, stratum in report.worst_case.items():
            p = float(key.removeprefix("top"))
            assert stratum["count"] == math.ceil(p * len(samples) / 100.0)
            mean_ade = np.mean([by_id[i]["min_ade"]["2"] for i in stratum["sample_ids"]])
            assert stratum["min_ade"] == pytest.approx(mean_ade, rel=1e-12)

    def test_worst_case_means_non_increasing_in_percent(self, rng):
        samples = [random_sample(rng, f"s{i:03d}") for i in range(60)]
        report = evaluate(
            samples, ks=(2,), percents=(5.0, 20.0, 50.0, 100.0), rank_metric="min_fde", rank_k=2
        )
        means = [report.worst_case[f"top{p:g}"]["min_fde"] for p in (5.0, 20.0, 50.0, 100.0)]
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    def test_rank_metric_required_with_percents(self, rng):
        samples = [random_sample(rng, "s0")]
        with pytest.raises(UsageError, match="rank_metric"):
            evaluate(samples, ks=(1,), percents=(5.0,))

    def test_jsonable(self, rng):
        samples = [random_sample(rng, f"s{i}") for i in range(5)]
        report = evaluate(samples, ks=(1,), percents=(50.0,), rank_metric="min_ade", rank_k=1)
        payload = json.dumps(report.to_jsonable(), sort_keys=True)
        assert "per_sample" in payload and "worst_case" in payload

    def test_grouped_scoring_equals_per_sample_functions(self, rng):
        samples = []
        for i in range(60):
            n_modes = (3, 6, 4)[i % 3]  # three (K, T) groups, interleaved
            gt = rng.normal(size=(7, 2))
            modes = gt[None] + rng.normal(size=(n_modes, 7, 2))
            if i % 7 == 0:
                modes[0] = gt
            probs = rng.integers(1, 3, size=n_modes).astype(float)  # many ties
            samples.append(ForecastSample(f"s{i:03d}", modes, probs / probs.sum(), gt))
        ks, percents, threshold = (1, 2, 3), (5.0, 25.0, 100.0), 1.5
        report = evaluate(
            samples, ks=ks, threshold=threshold, percents=percents, rank_metric="min_fde", rank_k=3
        )
        for sample, row in zip(samples, report.per_sample):
            assert row["sample_id"] == sample.sample_id
            assert row["min_ade"] == {str(k): min_ade(sample, k) for k in ks}
            assert row["min_fde"] == {str(k): min_fde(sample, k) for k in ks}
        for k in ks:
            assert report.aggregate["min_ade"][str(k)] == float(np.mean([min_ade(s, k) for s in samples]))
            assert report.aggregate["min_fde"][str(k)] == float(np.mean([min_fde(s, k) for s in samples]))
            assert report.aggregate["miss_rate"][str(k)] == miss_rate(samples, k, threshold)
        ade_by_id = {s.sample_id: min_ade(s, 3) for s in samples}
        fde_by_id = {s.sample_id: min_fde(s, 3) for s in samples}
        for p, stratum in worst_case_subsets(fde_by_id, percents).items():
            got = report.worst_case[f"top{p:g}"]
            assert got["count"] == stratum["count"]
            assert got["sample_ids"] == stratum["sample_ids"]
            assert got["min_ade"] == float(np.mean([ade_by_id[i] for i in got["sample_ids"]]))
            assert got["min_fde"] == float(np.mean([fde_by_id[i] for i in got["sample_ids"]]))

    def test_duplicate_ids_rejected_naming_the_first_repeat(self, rng):
        a, b, c = (random_sample(rng, sample_id) for sample_id in "abc")
        with pytest.raises(UsageError, match=r"^duplicate sample_id 'a'$"):
            evaluate([a, a, c], ks=(1,), percents=(100.0,), rank_metric="min_ade", rank_k=1)
        with pytest.raises(UsageError, match=r"^duplicate sample_id 'b'$"):
            evaluate([a, b, b, a], ks=(1,))

    def test_parsed_tables_score_as_their_samples(self, rng):
        """The parse's tables, and a list of the samples they give, make one report."""
        text = "".join(
            json.dumps({"sample_id": s.sample_id, "modes": s.modes.tolist(), "probs": s.probs.tolist(), "gt": s.gt.tolist()})
            + "\n"
            for s in (random_sample(rng, f"s{i}", k=(2, 4)[i % 2]) for i in range(30))
        )
        parsed = parse_forecast_jsonl(text)
        kwargs = dict(ks=(1, 2), percents=(10.0, 50.0), rank_metric="min_fde", rank_k=2)
        assert evaluate(parsed, **kwargs) == evaluate(list(parsed), **kwargs)
        assert parsed[-1].sample_id == "s29" and parsed[-1].modes.base is not None
        assert len(Forecasts.of(list(parsed)).groups) == len(parsed.groups) == 2
        assert [s.sample_id for s in parsed[-3:-8:-2]] == ["s27", "s25", "s23"] == [s.sample_id for s in parsed[27:22:-2]]
        assert parsed[5:2] == []
        for i in (30, -31):
            with pytest.raises(IndexError):
                parsed[i]

    def test_forecasts_of_keeps_forecasts_and_tables_a_list_as_the_parse_does(self, rng):
        samples = [random_sample(rng, f"s{i}", k=(2, 4, 2)[i % 3], horizon=(3, 5)[i % 2]) for i in range(12)]
        text = "".join(
            json.dumps({"sample_id": s.sample_id, "modes": s.modes.tolist(), "probs": s.probs.tolist(), "gt": s.gt.tolist()})
            + "\n"
            for s in samples
        )
        parsed = parse_forecast_jsonl(text)
        assert Forecasts.of(parsed) is parsed
        built = Forecasts.of(samples)
        assert built.ids == parsed.ids and len(built.groups) == len(parsed.groups) == 4
        for got, want in zip(built.groups, parsed.groups):
            for name in ("index", "modes", "probs", "gt"):
                assert getattr(got, name).shape == getattr(want, name).shape
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_report_jsonable_per_sample_is_a_list(self, rng):
        report = evaluate([random_sample(rng, f"s{i}") for i in range(3)], ks=(1,))
        payload = report.to_jsonable()
        assert isinstance(report.per_sample, tuple) and payload["per_sample"] == list(report.per_sample)
        assert type(payload["per_sample"]) is list
        assert sorted(payload) == ["aggregate", "config_echo", "per_sample", "worst_case"]

    def test_k_error_names_first_short_sample_in_input_order(self, rng):
        # groups by first appearance: K=6 (s0), K=4 (s1, s3), K=2 (s2)
        samples = [random_sample(rng, f"s{i}", k=n) for i, n in enumerate((6, 4, 2, 4))]
        with pytest.raises(UsageError, match=r"^sample 's1': k=5 outside 1\.\.4$"):
            evaluate(samples, ks=(1, 3, 5))
        with pytest.raises(UsageError, match=r"^sample 's2': k=3 outside 1\.\.2$"):
            evaluate(samples, ks=(1,), percents=(50.0,), rank_metric="min_ade", rank_k=3)
        with pytest.raises(UsageError, match=r"^sample 's1': k=5 outside 1\.\.4$"):
            miss_rate(samples, 5)
        # the k check runs before the horizon check, as the per-sample loop did
        mixed = samples + [random_sample(rng, "h", k=6, horizon=9)]
        with pytest.raises(UsageError, match="'s2': k=3"):
            evaluate(mixed, ks=(3,))
        with pytest.raises(UsageError, match=r"'h': horizon 9 != 6"):
            evaluate(mixed, ks=(2,))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_threshold_must_be_finite_and_non_negative(self, rng, threshold):
        samples = [random_sample(rng, "s0")]
        with pytest.raises(UsageError, match="threshold"):
            evaluate(samples, ks=(1,), threshold=threshold)
        with pytest.raises(UsageError, match="threshold"):
            miss_rate(samples, 1, threshold=threshold)


CHECKS = [
    (lambda: evaluation.check_options(rank_metric="x"), UsageError,
     "rank_metric must be one of ('min_ade', 'min_fde'), got 'x'"),
    (lambda: rmse([]), UsageError, "rmse needs at least one sample"),
    (lambda: worst_case_subsets({}, [50.0]), UsageError, "worst_case_subsets needs at least one sample"),
    # K * T == 0: the flat reader declines the line, and the leaf-by-leaf reader words its error
    (lambda: parse_forecast_jsonl('{"sample_id": "a", "modes": [], "probs": [], "gt": []}\n'), ParseError,
     "line 1: sample 'a': modes must be (K, T, 2), got (0,)"),
]


@pytest.mark.parametrize("call, error, text", CHECKS, ids=[text for _, _, text in CHECKS])
def test_each_check_raises_its_error(call, error, text):
    """Each option and empty-input check of the evaluation layer raises its own error and text."""
    with pytest.raises(error) as info:
        call()
    assert text in str(info.value)
