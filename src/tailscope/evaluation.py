"""Forecast evaluation: displacement errors, miss rate, RMSE, losses and the
worst-case top-k% stratification protocol.

A forecast sample carries K candidate motions with confidence scores and the
ground truth. ``minADE_k``/``minFDE_k`` consider the k highest-probability
modes; the miss rate counts samples whose best final displacement over k
modes strictly exceeds 2 m; RMSE follows the single-most-likely-mode
protocol. The worst-case report ranks every sample by a configurable error
metric and reports the mean errors of the top p% strata.

Every squared pointwise error comes from one kernel, ``_sq_errors``. Mode and
ground-truth coordinates must lie within ``MAX_MAGNITUDE``, so no squared
error overflows. JSONL parsing gathers each (K, T) group's rows in one
buffer, and a :class:`Table` of each group is what every score reads.
"""

from __future__ import annotations

import json
import math
import os
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Mapping

import numpy as np

from .errors import (
    MAX_MAGNITUDE, Grouped, ParseError, UsageError, ValidationError, decode_json, numbers, read_lines, unchecked,
)

#: A sample is missed when its best final displacement exceeds this (m).
MISS_THRESHOLD = 2.0

#: Mode log-probabilities are floored at this before taking the log.
EPS_PROB = 1e-12

RANK_METRICS = ("min_ade", "min_fde")


@dataclass(frozen=True)
class ForecastSample:
    """K forecast modes with probabilities plus the ground-truth motion: one call's
    input data, so the caller's arrays (``np.asarray``), not read-only copies. A
    parsed sample views its :class:`Table`'s buffers, built with ``unchecked``."""

    sample_id: str
    modes: np.ndarray  # (K, T, 2)
    probs: np.ndarray  # (K,)
    gt: np.ndarray     # (T, 2)

    def __post_init__(self):
        for name in ("modes", "probs", "gt"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.modes.ndim != 3 or self.modes.shape[2] != 2:
            raise ValidationError(
                f"sample {self.sample_id!r}: modes must be (K, T, 2), got {self.modes.shape}"
            )
        if self.gt.ndim != 2 or self.gt.shape != self.modes.shape[1:]:
            raise ValidationError(
                f"sample {self.sample_id!r}: gt shape {self.gt.shape} does not match "
                f"modes {self.modes.shape}"
            )
        if self.probs.shape != (self.modes.shape[0],):
            raise ValidationError(
                f"sample {self.sample_id!r}: need one probability per mode"
            )
        if self.modes.shape[1] < 1:
            raise ValidationError(f"sample {self.sample_id!r}: horizon must be >= 1, got 0")
        if not all(np.all(np.isfinite(a)) for a in (self.modes, self.probs, self.gt)):
            raise ValidationError(f"sample {self.sample_id!r}: non-finite values")
        if any(np.any(np.abs(a) > MAX_MAGNITUDE) for a in (self.modes, self.gt)):
            raise ValidationError(
                f"sample {self.sample_id!r}: a mode or gt coordinate beyond {MAX_MAGNITUDE:g}"
            )
        if np.any(self.probs < 0) or abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValidationError(
                f"sample {self.sample_id!r}: probabilities must be >= 0 and sum to 1"
            )

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def horizon(self) -> int:
        return self.modes.shape[1]


@dataclass(frozen=True)
class LossWeights:
    """Balancing weights of the composite training loss."""

    lambda_cls: float = 1.0
    lambda_1: float = 1.0
    lambda_2: float = 1.0

    def __post_init__(self):
        for name in ("lambda_cls", "lambda_1", "lambda_2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


def _sq_errors(modes: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """The (..., K, T) squared errors x*x + y*y of (..., K, T, 2) modes against
    the (..., T, 2) ground truth. Their sqrt and a mean over the contiguous last
    axis round exactly like np.linalg.norm(...).mean(axis=-1), so reports keep
    every bit. The y terms go one mode at a time: no temporary outgrows the result.
    """
    sq = modes[..., 0] - gt[..., None, :, 0]
    sq *= sq
    for k in range(modes.shape[-3]):
        y = modes[..., k, :, 1] - gt[..., 1]
        y *= y
        sq[..., k, :] += y
    return sq


def ade_per_mode(sample: ForecastSample) -> np.ndarray:
    """Mean pointwise L2 error of each mode against the ground truth."""
    return np.sqrt(_sq_errors(sample.modes, sample.gt)).mean(axis=1)


@dataclass(frozen=True, eq=False)
class Table:
    """The samples of one (K, T) shape: their increasing positions ``index`` in
    the corpus, (S, K, T, 2) ``modes``, (S, K) ``probs`` and (S, T, 2) ``gt``."""

    index: np.ndarray
    modes: np.ndarray
    probs: np.ndarray
    gt: np.ndarray

    @classmethod
    def of(cls, samples: Sequence[ForecastSample], index) -> Table:
        return cls(np.array(index), *(np.stack([getattr(s, name) for s in samples]) for name in ("modes", "probs", "gt")))

    def row(self, r: int, sample_id: str) -> ForecastSample:
        return unchecked(ForecastSample, sample_id, self.modes[r], self.probs[r], self.gt[r])


class Forecasts(Grouped):
    """Forecast samples as ``groups``, one :class:`Table` per (K, T) shape in order
    of each one's first sample; indexing gives a :class:`ForecastSample` viewing its row."""

    @classmethod
    def of(cls, samples: Sequence[ForecastSample]) -> Forecasts:
        return super().of(samples, lambda s: s.modes.shape[:2], Table.of, attrgetter("sample_id"))


def _check_k(forecasts: Forecasts, ks: Sequence[int]) -> None:
    """Reject the first sample, in input order, with a k of ``ks`` (sorted) outside 1..K."""
    for t in forecasts.groups:
        n_modes = t.probs.shape[1]
        if ks[0] < 1 or ks[-1] > n_modes:
            k = next(k for k in ks if not 1 <= k <= n_modes)
            raise UsageError(f"sample {forecasts.ids[t.index[0]]!r}: k={k} outside 1..{n_modes}")


def _check_horizon(forecasts: Forecasts) -> None:
    horizon = forecasts.groups[0].gt.shape[1]
    for t in forecasts.groups:
        if t.gt.shape[1] != horizon:
            raise UsageError(f"sample {forecasts.ids[t.index[0]]!r}: horizon {t.gt.shape[1]} != {horizon}")


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and threshold >= 0):
        raise UsageError(f"miss threshold must be finite and >= 0, got {threshold!r}")


def _check_percents(percents: Sequence[float]) -> None:
    for p in percents:
        if not 0.0 < p <= 100.0:
            raise UsageError(f"percent {p} outside (0, 100]")


def check_options(
    ks: Sequence[int] = (1, 5, 10),
    threshold: float = MISS_THRESHOLD,
    percents: Sequence[float] = (),
    rank_metric: str | None = None,
) -> None:
    """``evaluate``'s checks of its options that need no sample, so a caller can run them before parsing."""
    if not ks:
        raise UsageError("need at least one k")
    if percents and rank_metric is None:
        raise UsageError("worst-case percents given but no rank_metric; set it to 'min_ade' or 'min_fde'")
    if rank_metric is not None and rank_metric not in RANK_METRICS:
        raise UsageError(f"rank_metric must be one of {RANK_METRICS}, got {rank_metric!r}")
    _check_threshold(threshold)
    _check_percents(percents)


def _group_errors(table: Table):
    """Every minADE_k/minFDE_k of a table's S samples, plus their RMSE terms.

    Returns two (S, K) arrays whose column k-1 holds minADE_k / minFDE_k, and
    the (S, T) squared pointwise errors of each sample's most likely mode.
    """
    d = _sq_errors(table.modes, table.gt)
    sq = d[np.arange(len(d)), np.argmax(table.probs, axis=1)]
    np.sqrt(d, out=d)  # (S, K, T) pointwise distances
    # One stable sort puts the k most probable modes first, ties in mode
    # order; the running minimum along it is min over the top k, for every k.
    order = np.argsort(-table.probs, axis=1, kind="stable")
    ade = np.minimum.accumulate(np.take_along_axis(d.mean(axis=-1), order, axis=1), axis=1)
    fde = np.minimum.accumulate(np.take_along_axis(d[..., -1], order, axis=1), axis=1)
    return ade, fde, sq


def _score(forecasts: Forecasts):
    """Per-sample errors in input order, one array pass per table.

    Returns ``(ade, fde, sq)``: ``ade[k-1]`` and ``fde[k-1]`` are the (N,)
    minADE_k / minFDE_k of every sample (NaN beyond a sample's own K), and
    ``sq`` is the (N, T) squared error of each most likely mode, or None when
    the horizons differ.
    """
    n, tables = len(forecasts), forecasts.groups
    k_max = max(t.probs.shape[1] for t in tables)
    ade, fde = np.full((k_max, n), np.nan), np.full((k_max, n), np.nan)
    horizons = {t.gt.shape[1] for t in tables}
    sq = np.empty((n, horizons.pop())) if len(horizons) == 1 else None
    for t in tables:
        g_ade, g_fde, g_sq = _group_errors(t)
        ade[: g_ade.shape[1], t.index] = g_ade.T
        fde[: g_ade.shape[1], t.index] = g_fde.T
        if sq is not None:
            sq[t.index] = g_sq
    return ade, fde, sq


def _scored(samples: Sequence[ForecastSample], k: int):
    forecasts = Forecasts.of(samples)
    _check_k(forecasts, [k])
    return _score(forecasts)


def min_ade(sample: ForecastSample, k: int) -> float:
    """Best average displacement error among the k highest-probability modes."""
    return float(_scored([sample], k)[0][k - 1, 0])


def min_fde(sample: ForecastSample, k: int) -> float:
    """Best final displacement error among the k highest-probability modes."""
    return float(_scored([sample], k)[1][k - 1, 0])


def _misses(fde_k: np.ndarray, threshold: float) -> float:
    return int(np.count_nonzero(fde_k > threshold)) / len(fde_k)


def miss_rate(samples: Sequence[ForecastSample], k: int, threshold: float = MISS_THRESHOLD) -> float:
    """Fraction of samples whose best final displacement strictly exceeds the threshold."""
    if not samples:
        raise UsageError("miss_rate needs at least one sample")
    _check_threshold(threshold)
    return _misses(_scored(samples, k)[1][k - 1], threshold)


def _rmse(sq: np.ndarray) -> dict:
    return {"per_horizon": np.sqrt(sq.mean(axis=0)), "overall": float(np.sqrt(sq.mean()))}


def rmse(samples: Sequence[ForecastSample]) -> dict:
    """RMSE of the single most likely mode, per horizon step and pooled.

    Returns ``{"per_horizon": (T,) array, "overall": float}``. All samples
    must share the forecast horizon.
    """
    if not samples:
        raise UsageError("rmse needs at least one sample")
    forecasts = Forecasts.of(samples)
    _check_horizon(forecasts)
    return _rmse(_score(forecasts)[2])


def worst_case_subsets(errors: Mapping[str, float], percents: Sequence[float]) -> dict:
    """Top-p% highest-error strata of a per-sample error table.

    For each percentage the ceil(p*n/100) largest errors are selected, with
    ties broken toward the lexicographically larger sample id so membership
    is deterministic. Returns ``{p: {"count", "sample_ids", "mean"}}``. A
    non-finite error, or a percentage that selects no sample, is refused.
    """
    if not errors:
        raise UsageError("worst_case_subsets needs at least one sample")
    _check_percents(percents)
    for sample_id, err in errors.items():
        if not math.isfinite(err):
            raise UsageError(f"sample {sample_id!r}: non-finite error {err!r}")
    ranked = sorted(errors.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)
    n = len(ranked)
    out = {}
    for p in percents:
        count = math.ceil(round(p * n / 100.0, 9))  # round() drops float noise before ceil
        if count == 0:
            raise UsageError(f"percent {p} of {n} samples selects no sample")
        subset = ranked[:count]
        out[p] = {
            "count": count,
            "sample_ids": [sid for sid, _ in subset],
            "mean": float(np.mean([err for _, err in subset])),
        }
    return out


def task_loss(sample: ForecastSample, weights: LossWeights | None = None) -> dict:
    """Regression + classification loss of the best-matching mode.

    The best mode k* minimizes the ADE; the loss is its mean squared
    pointwise L2 error plus ``lambda_cls * -log p_{k*}`` with the probability
    floored at ``EPS_PROB``. Returns ``{"l_task", "k_star"}``.
    """
    weights = weights or LossWeights()
    sq = _sq_errors(sample.modes, sample.gt)
    k_star = int(np.argmin(np.sqrt(sq).mean(axis=1)))
    mse = float(sq[k_star].mean())
    nll = -math.log(max(float(sample.probs[k_star]), EPS_PROB))
    return {"l_task": mse + weights.lambda_cls * nll, "k_star": k_star}


def total_loss(l_task: float, l_ti: float, l_meta: float, weights: LossWeights | None = None) -> float:
    """Weighted composite loss: l_task + lambda_1 * l_ti + lambda_2 * l_meta."""
    weights = weights or LossWeights()
    return l_task + weights.lambda_1 * l_ti + weights.lambda_2 * l_meta


def _sample(line: str, line_no: int) -> ForecastSample:
    """One line's sample, decoded, converted and validated leaf by leaf: the
    reader that words every error of a forecast line."""
    record = decode_json(line, lambda message: ParseError(message, line=line_no), position=False)
    if not isinstance(record, dict):
        raise ParseError("expected a JSON object", line=line_no)
    missing = {"sample_id", "modes", "probs", "gt"} - set(record)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)}", line=line_no)
    try:
        modes, probs, gt = (numbers(record[key], f"{key}: ") for key in ("modes", "probs", "gt"))
        return ForecastSample(str(record["sample_id"]), modes, probs, gt)
    except (ValidationError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc), line=line_no) from None


#: What ``_flat_row``'s skeleton deletes: the characters of a JSON number and JSON's whitespace.
_SKIP = b"0123456789.eE+- \t\r\n"


def _skeleton(k: int, t: int) -> bytes:
    """The part after ``"modes"`` of a line of K modes and T steps, with every
    ``_SKIP`` character deleted."""
    line = json.dumps({"modes": [[[0, 0]] * t] * k, "probs": [0] * k, "gt": [[0, 0]] * t}, separators=(",", ":"))
    return line[len('{"modes"') :].encode().translate(None, _SKIP)


def _flat_row(line: str, skeletons: dict):
    """``(sample_id, (K, T), row)`` of a line whose ``"modes"``, ``"probs"`` and
    ``"gt"`` come last, in that order, as arrays of numbers of one (K, T) shape;
    None for any other line.

    ``json.loads`` reads the line, so JSON decides every token, key and id. The
    part after the first ``"modes"``, with every ``_SKIP`` character deleted
    (a character beyond ASCII reads as "?"), must equal the ``_skeleton`` of
    the line's (K, T): that fixes the nesting and leaves room for no true,
    false, null, string or NaN, so the arrays flatten straight into one row.
    ``skeletons`` caches ``_skeleton``.
    """
    flat = chain.from_iterable
    try:
        record = json.loads(line)
        key = k, t = len(record["probs"]), len(record["gt"])
        if not 0 < k * t < len(line):  # K*T points take more than K*T characters
            return None
        skeleton = skeletons[key] if key in skeletons else skeletons.setdefault(key, _skeleton(k, t))
        if line.encode("ascii", "replace").partition(b'"modes"')[2].translate(None, _SKIP) != skeleton:
            return None
        row = struct.pack(f"{2 * k * t + k + 2 * t}d", *flat(flat(record["modes"])), *record["probs"], *flat(record["gt"]))
        return str(record["sample_id"]), key, row
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError, struct.error):
        return None  # _row words the error


def _row(line: str, line_no: int):
    """``(sample_id, (K, T), row)`` of one line, read and checked leaf by leaf."""
    sample = _sample(line, line_no)
    row = np.concatenate([sample.modes.ravel(), sample.probs, sample.gt.ravel()])
    return sample.sample_id, sample.modes.shape[:2], row.tobytes()


def _check_rows(groups: dict, lines: list[str]) -> list[Table]:
    """Each ``(K, T)`` group's table, whose arrays view its row buffer (which
    then refuses to grow); raises the first error, in file order, that a row
    holds.

    A row holds the K*T*2 mode coordinates, the K probabilities, then the T*2
    ground-truth coordinates. It is bad where ``ForecastSample`` would reject
    it: a value NaN or beyond ``MAX_MAGNITUDE`` (valid probabilities are far
    below it), or probabilities negative or not summing to 1 within 1e-9.
    """
    tables, bad_lines = [], []
    for (k, t), (index, line_nos, buffer) in groups.items():
        a = k * t * 2
        rows = np.frombuffer(buffer).reshape(len(index), -1)
        probs = rows[:, a : a + k]
        bad = ~(np.abs(rows) <= MAX_MAGNITUDE).all(axis=1)
        # a row's sum along the contiguous axis rounds exactly like probs.sum()
        bad |= (probs < 0).any(axis=1) | (np.abs(probs.sum(axis=1) - 1.0) > 1e-9)
        bad_lines += [line_nos[i] for i in np.flatnonzero(bad)]
        tables.append(Table(np.array(index), rows[:, :a].reshape(-1, k, t, 2), probs, rows[:, a + k :].reshape(-1, t, 2)))
    for line_no in sorted(bad_lines):
        _row(lines[line_no - 1], line_no)
    return tables


def parse_forecast_jsonl(source) -> Forecasts:
    """Parse forecast samples from JSONL (one object per line).

    Each line must carry ``sample_id``, ``modes``, ``probs`` and ``gt``. ``source``
    is a str, bytes, a Path or a file (see ``read_lines``). Returns the samples
    as :class:`Forecasts`. A line ``_flat_row`` takes goes straight into its
    group's row; any other goes leaf by leaf through ``_sample``, which also
    words every error. An error names the first failing line; a source with
    no sample raises a ParseError naming it.
    """
    lines = read_lines(source, "forecast JSONL")
    groups: dict[tuple[int, int], tuple[list[int], list[int], array]] = {}
    ids, seen, skeletons = [], set(), {}
    try:
        for line_no, line in enumerate(lines, start=1):
            if line.isspace():  # read_lines gives no empty line
                continue
            sample_id, key, row = _flat_row(line, skeletons) or _row(line, line_no)
            index, line_nos, rows = groups.setdefault(key, ([], [], array("d")))
            index.append(len(ids))
            line_nos.append(line_no)
            rows.frombytes(row)
            ids.append(sample_id)
            if sample_id in seen:
                raise ParseError(f"duplicate sample_id {sample_id!r}", line=line_no)
            seen.add(sample_id)
    except ParseError:
        _check_rows(groups, lines)  # a bad row on an earlier line wins
        raise
    tables = _check_rows(groups, lines)
    if not ids:
        name = os.fspath(source) if isinstance(source, os.PathLike) else "forecast JSONL"
        raise ParseError(f"{name}: no forecast samples")
    return Forecasts(ids, tables)


@dataclass(frozen=True)
class EvalReport:
    """Per-sample errors plus aggregate and worst-case statistics."""

    per_sample: tuple
    aggregate: dict
    worst_case: dict
    config_echo: dict

    def to_jsonable(self) -> dict:
        return {**vars(self), "per_sample": list(self.per_sample)}


def evaluate(
    samples: Sequence[ForecastSample],
    ks: Sequence[int] = (1, 5, 10),
    threshold: float = MISS_THRESHOLD,
    percents: Sequence[float] = (),
    rank_metric: str | None = None,
    rank_k: int = 5,
) -> EvalReport:
    """Full evaluation report over a batch of forecast samples.

    ``ks`` selects the mode counts for minADE/minFDE/miss rate. When
    ``percents`` is non-empty a worst-case table is built by ranking every
    sample on ``rank_metric`` (``min_ade`` or ``min_fde``, no default) at
    ``rank_k`` modes and averaging both errors over each stratum. Sample ids
    must be unique.
    """
    if not samples:
        raise UsageError("evaluate needs at least one sample")
    ks, percents = sorted(set(int(k) for k in ks)), list(percents)
    check_options(ks, threshold, percents, rank_metric)
    forecasts = Forecasts.of(samples)
    ids, seen = forecasts.ids, set()
    if len(set(ids)) < len(ids):  # name the first id met a second time
        raise UsageError(f"duplicate sample_id {next(i for i in ids if i in seen or seen.add(i))!r}")
    _check_k(forecasts, ks)
    _check_horizon(forecasts)
    if percents:
        _check_k(forecasts, [rank_k])

    ade, fde, sq = _score(forecasts)
    keys = [str(k) for k in ks]
    rows = [k - 1 for k in ks]
    per_sample = [
        {
            "sample_id": sample_id,
            "min_ade": dict(zip(keys, a)),
            "min_fde": dict(zip(keys, f)),
        }
        for sample_id, a, f in zip(ids, ade[rows].T.tolist(), fde[rows].T.tolist())
    ]

    aggregate = {
        "n_samples": len(samples),
        "min_ade": {key: float(np.mean(ade[row])) for key, row in zip(keys, rows)},
        "min_fde": {key: float(np.mean(fde[row])) for key, row in zip(keys, rows)},
        "miss_rate": {key: _misses(fde[row], threshold) for key, row in zip(keys, rows)},
    }
    rmse_stats = _rmse(sq)
    aggregate["rmse"] = {
        "per_horizon": rmse_stats["per_horizon"].tolist(),
        "overall": rmse_stats["overall"],
    }

    worst_case = {}
    if percents:
        ade_by_id = dict(zip(ids, ade[rank_k - 1].tolist()))
        fde_by_id = dict(zip(ids, fde[rank_k - 1].tolist()))
        rank_errors = ade_by_id if rank_metric == "min_ade" else fde_by_id
        for p, stratum in worst_case_subsets(rank_errors, percents).items():
            members = stratum["sample_ids"]
            worst_case[f"top{p:g}"] = {
                "count": stratum["count"],
                "sample_ids": members,
                "min_ade": float(np.mean([ade_by_id[i] for i in members])),
                "min_fde": float(np.mean([fde_by_id[i] for i in members])),
            }

    config_echo = {
        "k": ks,
        "threshold": threshold,
        "percents": percents,
        "rank_metric": rank_metric,
        "rank_k": rank_k if percents else None,
    }
    return EvalReport(
        per_sample=tuple(per_sample),
        aggregate=aggregate,
        worst_case=worst_case,
        config_echo=config_echo,
    )
