"""Forecast evaluation: displacement errors, miss rate, RMSE, losses and the
worst-case top-k% stratification protocol.

A forecast sample carries K candidate motions with confidence scores and the
ground truth. ``minADE_k``/``minFDE_k`` consider the k highest-probability
modes; the miss rate counts samples whose best final displacement over k
modes strictly exceeds 2 m; RMSE follows the single-most-likely-mode
protocol. The worst-case report ranks every sample by a configurable error
metric and reports the mean errors of the top p% strata.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, UsageError, ValidationError, read_lines

#: A sample is missed when its best final displacement exceeds this (m).
MISS_THRESHOLD = 2.0

#: Mode log-probabilities are floored at this before taking the log.
EPS_PROB = 1e-12

RANK_METRICS = ("min_ade", "min_fde")


@dataclass(frozen=True)
class ForecastSample:
    """K forecast modes with probabilities plus the ground-truth motion."""

    sample_id: str
    modes: np.ndarray  # (K, T, 2)
    probs: np.ndarray  # (K,)
    gt: np.ndarray     # (T, 2)

    def __post_init__(self):
        object.__setattr__(self, "modes", np.asarray(self.modes, dtype=float))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "gt", np.asarray(self.gt, dtype=float))
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
        if not (
            np.all(np.isfinite(self.modes))
            and np.all(np.isfinite(self.probs))
            and np.all(np.isfinite(self.gt))
        ):
            raise ValidationError(f"sample {self.sample_id!r}: non-finite values")
        if np.any(self.probs < 0) or abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValidationError(
                f"sample {self.sample_id!r}: probabilities must be >= 0 and sum to 1"
            )

    @classmethod
    def _from_table(cls, sample_id: str, modes, probs, gt) -> "ForecastSample":
        """A sample whose arrays a table check has already validated."""
        sample = object.__new__(cls)
        sample.__dict__.update(sample_id=sample_id, modes=modes, probs=probs, gt=gt)
        return sample

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


def ade_per_mode(sample: ForecastSample) -> np.ndarray:
    """Mean pointwise L2 error of each mode against the ground truth."""
    return np.linalg.norm(sample.modes - sample.gt[None], axis=2).mean(axis=1)


def _check_k(samples: Sequence[ForecastSample], ks: Sequence[int]) -> None:
    """Reject the first sample, in input order, with a k of ``ks`` (sorted) outside 1..K."""
    for sample in samples:
        if ks[0] < 1 or ks[-1] > sample.n_modes:
            k = next(k for k in ks if not 1 <= k <= sample.n_modes)
            raise UsageError(f"sample {sample.sample_id!r}: k={k} outside 1..{sample.n_modes}")


def _check_horizon(samples: Sequence[ForecastSample]) -> None:
    horizon = samples[0].horizon
    for sample in samples:
        if sample.horizon != horizon:
            raise UsageError(
                f"sample {sample.sample_id!r}: horizon {sample.horizon} != {horizon}"
            )


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and threshold >= 0):
        raise UsageError(f"miss threshold must be finite and >= 0, got {threshold!r}")


def _group_errors(group: Sequence[ForecastSample]):
    """Every minADE_k/minFDE_k of S samples sharing (K, T), plus their RMSE terms.

    Returns two (S, K) arrays whose column k-1 holds minADE_k / minFDE_k, and
    the (S, T) squared pointwise errors of each sample's most likely mode.
    """
    probs = np.stack([s.probs for s in group])
    diff = np.stack([s.modes for s in group])
    diff -= np.stack([s.gt for s in group])[:, None]  # (S, K, T, 2)
    top = diff[np.arange(len(group)), np.argmax(probs, axis=1)]
    # x*x + y*y, sqrt and a mean over the contiguous last axis round exactly
    # like the per-sample np.linalg.norm(...).mean(axis=1), so reports keep
    # every bit.
    top *= top
    sq = top[..., 0] + top[..., 1]
    diff *= diff
    d = diff[..., 0] + diff[..., 1]
    del diff
    np.sqrt(d, out=d)  # (S, K, T) pointwise distances
    # One stable sort puts the k most probable modes first, ties in mode
    # order; the running minimum along it is min over the top k, for every k.
    order = np.argsort(-probs, axis=1, kind="stable")
    ade = np.minimum.accumulate(np.take_along_axis(d.mean(axis=-1), order, axis=1), axis=1)
    fde = np.minimum.accumulate(np.take_along_axis(d[..., -1], order, axis=1), axis=1)
    return ade, fde, sq


def _score(samples: Sequence[ForecastSample]):
    """Per-sample errors in input order, one array pass per (K, T) group.

    Returns ``(ade, fde, sq)``: ``ade[k-1]`` and ``fde[k-1]`` are the (N,)
    minADE_k / minFDE_k of every sample (NaN beyond a sample's own K), and
    ``sq`` is the (N, T) squared error of each most likely mode, or None when
    the horizons differ.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, sample in enumerate(samples):
        groups.setdefault(sample.modes.shape[:2], []).append(i)
    n = len(samples)
    k_max = max(n_modes for n_modes, _ in groups)
    ade, fde = np.full((k_max, n), np.nan), np.full((k_max, n), np.nan)
    horizons = {t for _, t in groups}
    sq = np.empty((n, horizons.pop())) if len(horizons) == 1 else None
    for (n_modes, _), idx in groups.items():
        g_ade, g_fde, g_sq = _group_errors([samples[i] for i in idx])
        ade[:n_modes, idx] = g_ade.T
        fde[:n_modes, idx] = g_fde.T
        if sq is not None:
            sq[idx] = g_sq
    return ade, fde, sq


def _scored(samples: Sequence[ForecastSample], k: int):
    _check_k(samples, [k])
    return _score(samples)


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
    _check_horizon(samples)
    return _rmse(_score(samples)[2])


def worst_case_subsets(errors: Mapping[str, float], percents: Sequence[float]) -> dict:
    """Top-p% highest-error strata of a per-sample error table.

    For each percentage the ceil(p*n/100) largest errors are selected, with
    ties broken toward the lexicographically larger sample id so membership
    is deterministic. Returns ``{p: {"count", "sample_ids", "mean"}}``.
    """
    if not errors:
        raise UsageError("worst_case_subsets needs at least one sample")
    for p in percents:
        if not 0.0 < p <= 100.0:
            raise UsageError(f"percent {p} outside (0, 100]")
    ranked = sorted(errors.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)
    n = len(ranked)
    out = {}
    for p in percents:
        count = math.ceil(round(p * n / 100.0, 9))  # round() drops float noise before ceil
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
    ades = ade_per_mode(sample)
    k_star = int(np.argmin(ades))
    mse = float(np.mean(np.sum((sample.modes[k_star] - sample.gt) ** 2, axis=1)))
    nll = -math.log(max(float(sample.probs[k_star]), EPS_PROB))
    return {"l_task": mse + weights.lambda_cls * nll, "k_star": k_star}


def total_loss(l_task: float, l_ti: float, l_meta: float, weights: LossWeights | None = None) -> float:
    """Weighted composite loss: l_task + lambda_1 * l_ti + lambda_2 * l_meta."""
    weights = weights or LossWeights()
    return l_task + weights.lambda_1 * l_ti + weights.lambda_2 * l_meta


def _numbers(record: dict, key: str, maybe_bool: bool) -> np.ndarray:
    """``record[key]`` as a float array; every leaf must be a JSON number.

    numpy's type discovery finds strings, objects and nulls, but it folds
    booleans into numbers, so the leaves are checked one by one when the line
    holds a ``true``/``false`` token or numpy found no numeric type.
    """
    values = np.asarray(record[key])
    if maybe_bool or values.dtype.kind not in "iuf":
        values = np.asarray(record[key], dtype=object)
        other = set(map(type, values.ravel().tolist())) - {int, float}
        if other:
            names = ", ".join(sorted(t.__name__ for t in other))
            raise ValueError(f"{key}: expected arrays of numbers, found {names}")
    return values.astype(float, copy=False)


def _record(line: str, line_no: int) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line=line_no) from None
    if not isinstance(record, dict):
        raise ParseError("expected a JSON object", line=line_no)
    missing = {"sample_id", "modes", "probs", "gt"} - set(record)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)}", line=line_no)
    return record


def _maybe_bool(line: str) -> bool:
    """Whether ``line`` may hold a ``true`` or ``false`` token. The four keys and
    the numbers hold no ``u`` and no ``f`` (but ``Infinity``'s), and a search
    for one character runs far faster than one for a word, so the word search
    runs only after a hit."""
    return ("u" in line and "true" in line) or ("f" in line and "false" in line)


def _sample(record: dict, line: str, line_no: int) -> ForecastSample:
    """One line's sample, converted and validated leaf by leaf."""
    maybe_bool = _maybe_bool(line)
    try:
        return ForecastSample(
            sample_id=str(record["sample_id"]),
            modes=_numbers(record, "modes", maybe_bool),
            probs=_numbers(record, "probs", maybe_bool),
            gt=_numbers(record, "gt", maybe_bool),
        )
    except (ValidationError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc), line=line_no) from None


def _fast_row(record: dict, line: str):
    """``((K, T), row)``: one line's modes, probs and gt as one flat float row, or
    None when the line needs ``_sample``'s leaf-by-leaf path.

    The length tests fix the shapes, so the leaves fill exactly one row;
    ``struct.pack`` takes only numbers, and a ``true``/``false`` token, which
    it would read as a number, sends the line to ``_sample`` beforehand.
    """
    if _maybe_bool(line):
        return None
    modes, probs, gt = record["modes"], record["probs"], record["gt"]
    try:
        points = list(chain.from_iterable(modes))
        if not (
            len(probs) == len(modes)
            and set(map(len, modes)) == {len(gt)}
            and set(map(len, points)) == {2} == set(map(len, gt))
        ):
            return None
        leaves = chain(chain.from_iterable(points), probs, chain.from_iterable(gt))
        row = struct.pack(f"{2 * len(points) + len(probs) + 2 * len(gt)}d", *leaves)
    except (TypeError, struct.error):
        return None
    return (len(modes), len(gt)), np.frombuffer(row)


def _row(line: str, line_no: int):
    """``(sample_id, (K, T), row)`` of one line; its decoded record dies here."""
    record = _record(line, line_no)
    fast = _fast_row(record, line)
    if fast is None:
        sample = _sample(record, line, line_no)
        row = np.concatenate([sample.modes.ravel(), sample.probs, sample.gt.ravel()])
        return sample.sample_id, sample.modes.shape[:2], row
    return str(record["sample_id"]), *fast


class _Table:
    """The samples of one ``(K, T)`` group as rows of one float table.

    A row holds the K*T*2 mode coordinates, then the K probabilities, then
    the T*2 ground-truth coordinates. The table grows in place by doubling;
    no view of it exists until ``samples`` has trimmed it for the last time,
    so resizing skips numpy's reference check (which a profiler's references
    would trip).
    """

    def __init__(self, n_modes: int, horizon: int):
        self.n_modes, self.horizon = n_modes, horizon
        self.rows = np.empty((8, n_modes * horizon * 2 + n_modes + horizon * 2))
        self.ids: list[str] = []
        self.lines: list[int] = []

    def add(self, sample_id: str, row: np.ndarray, line_no: int) -> None:
        n = len(self.ids)
        if n == len(self.rows):
            self.rows.resize((2 * n, self.rows.shape[1]), refcheck=False)
        self.rows[n] = row
        self.ids.append(sample_id)
        self.lines.append(line_no)

    def _columns(self):
        n, a = len(self.ids), self.n_modes * self.horizon * 2
        rows = self.rows[:n]
        return rows, rows[:, a : a + self.n_modes]

    def bad_lines(self) -> list[int]:
        """Lines whose row ``ForecastSample`` would reject: a non-finite value,
        or probabilities that are negative or do not sum to 1 within 1e-9."""
        rows, probs = self._columns()
        # a row's sum along the contiguous axis rounds exactly like probs.sum()
        bad = ~np.isfinite(rows).all(axis=1)
        bad |= (probs < 0).any(axis=1) | (np.abs(probs.sum(axis=1) - 1.0) > 1e-9)
        return [self.lines[i] for i in np.flatnonzero(bad)]

    def samples(self):
        """A ``ForecastSample`` per row, its arrays views of the table."""
        n, k, t = len(self.ids), self.n_modes, self.horizon
        self.rows.resize((n, self.rows.shape[1]), refcheck=False)
        rows, probs = self._columns()
        modes = rows[:, : k * t * 2].reshape(n, k, t, 2)
        gt = rows[:, k * t * 2 + k :].reshape(n, t, 2)
        return map(ForecastSample._from_table, self.ids, modes, probs, gt)


def _check_rows(tables, lines: list[str]) -> None:
    """Raise the first error, in file order, that a row of ``tables`` holds."""
    for line_no in sorted(line_no for table in tables for line_no in table.bad_lines()):
        line = lines[line_no - 1]
        _sample(_record(line, line_no), line, line_no)


def parse_forecast_jsonl(source) -> list[ForecastSample]:
    """Parse forecast samples from JSONL (one object per line).

    Each line must carry ``sample_id``, ``modes``, ``probs`` and ``gt``. ``source``
    is a str, bytes, a Path or a file (see ``read_lines``). An error names the
    first failing line; a source with no sample raises a ParseError naming it.
    """
    lines = read_lines(source, "forecast JSONL")
    tables: dict[tuple[int, int], _Table] = {}
    order = []  # each sample's table, in file order
    seen = set()
    try:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            sample_id, key, row = _row(line, line_no)
            table = tables.get(key)
            if table is None:
                table = tables[key] = _Table(*key)
            table.add(sample_id, row, line_no)
            order.append(table)
            if sample_id in seen:
                raise ParseError(f"duplicate sample_id {sample_id!r}", line=line_no)
            seen.add(sample_id)
    except ParseError:
        _check_rows(tables.values(), lines)  # a bad row on an earlier line wins
        raise
    _check_rows(tables.values(), lines)
    if not order:
        name = os.fspath(source) if isinstance(source, os.PathLike) else "forecast JSONL"
        raise ParseError(f"{name}: no forecast samples")
    views = {table: table.samples() for table in tables.values()}
    return [next(views[table]) for table in order]


@dataclass(frozen=True)
class EvalReport:
    """Per-sample errors plus aggregate and worst-case statistics."""

    per_sample: tuple
    aggregate: dict
    worst_case: dict
    config_echo: dict

    def to_jsonable(self) -> dict:
        return {
            "per_sample": list(self.per_sample),
            "aggregate": self.aggregate,
            "worst_case": self.worst_case,
            "config_echo": self.config_echo,
        }


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
    ``rank_k`` modes and averaging both errors over each stratum.
    """
    if not samples:
        raise UsageError("evaluate needs at least one sample")
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise UsageError("need at least one k")
    percents = list(percents)
    if percents and rank_metric is None:
        raise UsageError(
            "worst-case percents given but no rank_metric; set it to 'min_ade' or 'min_fde'"
        )
    if rank_metric is not None and rank_metric not in RANK_METRICS:
        raise UsageError(f"rank_metric must be one of {RANK_METRICS}, got {rank_metric!r}")

    _check_threshold(threshold)
    _check_k(samples, ks)
    _check_horizon(samples)
    if percents:
        _check_k(samples, [rank_k])

    ade, fde, sq = _score(samples)
    keys = [str(k) for k in ks]
    rows = [k - 1 for k in ks]
    ids = [s.sample_id for s in samples]
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
