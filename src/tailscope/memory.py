"""Tail-Index-partitioned prototype memory and the cognitive set mechanism.

Prototypes are per-category mean feature vectors, categories cut at Tail Index
percentiles, refined by a TI-weighted momentum update. At adaptation time a
gating MLP proposes a category allocation, a vigilance gate blends it toward a
tail-biased fallback when no prototype matches well, and one analytic gradient
step on the prototype-alignment loss, its similarity and gradient read from one
cosine pass, refines the memory before it augments the feature vector.

``GateMlp.forward``, ``allocation``, ``similarity``, ``vigilance_adjust`` and
``augment`` take one sample's vectors or ``(B, .)`` stacks whose rows are
samples, ``PrototypeMemory.category_of`` one Tail Index or a ``(B,)`` array; a
batch call, like ``inner_update``, warns once, not once per degenerate row.
``GateMlp.forward`` is one einsum kernel, a row's bits the same in any batch;
other one-sample calls take a lean path (``ndarray.dot``, in-place arithmetic,
Python floats) matching the batch rows to 1e-12. Two memos keyed by content,
``GateMlp``'s of the rows of its last forward and ``similarity``'s of the last
prototype matrix's row norms, give a recompute's bits; ``GateMlp``'s weights and
logits are read-only, so neither memo can go stale.

Reads (allocation, similarity, vigilance, augment) are pure; the two update
operations return fresh arrays and never mutate their inputs, but concurrent
writers still need external coordination (single-writer contract).

It is also the home of the stable numerics, ``softplus`` and ``sigmoid``.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputWarning, JsonRecord, UsageError, ValidationError, number
from .errors import _float_array, freeze

#: Vectors with a norm below this are treated as directionless.
EPS_NORM = 1e-12


def softplus(x):
    """Numerically stable log(1 + exp(x)); linear for large x, tiny for very negative x."""
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def sigmoid(x):
    """Numerically stable logistic function; a float in, a float out through ``math.exp``."""
    if isinstance(x, float):
        e = math.exp(-abs(x))
        return (1.0 if x >= 0 else e) / (1.0 + e)
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-shifted per row."""
    if logits.ndim == 1:  # the builtin max and sum cost less than numpy's reductions on a few entries
        e = np.exp(logits - max(logits.tolist()))
        e /= sum(e.tolist())
        return e
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of ``x`` scaled to unit norm (zeros below ``EPS_NORM``), and their norms and kept-row mask as columns."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))  # np.linalg.norm's sum, less call overhead
    ok = norms >= EPS_NORM
    return np.divide(x, norms, out=np.zeros_like(x), where=ok), norms, ok


def _cosines(f_m: np.ndarray, prototypes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unit rows of ``f_m`` and of ``prototypes`` read in C order, the prototypes' inverse norms and the ``(B, C)``
    cosines; a row below ``EPS_NORM`` gets zeros, and one :class:`DegenerateInputWarning` reports them all."""
    f_hat, _, ok_f = _unit_rows(f_m)
    m_hat, row_norms, ok_m = _unit_rows(np.ascontiguousarray(prototypes, dtype=float))
    if not (ok_f.all() and ok_m.all()):
        warnings.warn("zero-norm feature or prototype rows: zero similarity and zero gradient", DegenerateInputWarning)
    return f_hat, m_hat, np.divide(1.0, row_norms, out=np.zeros_like(row_norms), where=ok_m), f_hat @ m_hat.T


def _finite(name: str, x: np.ndarray) -> np.ndarray:
    """``x``, or a ValidationError naming ``name`` and its first row with a non-finite entry."""
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValidationError(f"{name} has a non-finite value in row {np.argwhere(bad)[0, 0]}")
    return x


@dataclass(frozen=True)
class GateMlp(JsonRecord):
    """Small dense network with an allocation head (C logits) and a scalar gate head."""

    _ARRAYS = ("w_hidden", "b_hidden", "w_alloc", "b_alloc", "w_gate")
    JSON = {**dict.fromkeys(_ARRAYS, _float_array), "b_gate": number}
    WHAT = "gate mlp"

    w_hidden: np.ndarray  # (hidden, in)
    b_hidden: np.ndarray  # (hidden,)
    w_alloc: np.ndarray   # (C, hidden)
    b_alloc: np.ndarray   # (C,)
    w_gate: np.ndarray    # (hidden,)
    b_gate: float

    def __post_init__(self):
        freeze(self, self._ARRAYS)
        object.__setattr__(self, "_rows", {})  # each row of the last forward: its bytes -> (logits, gate)
        if self.w_hidden.ndim != 2:
            raise ConfigurationError(f"w_hidden must be a (hidden, in) matrix, got shape {self.w_hidden.shape}")
        hidden = self.w_hidden.shape[0]
        if self.b_hidden.shape != (hidden,):
            raise ConfigurationError("b_hidden does not match w_hidden rows")
        if self.w_alloc.ndim != 2 or self.w_alloc.shape[1] != hidden:
            raise ConfigurationError("w_alloc columns must match the hidden width")
        if self.b_alloc.shape != (self.w_alloc.shape[0],):
            raise ConfigurationError("b_alloc does not match w_alloc rows")
        if self.w_gate.shape != (hidden,):
            raise ConfigurationError("w_gate must match the hidden width")
        if not math.isfinite(self.b_gate):
            raise ConfigurationError("b_gate must be finite")

    @property
    def input_dim(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def categories(self) -> int:
        return self.w_alloc.shape[0]

    def forward(self, h: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """Allocation logits and gate logit: ``(C,)`` and a float for ``(D,)``, else ``(B, C)`` and ``(B,)``;
        one kernel, so a row's bits are the same in any batch and a row of the last forward is a memo hit."""
        h = np.asarray(h, dtype=float)
        key = h.tobytes()
        hit = self._rows.get(key) if h.ndim == 1 else None  # the memo keeps only rows of D floats
        if hit is not None:
            return hit
        if h.ndim not in (1, 2) or h.shape[-1] != self.input_dim:
            raise ConfigurationError(f"expected input of shape (D,) or (B, D) with D = {self.input_dim}, got {h.shape}")
        # einsum, not matmul: one summation order for every shape, and no threaded GEMM's hand-off cost
        hid = np.einsum("...i,hi->...h", np.ascontiguousarray(h), self.w_hidden)
        hid += self.b_hidden
        np.maximum(hid, 0.0, out=hid)
        logits = np.einsum("...h,ch->...c", hid, self.w_alloc)
        logits += self.b_alloc
        logits.flags.writeable = False
        gate = np.einsum("...h,h->...", hid, self.w_gate) + self.b_gate
        rows, step = zip(np.atleast_2d(logits), np.atleast_1d(gate).tolist()), h.itemsize * self.input_dim
        memo = {key[i * step:(i + 1) * step]: row for i, row in enumerate(rows)}
        object.__setattr__(self, "_rows", memo)
        return memo[key] if h.ndim == 1 else (logits, gate)

    @classmethod
    def create(cls, input_dim: int, categories: int, hidden: int = 32, seed: int = 0) -> "GateMlp":
        rng = np.random.default_rng(seed)
        return cls(
            w_hidden=rng.normal(0.0, 0.1, size=(hidden, input_dim)),
            b_hidden=np.zeros(hidden),
            w_alloc=rng.normal(0.0, 0.1, size=(categories, hidden)),
            b_alloc=np.zeros(categories),
            w_gate=rng.normal(0.0, 0.1, size=hidden),
            b_gate=0.0,
        )


def default_tail_bias(categories: int) -> np.ndarray:
    """Normalized linear ramp putting the most mass on the highest-TI category."""
    ramp = np.arange(1, categories + 1, dtype=float)
    return ramp / ramp.sum()


@dataclass(frozen=True)
class CognitiveSetParams(JsonRecord):
    """Temperature, vigilance and tail-bias parameters of the cognitive set mechanism."""

    JSON = dict(tau=number, rho_vig=number, gamma_steep=number, b_tail=_float_array, gate_mlp=GateMlp.from_jsonable)
    WHAT = "cognitive set params"

    tau: float = 10.0          # similarity temperature
    rho_vig: float = 0.5       # vigilance threshold on max similarity
    gamma_steep: float = 10.0  # steepness of the vigilance transition
    b_tail: np.ndarray = None
    gate_mlp: GateMlp = None

    def __post_init__(self):
        if self.b_tail is None or self.gate_mlp is None:
            raise ConfigurationError("b_tail and gate_mlp are required")
        freeze(self, ("b_tail",))
        for name, value in (("tau", self.tau), ("gamma_steep", self.gamma_steep)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        if not math.isfinite(self.rho_vig):
            raise ConfigurationError("rho_vig must be finite")
        if self.b_tail.ndim != 1 or np.any(self.b_tail < 0) or abs(self.b_tail.sum() - 1.0) > 1e-9:
            raise ConfigurationError("b_tail must be a probability vector")
        if self.b_tail.shape[0] != self.gate_mlp.categories:
            raise ConfigurationError(
                f"b_tail covers {self.b_tail.shape[0]} categories, gate mlp {self.gate_mlp.categories}"
            )

    @property
    def categories(self) -> int:
        return self.b_tail.shape[0]

    @classmethod
    def create(
        cls,
        categories: int = 5,
        feature_dim: int = 64,
        tau: float = 10.0,
        rho_vig: float = 0.5,
        gamma_steep: float = 10.0,
        hidden: int = 32,
        seed: int = 0,
    ) -> "CognitiveSetParams":
        """Defaults with the gating MLP sized for h = [F_m, F_i, F_r, TI]."""
        return cls(
            tau=tau,
            rho_vig=rho_vig,
            gamma_steep=gamma_steep,
            b_tail=default_tail_bias(categories),
            gate_mlp=GateMlp.create(feature_dim + 15, categories, hidden=hidden, seed=seed),
        )


@dataclass(frozen=True)
class PrototypeMemory(JsonRecord):
    """C x D prototype matrix with momentum factor and TI percentile boundaries."""

    JSON = {"prototypes": _float_array, "eta": number, "boundaries": _float_array}
    OPTIONAL = ("boundaries",)
    WHAT = "prototype memory"

    prototypes: np.ndarray
    eta: float = 0.9
    boundaries: np.ndarray = ()

    def __post_init__(self):
        freeze(self, ("prototypes", "boundaries"))
        if self.prototypes.ndim != 2:
            raise ValidationError(f"prototypes must be a (C, D) matrix, got {self.prototypes.shape}")
        if not np.all(np.isfinite(self.prototypes)):
            raise ValidationError("prototypes contain non-finite values")
        if np.any(np.all(self.prototypes == 0.0, axis=1)):
            raise ValidationError("prototype rows must not be identically zero")
        if not (0.0 <= self.eta <= 1.0):
            raise ValidationError(f"eta must lie in [0, 1], got {self.eta}")
        if self.boundaries.size:
            if self.boundaries.shape != (self.categories - 1,):
                raise ValidationError(
                    f"expected {self.categories - 1} boundaries, got {self.boundaries.shape}"
                )
            # Ties in the reference TIs may collapse neighbouring cut points,
            # so equality is tolerated; descending boundaries are not.
            if np.any(np.diff(self.boundaries) < 0):
                raise ValidationError("boundaries must be ascending")
        object.__setattr__(self, "_cuts", self.boundaries.tolist())

    @property
    def categories(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    def category_of(self, ti: float | np.ndarray) -> int | np.ndarray:
        """Category index of a Tail Index value under the stored boundaries; an int array for ``(B,)`` values."""
        if not self.boundaries.size:
            raise UsageError("memory has no boundaries recorded")
        if not isinstance(ti, float) and np.ndim(ti):
            return np.searchsorted(self.boundaries, _finite("ti", np.asarray(ti, dtype=float)), side="right")
        if not math.isfinite(ti):
            raise ValidationError(f"Tail Index must be finite, got {ti}")
        return bisect_right(self._cuts, ti)  # numpy's side="right": ties go to the upper category


@dataclass(frozen=True)
class AdaptationBatch:
    """Per-sample feature vectors, metric features and Tail Index of one batch: one
    call's input data, so the caller's arrays (``np.asarray``), not read-only copies."""

    f_m: np.ndarray  # (B, D)
    f_i: np.ndarray  # (B, 8)
    f_r: np.ndarray  # (B, 6)
    ti: np.ndarray   # (B,)

    def __post_init__(self):
        for name in ("f_m", "f_i", "f_r", "ti"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        b = self.f_m.shape[0]
        if self.f_m.ndim != 2:
            raise ValidationError(f"f_m must be (B, D), got {self.f_m.shape}")
        for name in ("f_i", "f_r"):
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[0] != b:
                raise ValidationError(f"{name} must have {b} rows, got {arr.shape}")
        if self.ti.shape != (b,):
            raise ValidationError(f"ti must have shape ({b},), got {self.ti.shape}")
        for name in ("f_m", "f_i", "f_r", "ti"):
            _finite(name, getattr(self, name))

    def __len__(self) -> int:
        return self.f_m.shape[0]

    @property
    def h(self) -> np.ndarray:
        """Concatenated gating inputs [F_m, F_i, F_r, TI], one row per sample."""
        return np.hstack([self.f_m, self.f_i, self.f_r, self.ti[:, None]])


@dataclass(frozen=True)
class CategoryPartition:
    """Result of percentile partitioning: assignments, cut points, tie flag."""

    assignments: np.ndarray
    boundaries: np.ndarray
    flags: tuple[str, ...] = ()


def partition_categories(tis, categories: int) -> CategoryPartition:
    """Split samples into equal-mass Tail Index percentile bins.

    Ties are broken by stable input order and flagged. Boundaries are the
    k/C quantiles of the input for k = 1..C-1.
    """
    tis = np.asarray(tis, dtype=float)
    if tis.ndim != 1:
        raise UsageError("tis must be 1-D")
    n = tis.shape[0]
    if categories < 1:
        raise UsageError(f"need at least 1 category, got {categories}")
    if categories > n:
        raise UsageError(f"cannot split {n} samples into {categories} categories")
    order, assignments = np.argsort(tis, kind="stable"), np.empty(n, dtype=int)
    assignments[order] = np.minimum(np.arange(n) * categories // n, categories - 1)
    sorted_tis, firsts = tis[order], -(-np.arange(1, categories) * n // categories)  # each later bin's first rank
    flags = ("ties",) if np.any(sorted_tis[firsts] == sorted_tis[firsts - 1]) else ()
    boundaries = quantiles(tis, [c / categories for c in range(1, categories)])
    return CategoryPartition(assignments=assignments, boundaries=boundaries, flags=flags)


def quantiles(rows: np.ndarray, probs) -> np.ndarray:
    """The bits of ``np.quantile(rows, probs, axis=0)``, which loads numpy.ma: numpy's partition
    points (a tie of +0 and -0 gives the same zero, a NaN sorts last and makes its column NaN)."""
    n, at = len(rows), np.asarray(probs, dtype=float) * (len(rows) - 1)
    lo, hi = (np.where(at >= n - 1, -1, at.astype(int) + step) for step in (0, 1))  # numpy's index -1 from n - 1 on
    q = np.partition(rows, sorted({0, -1, *lo.tolist(), *hi.tolist()}), axis=0)
    a, b, t = q[lo], q[hi], (at - lo).reshape(at.shape + (1,) * (q.ndim - 1))
    return np.where(np.isnan(q[-1]), q[-1], np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t))


def initialize_memory(features: np.ndarray, partition: CategoryPartition) -> PrototypeMemory:
    """Prototype memory whose rows are the per-category mean feature vectors, with the default ``eta``."""
    features = np.asarray(features, dtype=float)
    categories = int(partition.assignments.max()) + 1
    rows = np.stack(
        [features[partition.assignments == c].mean(axis=0) for c in range(categories)]
    )
    return PrototypeMemory(prototypes=rows, boundaries=partition.boundaries)


def update_prototypes(
    mem: PrototypeMemory, batch: AdaptationBatch, assignments
) -> PrototypeMemory:
    """TI-weighted momentum refresh of the prototypes touched by the batch.

    Each updated row becomes ``eta * old + (1 - eta) * softmax(TI)-weighted
    feature mean``; TIs are max-shifted before exponentiation. Categories
    with no samples are left unchanged.
    """
    assignments = np.asarray(assignments, dtype=int)
    if assignments.shape != (len(batch),):
        raise UsageError(f"need one assignment per sample, got {assignments.shape}")
    if batch.f_m.shape[1] != mem.dim:
        raise UsageError(f"feature dim {batch.f_m.shape[1]} != memory dim {mem.dim}")
    if assignments.size and (assignments.min() < 0 or assignments.max() >= mem.categories):
        raise UsageError("assignment out of category range")
    new_rows = mem.prototypes.copy()
    for c in range(mem.categories):
        mask = assignments == c
        if not np.any(mask):
            continue
        w = _softmax(batch.ti[mask])
        new_rows[c] = mem.eta * new_rows[c] + (1.0 - mem.eta) * (w @ batch.f_m[mask])
    return PrototypeMemory(prototypes=new_rows, eta=mem.eta, boundaries=mem.boundaries)


def allocation(h: np.ndarray, params: CognitiveSetParams) -> np.ndarray:
    """Base category allocation, ``(C,)`` or ``(B, C)``: softmax of the gating MLP's allocation head."""
    logits, _ = params.gate_mlp.forward(h)
    return _softmax(logits)


#: Content key (shape, bytes) of the last one-sample prototypes, their row norms, and whether all are in [EPS_NORM, inf).
_last_rows = (None, None, False)


def similarity(f_m: np.ndarray, prototypes: np.ndarray, tau: float) -> np.ndarray:
    """Temperature-scaled cosine similarity of ``(D,)`` or ``(B, D)`` features to each prototype row.

    Entries involving a vector with norm below ``EPS_NORM`` are set to 0 and
    reported by one :class:`DegenerateInputWarning` per call.
    """
    f_m = np.asarray(f_m, dtype=float)
    prototypes = np.ascontiguousarray(prototypes, dtype=float)  # C and Fortran order share a memo key
    if f_m.ndim not in (1, 2) or f_m.shape[-1] != prototypes.shape[1]:
        raise ConfigurationError(f"feature shape {f_m.shape} does not match prototype dim {prototypes.shape[1]}")
    if f_m.ndim == 1:  # one sample: scale the dot products instead of normalising both sides
        global _last_rows
        key, rows = (prototypes.shape, prototypes.tobytes()), _last_rows
        if key != rows[0]:
            row_norms = np.sqrt((prototypes * prototypes).sum(axis=1))
            norms = row_norms.tolist()  # a NaN or inf norm makes the sum fail
            _last_rows = rows = (key, row_norms, EPS_NORM <= min(norms, default=EPS_NORM) and sum(norms) < math.inf)
        _, row_norms, rows_ok = rows
        f_norm = math.sqrt(f_m.dot(f_m))
        if rows_ok and EPS_NORM <= f_norm < math.inf:
            out = prototypes.dot(f_m)
            out /= row_norms
            out *= tau / f_norm
            return out
    return tau * _cosines(f_m, prototypes)[-1]


def vigilance_adjust(g: np.ndarray, s: np.ndarray, params: CognitiveSetParams) -> np.ndarray:
    """Blend the allocation toward the tail bias when no prototype matches well.

    lam = sigmoid(gamma * (max(s) - rho)); returns lam * g + (1 - lam) * b_tail,
    which stays on the probability simplex; ``g`` and ``s`` are ``(C,)`` or
    ``(B, C)`` with the max taken per row.
    """
    g = np.asarray(g, dtype=float)
    s = np.asarray(s, dtype=float)
    if s.ndim not in (1, 2) or g.shape != s.shape:
        raise ConfigurationError(f"g of shape {g.shape} and s of shape {s.shape} must both be (C,) or (B, C)")
    if s.shape[-1] != params.categories:
        raise ConfigurationError(f"g and s cover {s.shape[-1]} categories, params {params.categories}")
    peak = float(s.max()) if s.ndim == 1 else s.max(axis=-1, keepdims=True)  # not max(): a NaN must propagate
    lam = sigmoid(params.gamma_steep * (peak - params.rho_vig))
    return lam * g + (1.0 - lam) * params.b_tail


def _margins(g_adj, s) -> tuple[np.ndarray, np.ndarray]:
    """The signs 2 g' - 1 and the ``proto_loss`` margins of g' and s, once both are one non-empty (B, C) batch."""
    g_adj = np.atleast_2d(np.asarray(g_adj, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    if g_adj.shape != s.shape:
        raise UsageError(f"shape mismatch: g' {g_adj.shape} vs s {s.shape}")
    if g_adj.shape[0] == 0:
        raise UsageError("empty batch")
    sign = 2.0 * g_adj - 1.0
    return sign, np.sum(sign * s, axis=1)


def proto_loss(g_adj: np.ndarray, s: np.ndarray) -> float:
    """Prototype-alignment loss of a batch.

    For each sample the margin is sum_k(g'_k s_k) - sum_k((1 - g'_k) s_k);
    the loss is the mean of -log sigmoid(margin), computed via a stable
    softplus.
    """
    return float(np.mean(softplus(-_margins(g_adj, s)[1])))


def _proto_grad(f_hat, m_hat, inv_norms, cos, sign, margins, tau) -> np.ndarray:
    """Gradient of ``proto_loss`` with respect to the prototypes, from ``_cosines``' four arrays and ``_margins``."""
    w = -sigmoid(-margins)[:, None] / len(f_hat) * sign * tau  # d loss / d cos, (B, C)
    return (w.T @ f_hat - (w * cos).sum(axis=0)[:, None] * m_hat) * inv_norms


def proto_loss_and_grad(
    prototypes: np.ndarray, f_m: np.ndarray, g_adj: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Loss and its analytic gradient with respect to the prototype matrix.

    The allocation g' is treated as a constant; the similarity is the
    temperature-scaled cosine, so for prototype row M_k and sample i

        d s_ik / d M_k = (tau / |M_k|) * (f_hat_i - cos_ik * M_hat_k)

    and rows or samples with near-zero norm contribute zero gradient (flagged
    via :class:`DegenerateInputWarning`).
    """
    f_m = np.atleast_2d(np.asarray(f_m, dtype=float))
    g_adj = np.atleast_2d(np.asarray(g_adj, dtype=float))
    if g_adj.shape != (f_m.shape[0], len(prototypes)):
        raise UsageError(f"g' must be (B, C) = ({f_m.shape[0]}, {len(prototypes)}), got {g_adj.shape}")
    unit = _cosines(f_m, prototypes)
    sign, margins = _margins(g_adj, tau * unit[-1])
    return float(np.mean(softplus(-margins))), _proto_grad(*unit, sign, margins, tau)


def inner_update(
    mem: PrototypeMemory,
    batch: AdaptationBatch,
    params: CognitiveSetParams,
    alpha_lr: float = 1e-3,
) -> np.ndarray:
    """One analytic gradient step on the prototype-alignment loss.

    Computes g' for the whole batch in one pass from the current memory
    (allocation, similarity, vigilance), holds it constant, and returns
    ``M - alpha_lr * grad`` as a fresh matrix without touching ``mem``.
    """
    if batch.f_m.shape[1] != mem.dim:
        raise UsageError(f"feature dim {batch.f_m.shape[1]} != memory dim {mem.dim}")
    g, unit = allocation(batch.h, params), _cosines(batch.f_m, mem.prototypes)
    s = params.tau * unit[-1]
    sign, margins = _margins(vigilance_adjust(g, s, params), s)
    return mem.prototypes - alpha_lr * _proto_grad(*unit, sign, margins, params.tau)


def augment(
    f_m: np.ndarray,
    h: np.ndarray,
    g_adj: np.ndarray,
    m_prime: np.ndarray,
    params: CognitiveSetParams,
) -> np.ndarray:
    """Gated prototype injection: F_v = F_m + sigmoid(gate(h)) * (g' @ M').

    ``f_m``, ``h`` and ``g_adj`` are one sample's vectors or ``(B, .)`` stacks
    with one row per sample.
    """
    f_m = np.asarray(f_m, dtype=float)
    g_adj = np.asarray(g_adj, dtype=float)
    m_prime = np.asarray(m_prime, dtype=float)
    if m_prime.ndim != 2 or g_adj.ndim not in (1, 2) or g_adj.shape[-1] != m_prime.shape[0]:
        raise ConfigurationError(
            f"g' of shape {g_adj.shape} does not match prototype matrix {m_prime.shape}"
        )
    if f_m.shape != g_adj.shape[:-1] + m_prime.shape[1:]:
        raise ConfigurationError(
            f"feature shape {f_m.shape} does not match prototype dim {m_prime.shape[1]}"
        )
    if np.shape(h)[:-1] != f_m.shape[:-1]:
        raise ConfigurationError(f"augment takes one gating input per feature row, got {np.shape(h)}")
    gate = sigmoid(params.gate_mlp.forward(h)[1])
    if f_m.ndim == 2:
        return f_m + gate[:, None] * (g_adj @ m_prime)
    out = g_adj.dot(m_prime)
    out *= gate
    out += f_m
    return out
