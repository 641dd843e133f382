"""Tail-Index-partitioned prototype memory and the cognitive set mechanism.

Prototypes are per-category mean feature vectors, categories cut at Tail
Index percentiles, refined by a TI-weighted momentum update. At adaptation
time a gating MLP proposes a category allocation, a vigilance gate blends it
toward a tail-biased fallback when no prototype matches well, and a single
analytic gradient step on the prototype-alignment loss refines the memory
before it augments the feature vector.

``GateMlp.forward``, ``allocation``, ``similarity``, ``vigilance_adjust`` and
``augment`` take one sample's vectors or ``(B, .)`` stacks whose rows are
samples, ``PrototypeMemory.category_of`` one Tail Index or a ``(B,)`` array; a
batch call returns one row per sample and warns once, not once per degenerate
row. A one-sample call takes a lean path (``ndarray.dot`` mat-vecs, in-place
arithmetic, Python floats) that matches the batch rows to 1e-12, and two
one-entry memos keyed by content: ``GateMlp`` keeps its last ``(D,)`` forward
under the input's bytes (``allocation`` then ``augment`` on one ``h`` run the
network once), ``similarity`` the last prototype matrix's row norms under its
shape and bytes. A hit gives a recompute's bits; ``GateMlp`` holds read-only
copies of its arrays and returns read-only logits, so no memo can go stale.

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

from .errors import ConfigurationError, DegenerateInputWarning, JsonRecord, UsageError, ValidationError, number, numbers

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
    """Rows of ``x`` scaled to unit norm, with their norms and the mask of rows kept.

    Rows with a norm below ``EPS_NORM`` are directionless and come out as zeros.
    Norms and mask keep a trailing axis of length 1, so they broadcast against ``x``.
    """
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))  # np.linalg.norm's sum, less call overhead
    ok = norms >= EPS_NORM
    return np.divide(x, norms, out=np.zeros_like(x), where=ok), norms, ok


def _float_array(value) -> np.ndarray:
    """``value`` as a float array of JSON numbers; a NaN or infinity raises ValueError."""
    return np.asarray_chkfinite(numbers(value))


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
        for name in self._ARRAYS:
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_last", (None, None, None))  # (h bytes, logits, gate) of the last (D,) forward
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
        """Allocation logits and gate logit: ``(C,)`` and a float for ``(D,)``, else ``(B, C)`` and ``(B,)``."""
        h = np.asarray(h, dtype=float)
        if h.ndim not in (1, 2) or h.shape[-1] != self.input_dim:
            raise ConfigurationError(f"expected input of shape (D,) or (B, D) with D = {self.input_dim}, got {h.shape}")
        if h.ndim == 1:  # ndarray.dot: the same BLAS mat-vec as @, with less dispatch
            key = h.tobytes()
            last = self._last
            if key == last[0]:
                return last[1], last[2]
            hid = self.w_hidden.dot(h)
            hid += self.b_hidden
            np.maximum(hid, 0.0, out=hid)
            logits = self.w_alloc.dot(hid)
            logits += self.b_alloc
            logits.flags.writeable = False
            gate = float(hid.dot(self.w_gate)) + self.b_gate
            object.__setattr__(self, "_last", (key, logits, gate))
            return logits, gate
        # einsum, not matmul: a batch this wide would reach a threaded BLAS GEMM,
        # whose thread hand-off costs more than the product on a few cores.
        hid = np.maximum(np.einsum("...i,hi->...h", h, self.w_hidden) + self.b_hidden, 0.0)
        return hid @ self.w_alloc.T + self.b_alloc, hid @ self.w_gate + self.b_gate

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
        object.__setattr__(self, "b_tail", np.asarray(self.b_tail, dtype=float))
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ConfigurationError(f"tau must be > 0, got {self.tau}")
        if not (self.gamma_steep > 0 and math.isfinite(self.gamma_steep)):
            raise ConfigurationError(f"gamma_steep must be > 0, got {self.gamma_steep}")
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
        object.__setattr__(self, "prototypes", np.asarray(self.prototypes, dtype=float))
        object.__setattr__(self, "boundaries", np.asarray(self.boundaries, dtype=float))
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
    """Per-sample feature vectors, metric features and Tail Index of one batch."""

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
    order = np.argsort(tis, kind="stable")
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(n)
    assignments = np.minimum(ranks * categories // n, categories - 1)

    flags = []
    sorted_tis = tis[order]
    for c in range(1, categories):
        first_of_bin = np.searchsorted(assignments[order], c)
        if first_of_bin < n and sorted_tis[first_of_bin] == sorted_tis[first_of_bin - 1]:
            flags.append("ties")
            break
    boundaries = np.quantile(tis, [c / categories for c in range(1, categories)]) if categories > 1 else np.array([])
    return CategoryPartition(
        assignments=assignments, boundaries=boundaries, flags=tuple(flags)
    )


def initialize_memory(
    features: np.ndarray,
    partition: CategoryPartition,
    eta: float = 0.9,
) -> PrototypeMemory:
    """Prototype memory whose rows are the per-category mean feature vectors."""
    features = np.asarray(features, dtype=float)
    categories = int(partition.assignments.max()) + 1
    rows = np.stack(
        [features[partition.assignments == c].mean(axis=0) for c in range(categories)]
    )
    return PrototypeMemory(prototypes=rows, eta=eta, boundaries=partition.boundaries)


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


#: (shape, bytes) of the last prototype matrix a one-sample similarity saw, its row norms, and whether
#: every norm is finite and at least EPS_NORM. Keyed by content, so every caller may share it.
_last_rows = (None, None, False)


def similarity(f_m: np.ndarray, prototypes: np.ndarray, tau: float) -> np.ndarray:
    """Temperature-scaled cosine similarity of ``(D,)`` or ``(B, D)`` features to each prototype row.

    Entries involving a vector with norm below ``EPS_NORM`` are set to 0 and
    reported by one :class:`DegenerateInputWarning` per call.
    """
    f_m = np.asarray(f_m, dtype=float)
    prototypes = np.asarray(prototypes, dtype=float)
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
    f_hat, _, ok_f = _unit_rows(f_m)
    m_hat, _, ok_m = _unit_rows(prototypes)
    if not (ok_f.all() and ok_m.all()):
        warnings.warn("zero-norm feature or prototype rows, their similarities set to 0", DegenerateInputWarning)
    return tau * (f_hat @ m_hat.T)


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


def proto_loss(g_adj: np.ndarray, s: np.ndarray) -> float:
    """Prototype-alignment loss of a batch.

    For each sample the margin is sum_k(g'_k s_k) - sum_k((1 - g'_k) s_k);
    the loss is the mean of -log sigmoid(margin), computed via a stable
    softplus.
    """
    g_adj = np.atleast_2d(np.asarray(g_adj, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    if g_adj.shape != s.shape:
        raise UsageError(f"shape mismatch: g' {g_adj.shape} vs s {s.shape}")
    if g_adj.shape[0] == 0:
        raise UsageError("empty batch")
    margins = np.sum((2.0 * g_adj - 1.0) * s, axis=1)
    return float(np.mean(softplus(-margins)))


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
    prototypes = np.asarray(prototypes, dtype=float)
    f_m = np.atleast_2d(np.asarray(f_m, dtype=float))
    g_adj = np.atleast_2d(np.asarray(g_adj, dtype=float))
    n_samples = f_m.shape[0]
    if g_adj.shape != (n_samples, prototypes.shape[0]):
        raise UsageError(f"g' must be (B, C) = ({n_samples}, {prototypes.shape[0]}), got {g_adj.shape}")

    f_hat, _, ok_f = _unit_rows(f_m)
    m_hat, row_norms, ok_m = _unit_rows(prototypes)
    if not (ok_f.all() and ok_m.all()):
        warnings.warn("zero-norm rows contribute zero similarity and zero gradient", DegenerateInputWarning)

    cos = f_hat @ m_hat.T                     # (B, C); zero where degenerate
    s = tau * cos
    loss = proto_loss(g_adj, s)

    sign = 2.0 * g_adj - 1.0
    dloss_dmargin = -sigmoid(-np.sum(sign * s, axis=1)) / n_samples  # (B,)
    w = dloss_dmargin[:, None] * sign * tau                         # (B, C)
    inv_norms = np.divide(1.0, row_norms, out=np.zeros_like(row_norms), where=ok_m)
    grad = (w.T @ f_hat - (w * cos).sum(axis=0)[:, None] * m_hat) * inv_norms
    return loss, grad


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
    g_adj = vigilance_adjust(allocation(batch.h, params), similarity(batch.f_m, mem.prototypes, params.tau), params)
    _, grad = proto_loss_and_grad(mem.prototypes, batch.f_m, g_adj, params.tau)
    return mem.prototypes - alpha_lr * grad


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
