"""Dual-path Bayesian scorer that fuses the metric scalars into a Tail Index.

The eight intrinsic and six interactive scalars are robust-normalized into
feature vectors, pushed through two independent two-layer MLPs whose weights
carry diagonal-Gaussian posteriors, fused with weights proportional to
``exp(lambda * KL(posterior || standard normal))``, and squashed through a
softplus so the Tail Index is non-negative. Only forward evaluation, seeded
posterior sampling and the closed-form KL live here; no variational training.

A corpus is z-scored as one (S, 14) matrix. The forward pass stays one
``w @ h`` per scene and path, as a batched product rounds differently, and a
sample-mode scene draws from its own seed, so only one scene's draws are held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, JsonRecord, UsageError, ValidationError, _float_array, freeze, number
from .interaction import INTERACTIVE_FIELDS, METRIC_FIELDS, InteractiveMetrics
from .intrinsic import INTRINSIC_FIELDS, IntrinsicMetrics
from .memory import quantiles, softplus

#: Robust z-scores are clipped to this many scale units.
CLIP_SIGMA = 10.0


@dataclass(frozen=True)
class GaussianLayer(JsonRecord):
    """A dense layer whose weights and biases carry diagonal-Gaussian posteriors.

    The arrays are read-only copies of the ones given, so values derived from
    a layer (such as its KL) cannot go stale.
    """

    JSON = dict.fromkeys(("mu_W", "sigma_W", "mu_b", "sigma_b"), _float_array)
    WHAT = "layer"

    mu_w: np.ndarray     # (out, in)
    sigma_w: np.ndarray  # (out, in), elementwise > 0
    mu_b: np.ndarray     # (out,)
    sigma_b: np.ndarray  # (out,)

    def __post_init__(self):
        freeze(self, ("mu_w", "sigma_w", "mu_b", "sigma_b"))
        if self.mu_w.ndim != 2 or self.sigma_w.shape != self.mu_w.shape:
            raise ConfigurationError(
                f"weight shapes disagree: mu {self.mu_w.shape}, sigma {self.sigma_w.shape}"
            )
        if self.mu_b.shape != (self.mu_w.shape[0],) or self.sigma_b.shape != self.mu_b.shape:
            raise ConfigurationError(
                f"bias shapes disagree with weight rows: {self.mu_b.shape} vs {self.mu_w.shape}"
            )
        for name in ("mu_w", "sigma_w", "mu_b", "sigma_b"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigurationError(f"{name} contains non-finite values")
        if np.any(self.sigma_w <= 0) or np.any(self.sigma_b <= 0):
            raise ConfigurationError("sigmas must be strictly positive")

    @property
    def in_dim(self) -> int:
        return self.mu_w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.mu_w.shape[0]


def _layers(path) -> tuple[GaussianLayer, ...]:
    return tuple(map(GaussianLayer.from_jsonable, path))


@dataclass(frozen=True)
class PerceiverParams(JsonRecord):
    """Both Bayesian paths plus the shared linear output head; each path's KL must be finite."""

    JSON = {"path_i": _layers, "path_r": _layers, "w_o": _float_array, "b_o": number, "lambda_temp": number}
    OPTIONAL = ("lambda_temp",)
    WHAT = "perceiver params"

    path_i: tuple[GaussianLayer, GaussianLayer]
    path_r: tuple[GaussianLayer, GaussianLayer]
    w_o: np.ndarray
    b_o: float
    lambda_temp: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "path_i", tuple(self.path_i))
        object.__setattr__(self, "path_r", tuple(self.path_r))
        freeze(self, ("w_o",))
        if self.w_o.ndim != 1:
            raise ConfigurationError(f"w_o must be a vector, got shape {self.w_o.shape}")
        for name, path, kl in zip(("path_i", "path_r"), (self.path_i, self.path_r), self.kl):
            if not path:
                raise ConfigurationError(f"{name} has no layers")
            for first, second in zip(path, path[1:]):
                if second.in_dim != first.out_dim:
                    raise ConfigurationError(
                        f"{name}: layer input {second.in_dim} != previous output {first.out_dim}"
                    )
            if path[-1].out_dim != self.w_o.shape[0]:
                raise ConfigurationError(
                    f"{name}: latent dim {path[-1].out_dim} != |w_o| {self.w_o.shape[0]}"
                )
            if not math.isfinite(kl):
                raise ConfigurationError(f"{name}: KL divergence overflows to {kl}")
        if not math.isfinite(self.b_o) or not math.isfinite(self.lambda_temp):
            raise ConfigurationError("b_o and lambda_temp must be finite")

    @cached_property
    def kl(self) -> tuple[float, float]:
        """``(kl_i, kl_r)``: each path's ``kl_diag_gaussian``, computed once."""
        return kl_diag_gaussian(self.path_i), kl_diag_gaussian(self.path_r)


def _init_layer(rng: np.random.Generator, out_dim: int, in_dim: int) -> GaussianLayer:
    sigma = softplus(-5.0)  # small but safely positive posterior scale
    return GaussianLayer(
        mu_w=rng.normal(0.0, 0.1, size=(out_dim, in_dim)),
        sigma_w=np.full((out_dim, in_dim), sigma),
        mu_b=np.zeros(out_dim),
        sigma_b=np.full(out_dim, sigma),
    )


def default_params(hidden: int = 128, latent: int = 64, seed: int = 0) -> PerceiverParams:
    """Seeded default parameters used when no parameter file is supplied; the first layers
    take the 8 intrinsic and 6 interactive metrics."""
    rng = np.random.default_rng(seed)
    return PerceiverParams(
        path_i=(_init_layer(rng, hidden, len(INTRINSIC_FIELDS)), _init_layer(rng, latent, hidden)),
        path_r=(_init_layer(rng, hidden, len(INTERACTIVE_FIELDS)), _init_layer(rng, latent, hidden)),
        w_o=rng.normal(0.0, 0.1, size=latent),
        b_o=0.0,
    )


def _strings(value) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def _median_quartiles(rows: np.ndarray) -> list[np.ndarray]:
    """Per column, the bits of ``np.median`` and ``np.quantile`` at 0.25/0.75, without importing numpy.ma."""
    n = len(rows)
    mid = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    m = np.partition(rows, mid + [-1], axis=0)  # numpy's kth: +-0 ties match, a NaN sorts last
    return [np.where(np.isnan(m[-1]), m[-1], m[mid].mean(axis=0)), *quantiles(rows, [0.25, 0.75])]


@dataclass(frozen=True)
class DatasetStats(JsonRecord):
    """Per-metric robust location/scale over a reference corpus.

    Metrics whose inter-quartile range degenerates to 0 get scale 1 and are
    listed in ``flags``.
    """

    JSON = {"median": _float_array, "scale": _float_array, "flags": _strings}
    OPTIONAL = ("flags",)
    WHAT = "stats"

    median: np.ndarray
    scale: np.ndarray
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        freeze(self, ("median", "scale"))
        if self.median.shape != (len(METRIC_FIELDS),) or self.scale.shape != self.median.shape:
            raise ConfigurationError(
                f"stats must cover the {len(METRIC_FIELDS)} metrics, "
                f"got {self.median.shape} / {self.scale.shape}"
            )
        if np.any(self.scale <= 0) or not np.all(np.isfinite(self.scale)):
            raise ConfigurationError("scales must be strictly positive and finite")

    @classmethod
    def fit(cls, rows: np.ndarray) -> "DatasetStats":
        """Median/IQR per metric over an (n, 14) matrix of metric vectors, n >= 2."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(METRIC_FIELDS):
            raise UsageError(
                f"expected an (n, {len(METRIC_FIELDS)}) matrix, got shape {rows.shape}"
            )
        if rows.shape[0] < 2:
            raise UsageError(f"need at least 2 reference samples, got {rows.shape[0]}")
        median, q25, q75 = _median_quartiles(rows)
        iqr = q75 - q25
        degenerate = ~(np.isfinite(iqr) & (iqr > 0))
        scale = np.where(degenerate, 1.0, iqr)
        flags = tuple(name for name, bad in zip(METRIC_FIELDS, degenerate) if bad)
        return cls(median=median, scale=scale, flags=flags)

    def zscores(self, rows: np.ndarray) -> np.ndarray:
        """Robust z-scores of (..., 14) metric rows, clipped to [-CLIP_SIGMA, CLIP_SIGMA]; an overflow clips too."""
        with np.errstate(over="ignore"):
            return np.clip((rows - self.median) / self.scale, -CLIP_SIGMA, CLIP_SIGMA)


def metrics_vector(intr: IntrinsicMetrics, inter: InteractiveMetrics) -> np.ndarray:
    """The 14 metric scalars in canonical order (intrinsic first)."""
    return np.concatenate([intr.as_vector(), inter.as_vector()])


def normalize_features(
    intr: IntrinsicMetrics, inter: InteractiveMetrics, stats: DatasetStats
) -> tuple[np.ndarray, np.ndarray]:
    """Robust z-scores clipped to [-CLIP_SIGMA, CLIP_SIGMA], split into (F_i, F_r)."""
    z = stats.zscores(metrics_vector(intr, inter))
    return z[: len(INTRINSIC_FIELDS)], z[len(INTRINSIC_FIELDS):]


def bayes_forward(
    layers: Sequence[GaussianLayer],
    x: np.ndarray,
    mode: str = "mean",
    seed=None,
) -> np.ndarray:
    """Forward pass through Gaussian layers with ReLU between them.

    ``mode="mean"`` uses the posterior means; ``mode="sample"`` draws every
    parameter as mu + sigma * eps with eps from a generator seeded by ``seed``,
    so the result is deterministic given (layers, x, mode, seed). One
    ``standard_normal`` call draws every eps, layer by layer, weights before
    biases: the same stream as one call per array.
    """
    if mode not in ("mean", "sample"):
        raise UsageError(f"mode must be 'mean' or 'sample', got {mode!r}")
    if mode == "sample" and seed is None:
        raise UsageError("sample mode needs a seed")
    if mode == "sample":
        n_params = sum(layer.mu_w.size + layer.mu_b.size for layer in layers)
        eps = np.random.default_rng(seed).standard_normal(n_params)
    h = np.asarray(x, dtype=float)
    at = 0
    for idx, layer in enumerate(layers):
        if h.shape != (layer.in_dim,):
            raise ConfigurationError(
                f"layer {idx} expects input of shape ({layer.in_dim},), got {h.shape}"
            )
        w, b = layer.mu_w, layer.mu_b
        if mode == "sample":
            n_w, n_b = w.size, b.size
            w = w + layer.sigma_w * eps[at : at + n_w].reshape(w.shape)
            b = b + layer.sigma_b * eps[at + n_w : at + n_w + n_b]
            at += n_w + n_b
        h = w @ h + b
        if idx < len(layers) - 1:
            h = np.maximum(h, 0.0)  # ReLU
    return h


def kl_diag_gaussian(layers: Sequence[GaussianLayer]) -> float:
    """KL(posterior || standard normal), summed over every parameter.

    Per parameter this is 0.5 * (mu^2 + sigma^2 - 1 - ln sigma^2); zero iff the
    posterior equals the prior, inf if a square overflows (``PerceiverParams`` refuses it).
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for layer in layers:
            for mu, sigma in ((layer.mu_w, layer.sigma_w), (layer.mu_b, layer.sigma_b)):
                total += 0.5 * float(np.sum(mu**2 + sigma**2 - 1.0 - 2.0 * np.log(sigma)))
    return total


@lru_cache(maxsize=64)  # one computation per parameter set and direction, not one per scene
def fusion_weights(kl_i: float, kl_r: float, lambda_temp: float) -> tuple[float, float]:
    """Softmax over (lambda * KL) per path, computed max-shifted.

    As written, the higher-KL (more uncertain) path gets the larger weight;
    pass a negative ``lambda_temp`` for the opposite reading. The softmax is
    strictly interior, so under KL gaps large enough to saturate float64 the
    weights are nudged to the nearest representable values inside (0, 1).
    """
    if not all(map(math.isfinite, (kl_i, kl_r, lambda_temp))):
        raise UsageError("fusion inputs must be finite")
    a, b = lambda_temp * kl_i, lambda_temp * kl_r
    if math.isinf(a) or math.isinf(b):
        # lambda * KL overflowed, so unequal KLs put a and b over 1e290 apart: the larger takes all
        a, b = math.copysign(800.0, lambda_temp) * ((kl_i > kl_r) - (kl_i < kl_r)), 0.0
    m = max(a, b)
    ea, eb = math.exp(a - m), math.exp(b - m)
    interior_hi = math.nextafter(1.0, 0.0)
    alpha_i = min(max(ea / (ea + eb), 1e-300), interior_hi)
    alpha_r = min(max(eb / (ea + eb), 1e-300), interior_hi)
    return alpha_i, alpha_r


def tail_index(
    z_i: np.ndarray,
    z_r: np.ndarray,
    alpha_i: float,
    alpha_r: float,
    w_o: np.ndarray,
    b_o: float,
) -> float:
    """Softplus of the linear readout of the fused latent vector; inf or NaN where the readout overflows."""
    fused = alpha_i * np.asarray(z_i, dtype=float) + alpha_r * np.asarray(z_r, dtype=float)
    w_o = np.asarray(w_o, dtype=float)
    if fused.shape != w_o.shape:
        raise ConfigurationError(f"latent shape {fused.shape} does not match w_o {w_o.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return softplus(float(np.dot(w_o, fused)) + b_o)


@dataclass(frozen=True)
class TailIndexResult:
    """Tail Index of one sample plus the path latents, KLs and fusion weights."""

    ti: float
    z_i: np.ndarray
    z_r: np.ndarray
    alpha_i: float
    alpha_r: float
    kl_i: float
    kl_r: float

    def __post_init__(self):
        if not (math.isfinite(self.ti) and self.ti >= 0):
            raise ValidationError(f"TI must be finite and >= 0, got {self.ti!r}")
        if not (0 < self.alpha_i < 1 and 0 < self.alpha_r < 1):
            raise ValidationError(f"fusion weights must lie in (0, 1), got {self.alpha_i}, {self.alpha_r}")
        if abs(self.alpha_i + self.alpha_r - 1.0) > 1e-12:
            raise ValidationError("fusion weights must sum to 1")
        if self.kl_i < 0 or self.kl_r < 0:
            raise ValidationError("KL values must be non-negative")


def scene_seeds(n: int, seed: int = 0) -> list[np.random.SeedSequence]:
    """One independent child of ``seed`` per scene, for sample-mode ``perceive`` calls."""
    return np.random.SeedSequence(seed).spawn(n)


def perceive(
    params: PerceiverParams,
    f_i: np.ndarray,
    f_r: np.ndarray,
    mode: str = "mean",
    seed=None,
) -> TailIndexResult:
    """Full dual-path forward pass: latents, KLs, fusion weights, Tail Index.

    In sample mode the two paths draw from independent child streams of the
    given seed. A negative ``lambda_temp`` favors the lower-KL path.
    """
    seed_i = seed_r = None  # bayes_forward refuses a sample mode without a seed
    if mode == "sample" and seed is not None:
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        seed_i, seed_r = ss.spawn(2)
    z_i = bayes_forward(params.path_i, f_i, mode=mode, seed=seed_i)
    z_r = bayes_forward(params.path_r, f_r, mode=mode, seed=seed_r)
    kl_i, kl_r = params.kl
    alpha_i, alpha_r = fusion_weights(kl_i, kl_r, params.lambda_temp)
    ti = tail_index(z_i, z_r, alpha_i, alpha_r, params.w_o, params.b_o)
    return TailIndexResult(
        ti=ti, z_i=z_i, z_r=z_r, alpha_i=alpha_i, alpha_r=alpha_r, kl_i=kl_i, kl_r=kl_r
    )


def rank_supervision_loss(tis, ades) -> float:
    """Mean absolute difference between the two sorted value sequences.

    This is the 1-Wasserstein distance between the empirical distributions;
    zero iff the inputs are equal as multisets, invariant to permutations.
    """
    tis = np.asarray(tis, dtype=float)
    ades = np.asarray(ades, dtype=float)
    if tis.ndim != 1 or ades.ndim != 1:
        raise UsageError("inputs must be 1-D")
    if tis.shape != ades.shape:
        raise UsageError(f"length mismatch: {tis.shape[0]} vs {ades.shape[0]}")
    if tis.size == 0:
        raise UsageError("inputs must be non-empty")
    return float(np.mean(np.abs(np.sort(tis) - np.sort(ades))))
