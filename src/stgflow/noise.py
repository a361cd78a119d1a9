"""Truncated cylindrical Wiener noise and the diffusion operator G.

The diffusion acts through K scalar channels.  Channel k carries a
pointwise map sigma_k applied to the velocity at collocation points,
Leray-projected back onto the solenoidal space:

    G(t, y) dW = P sum_k sigma_k(y(x)) dW_k.

Both families share the structure sigma_k(lam) = c_k * f(lam) with a
common profile f, so the time steppers need only the per-sample scalar
s = sum_k c_k dW_k (times the time factor).  For the smooth family the
fused forms transform once each way and leave out P, which the step kernels
apply once to the sum (S = P D^-1 ends ``forward.step`` and ``tangent_step``,
a final P ``transpose_step``); the linear family has f' = 1, and for a
solenoidal field on the retained modes its fused forms are the spectral
multiple s y of the field itself, with no transform at all.  The reference
operators ``apply_G``, ``apply_grad_G`` and ``apply_G_star`` keep the
transform path for both.  The weights c_k = c0 / k^{3/2} make the series
summable in every norm used here; K = 0, no channel, is the noiseless model.

Reproducibility: sample s of a run with seed ``seed`` draws all of its
increments from ``default_rng(SeedSequence([seed, s]))`` and nothing
else, so ensembles are bitwise reproducible and independent of batch
splitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import WaveGrid, leray_project, to_phys, to_spec

FAMILIES = ("linear", "smooth")


@dataclass(frozen=True)
class NoiseModel:
    """K-channel multiplicative noise with profile family and weights c0/k^1.5."""

    K: int
    family: str = "linear"
    c0: float = 0.1
    modulation: float = 0.0  # optional smooth time factor 1 + modulation*sin(t)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.K < 0:
            raise ValueError("K must be nonnegative")

    @property
    def weights(self):
        return self.c0 / np.arange(1, self.K + 1) ** 1.5

    def time_factor(self, t):
        return 1.0 + self.modulation * np.sin(t)

    def profile(self, lam):
        """Common pointwise profile f with sigma_k = c_k f; f(0) = 0."""
        return lam if self.family == "linear" else np.sin(lam)

    def profile_deriv(self, lam):
        return np.ones_like(lam) if self.family == "linear" else np.cos(lam)

    def profile_deriv_at(self, grid: WaveGrid, y):
        """f'(y) at collocation points.  The linear profile's f' = 1 is
        returned as a scalar without transforming y."""
        return 1.0 if self.family == "linear" else self.profile_deriv(to_phys(grid, y))


def sample_path(seed: int, sample: int, dt: float, steps: int, K: int):
    """Brownian increments of one sample, shape (steps, K), scaled by sqrt(dt)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, sample]))
    return rng.standard_normal((steps, K)) * np.sqrt(dt)


def sample_paths(seed: int, n_samples: int, dt: float, steps: int, K: int):
    """Increments for an ensemble, shape (n_samples, steps, K).

    Sample s always sees the same increments regardless of n_samples.
    """
    out = np.empty((n_samples, steps, K))
    for s in range(n_samples):
        out[s] = sample_path(seed, s, dt, steps, K)
    return out


# ---------------------------------------------------------------------------
# G, its state derivative, and the adjoint


def apply_G(grid: WaveGrid, t, y, model: NoiseModel):
    """All K diffusion columns, shape (..., K, dim, *spec_shape) spectral."""
    f = model.profile(to_phys(grid, y)) * model.time_factor(t)
    col = leray_project(grid, to_spec(grid, f))
    w = model.weights.reshape((model.K,) + (1,) * (grid.dim + 1))
    return w * np.expand_dims(col, -grid.dim - 2)


def apply_grad_G(grid: WaveGrid, t, y, v, model: NoiseModel):
    """Columns of the pointwise Jacobian action: d/d eps G(y + eps v)."""
    fp = model.profile_deriv_at(grid, y) * model.time_factor(t)
    col = leray_project(grid, to_spec(grid, fp * to_phys(grid, v)))
    w = model.weights.reshape((model.K,) + (1,) * (grid.dim + 1))
    return w * np.expand_dims(col, -grid.dim - 2)


def apply_G_star(grid: WaveGrid, t, y, q, model: NoiseModel):
    """Adjoint of grad_G in the L2 pairing: sum_k (d sigma_k)^T q_k.

    ``q`` has shape (..., K, dim, *spec_shape).  The pointwise Jacobian of
    each channel is diagonal, hence symmetric, so the adjoint reuses the
    profile derivative; the Leray projection is self-adjoint.
    """
    fp = model.profile_deriv_at(grid, y) * model.time_factor(t)
    w = model.weights.reshape((model.K,) + (1,) * (grid.dim + 1))
    qsum = np.sum(w * np.asarray(q), axis=-grid.dim - 2)
    qp = to_phys(grid, leray_project(grid, qsum))
    return leray_project(grid, to_spec(grid, fp * qp))


# fused forms used by the time steppers: only the weighted combination
# sum_k c_k dW_k enters, which is a scalar per sample and step.


def weighted_increment(model: NoiseModel, dW):
    """sum_k c_k dW_k for increments dW of shape (..., K).  Each sample's sum
    is reduced on its own, so it does not depend on the other samples in the
    batch (a BLAS matrix-vector product blocks rows and can round differently)."""
    return np.sum(np.asarray(dW) * model.weights, axis=-1)


def _scale(grid: WaveGrid, t, dW, model: NoiseModel):
    """s = time_factor(t) sum_k c_k dW_k per sample, broadcast over a field."""
    s = weighted_increment(model, dW) * model.time_factor(t)
    return s[(Ellipsis,) + (None,) * (grid.dim + 1)]


def noise_increment(grid: WaveGrid, t, y, dW, model: NoiseModel):
    """G(t, y) dW before P, one spectral field batched over samples, for a
    solenoidal y on the retained modes (every state the scheme makes).

    For the linear family this is s y: P s y = s y for such a y.
    """
    s = _scale(grid, t, dW, model)
    if model.family == "linear":
        return s * y
    return to_spec(grid, s * model.profile(to_phys(grid, y)))


def grad_noise_increment(grid: WaveGrid, t, y, v, dW, model: NoiseModel):
    """(grad_y G)(t, y)[v] dW before P, for a solenoidal v on the retained modes;
    its own transpose in v by diagonality.  For the linear family it is s v."""
    s = _scale(grid, t, dW, model)
    if model.family == "linear":
        return s * v
    fp = model.profile_deriv(to_phys(grid, y))
    return to_spec(grid, s * (fp * to_phys(grid, v)))
