"""Truncated cylindrical Wiener noise and the diffusion operator G.

The diffusion acts through K scalar channels.  Channel k carries a
pointwise map sigma_k applied to the velocity at collocation points,
Leray-projected back onto the solenoidal space:

    G(t, y) dW = P sum_k sigma_k(y(x)) dW_k.

Both built-in families share the structure sigma_k(lam) = c_k * f(lam)
with a common profile f, which keeps ensemble evaluation to a single
transform per call.  The channel weights decay as c_k = c0 / k^{3/2} so
the series is summable in every norm used here.

Reproducibility: sample s of a run with seed ``seed`` draws all of its
increments from ``default_rng(SeedSequence([seed, s]))`` and nothing
else, so ensembles are bitwise reproducible and independent of batch
splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import WaveGrid, leray_project, to_phys, to_spec

FAMILIES = ("linear", "smooth", "zero")


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
        if self.K == 0 or self.family == "zero":
            return np.zeros(max(self.K, 0))
        return self.c0 / np.arange(1, self.K + 1) ** 1.5

    def lipschitz_bound(self):
        """L with sum_k |sigma_k(a)-sigma_k(b)|^2 <= L |a-b|^2 pointwise."""
        return float(np.sum(self.weights**2))

    def time_factor(self, t):
        return 1.0 + self.modulation * np.sin(t)

    def profile(self, lam):
        """Common pointwise profile f with sigma_k = c_k f; f(0) = 0."""
        if self.family == "linear":
            return lam
        if self.family == "smooth":
            return np.sin(lam)
        return np.zeros_like(lam)

    def profile_deriv(self, lam):
        if self.family == "linear":
            return np.ones_like(lam)
        if self.family == "smooth":
            return np.cos(lam)
        return np.zeros_like(lam)

    def profile_deriv_at(self, grid: WaveGrid, y):
        """f'(y) at collocation points.  The linear and zero profiles have a
        constant f', returned as a scalar without transforming y."""
        if self.family == "smooth":
            return self.profile_deriv(to_phys(grid, y))
        return self.profile_deriv(0.0)


@dataclass(frozen=True)
class WienerPath:
    """Brownian increments for one sample: shape (steps, K), scaled by sqrt(dt)."""

    dt: float
    increments: np.ndarray = field(repr=False)

    @property
    def steps(self):
        return self.increments.shape[0]

    @property
    def K(self):
        return self.increments.shape[1]


def sample_path(seed: int, sample: int, dt: float, steps: int, K: int) -> WienerPath:
    rng = np.random.default_rng(np.random.SeedSequence([seed, sample]))
    dW = rng.standard_normal((steps, K)) * np.sqrt(dt)
    return WienerPath(dt=dt, increments=dW)


def sample_paths(seed: int, n_samples: int, dt: float, steps: int, K: int):
    """Increments for an ensemble, shape (n_samples, steps, K).

    Sample s always sees the same increments regardless of n_samples.
    """
    out = np.empty((n_samples, steps, K))
    for s in range(n_samples):
        out[s] = sample_path(seed, s, dt, steps, K).increments
    return out


# ---------------------------------------------------------------------------
# G, its state derivative, and the adjoint


def apply_G(grid: WaveGrid, t, y, model: NoiseModel):
    """All K diffusion columns, shape (..., K, dim, *spatial) spectral."""
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

    ``q`` has shape (..., K, dim, *spatial).  The pointwise Jacobian of
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
    """sum_k c_k dW_k for increments dW of shape (..., K)."""
    return np.asarray(dW) @ model.weights


def noise_increment(grid: WaveGrid, t, y, dW, model: NoiseModel):
    """G(t, y) dW as a single spectral field, batched over samples."""
    s = weighted_increment(model, dW) * model.time_factor(t)
    f = model.profile(to_phys(grid, y))
    sf = s[(Ellipsis,) + (None,) * (grid.dim + 1)] * f
    return leray_project(grid, to_spec(grid, sf))


def grad_noise_increment(grid: WaveGrid, t, y, v, dW, model: NoiseModel):
    """(grad_y G)(t, y)[v] dW; equals its own transpose in v by diagonality."""
    s = weighted_increment(model, dW) * model.time_factor(t)
    fp = model.profile_deriv_at(grid, y)
    vp = to_phys(grid, v)
    sf = s[(Ellipsis,) + (None,) * (grid.dim + 1)] * (fp * vp)
    return leray_project(grid, to_spec(grid, sf))

