"""Exact linearization of the forward scheme along a frozen trajectory.

``linearized_drift`` is the literal Jacobian of the discrete drift
assembly: it feeds the collocation pieces of y and z to the same
convective and stress forms that build the drift (B(y, z) + B(z, y) for
the convective form, the stress derivatives from ``stress_terms``), so
the tangent recursion differentiates the scheme rather than
discretizing a formal linearized equation.  ``linearized_drift_T`` is
its machine-precision L2 transpose on the solenoidal subspace: the
convective pair is transposed operator by operator (spectral
derivatives flip sign, collocation multipliers are symmetric), while
the stress derivative is self-adjoint and is reused as it stands.
"""

from __future__ import annotations

import numpy as np

from . import noise as nz
from . import spectral as sp
from .forward import SimConfig


def _convective_T(y, w):
    """Transpose in z of B(y, z) + B(z, y), applied to w; y, w Collocation pieces."""
    g, m = y.grid, y.grid.mask2
    wu = w.u
    # -(y . grad) v(z) and -sum_j v(z)_j grad y_j reach z through the v-map
    through_v = sp.div_matrix_spec(g, sp.outer_phys(g, wu, y.u), m) - sp.to_spec(
        g, sp.advect(g, wu, y.J), m
    )
    # -(z . grad) v(y) and -sum_j v(y)_j grad z_j
    direct = sp.div_matrix_spec(g, sp.outer_phys(g, y.v, wu), m) - sp.to_spec(
        g, sp.cograd(g, wu, y.Jv), m
    )
    return sp.v_apply(g, through_v, y.params) + direct


def linearized_drift(grid, y, z, psi, params, include_viscosity=True):
    out = sp.drift_terms(sp.Collocation(grid, y, params), sp.Collocation(grid, z, params))
    if include_viscosity:
        out = out - params.nu * grid.k2 * z
    if psi is not None:
        out = out + psi
    return sp.leray_project(grid, out)


def linearized_drift_T(grid, y, w, params, include_viscosity=True):
    wq = sp.leray_project(grid, w)
    yc, wc = sp.Collocation(grid, y, params), sp.Collocation(grid, wq, params)
    out = sp.stress_terms(yc, wc) + _convective_T(yc, wc)
    if include_viscosity:
        out = out - params.nu * grid.k2 * wq
    return sp.leray_project(grid, out)


# ---------------------------------------------------------------------------
# tangent recursion


def tangent_step(y, z, psi_n, dW_n, t, cfg: SimConfig):
    """Jacobian of the forward step at base state y, applied to z (+ psi)."""
    g = cfg.grid
    ex = linearized_drift(g, y, z, psi_n, cfg.params, include_viscosity=False)
    rhs = sp.v_apply(g, z, cfg.params) + cfg.dt * ex
    if cfg.model.K > 0:
        rhs = rhs + nz.grad_noise_increment(g, t, y, z, dW_n, cfg.model)
    return sp.leray_project(g, rhs / cfg.implicit_denominator)


def transpose_step(y, p, dW_n, t, cfg: SimConfig):
    """F_n^T p for the tangent propagator F_n at base state y."""
    g = cfg.grid
    q = sp.leray_project(g, p / cfg.implicit_denominator)
    out = sp.v_apply(g, q, cfg.params) + cfg.dt * linearized_drift_T(
        g, y, q, cfg.params, include_viscosity=False
    )
    if cfg.model.K > 0:
        out = out + nz.grad_noise_increment(g, t, y, q, dW_n, cfg.model)
    return out


def control_to_state(p, cfg: SimConfig):
    """S^T p: how a unit control impulse at one step pairs with the costate."""
    g = cfg.grid
    return sp.leray_project(g, p / cfg.implicit_denominator)


def simulate_tangent(fields, stop, psi, dW, cfg: SimConfig):
    """Tangent trajectory along a frozen base ensemble.

    ``fields`` is (S, steps+1, dim, *spatial), ``stop`` the per-sample
    exit indices, ``psi`` a deterministic direction (steps, dim, *sp),
    ``dW`` the same increments the base run consumed.  z starts at zero
    and is frozen once the base sample has stopped.  Returns (z_traj, z_N).
    """
    g = cfg.grid
    S = fields.shape[0]
    z = np.zeros((S, g.dim) + g.shape, dtype=complex)
    out = np.zeros((S, cfg.steps + 1, g.dim) + g.shape, dtype=complex)
    bsel = (slice(None),) + (None,) * (g.dim + 1)
    for n in range(cfg.steps):
        active = stop > n
        if active.any():
            yn = np.asarray(fields[:, n], dtype=complex)
            pn = None if psi is None else np.asarray(psi)[n]
            z_next = tangent_step(yn, z, pn, dW[:, n], n * cfg.dt, cfg)
            z = np.where(active[bsel], z_next, z)
        out[:, n + 1] = z
    return out, z


def gateaux_check(y0, U, psi, cfg: SimConfig, rhos, n_samples: int):
    """Finite-difference convergence of the tangent representation.

    For each rho compares (y(U + rho psi) - y(U)) / rho with z in the
    sup-over-time V norm, averaged over samples, and fits the log-log
    slope (2 is exact first-order consistency of the Jacobian, anything
    well above 1 witnesses the quadratic remainder).
    """
    from .forward import simulate_ensemble

    g = cfg.grid
    dW = nz.sample_paths(cfg.seed, n_samples, cfg.dt, cfg.steps, cfg.model.K)
    base = simulate_ensemble(y0, U, dW, cfg)
    ztraj, _ = simulate_tangent(base.fields, base.stop, psi, dW, cfg)
    wv = 1.0 + cfg.params.alpha1 * g.k2
    errs = []
    for rho in rhos:
        Up = np.asarray(psi) * rho if U is None else np.asarray(U) + rho * np.asarray(psi)
        pert = simulate_ensemble(y0, Up, dW, cfg)
        nmin = np.minimum(base.stop, pert.stop)
        worst = np.zeros(n_samples)
        for n in range(cfg.steps + 1):
            diff = (
                np.asarray(pert.fields[:, n], dtype=complex)
                - np.asarray(base.fields[:, n], dtype=complex)
            ) / rho - ztraj[:, n]
            v2 = sp.sobolev_inner(g, diff, diff, wv)
            worst = np.where(nmin >= n, np.maximum(worst, v2), worst)
        errs.append(float(np.mean(worst)))
    lr = np.log(np.asarray(rhos, dtype=float))
    le = np.log(np.maximum(np.asarray(errs), 1e-300))
    slope = float(np.polyfit(lr, le, 1)[0])
    return {"rhos": list(map(float, rhos)), "errors": errs, "slope": slope}
