"""Exact linearization of the forward scheme along a frozen trajectory.

``linearized_drift`` is the literal Jacobian of the discrete drift
assembly: it feeds the collocation pieces of y and z to the same
convective and stress forms that build the drift (B(y, z) + B(z, y) for
the rotational convective form B(a, b) = -curl v(b) x a, the stress
derivatives from ``stress_terms``), so the tangent recursion
differentiates the scheme rather than discretizing a formal linearized
equation.  ``linearized_drift_T`` is its machine-precision L2 transpose
on the solenoidal subspace: the convective pair is transposed operator
by operator (the pointwise rotation is antisymmetric, its transpose in
the rotation is the wedge product, and the rotation symbol transposes
to minus the divergence of a packed antisymmetric tensor), while the
stress derivative is self-adjoint and is reused as it stands.

``tangent_sweep`` is the one forward tangent recursion over a frozen
ensemble: it yields z_n at step n and overwrites it with z_{n+1} in
place only when the caller resumes it (a caller that keeps z_n copies
it), so a caller that stops early, like the duality rhs, which never
reads z_N, makes no step it does not read.  Its backward counterpart is
``adjoint.costate_sweep``.
"""

from __future__ import annotations

import numpy as np

from . import noise as nz
from . import spectral as sp
from .forward import SimConfig, _on_live, simulate_ensemble


def _convective_T(y, w):
    """Transpose in z of B(y, z) + B(z, y), applied to w; y, w Collocation pieces."""
    g, m = y.grid, y.grid.mask2
    wu = w.u
    # B(y, z) = -rotate(W(v(z)), y) pairs with w through the wedge of w and y;
    # the rotation symbol's transpose is minus the divergence of a packed tensor
    through_v = sp.div_asym_spec(g, sp.wedge(g, wu, y.u), m)
    # B(z, y) = -rotate(y.W, z): y.W is antisymmetric, so -rotate transposes to rotate
    direct = sp.to_spec(g, sp.rotate(g, y.W, wu), m)
    return sp.v_apply(g, through_v, y.params) + direct


def linearized_drift(grid, y, z, psi, params, include_viscosity=True):
    out = sp.drift_terms(sp.Collocation(grid, y, params), sp.Collocation(grid, z, params))
    if include_viscosity:
        out = out - params.nu * grid.k2 * z
    if psi is not None:
        out = out + psi
    return sp.leray_project(grid, out)


def linearized_drift_T(grid, y, w, params, include_viscosity=True):
    """Transpose of ``linearized_drift`` in z, applied to a solenoidal w
    (``transpose_step`` passes the Leray-projected costate)."""
    yc, wc = sp.Collocation(grid, y, params), sp.Collocation(grid, w, params)
    out = sp.stress_terms(yc, wc) + _convective_T(yc, wc)
    if include_viscosity:
        out = out - params.nu * grid.k2 * w
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


def tangent_sweep(fields, stop, psi, dW, cfg: SimConfig):
    """Tangent recursion along a frozen base ensemble.

    ``fields`` is (S, steps+1, dim, *spec_shape), ``stop`` the per-sample
    exit indices, ``psi`` a deterministic direction (steps, dim, *sp),
    ``dW`` the same increments the base run consumed.  Yields (n, live, z)
    for n = 0 ... steps with live = stop > n and z holding z_n (z_0 = 0),
    frozen once the base sample has stopped.  z is advanced to z_{n+1} in
    place only when the caller asks for the next step.
    """
    g = cfg.grid
    z = g.zeros((fields.shape[0],))
    for n in range(cfg.steps + 1):
        live = stop > n
        yield n, live, z
        if live.any():  # never at n = steps: every stop index is at most steps
            _on_live(live, z, lambda y, z, dw: tangent_step(y, z, psi[n], dw, n * cfg.dt, cfg),
                     np.asarray(fields[:, n], dtype=complex), z, dW[:, n])


def gateaux_check(y0, U, psi, cfg: SimConfig, rhos, n_samples: int):
    """Finite-difference convergence of the tangent representation.

    For each rho compares (y(U + rho psi) - y(U)) / rho with z in the
    sup-over-time V norm, averaged over samples, and fits the log-log
    slope (2 is exact first-order consistency of the Jacobian, anything
    well above 1 witnesses the quadratic remainder).
    """
    g = cfg.grid
    psi = np.asarray(psi)
    dW = nz.sample_paths(cfg.seed, n_samples, cfg.dt, cfg.steps, cfg.model.K)
    base = simulate_ensemble(y0, U, dW, cfg)
    perts = []
    for rho in rhos:
        Up = psi * rho if U is None else np.asarray(U) + rho * psi
        perts.append(simulate_ensemble(y0, Up, dW, cfg))
    wv = 1.0 + cfg.params.alpha1 * g.k2
    worst = np.zeros((len(rhos), n_samples))
    for n, _, z in tangent_sweep(base.fields, base.stop, psi, dW, cfg):
        y_n = np.asarray(base.fields[:, n], dtype=complex)
        for i, (rho, pert) in enumerate(zip(rhos, perts)):
            diff = (np.asarray(pert.fields[:, n], dtype=complex) - y_n) / rho - z
            v2 = sp.sobolev_inner(g, diff, diff, wv)
            upto = np.minimum(base.stop, pert.stop) >= n
            worst[i] = np.where(upto, np.maximum(worst[i], v2), worst[i])
    errs = [float(np.mean(w)) for w in worst]
    lr = np.log(np.asarray(rhos, dtype=float))
    le = np.log(np.maximum(np.asarray(errs), 1e-300))
    slope = float(np.polyfit(lr, le, 1)[0])
    return {"rhos": list(map(float, rhos)), "errors": errs, "slope": slope}
