"""Exact linearization of the forward scheme along a frozen trajectory.

``tangent_step`` is the literal Jacobian of ``forward.step``: it feeds the
collocation pieces of y and z to the same convective and stress forms
that build the drift (``spectral.drift_terms(y, z)`` = B(y, z) + B(z, y)
for the rotational convective form B(a, b) = -curl v(b) x a, plus the
stress derivatives), so the tangent recursion differentiates the scheme
rather than discretizing a formal linearized equation.  ``drift_terms_T``
is the literal L2 transpose of that form in z: the convective pair is
transposed operator by operator (the pointwise rotation is antisymmetric,
its transpose in the rotation is the wedge product, and the rotation
symbol transposes to minus the divergence of a packed antisymmetric
tensor), while the stress derivative is self-adjoint and is reused as it
stands.  Neither form is projected: the three step kernels share one
implicit solve, ``control_to_state``, S = P D^-1 (the Leray projection
after the division by the implicit denominator), which is self-adjoint
because both act mode by mode.

The tangent recursion runs inside the forward loop: given a direction,
``forward.simulate_ensemble`` advances z_n next to y_n on the same live
samples, and ``tangent_step`` and ``forward.step`` read one set of y_n's
collocation pieces.  Its backward counterpart is ``adjoint.costate_sweep``.
"""

from __future__ import annotations

import numpy as np

from . import forward as fw
from . import noise as nz
from . import spectral as sp


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


def drift_terms_T(y, w):
    """Transpose in z of ``spectral.drift_terms(y, z)``, applied to w; y, w
    Collocation pieces.  Not projected, like the forms it transposes."""
    return sp.stress_terms(y, w) + _convective_T(y, w)


# ---------------------------------------------------------------------------
# tangent recursion


def control_to_state(p, cfg: fw.SimConfig):
    """S p = P D^-1 p, the implicit solve and the projection that end every
    step.  P and D^-1 act mode by mode, so S is self-adjoint: it also pulls a
    costate back onto a control, S^T p = S p."""
    return sp.leray_project(cfg.grid, p / cfg.implicit_denominator)


def tangent_step(y, z, psi_n, dW_n, t, cfg: fw.SimConfig, yc=None):
    """Jacobian of the forward step at base state y, applied to z (+ psi);
    ``yc`` as in ``forward.step``."""
    g = cfg.grid
    ex = sp.drift_terms(yc or sp.Collocation(g, y, cfg.params), sp.Collocation(g, z, cfg.params))
    if psi_n is not None:
        ex = ex + psi_n
    rhs = sp.v_apply(g, z, cfg.params) + cfg.dt * ex
    if cfg.model.K > 0:
        rhs = rhs + nz.grad_noise_increment(g, t, y, z, dW_n, cfg.model)
    return control_to_state(rhs, cfg)


def transpose_step(y, p, dW_n, t, cfg: fw.SimConfig):
    """F_n^T p for the tangent propagator F_n at base state y."""
    g = cfg.grid
    q = control_to_state(p, cfg)
    out = sp.v_apply(g, q, cfg.params) + cfg.dt * drift_terms_T(
        sp.Collocation(g, y, cfg.params), sp.Collocation(g, q, cfg.params))
    if cfg.model.K > 0:
        out = out + nz.grad_noise_increment(g, t, y, q, dW_n, cfg.model)
    return sp.leray_project(g, out)


def gateaux_check(y0, U, psi, cfg: fw.SimConfig, rhos, n_samples: int):
    """Finite-difference convergence of the tangent representation.

    For each rho compares (y(U + rho psi) - y(U)) / rho with z in the
    sup-over-time V norm, averaged over samples, and fits the log-log
    slope (2 is exact first-order consistency of the Jacobian, anything
    well above 1 witnesses the quadratic remainder).  ``aborted`` counts the
    aborted samples over the base and the perturbed runs.
    """
    g = cfg.grid
    psi = np.asarray(psi)
    dW = cfg.noise_bank(n_samples)
    perts = []
    for rho in rhos:
        Up = psi * rho if U is None else np.asarray(U) + rho * psi
        perts.append(fw.simulate_ensemble(y0, Up, dW, cfg))
    wv = sp.v_symbol(g, cfg.params)
    worst = np.zeros((len(rhos), n_samples))
    upto = np.ones(n_samples, dtype=bool)  # base stop >= n: live at step n - 1

    def compare(n, live, y, z):
        for i, (rho, pert) in enumerate(zip(rhos, perts)):
            diff = (np.asarray(pert.fields[:, n], dtype=complex) - y) / rho - z
            v2 = sp.sobolev_inner(g, diff, diff, wv)
            both = upto & (pert.stop >= n)
            worst[i] = np.where(both, np.maximum(worst[i], v2), worst[i])
        upto[:] = live

    base = fw.simulate_ensemble(y0, U, dW, cfg, store_fields=False, psi=psi, read=compare,
                                read_to=cfg.steps)
    aborted = sum(np.count_nonzero(r.aborted) for r in (base, *perts))
    errs = [float(np.mean(w)) for w in worst]
    lr = np.log(np.asarray(rhos, dtype=float))
    le = np.log(np.maximum(np.asarray(errs), 1e-300))
    slope = float(np.polyfit(lr, le, 1)[0])
    return {"rhos": list(map(float, rhos)), "errors": errs, "slope": slope, "aborted": int(aborted)}
