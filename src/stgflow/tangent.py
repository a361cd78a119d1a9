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
because both act mode by mode.  The stress forms pack the deformation
traceless and leave out gradients on divergence-free fields, the whole
(alpha1 + alpha2) term in 2D (``spectral.stress_terms``); the drift, its
Jacobian and its transpose all read the one ``stress_terms``, so the tangent
stays the literal Jacobian of the step and the transpose its literal
transpose.  The fields they read are divergence-free:
``forward.simulate_ensemble`` checks y_0, every later y_n and z_n comes out
of a projection, and ``transpose_step`` feeds the forms q = S p.

The tangent recursion runs inside the forward loop: given a direction,
``forward.simulate_ensemble`` advances z_n next to y_n on the same live
samples, and ``tangent_step`` and ``forward.step`` read one set of y_n's
collocation pieces.  Its backward counterpart is ``adjoint.costate_sweep``;
``forward.gateaux_check`` checks it against finite differences.
"""

from __future__ import annotations

from . import noise as nz
from . import spectral as sp


def drift_terms_T(y, w):
    """Transpose in z of ``spectral.drift_terms(y, z)``, applied to w; y, w
    Collocation pieces.  Not projected, like the forms it transposes."""
    g, m = y.grid, y.grid.mask2
    out = sp.stress_terms(y, w)  # first, as in ``spectral.drift_terms``
    wu = w.u
    # B(y, z) = -rotate(W(v(z)), y) pairs with w through the wedge of w and y;
    # the rotation symbol's transpose is minus the divergence of a packed tensor
    through_v = sp.div_asym_spec(g, sp.wedge(g, wu, y.u), m)
    # B(z, y) = -rotate(y.W, z): y.W is antisymmetric, so -rotate transposes to rotate
    direct = sp.to_spec(g, sp.rotate(g, y.W, wu), m)
    return out + (sp.v_apply(g, through_v, y.params) + direct)


# ---------------------------------------------------------------------------
# tangent recursion


def control_to_state(p, cfg):
    """S p = P D^-1 p, the implicit solve and the projection that end every
    step.  P and D^-1 act mode by mode, so S is self-adjoint: it also pulls a
    costate back onto a control, S^T p = S p."""
    return sp.leray_project(cfg.grid, p / cfg.implicit_denominator)


def tangent_step(yc, z, psi_n, dW_n, t, cfg):
    """Jacobian of the forward step at base state y = ``yc.field``, applied to z,
    plus the control injection of psi_n."""
    g = cfg.grid
    ex = sp.drift_terms(yc, sp.Collocation(g, z, cfg.params))
    rhs = sp.v_apply(g, z, cfg.params) + cfg.dt * (ex + psi_n)
    if cfg.model.K > 0:
        rhs = rhs + nz.grad_noise_increment(t, yc, z, dW_n, cfg.model)
    return control_to_state(rhs, cfg)


def transpose_step(yc, p, dW_n, t, cfg):
    """F_n^T p for the tangent propagator F_n at base state y = ``yc.field``."""
    g = cfg.grid
    q = control_to_state(p, cfg)
    out = sp.v_apply(g, q, cfg.params) + cfg.dt * drift_terms_T(
        yc, sp.Collocation(g, q, cfg.params))
    if cfg.model.K > 0:
        out = out + nz.grad_noise_increment(t, yc, q, dW_n, cfg.model)
    return sp.leray_project(g, out)

