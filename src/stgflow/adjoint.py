"""Backward costate solvers: pathwise transpose and adapted regression.

The tangent recursion reads z_{n+1} = F_n z_n + dt S_n psi_n with F_n
the step Jacobian and S_n the (projected, implicitly damped) control
injection.  The pathwise costate is its literal transpose,

    p_N = 0,   p_n = F_n^T p_{n+1} + dt g_n 1_{n < stop},

so the discrete duality

    sum_{n < stop} dt (psi_n, S_n^T p_{n+1}) = sum_{n < stop} dt (g_n, z_n)

holds sample by sample to rounding error.  The pathwise p peeks at the
future of the noise; ``adapted_bsde`` additionally conditions it back
onto the current state by least-squares Monte Carlo, producing an
adapted pair (p_hat, q_hat) that satisfies the same duality in
expectation up to regression and sampling error.
"""

from __future__ import annotations

import numpy as np

from . import spectral as sp
from .forward import SimConfig
from .tangent import control_to_state, transpose_step


def tracking_weight(grid, params, variant: str):
    """Fourier multiplier of the tracking pairing: 1 for the L2 cost ("l2"),
    the v-map 1 + alpha1 |k|^2 for the V-norm cost ("v")."""
    if variant == "l2":
        return 1.0
    if variant == "v":
        return 1.0 + params.alpha1 * grid.k2
    raise ValueError(f"unknown tracking variant {variant!r}")


def tracking_residual(fields, y_d, stop, cfg: SimConfig, variant: str = "l2", dtype=complex):
    """g_n per sample: y_n - y_d(n) in the L2 pairing, or its v-image for
    the V-norm tracking cost; zero from the exit index on."""
    g = cfg.grid
    weight = tracking_weight(g, cfg.params, variant)
    S, NT = fields.shape[0], cfg.steps
    out = np.zeros((S, NT) + (g.dim,) + g.shape, dtype=dtype)
    for n in range(NT):
        diff = weight * (np.asarray(fields[:, n], dtype=complex) - _target_at(y_d, n, g))
        out[:, n] = np.where((stop > n)[(slice(None),) + (None,) * (g.dim + 1)], diff, 0.0)
    return out


def _target_at(y_d, n, grid):
    y_d = np.asarray(y_d)
    if y_d.ndim == grid.dim + 2:  # time-indexed target
        return y_d[n]
    return y_d


def pathwise_adjoint(fields, stop, g_fields, dW, cfg: SimConfig):
    """Transpose recursion along a frozen base ensemble.

    Returns (p_traj, p0) with p_traj[:, n] = p_n (p_N = 0).  ``g_fields``
    must already carry the stopping indicator.
    """
    g = cfg.grid
    S = fields.shape[0]
    p = np.zeros((S, g.dim) + g.shape, dtype=complex)
    traj = np.zeros((S, cfg.steps + 1, g.dim) + g.shape, dtype=complex)
    bsel = (slice(None),) + (None,) * (g.dim + 1)
    for n in range(cfg.steps - 1, -1, -1):
        active = stop > n
        yn = np.asarray(fields[:, n], dtype=complex)
        p_prev = transpose_step(yn, p, dW[:, n], n * cfg.dt, cfg) + cfg.dt * g_fields[:, n]
        p = np.where(active[bsel], p_prev, p)
        traj[:, n] = p
    return traj, p


def duality_gap(psi, p_traj, z_traj, g_fields, stop, cfg: SimConfig):
    """Per-sample gap of the discrete duality identity."""
    g = cfg.grid
    S = p_traj.shape[0]
    lhs = np.zeros(S)
    rhs = np.zeros(S)
    psi = np.asarray(psi)
    for n in range(cfg.steps):
        live = stop > n
        sp_n = control_to_state(p_traj[:, n + 1], cfg)
        lhs += np.where(live, cfg.dt * sp.l2_inner(g, np.broadcast_to(psi[n], sp_n.shape), sp_n), 0.0)
        rhs += np.where(live, cfg.dt * sp.l2_inner(g, g_fields[:, n], z_traj[:, n]), 0.0)
    return lhs, rhs


def duality_check(y0, U, psi, y_d, cfg: SimConfig, n_samples: int, variant="l2"):
    """End-to-end pathwise duality report on a fresh ensemble."""
    from . import noise as nz
    from .forward import simulate_ensemble
    from .tangent import simulate_tangent

    dW = nz.sample_paths(cfg.seed, n_samples, cfg.dt, cfg.steps, cfg.model.K)
    base = simulate_ensemble(y0, U, dW, cfg)
    gf = tracking_residual(base.fields, y_d, base.stop, cfg, variant)
    z_traj, _ = simulate_tangent(base.fields, base.stop, psi, dW, cfg)
    p_traj, _ = pathwise_adjoint(base.fields, base.stop, gf, dW, cfg)
    lhs, rhs = duality_gap(psi, p_traj, z_traj, gf, base.stop, cfg)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    rel = np.abs(lhs - rhs) / scale
    return {
        "lhs": lhs,
        "rhs": rhs,
        "max_rel_gap": float(np.max(rel)),
        "stop": base.stop,
    }


def adjoint_weak_residual(fields, stop, g_fields, p_traj, dW, cfg: SimConfig):
    """Backward one-step defect of a stored costate, normalized."""
    g = cfg.grid
    worst = 0.0
    pmax = max(float(np.max(np.abs(p_traj))), 1e-30)
    for n in range(cfg.steps):
        yn = np.asarray(fields[:, n], dtype=complex)
        pred = transpose_step(yn, p_traj[:, n + 1], dW[:, n], n * cfg.dt, cfg) + cfg.dt * g_fields[:, n]
        live = stop > n
        pred = np.where(live[(slice(None),) + (None,) * (g.dim + 1)], pred, p_traj[:, n + 1])
        worst = max(worst, float(np.max(np.abs(p_traj[:, n] - pred))) / pmax)
    return worst


# ---------------------------------------------------------------------------
# adapted costate by least-squares Monte Carlo


def _features(grid, y, stop_mask, degree=2, n_modes=3):
    """Regression design matrix from F_n-measurable state summaries."""
    cols = [np.ones(y.shape[0])]
    l2 = sp.l2_norm(grid, y)
    h1 = sp.h1_norm(grid, y)
    cols += [l2, h1]
    ks = [(1, 0), (0, 1), (1, 1)] if grid.dim == 2 else [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for kv in ks[:n_modes]:
        idx = (slice(None), 0) + tuple(k % grid.N for k in kv)
        cols += [y[idx].real, y[idx].imag]
    base = np.stack(cols, axis=1)
    if degree >= 2:
        base = np.concatenate([base, base[:, 1:] ** 2], axis=1)
    return base * stop_mask[:, None]


def adapted_bsde(fields, stop, g_fields, dW, cfg: SimConfig, degree=2, store_q=False):
    """Adapted costate pair by backward least-squares regression.

    Follows the realized-value scheme: the raw transpose recursion is
    propagated backward, and at each step its value and the martingale
    targets p_{n+1} dW_{n,k} / dt are conditioned onto state features at
    time n.  The least-squares residual is empirically orthogonal to the
    live-sample indicator (a design column), which keeps the conditioned
    pair unbiased inside expectation functionals.

    Returns a dict with p_hat (S, steps+1, dim, *spatial, complex64),
    per-channel L2 norms q_norms (S, steps, K), and the full q_hat array
    only when store_q is set (it is K times the size of p_hat).
    """
    g = cfg.grid
    S = fields.shape[0]
    K = cfg.model.K
    nc = g.dim * g.npts
    p_hat = np.zeros((S, cfg.steps + 1, g.dim) + g.shape, dtype=np.complex64)
    q_norms = np.zeros((S, cfg.steps, K))
    q_hat = (
        np.zeros((S, cfg.steps, K, g.dim) + g.shape, dtype=np.complex64)
        if store_q
        else None
    )
    p_next = np.zeros((S, g.dim) + g.shape, dtype=complex)
    bsel = (slice(None),) + (None,) * (g.dim + 1)
    for n in range(cfg.steps - 1, -1, -1):
        yn = np.asarray(fields[:, n], dtype=complex)
        live = stop > n
        X = _features(g, yn, live.astype(float), degree)
        Xp = np.linalg.pinv(X)
        # martingale integrand q_{n,k} ~ E[p_{n+1} dW_{n,k}] / dt | state_n;
        # p_next still holds the raw p_{n+1} here
        if K > 0:
            for k in range(K):
                tgt = np.where(live[bsel], p_next, 0.0) * (dW[:, n, k] / cfg.dt)[bsel]
                qk = (X @ (Xp @ tgt.reshape(S, nc))).reshape(p_next.shape)
                qk = sp.leray_project(g, np.where(live[bsel], qk, 0.0))
                q_norms[:, n, k] = sp.l2_norm(g, qk)
                if store_q:
                    q_hat[:, n, k] = qk
        target = transpose_step(yn, p_next, dW[:, n], n * cfg.dt, cfg) + cfg.dt * g_fields[:, n]
        target = np.where(live[bsel], target, 0.0)
        p_n = (X @ (Xp @ target.reshape(S, nc))).reshape(target.shape)
        p_hat[:, n] = sp.leray_project(g, np.where(live[bsel], p_n, 0.0))
        p_next = target  # propagate the realized value backward
    return {"p_hat": p_hat, "q_norms": q_norms, "q_hat": q_hat}


def adapted_duality_check(y0, U, psi, y_d, cfg: SimConfig, n_samples: int, variant="l2", degree=2):
    """Expectation-level duality for the adapted pair, with MC error bars."""
    from . import noise as nz
    from .forward import simulate_ensemble
    from .tangent import tangent_step

    dW = nz.sample_paths(cfg.seed, n_samples, cfg.dt, cfg.steps, cfg.model.K)
    base = simulate_ensemble(y0, U, dW, cfg, store_dtype=np.complex64)
    gf = tracking_residual(base.fields, y_d, base.stop, cfg, variant, dtype=np.complex64)
    sol = adapted_bsde(base.fields, base.stop, gf, dW, cfg, degree)
    p_hat, q_norms = sol["p_hat"], sol["q_norms"]

    g = cfg.grid
    S = n_samples
    lhs = np.zeros(S)
    rhs = np.zeros(S)
    psi = np.asarray(psi)
    # tangent state advanced in place; only the running pairings are kept
    z = np.zeros((S, g.dim) + g.shape, dtype=complex)
    bsel = (slice(None),) + (None,) * (g.dim + 1)
    for n in range(cfg.steps):
        live = base.stop > n
        spn = control_to_state(np.asarray(p_hat[:, n + 1], dtype=complex), cfg)
        lhs += np.where(live, cfg.dt * sp.l2_inner(g, np.broadcast_to(psi[n], spn.shape), spn), 0.0)
        rhs += np.where(live, cfg.dt * sp.l2_inner(g, gf[:, n], z), 0.0)
        if live.any():
            yn = np.asarray(base.fields[:, n], dtype=complex)
            z_next = tangent_step(yn, z, psi[n], dW[:, n], n * cfg.dt, cfg)
            z = np.where(live[bsel], z_next, z)
    diff = lhs - rhs
    mean = float(np.mean(diff))
    se = float(np.std(diff, ddof=1) / np.sqrt(S)) if S > 1 else 0.0
    # post-exit and terminal flatness of the adapted pair
    tail = 0.0
    for s in range(S):
        st = base.stop[s]
        if st < cfg.steps:
            tail = max(tail, float(np.max(np.abs(p_hat[s, st:]))))
            tail = max(tail, float(np.max(q_norms[s, st:])) if st < cfg.steps else 0.0)
    terminal = float(np.max(np.abs(p_hat[:, cfg.steps])))
    return {
        "gap_mean": mean,
        "gap_se": se,
        "within_3se": abs(mean) <= 3.0 * se + 1e-12,
        "post_exit_max": tail,
        "terminal_max": terminal,
        "stop": base.stop,
    }
