"""Backward costate sweep: pathwise transpose and adapted regression.

The tangent recursion reads z_{n+1} = F_n z_n + dt S_n psi_n with F_n
the step Jacobian and S_n the (projected, implicitly damped) control
injection.  The pathwise costate is its literal transpose,

    p_N = 0,   p_n = F_n^T p_{n+1} + dt g_n 1_{n < stop},

so the discrete duality

    sum_{n < stop} dt (psi_n, S_n^T p_{n+1}) = sum_{n < stop} dt (g_n, z_n)

holds sample by sample to rounding error.  ``costate_sweep`` is the one
backward recursion over a frozen ensemble: it yields p_{n+1} at step n,
for n = steps-1 ... 0, and makes the tracking residual g_n on the fly.
Every reader pairs p_{n+1} with step n, so p_0 is never formed.  The
yielded array is advanced in place when the sweep resumes: a reader
keeps what it needs from it before asking for the next step.

The pathwise p peeks at the future of the noise; ``adapted_pair``
additionally conditions it back onto the current state by least-squares
Monte Carlo, producing an adapted pair (p_hat, q_hat) that satisfies the
same duality in expectation up to regression and sampling error.  The
rhs of each duality check accumulates in the forward loop, which
advances the tangent z_n beside y_n (``forward.simulate_ensemble`` given
a direction).
"""

from __future__ import annotations

import numpy as np

from . import spectral as sp
from .forward import SimConfig, _on_live, simulate_ensemble
from .tangent import control_to_state, transpose_step


def tracking_residual(y_n, y_d, n, live, cfg: SimConfig):
    """g_n per sample: y_n - y_d(n) in the L2 pairing, or its v-image for
    the V-norm tracking cost (``cfg.tracking``); zero where ``live`` fails."""
    g = cfg.grid
    diff = cfg.tracking_weight * (np.asarray(y_n, dtype=complex) - _target_at(y_d, n, g))
    return np.where(live[(slice(None),) + (None,) * (g.dim + 1)], diff, 0.0)


def _target_at(y_d, n, grid):
    y_d = np.asarray(y_d)
    if y_d.ndim == grid.dim + 2:  # time-indexed target
        return y_d[n]
    return y_d


def _costate_kernel(n, cfg: SimConfig):
    """(y_n, p_{n+1}, dW_n, g_n) -> F_n^T p_{n+1} + dt g_n, batched over samples."""
    return lambda y, p, dw, gn: transpose_step(y, p, dw, n * cfg.dt, cfg) + cfg.dt * gn


def costate_sweep(fields, stop, y_d, dW, cfg: SimConfig):
    """Transpose recursion along a frozen base ensemble.

    Yields (n, live, p) for n = steps-1 ... 0, where live = stop > n and p
    holds p_{n+1} (p_N = 0), zero on the samples stopped at or before n+1.
    p is advanced to p_n in place when the sweep resumes; p_0 is not formed.
    """
    g = cfg.grid
    p = g.zeros((fields.shape[0],))
    for n in range(cfg.steps - 1, -1, -1):
        live = stop > n
        yield n, live, p
        if n > 0 and live.any():
            y_n = np.asarray(fields[:, n], dtype=complex)
            g_n = tracking_residual(y_n, y_d, n, live, cfg)
            rows, p_n = _on_live(live, _costate_kernel(n, cfg), y_n, p, dW[:, n], g_n)
            p[rows] = p_n
            del p_n  # freed before the reader resumes


def _lhs_term(psi_n, p, live, cfg: SimConfig):
    """Per-sample dt (psi_n, S^T p) on the live samples: one step of the lhs."""
    sp_n = control_to_state(p, cfg)
    psi_n = np.broadcast_to(psi_n, sp_n.shape)
    return np.where(live, cfg.dt * sp.l2_inner(cfg.grid, psi_n, sp_n), 0.0)


def _simulate_with_rhs(y0, U, psi, y_d, dW, cfg: SimConfig, **kw):
    """Forward ensemble with the tangent along psi beside it, and the
    per-sample rhs = sum_{n < stop} dt (g_n, z_n) of the duality identity
    accumulated in the same loop; z_N, which pairs with nothing, is not formed."""
    rhs = np.zeros(dW.shape[0])

    def read(n, live, y, z):
        g_n = tracking_residual(y, y_d, n, live, cfg)
        rhs[:] += np.where(live, cfg.dt * sp.l2_inner(cfg.grid, g_n, z), 0.0)

    return simulate_ensemble(y0, U, dW, cfg, psi=psi, read=read, **kw), rhs


def duality_check(y0, U, psi, y_d, cfg: SimConfig, n_samples: int):
    """End-to-end pathwise duality report on a fresh ensemble."""
    dW = cfg.noise_bank(n_samples)
    base, rhs = _simulate_with_rhs(y0, U, psi, y_d, dW, cfg)
    psi = np.asarray(psi)
    lhs = np.zeros(n_samples)
    for n, live, p in costate_sweep(base.fields, base.stop, y_d, dW, cfg):
        lhs += _lhs_term(psi[n], p, live, cfg)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    rel = np.abs(lhs - rhs) / scale
    return {
        "lhs": lhs,
        "rhs": rhs,
        "max_rel_gap": float(np.max(rel)),
        "stop": base.stop,
        "aborted": int(base.aborted.sum()),
    }


# ---------------------------------------------------------------------------
# adapted costate by least-squares Monte Carlo


def _features(grid, y, stop_mask):
    """Regression design matrix from F_n-measurable state summaries: the L2
    and H1 norms and the first velocity component at the first three of the
    probe modes e_1, ..., e_d, (1, ..., 1), then the squares of all of these."""
    cols = [np.ones(y.shape[0]), sp.l2_norm(grid, y), sp.h1_norm(grid, y)]
    probes = [tuple(int(i == j) for i in range(grid.dim)) for j in range(grid.dim)]
    for kv in (probes + [(1,) * grid.dim])[:3]:
        idx = (slice(None), 0) + kv
        cols += [y[idx].real, y[idx].imag]
    base = np.stack(cols, axis=1)
    return np.concatenate([base, base[:, 1:] ** 2], axis=1) * stop_mask[:, None]


def adapted_pair(fields, stop, y_d, dW, cfg: SimConfig):
    """Adapted costate pair by backward least-squares regression.

    Follows the realized-value scheme: the raw transpose recursion of
    ``costate_sweep`` is run backward, and at each step its value and the
    martingale targets p_{n+1} dW_{n,k} / dt are conditioned onto state
    features.  The least-squares residual is empirically orthogonal to the
    live-sample indicator (a design column), which keeps the conditioned
    pair unbiased inside expectation functionals.

    Yields (n, live, p_hat, q_norms) for n = steps-1 ... 0: p_hat is
    p_hat_{n+1}, the raw p_{n+1} conditioned on the features of y_{n+1},
    and q_norms (S, K) the per-channel L2 norms of q_hat_n, the targets
    conditioned on the features of y_n.  Each design matrix and its
    pseudo-inverse are made once and serve both steps that read them.
    """
    g = cfg.grid
    S, K = fields.shape[0], cfg.model.K
    nc = g.dim * g.nspec
    bsel = (slice(None),) + (None,) * (g.dim + 1)

    def design(n):
        live = stop > n
        X = _features(g, np.asarray(fields[:, n], dtype=complex), live.astype(float))
        return X, np.linalg.pinv(X), live

    def fit(X, Xp, live, target):
        fitted = (X @ (Xp @ target.reshape(S, nc))).reshape(target.shape)
        return sp.leray_project(g, np.where(live[bsel], fitted, 0.0))

    after = design(cfg.steps)
    for n, live, p in costate_sweep(fields, stop, y_d, dW, cfg):
        now = design(n)
        # martingale integrand q_{n,k} ~ E[p_{n+1} dW_{n,k}] / dt | state_n
        q_norms = np.zeros((S, K))
        for k in range(K):
            q_norms[:, k] = sp.l2_norm(g, fit(*now, p * (dW[:, n, k] / cfg.dt)[bsel]))
        yield n, live, fit(*after, p), q_norms
        after = now


def adapted_duality_check(y0, U, psi, y_d, cfg: SimConfig, n_samples: int):
    """Expectation-level duality for the adapted pair, with MC error bars.

    The post-exit maximum runs over p_hat_{n+1} and q_hat_n at and after
    each stopped sample's exit; p_hat_0, which no pairing reads, is not
    formed.  The terminal maximum is that of p_hat_N over all samples.
    The fields are stored as complex64 for the backward sweep; the rhs (its
    tangent and g_n) reads the forward loop's unrounded complex128 y_n.
    """
    dW = cfg.noise_bank(n_samples)
    base, rhs = _simulate_with_rhs(y0, U, psi, y_d, dW, cfg, store_dtype=np.complex64)
    psi = np.asarray(psi)
    stop = base.stop
    lhs = np.zeros(n_samples)
    tail = terminal = 0.0
    for n, live, p_hat, q_norms in adapted_pair(base.fields, stop, y_d, dW, cfg):
        lhs += _lhs_term(psi[n], p_hat, live, cfg)
        if n == cfg.steps - 1:
            terminal = float(np.max(np.abs(p_hat)))
        exited = (stop <= n + 1) & (stop < cfg.steps)
        tail = max(tail, float(np.max(np.abs(p_hat[exited]), initial=0.0)),
                   float(np.max(q_norms[stop <= n], initial=0.0)))
    S = n_samples
    diff = lhs - rhs
    mean = float(np.mean(diff))
    se = float(np.std(diff, ddof=1) / np.sqrt(S)) if S > 1 else 0.0
    return {
        "gap_mean": mean,
        "gap_se": se,
        "within_3se": abs(mean) <= 3.0 * se + 1e-12,
        "post_exit_max": tail,
        "terminal_max": terminal,
        "stop": stop,
        "aborted": int(base.aborted.sum()),
    }
