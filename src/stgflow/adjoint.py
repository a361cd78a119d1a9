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
regression stays in feature space: the Leray projection acts on the mode
axes and the regression basis holds per-sample scalars, so the pair is
carried as a few projected coefficient fields on a basis of the state
features, and no per-sample fitted field is formed.  The rhs of each
duality check accumulates in the forward loop, which advances the tangent
z_n beside y_n (``forward.simulate_ensemble`` given a direction).
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


def _lhs_term(psi_n, p, cfg: SimConfig):
    """dt (psi_n, S^T p) for each field of the batch p: one step of the lhs."""
    return cfg.dt * sp.l2_inner(cfg.grid, psi_n, control_to_state(p, cfg))


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
        lhs += np.where(live, _lhs_term(psi[n], p, cfg), 0.0)
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

    The fit stays in feature space.  Q (S, r) is an orthonormal basis of
    the design's columns (the left singular vectors pinv keeps; the raw
    design spans 13 decades of singular values on simulated ensembles, so
    X (X^+ T) would carry rounding of about 1e-7).  The fit of T is Q beta,
    beta = Q^T T, and P(Q beta) = Q (P beta) since the Leray projection P
    acts on the mode axes: only r (K+1) coefficient fields are projected.

    Yields (n, live, Q, B, q_norms) for n = steps-1 ... 0: p_hat_{n+1}, the
    raw p_{n+1} conditioned on the features of y_{n+1}, is Q @ B, with Q
    the basis for y_{n+1} (exact zero rows on the samples stopped at or
    before n+1) and B = P beta; q_norms (S, K) are the per-channel L2 norms
    of q_hat_n, the targets conditioned on the features of y_n.  Each basis
    is made once and serves both steps that read it.
    """
    g = cfg.grid

    def basis(n):
        live = stop > n
        X = _features(g, np.asarray(fields[:, n], dtype=complex), live.astype(float))
        u, s, _ = np.linalg.svd(X, full_matrices=False)
        # pinv's rank cutoff; the rows that are zero in X are made exactly zero
        return u[:, s > 1e-15 * s[0]] * live[:, None]

    Q_after = basis(cfg.steps)
    for n, live, p in costate_sweep(fields, stop, y_d, dW, cfg):
        Q = basis(n)
        B, q_norms = _regress(Q_after, Q, p, dW[:, n] / cfg.dt, cfg)
        yield n, live, Q_after, B, q_norms
        Q_after = Q


def _regress(Q_after, Q, p, w, cfg: SimConfig):
    """The projected coefficients B of p's fit on Q_after, and the L2 norms
    (S, K) of the fits of p w[:, k] on Q; temporaries die on return."""
    g = cfg.grid
    (S, r), ra, K = Q.shape, Q_after.shape[1], w.shape[1]
    shape, nc = (g.dim,) + g.spec_shape, g.dim * g.nspec
    # rows: Q_after^T for p, then w[:, k] Q^T for the K targets; one real
    # matmul on the real view of p fits all K+1 of them
    lsq = np.empty((ra + K * r, S))
    lsq[:ra] = Q_after.T
    np.multiply(Q.T, w.T[:, None, :], out=lsq[ra:].reshape(K, r, S))
    coef = (lsq @ p.reshape(S, nc).view(float)).view(complex)
    B = sp.leray_project(g, coef.reshape((-1,) + shape))
    # ||Q_s B_k||^2 = Q_s G_k Q_s^T with the Gram matrix G_k = R_k^T R_k of
    # B_k in l2_inner's weights; via R_k no difference of squares is taken
    root_w = np.sqrt(np.repeat(np.broadcast_to(g.vol * g.herm_weight, shape).ravel(), 2))
    R = np.linalg.qr(B[ra:].reshape(K, r, nc).view(float).swapaxes(1, 2) * root_w[:, None],
                     mode="r")
    return B[:ra].copy(), np.linalg.norm(Q @ R.swapaxes(1, 2), axis=-1).T


def _row_bound(Q, B):
    """max over the rows s of Q of sum_f |Q_sf| max |B_f|, a bound on the
    entries of the fields Q_s B that is exactly 0 on zero rows."""
    sup = np.abs(B).max(axis=tuple(range(1, B.ndim)), initial=0.0)
    return float(np.max(np.abs(Q) @ sup, initial=0.0))


def adapted_duality_check(y0, U, psi, y_d, cfg: SimConfig, n_samples: int):
    """Expectation-level duality for the adapted pair, with MC error bars.

    The lhs term of a sample is Q_s [dt (psi_n, S B_f)]_f.  The post-exit
    maximum runs over p_hat_{n+1} and q_hat_n at and after each stopped
    sample's exit; p_hat_0, which no pairing reads, is not formed.  The
    terminal maximum is that of p_hat_N over all samples.  Both bound p_hat
    by the basis rows (``_row_bound``), exact zeros on stopped samples.
    The fields are stored as complex64 for the backward sweep; the rhs (its
    tangent and g_n) reads the forward loop's unrounded complex128 y_n.
    """
    dW = cfg.noise_bank(n_samples)
    base, rhs = _simulate_with_rhs(y0, U, psi, y_d, dW, cfg, store_dtype=np.complex64)
    psi = np.asarray(psi)
    stop = base.stop
    lhs = np.zeros(n_samples)
    tail = terminal = 0.0
    for n, live, Q, B, q_norms in adapted_pair(base.fields, stop, y_d, dW, cfg):
        lhs += Q @ _lhs_term(psi[n], B, cfg)
        if n == cfg.steps - 1:
            terminal = _row_bound(Q, B)
        exited = (stop <= n + 1) & (stop < cfg.steps)
        tail = max(tail, _row_bound(Q[exited], B),
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
