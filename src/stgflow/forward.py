"""Semi-implicit Euler-Maruyama solver with first-exit stopping.

One step of the scheme solves, mode by mode,

    (1 + alpha1 |k|^2 + dt nu |k|^2) y^+ = (1 + alpha1 |k|^2) y
        + dt (N(y) + U) + G(t, y) dW,

i.e. the viscous part of the drift is implicit through the v-map while
the quadratic/cubic terms, the control and the noise stay explicit, and
projects the solution once: y^+ = S(...), S = P D^-1 the Leray projection
after the division by the implicit denominator (``tangent.control_to_state``).

Each sample is stopped the first time its collocation W^{2,4} norm
reaches the threshold M; the state is frozen from the crossing index on,
matching the stopped process the cost functional integrates.  A sample
whose norm overshoots ``blowup_factor * M`` (or goes non-finite) is
marked aborted and frozen at its last finite state.  Stopped samples are
not stepped: both ensemble loops (forward, costate) run their kernels on
the live samples only, through ``_on_live``, and leave the frozen ones
untouched.  Given a direction psi, the forward loop also advances the
tangent z_n beside y_n, ``step`` and ``tangent.tangent_step`` reading one
set of y_n's collocation pieces (``fused_step``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import noise as nz
from . import spectral as sp
from . import tangent as tg


@dataclass(frozen=True)
class SimConfig:
    dim: int
    n_max: int
    dt: float
    steps: int
    params: sp.PhysicalParams
    model: nz.NoiseModel
    M: float = 10.0
    p_exp: float = 8.0
    seed: int = 0
    blowup_factor: float = 10.0
    tracking: str = "l2"

    def __post_init__(self):
        if self.dt <= 0 or self.steps < 1:
            raise ValueError("need dt > 0 and steps >= 1")
        if self.p_exp <= 2 * (self.dim + 1):
            raise ValueError(
                f"p_exp must exceed 2*(dim+1) = {2 * (self.dim + 1)}, got {self.p_exp}"
            )
        if self.M <= 0:
            raise ValueError("stopping threshold M must be positive")
        if self.tracking not in ("l2", "v"):
            raise ValueError(f"tracking must be 'l2' or 'v', got {self.tracking!r}")

    @property
    def T(self):
        return self.dt * self.steps

    @cached_property
    def grid(self) -> sp.WaveGrid:
        return sp.WaveGrid(self.dim, self.n_max)

    @cached_property
    def implicit_denominator(self):
        return sp.v_symbol(self.grid, self.params) + self.dt * self.params.nu * self.grid.k2

    @cached_property
    def tracking_weight(self):
        """Fourier multiplier of the tracking pairing: 1 for the L2 cost ("l2"),
        the v-map 1 + alpha1 |k|^2 for the V-norm cost ("v")."""
        return 1.0 if self.tracking == "l2" else sp.v_symbol(self.grid, self.params)

    def noise_bank(self, n_samples: int):
        """The frozen increments dW (n_samples, steps, K) of this run's seed."""
        return nz.sample_paths(self.seed, n_samples, self.dt, self.steps, self.model.K)


@dataclass
class EnsembleResult:
    fields: np.ndarray | None  # (S, steps+1, dim, *spec_shape) or None
    stop: np.ndarray  # (S,) int, stop index in [0, steps]
    w24: np.ndarray  # (S, steps+1)
    aborted: np.ndarray  # (S,) bool

    @property
    def n_samples(self):
        return self.stop.shape[0]


def step(y, u_n, dW_n, t, cfg: SimConfig, yc=None):
    """One scheme step, batched over any leading sample axes of ``y``;
    ``yc``, the collocation pieces of y, is made here when not given."""
    g = cfg.grid
    ex = sp.drift_terms(yc or sp.Collocation(g, y, cfg.params))
    if u_n is not None:
        ex = ex + u_n
    rhs = sp.v_apply(g, y, cfg.params) + cfg.dt * ex
    if cfg.model.K > 0:
        rhs = rhs + nz.noise_increment(g, t, y, dW_n, cfg.model)
    return tg.control_to_state(rhs, cfg)


def fused_step(y, z, u_n, psi_n, dW_n, t, cfg: SimConfig):
    """``step`` and ``tangent.tangent_step`` at y, reading one set of y's collocation
    pieces.  The tangent goes first and makes them as it reads them: fewer are held at its peak."""
    yc = sp.CachedCollocation(cfg.grid, y, cfg.params)
    z_next = tg.tangent_step(y, z, psi_n, dW_n, t, cfg, yc)
    return step(y, u_n, dW_n, t, cfg, yc), z_next


def _on_live(live, kernel, *per_sample):
    """Run ``kernel`` on the live rows of the ``per_sample`` arrays (sample axis
    first); returns those rows (a full slice, no gather, when all are live) and
    the result.  The batched kernels act on each sample alone, so a live
    sample's result does not depend on which others are live."""
    rows = slice(None) if live.all() else np.flatnonzero(live)
    return rows, kernel(*(a[rows] for a in per_sample))


def _per_step(name, a, cfg: SimConfig):
    """``a`` as an array of one field per step; any other shape raises."""
    want = (cfg.steps, cfg.dim) + cfg.grid.spec_shape
    if np.shape(a) != want:
        raise ValueError(f"{name} must be (steps, dim, *spec_shape) = {want}, got {np.shape(a)}")
    return np.asarray(a)


def simulate_ensemble(y0, U, dW, cfg: SimConfig, store_fields: bool = True,
                      store_dtype=np.complex128, psi=None, read=None, read_to=None):
    """Run S coupled samples; dW has shape (S, steps, K).

    ``y0`` is a single field or a batch (S, dim, *spec_shape); ``U`` is a
    deterministic control array (steps, dim, *spec_shape) or None.

    Given a direction ``psi`` of that shape too, the tangent z_n along it
    (z_0 = 0) advances next to y_n through ``fused_step`` and is rolled back
    with y on an aborted sample, and ``read(n, live, y_n, z_n)`` is called
    for n = 0 ... ``read_to`` (default steps - 1) once step n is settled,
    live = stop > n; z_{n+1} is formed for n < read_to only.  ``read`` gets
    the loop's own arrays and copies what it keeps.
    """
    g = cfg.grid
    dW = np.asarray(dW)
    U = None if U is None else _per_step("U", U, cfg)
    S = dW.shape[0]
    y = np.broadcast_to(np.asarray(y0, dtype=complex), (S, g.dim) + g.spec_shape).copy()
    state = (y,)  # what the loop advances: y, and z given a direction
    if psi is not None:
        psi, state = _per_step("psi", psi, cfg), (y, g.zeros((S,)))
        read_to = cfg.steps - 1 if read_to is None else read_to

    stop = np.full(S, cfg.steps, dtype=int)
    aborted = np.zeros(S, dtype=bool)
    w24 = np.empty((S, cfg.steps + 1))
    w24[:, 0] = sp.w24_norm(g, y)
    stop[w24[:, 0] >= cfg.M] = 0

    fields = None
    if store_fields:
        fields = np.empty((S, cfg.steps + 1, g.dim) + g.spec_shape, dtype=store_dtype)
        fields[:, 0] = y

    def advance(n, y, dW_n, *z):
        t, u_n = n * cfg.dt, None if U is None else U[n]
        new = fused_step(y, *z, u_n, psi[n], dW_n, t, cfg) if z else (step(y, u_n, dW_n, t, cfg),)
        w_next = sp.w24_norm(g, new[0])
        bad = ~np.isfinite(w_next) | (w_next > cfg.blowup_factor * cfg.M)
        if bad.any():  # an aborted sample keeps its last finite state
            for a_next, a in zip(new, (y,) + z):
                a_next[bad] = a[bad]
        return new, w_next, bad

    for n in range(cfg.steps):
        live, new = stop > n, ()
        w24[:, n + 1] = w24[:, n]
        if live.any():
            z = state[1:] if psi is not None and n < read_to else ()
            rows, (new, w_next, bad) = _on_live(live, lambda *a: advance(n, *a), y, dW[:, n], *z)
            idx = np.flatnonzero(live)
            aborted[idx[bad]] = True
            stop[idx[bad]] = n
            ok, w_ok = idx[~bad], w_next[~bad]
            w24[ok, n + 1] = w_ok
            stop[ok[w_ok >= cfg.M]] = n + 1
        if psi is not None and n <= read_to:
            read(n, stop > n, *state)
        for i in range(len(new)):  # a loop variable would keep new[-1] alive into step n + 1
            state[i][rows] = new[i]
        if store_fields:
            fields[:, n + 1] = y
    if psi is not None and read_to == cfg.steps:
        read(cfg.steps, stop > cfg.steps, *state)

    return EnsembleResult(fields=fields, stop=stop, w24=w24, aborted=aborted)


# ---------------------------------------------------------------------------
# energy functionals and probes


def _ci(x):
    x = np.asarray(x, dtype=float)
    m = float(np.mean(x))
    se = float(np.std(x, ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
    return {"mean": m, "ci95": 1.96 * se}


def energy_stats(res: EnsembleResult, cfg: SimConfig):
    """Monte Carlo estimates of the a priori energy functionals.

    sup norms run over n <= stop, time integrals over n < stop (the
    stopped trajectory contributes nothing after its exit).
    """
    if res.fields is None:
        raise ValueError("energy_stats needs store_fields=True")
    g = cfg.grid
    S = res.n_samples
    wv = sp.v_symbol(g, cfg.params)
    sup_v2 = np.zeros(S)
    int_grad2 = np.zeros(S)
    int_a4 = np.zeros(S)
    sup_wt_p = np.zeros(S)
    for n in range(cfg.steps + 1):
        yn = np.asarray(res.fields[:, n], dtype=complex)
        upto = res.stop >= n
        v2 = sp.sobolev_inner(g, yn, yn, wv)
        wt2 = v2 + sp.sobolev_inner(g, yn, yn, g.k2 * wv**2)
        sup_v2 = np.where(upto, np.maximum(sup_v2, v2), sup_v2)
        sup_wt_p = np.where(upto, np.maximum(sup_wt_p, wt2 ** (cfg.p_exp / 2)), sup_wt_p)
        if n < cfg.steps:
            live = res.stop > n
            # 2 ||D y||^2 = ||grad y||^2 for solenoidal fields
            grad2 = 0.5 * sp.sobolev_inner(g, yn, yn, g.k2)
            A = sp.deformation_packed(g, yn * g.mask3)
            a4 = sp.quad_integral(g, np.sum(g.sym_weight * A**2, axis=-g.dim - 1) ** 2)
            int_grad2 += np.where(live, cfg.dt * grad2, 0.0)
            int_a4 += np.where(live, cfg.dt * a4, 0.0)
    counts = np.bincount(res.stop, minlength=cfg.steps + 1)
    return {
        "sup_v_sq": _ci(sup_v2),
        "int_sym_grad_sq": _ci(int_grad2),
        "int_deformation_4": _ci(int_a4),
        "sup_wtilde_p": _ci(sup_wt_p),
        "stop_histogram": counts.tolist(),
        "aborted": int(np.sum(res.aborted)),
    }


def stability_probe(y0, U1, U2, cfg: SimConfig, n_samples: int, p: float = 2.0, eps: float = 0.5):
    """Ratio of state separation to control separation under common noise.

    Returns E sup ||y1 - y2||_V^p over [0, tau1 ^ tau2] divided by
    E int_0^{tau1 ^ tau2} ||U1 - U2||_{L2}^p dt, plus the same ratio in
    the W norm with exponent 2 + eps, and the samples aborted in either run.
    """
    g = cfg.grid
    dW = cfg.noise_bank(n_samples)
    r1 = simulate_ensemble(y0, U1, dW, cfg)
    r2 = simulate_ensemble(y0, U2, dW, cfg)
    taumin = np.minimum(r1.stop, r2.stop)
    wv = sp.v_symbol(g, cfg.params)
    dU = np.asarray(U1) - np.asarray(U2)
    du2 = sp.l2_inner(g, dU, dU)  # (steps,)

    sup_v = np.zeros(n_samples)
    sup_w = np.zeros(n_samples)
    den_v = np.zeros(n_samples)
    den_w = np.zeros(n_samples)
    for n in range(cfg.steps + 1):
        d = np.asarray(r1.fields[:, n] - r2.fields[:, n], dtype=complex)
        v2 = sp.sobolev_inner(g, d, d, wv)
        w2 = v2 + sp.sobolev_inner(g, d, d, wv**2)
        upto = taumin >= n
        sup_v = np.where(upto, np.maximum(sup_v, v2 ** (p / 2)), sup_v)
        sup_w = np.where(upto, np.maximum(sup_w, w2 ** ((2 + eps) / 2)), sup_w)
        if n < cfg.steps:
            live = taumin > n
            den_v += np.where(live, cfg.dt * du2[n] ** (p / 2), 0.0)
            den_w += np.where(live, cfg.dt * du2[n] ** ((2 + eps) / 2), 0.0)
    ev, edv = np.mean(sup_v), np.mean(den_v)
    ew, edw = np.mean(sup_w), np.mean(den_w)
    return {
        "ratio_v": float(ev / edv) if edv > 0 else np.inf,
        "ratio_w": float(ew / edw) if edw > 0 else np.inf,
        "num_v": float(ev),
        "den_v": float(edv),
        "p": p,
        "eps": eps,
        "aborted": int(np.count_nonzero(r1.aborted) + np.count_nonzero(r2.aborted)),
    }


def stop_time_probe(y0, U, dU, cfg: SimConfig, n_samples: int, rhos):
    """Probability that the exit index moves under a control perturbation.

    For each rho, runs U + rho dU with the same noise as the base run and
    reports P(stop differs) and P / rho in ``rows``; ``aborted`` counts the
    aborted samples over all the runs.
    """
    dW = cfg.noise_bank(n_samples)
    base = simulate_ensemble(y0, U, dW, cfg, store_fields=False)
    rows, aborted = [], np.count_nonzero(base.aborted)
    for rho in rhos:
        Up = np.asarray(U) + rho * np.asarray(dU) if U is not None else rho * np.asarray(dU)
        pert = simulate_ensemble(y0, Up, dW, cfg, store_fields=False)
        p = float(np.mean(pert.stop != base.stop))
        rows.append({"rho": float(rho), "prob": p, "prob_over_rho": p / rho})
        aborted += np.count_nonzero(pert.aborted)
    return {"rows": rows, "aborted": int(aborted)}
