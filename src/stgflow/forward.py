"""Semi-implicit Euler-Maruyama solver with first-exit stopping.

One step of the scheme solves, mode by mode,

    (1 + alpha1 |k|^2 + dt nu |k|^2) y^+ = (1 + alpha1 |k|^2) y
        + dt (N(y) + U) + G(t, y) dW,

i.e. the viscous part of the drift is implicit through the v-map while
the quadratic/cubic terms, the control and the noise stay explicit, and
projects the solution once: y^+ = S(...), S = P D^-1 the Leray projection
after the division by the implicit denominator (``tangent.control_to_state``).

Each sample is stopped the first time its collocation W^{2,4} norm reaches the
threshold M; the state is frozen from the crossing index on, matching the
stopped process the cost functional integrates.  A sample whose norm overshoots
``blowup_factor * M`` (or goes non-finite) is marked aborted and frozen at its
last finite state.  The solves that read only stop and aborted
(``control.eval_cost``, the duality checks, the probes) pass ``norms=False``: a
sample the transform-free ``spectral.w24_bounds`` decide is not transformed and
gets NaN for a norm, and stop, abort and fields stay bitwise.  Stopped samples
are not stepped: both ensemble loops (forward, costate) run their kernels on
the live samples only, through ``_on_live``, and leave the frozen ones
untouched.  Given a direction psi, the forward loop also advances the tangent
z_n beside y_n, ``step`` and ``tangent.tangent_step`` reading one set of y_n's
collocation pieces (``fused_step``).  The loop returns an ``EnsembleResult``,
the one trajectory store that every backward sweep and probe reads: the noise
bank, stop, aborted, and y_n kept in the dtype ``store_fields`` picks and read
as complex128 through ``y(n)``.  The probes ``stability_probe``,
``stop_time_probe`` and ``gateaux_check`` (the tangent against finite
differences) compare ensembles on one noise bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import noise as nz
from . import spectral as sp
from . import tangent as tg


def default_p_exp(dim: int) -> float:
    """p_exp where none is given: 2 (dim + 1) + 2, above the bound 2 (dim + 1)
    that ``SimConfig`` requires; 8.0 in 2D, 10.0 in 3D."""
    return 2.0 * (dim + 1) + 2.0


@dataclass(frozen=True)
class SimConfig:
    dim: int
    n_max: int
    dt: float
    steps: int
    params: sp.PhysicalParams
    model: nz.NoiseModel
    M: float = 10.0
    p_exp: float | None = None  # default_p_exp(dim) when None
    seed: int = 0
    blowup_factor: float = 10.0
    tracking: str = "l2"

    def __post_init__(self):
        if not (0 < self.dt < np.inf and self.steps >= 1):  # NaN fails, as for M below
            raise ValueError(f"need a finite dt > 0 and steps >= 1, got {self.dt}, {self.steps}")
        if self.p_exp is None:
            object.__setattr__(self, "p_exp", default_p_exp(self.dim))
        if not (2 * (self.dim + 1) < self.p_exp < np.inf):
            raise ValueError(f"p_exp must exceed 2*(dim+1) = {2 * (self.dim + 1)} and be finite,"
                             f" got {self.p_exp}")
        if not (self.M > 0 and self.blowup_factor > 0):  # NaN would switch both tests off
            raise ValueError("stopping threshold M and blowup_factor must be > 0, not NaN")
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
    dW: np.ndarray  # (S, steps, K), the increments the ensemble ran on

    @property
    def n_samples(self):
        return self.stop.shape[0]

    def y(self, n):
        """y_n of every sample as complex128; a view when stored as complex128."""
        if self.fields is None:
            raise ValueError("the ensemble stored no fields (store_fields=False)")
        return np.asarray(self.fields[:, n], dtype=complex)


def step(yc: sp.Collocation, u_n, dW_n, t, cfg: SimConfig):
    """One scheme step from y = ``yc.field``, batched over any leading sample axes."""
    ex = sp.drift_terms(yc)
    if u_n is not None:
        ex = ex + u_n
    rhs = sp.v_apply(cfg.grid, yc.field, cfg.params) + cfg.dt * ex
    if cfg.model.K > 0:
        rhs = rhs + nz.noise_increment(t, yc, dW_n, cfg.model)
    return tg.control_to_state(rhs, cfg)


def fused_step(y, z, u_n, psi_n, dW_n, t, cfg: SimConfig):
    """``step`` and ``tangent.tangent_step`` at y, reading one set of y's collocation
    pieces.  The tangent goes first and makes them as it reads them: fewer are held at its peak."""
    yc = sp.CachedCollocation(cfg.grid, y, cfg.params)
    z_next = tg.tangent_step(yc, z, psi_n, dW_n, t, cfg)
    return step(yc, u_n, dW_n, t, cfg), z_next


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


STOP_MARGIN = 1e-12  # relative margin of the bound-decided stop test, far above rounding
Y0_TOL = 1e-12  # relative defect of y0 that ``_check_y0`` lets pass, far above rounding


def _check_y0(g: sp.WaveGrid, y0):
    """Raise ``ValueError`` unless y0 is divergence-free and the half of a Hermitian
    array (its plane k_d = 0), to rounding of its size: ``spectral.w24_bounds`` reads
    the half spectrum of a real field, and the stress forms (``spectral.stress_terms``),
    which pack the deformation traceless in 2D and 3D, hold on divergence-free fields."""
    size = np.max(np.abs(y0), initial=0.0)
    herm = np.max(np.abs(y0[..., 0] - np.conj(y0[g.mirror + (0,)])), initial=0.0)
    for defect, d, scale in (("divergence defect max |k . c|", sp.divergence_defect(g, y0),
                              g.n_max * size),
                             ("Hermitian defect of the plane k_d = 0", herm, size)):
        if d > Y0_TOL * scale:
            raise ValueError(f"y0 has {defect} = {d:.3g}, {d / scale:.3g} of its size")


def _stop_test(y, cfg: SimConfig, norms: bool):
    """(w24, reached M, aborted) per sample; unless ``norms``, w24 NaN where the bounds decide."""
    M, guard, m = cfg.M, cfg.blowup_factor * cfg.M, STOP_MARGIN
    exact, above, w = np.ones(len(y), dtype=bool), False, np.full(len(y), np.nan)
    if not norms:
        lo, hi = sp.w24_bounds(cfg.grid, y)
        above = (lo > M * (1 + m)) & (hi < guard * (1 - m))
        exact = ~(above | (hi < min(M, guard) * (1 - m)))
    if exact.any():  # a full slice, no gather, when nothing is decided
        w[exact] = sp.w24_norm(cfg.grid, y if exact.all() else y[exact])
    return w, above | (w >= M), exact & (~np.isfinite(w) | (w > guard))


def simulate_ensemble(y0, U, dW, cfg: SimConfig, store_fields=True, psi=None, read=None,
                      read_to=None, norms=True):
    """Run S coupled samples; dW has shape (S, steps, K).

    ``y0`` is a single field or a batch (S, dim, *spec_shape); ``U`` is a
    deterministic control array (steps, dim, *spec_shape) or None.
    ``store_fields`` keeps y_0 ... y_N as complex128 (True), not at all
    (False), or in the complex dtype it names, which the loop then runs on:
    it rounds y_0 and each y_{n+1} to that dtype before the stop test.

    Given a direction ``psi`` of that shape too, the tangent z_n along it
    (z_0 = 0) advances next to y_n through ``fused_step`` and is rolled back
    with y on an aborted sample, and ``read(n, live, y_n, z_n)`` is called
    for n = 0 ... ``read_to`` (default steps - 1) once step n is settled,
    live = stop > n; z_{n+1} is formed for n < read_to only.  ``read`` gets
    the loop's own arrays and copies what it keeps.  ``norms=False`` leaves
    ``w24`` NaN where the bounds decide the stop test (``_stop_test``).
    A y0 that is not divergence-free or whose plane k_d = 0 is not Hermitian
    raises ``ValueError`` (``_check_y0``), as do ``psi`` without ``read`` or
    ``read`` without ``psi``, and a ``read_to`` without them or outside 0..steps.
    """
    if (psi is None) != (read is None):
        raise ValueError("psi and read are given together or not at all")
    if read_to is not None and (psi is None or not 0 <= read_to <= cfg.steps):
        raise ValueError(f"read_to must lie in 0..{cfg.steps}, with psi and read, got {read_to}")
    g = cfg.grid
    dW = np.asarray(dW)
    U = None if U is None else _per_step("U", U, cfg)
    S = dW.shape[0]
    y0 = np.asarray(y0, dtype=complex)
    _check_y0(g, y0)
    y = np.broadcast_to(y0, (S, g.dim) + g.spec_shape).copy()
    state = (y,)  # what the loop advances: y, and z given a direction
    if psi is not None:
        psi, state = _per_step("psi", psi, cfg), (y, g.zeros((S,)))
        read_to = cfg.steps - 1 if read_to is None else read_to

    dtype = complex if store_fields is True or store_fields is False else store_fields
    if dtype is not complex:  # the loop runs on the y_n a narrower store keeps
        y[...] = y.astype(dtype)
    stop = np.full(S, cfg.steps, dtype=int)
    aborted = np.zeros(S, dtype=bool)
    w24 = np.empty((S, cfg.steps + 1))
    w24[:, 0], over, _ = _stop_test(y, cfg, norms)
    stop[over] = 0

    fields = None
    if store_fields is not False:
        fields = np.empty((S, cfg.steps + 1, g.dim) + g.spec_shape, dtype=dtype)
        fields[:, 0] = y

    def advance(n, y, dW_n, *z):
        t, u_n = n * cfg.dt, None if U is None else U[n]
        new = (fused_step(y, *z, u_n, psi[n], dW_n, t, cfg) if z
               else (step(sp.Collocation(g, y, cfg.params), u_n, dW_n, t, cfg),))
        if dtype is not complex:
            new[0][...] = new[0].astype(dtype)
        w, over, bad = _stop_test(new[0], cfg, norms)
        if bad.any():  # an aborted sample keeps its last finite state
            for a_next, a in zip(new, (y,) + z):
                a_next[bad] = a[bad]
        return new, w, over, bad

    for n in range(cfg.steps):
        live, new = stop > n, ()
        w24[:, n + 1] = w24[:, n]
        if live.any():
            z = state[1:] if psi is not None and n < read_to else ()
            rows, (new, w, over, bad) = _on_live(live, lambda *a: advance(n, *a), y, dW[:, n], *z)
            idx = np.flatnonzero(live)
            aborted[idx[bad]] = True
            stop[idx[bad]] = n
            w24[idx[~bad], n + 1] = w[~bad]
            stop[idx[over & ~bad]] = n + 1
        if psi is not None and n <= read_to:
            read(n, stop > n, *state)
        for i in range(len(new)):  # a loop variable would keep new[-1] alive into step n + 1
            state[i][rows] = new[i]
        if fields is not None:
            fields[:, n + 1] = y
    if psi is not None and read_to == cfg.steps:
        read(cfg.steps, stop > cfg.steps, *state)

    return EnsembleResult(fields=fields, stop=stop, w24=w24, aborted=aborted, dW=dW)


# ---------------------------------------------------------------------------
# energy functionals and probes


def _ci(x):
    x = np.asarray(x, dtype=float)
    m = float(np.mean(x))
    se = float(np.std(x, ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0
    return {"mean": m, "ci95": 1.96 * se}


def energy_stats(res: EnsembleResult, cfg: SimConfig):
    """Monte Carlo estimates of the a priori energy functionals.

    sup norms run over every n, the fields being frozen from each stop on
    (aborts too), time integrals over n < stop (none after the exit).
    """
    g = cfg.grid
    S = res.n_samples
    wv = sp.v_symbol(g, cfg.params)
    sup_v2 = np.zeros(S)
    int_grad2 = np.zeros(S)
    int_a4 = np.zeros(S)
    sup_wt_p = np.zeros(S)
    for n in range(cfg.steps + 1):
        yn = res.y(n)
        v2 = sp.sobolev_inner(g, yn, yn, wv)
        wt2 = v2 + sp.sobolev_inner(g, yn, yn, g.k2 * wv**2)
        sup_v2 = np.maximum(sup_v2, v2)
        sup_wt_p = np.maximum(sup_wt_p, wt2 ** (cfg.p_exp / 2))
        if n < cfg.steps:
            live = res.stop > n
            # 2 ||D y||^2 = ||grad y||^2 for solenoidal fields
            grad2 = 0.5 * sp.sobolev_inner(g, yn, yn, g.k2)
            A = sp.deformation_packed(g, yn * g.mask3)
            a4 = sp.quad_integral(g, g.c(sp.sym_inner(g, A), 0) ** 2)
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


# stability_probe's exponents: p in the V norm, 2 + eps in the W norm
STABILITY_P, STABILITY_EPS = 2.0, 0.5


def stability_probe(y0, U1, U2, cfg: SimConfig, n_samples: int):
    """Ratio of state separation to control separation under common noise.

    Returns E sup ||y1 - y2||_V^p over [0, tau1 ^ tau2] divided by
    E int_0^{tau1 ^ tau2} ||U1 - U2||_{L2}^p dt, plus the same ratio in
    the W norm with exponent 2 + eps, and the samples aborted in either run.
    """
    g, p, eps = cfg.grid, STABILITY_P, STABILITY_EPS
    r1 = simulate_ensemble(y0, U1, cfg.noise_bank(n_samples), cfg, norms=False)
    r2 = simulate_ensemble(y0, U2, r1.dW, cfg, norms=False)
    taumin = np.minimum(r1.stop, r2.stop)
    wv = sp.v_symbol(g, cfg.params)
    dU = np.asarray(U1) - np.asarray(U2)
    du2 = sp.l2_inner(g, dU, dU)  # (steps,)

    sup_v = np.zeros(n_samples)
    sup_w = np.zeros(n_samples)
    den_v = np.zeros(n_samples)
    den_w = np.zeros(n_samples)
    for n in range(cfg.steps + 1):
        d = r1.y(n) - r2.y(n)
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


def gateaux_check(y0, U, psi, cfg: SimConfig, rhos, n_samples: int):
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
        perts.append(simulate_ensemble(y0, Up, dW, cfg, norms=False))
    wv = sp.v_symbol(g, cfg.params)
    worst = np.zeros((len(rhos), n_samples))
    upto = np.ones(n_samples, dtype=bool)  # base stop >= n: live at step n - 1

    def compare(n, live, y, z):
        for i, (rho, pert) in enumerate(zip(rhos, perts)):
            diff = (pert.y(n) - y) / rho - z
            v2 = sp.sobolev_inner(g, diff, diff, wv)
            both = upto & (pert.stop >= n)
            worst[i] = np.where(both, np.maximum(worst[i], v2), worst[i])
        upto[:] = live

    base = simulate_ensemble(y0, U, dW, cfg, store_fields=False, psi=psi, read=compare,
                             read_to=cfg.steps, norms=False)
    aborted = sum(np.count_nonzero(r.aborted) for r in (base, *perts))
    errs = [float(np.mean(w)) for w in worst]
    lr = np.log(np.asarray(rhos, dtype=float))
    le = np.log(np.maximum(np.asarray(errs), 1e-300))
    slope = float(np.polyfit(lr, le, 1)[0])
    return {"rhos": list(map(float, rhos)), "errors": errs, "slope": slope, "aborted": int(aborted)}


def stop_time_probe(y0, U, dU, cfg: SimConfig, n_samples: int, rhos):
    """Probability that the exit index moves under a control perturbation.

    For each rho, runs U + rho dU with the same noise as the base run and
    reports P(stop differs) and P / rho in ``rows``; ``aborted`` counts the
    aborted samples over all the runs.
    """
    base = simulate_ensemble(y0, U, cfg.noise_bank(n_samples), cfg, store_fields=False, norms=False)
    rows, aborted = [], np.count_nonzero(base.aborted)
    for rho in rhos:
        Up = np.asarray(U) + rho * np.asarray(dU) if U is not None else rho * np.asarray(dU)
        pert = simulate_ensemble(y0, Up, base.dW, cfg, store_fields=False, norms=False)
        p = float(np.mean(pert.stop != base.stop))
        rows.append({"rho": float(rho), "prob": p, "prob_over_rho": p / rho})
        aborted += np.count_nonzero(pert.aborted)
    return {"rows": rows, "aborted": int(aborted)}
