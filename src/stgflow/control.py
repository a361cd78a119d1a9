"""Tracking cost, adjoint gradient and projected-gradient control search.

The cost of a deterministic control U = (U_0, ..., U_{steps-1}) is

    J(U) = 1/2 E sum_{n < stop} dt ||y_n - y_d||^2  +  (lam/p) sum_n dt ||U_n||_{H1}^p

with the tracking misfit in L2 or, optionally, in the V norm.  The
gradient representative in the L2(0,T; L2) pairing combines the H1
penalty with the ensemble average of the costate pulled back through
the control injection:

    grad_n = lam ||U_n||_{H1}^{p-2} (1 + |k|^2) U_n + E[1_{n<stop} S^T p_{n+1}].

Controls live in the closed ball of radius R in the
L^p(0, T; H1) Bochner norm; projection is radial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adjoint as adj
from . import noise as nz
from . import spectral as sp
from .forward import SimConfig, simulate_ensemble
from .tangent import control_to_state


def ingest_control(grid, U):
    """Project a raw control array onto solenoidal, mean-free, retained modes."""
    return sp.leray_project(grid, np.asarray(U, dtype=complex))


def h1_norms(grid, U):
    """Per-step H1 norms of a control array (steps, dim, *spatial)."""
    return sp.h1_norm(grid, np.asarray(U))


def bochner_norm(grid, U, dt, p):
    """|| U ||_{L^p(0,T; H1)} = (sum_n dt ||U_n||_{H1}^p)^{1/p}."""
    return float(np.sum(dt * h1_norms(grid, U) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class AdmissibleSet:
    radius: float
    p_exp: float

    def norm(self, grid, U, dt):
        return bochner_norm(grid, U, dt, self.p_exp)

    def contains(self, grid, U, dt, tol=1e-12):
        return self.norm(grid, U, dt) <= self.radius * (1 + tol)

    def project(self, grid, U, dt):
        n = self.norm(grid, U, dt)
        if n <= self.radius or n == 0.0:
            return np.asarray(U, dtype=complex)
        return np.asarray(U, dtype=complex) * (self.radius / n)


@dataclass
class CostReport:
    total: float
    tracking: float
    penalty: float
    tracking_se: float
    stop: np.ndarray


def _tracking_samples(base, y_d, cfg: SimConfig, variant):
    """Per-sample stopped tracking sums 1/2 sum_{n<stop} dt ||y_n - y_d||^2
    (V norm for variant "v")."""
    g = cfg.grid
    weight = adj.tracking_weight(g, cfg.params, variant)
    S = base.n_samples
    out = np.zeros(S)
    for n in range(cfg.steps):
        live = base.stop > n
        diff = np.asarray(base.fields[:, n], dtype=complex) - adj._target_at(y_d, n, g)
        out += np.where(live, 0.5 * cfg.dt * sp.sobolev_inner(g, diff, diff, weight), 0.0)
    return out


def penalty_value(grid, U, dt, lam, p):
    return (lam / p) * float(np.sum(dt * h1_norms(grid, U) ** p))


def eval_cost(U, y0, y_d, cfg: SimConfig, n_samples: int, lam: float, variant="l2"):
    """Sample-average cost on the frozen noise bank of cfg.seed."""
    dW = nz.sample_paths(cfg.seed, n_samples, cfg.dt, cfg.steps, cfg.model.K)
    base = simulate_ensemble(y0, U, dW, cfg)
    tr = _tracking_samples(base, y_d, cfg, variant)
    pen = 0.0 if U is None else penalty_value(cfg.grid, U, cfg.dt, lam, cfg.p_exp)
    se = float(np.std(tr, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return CostReport(
        total=float(np.mean(tr) + pen),
        tracking=float(np.mean(tr)),
        penalty=float(pen),
        tracking_se=se,
        stop=base.stop,
    )


def cost_gradient(U, y0, y_d, cfg: SimConfig, n_samples: int, lam: float, variant="l2"):
    """Adjoint gradient of the sample-average cost; stop indices frozen.

    Returns (grad, report) with grad of shape (steps, dim, *spatial).
    """
    g = cfg.grid
    dW = nz.sample_paths(cfg.seed, n_samples, cfg.dt, cfg.steps, cfg.model.K)
    base = simulate_ensemble(y0, U, dW, cfg)
    gf = adj.tracking_residual(base.fields, y_d, base.stop, cfg, variant)
    p_traj, _ = adj.pathwise_adjoint(base.fields, base.stop, gf, dW, cfg)

    grad = np.zeros((cfg.steps, g.dim) + g.shape, dtype=complex)
    for n in range(cfg.steps):
        live = (base.stop > n).astype(float)
        spn = control_to_state(p_traj[:, n + 1], cfg)
        grad[n] = np.tensordot(live / n_samples, spn, axes=(0, 0))
    if U is not None and lam != 0.0:
        Un = np.asarray(U, dtype=complex)
        hn = h1_norms(g, Un)
        w = lam * hn ** (cfg.p_exp - 2.0)
        grad += w[(slice(None),) + (None,) * (g.dim + 1)] * ((1.0 + g.k2) * Un)
    tr = _tracking_samples(base, y_d, cfg, variant)
    pen = 0.0 if U is None else penalty_value(g, U, cfg.dt, lam, cfg.p_exp)
    report = {
        "cost": float(np.mean(tr) + pen),
        "tracking": float(np.mean(tr)),
        "penalty": float(pen),
        "stop": base.stop,
    }
    return grad, report


def gradient_pairing(grid, grad, psi, dt):
    """sum_n dt (grad_n, psi_n)_{L2}, the Gateaux derivative along psi."""
    return float(np.sum(dt * sp.l2_inner(grid, np.asarray(grad), np.asarray(psi))))


def optimize(
    y0,
    y_d,
    cfg: SimConfig,
    lam: float,
    admissible: AdmissibleSet,
    n_samples: int,
    iters: int = 20,
    step0: float = 1.0,
    variant="l2",
    armijo: float = 1e-4,
    shrink: float = 0.5,
    min_step: float = 1e-10,
    tol: float = 0.0,
    U0=None,
    verbose=False,
):
    """Projected gradient descent with Armijo backtracking on the SAA cost.

    The noise bank is frozen (cfg.seed), so the objective is a fixed
    deterministic function of U throughout the run.
    """
    g = cfg.grid
    U = (
        np.zeros((cfg.steps, g.dim) + g.shape, dtype=complex)
        if U0 is None
        else admissible.project(g, ingest_control(g, U0), cfg.dt)
    )
    history = []
    step = step0
    grad, rep = cost_gradient(U, y0, y_d, cfg, n_samples, lam, variant)
    J = rep["cost"]
    for it in range(iters):
        accepted = False
        while step >= min_step:
            cand = admissible.project(g, U - step * grad, cfg.dt)
            gmap = (U - cand) / step
            gmap2 = float(np.sum(cfg.dt * sp.l2_inner(g, gmap, gmap)))
            Jc = eval_cost(cand, y0, y_d, cfg, n_samples, lam, variant).total
            if Jc <= J - armijo * step * gmap2:
                accepted = True
                break
            step *= shrink
        history.append(
            {
                "iter": it,
                "cost": J,
                "step": step,
                "grad_norm": float(
                    np.sqrt(np.sum(cfg.dt * sp.l2_inner(g, grad, grad)))
                ),
                "accepted": accepted,
            }
        )
        if verbose:
            print(f"iter {it:3d}  J = {J:.8e}  step = {step:.2e}")
        if not accepted:
            break
        U = cand
        grad, rep = cost_gradient(U, y0, y_d, cfg, n_samples, lam, variant)
        J = rep["cost"]
        if tol > 0.0 and np.sqrt(gmap2) * step <= tol:
            break
        step = min(step / shrink, step0)
    history.append({"iter": iters, "cost": J, "step": step, "grad_norm": None, "accepted": True})
    return {"U": U, "cost": J, "history": history}


def sample_directions(grid, steps, admissible: AdmissibleSet, dt, rng, n_dirs, U=None):
    """Admissible candidate controls: random interior and boundary points of
    the ball, single-mode impulses, the origin, and U itself."""
    dirs = []
    zero = np.zeros((steps, grid.dim) + grid.shape, dtype=complex)
    dirs.append(zero)
    if U is not None:
        dirs.append(np.asarray(U, dtype=complex))
    while len(dirs) < n_dirs:
        kind = len(dirs) % 3
        base = np.stack(
            [sp.random_field(grid, rng, amplitude=1.0) for _ in range(steps)]
        )
        if kind == 2:
            # impulse: one random step carries a single random mode
            base = zero.copy()
            n0 = int(rng.integers(steps))
            base[n0] = sp.random_field(grid, rng, kmax=1, amplitude=1.0)
        nb = admissible.norm(grid, base, dt)
        if nb == 0.0:
            continue
        frac = 1.0 if kind == 1 else float(rng.uniform(0.1, 0.9))
        dirs.append(base * (frac * admissible.radius / nb))
    return dirs[:n_dirs]


def optimality_residual(
    U, y0, y_d, cfg: SimConfig, lam: float, admissible: AdmissibleSet,
    n_samples: int, n_dirs: int = 64, seed: int = 0, variant="l2",
):
    """min over sampled admissible W of sum_n dt (grad_n, W_n - U_n).

    Nonnegative (up to tolerance) exactly when U satisfies the first
    order condition of the projected problem over the sampled set.
    """
    g = cfg.grid
    grad, rep = cost_gradient(U, y0, y_d, cfg, n_samples, lam, variant)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for W in sample_directions(g, cfg.steps, admissible, cfg.dt, rng, n_dirs, U):
        val = gradient_pairing(g, grad, W - np.asarray(U), cfg.dt)
        worst = min(worst, val)
    return {"min_pairing": float(worst), "cost": rep["cost"], "n_dirs": n_dirs}
