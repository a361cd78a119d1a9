"""Tracking cost, adjoint gradient and projected-gradient control search.

The cost of a deterministic control U = (U_0, ..., U_{steps-1}) is

    J(U) = 1/2 E sum_{n < stop} dt ||y_n - y_d||^2  +  (lam/p) sum_n dt ||U_n||_{H1}^p

with the tracking misfit in L2 or, optionally, in the V norm
(``SimConfig.tracking``).  The gradient representative in the
L2(0,T; L2) pairing combines the H1 penalty with the ensemble average
of the costate pulled back through the control injection:

    grad_n = lam ||U_n||_{H1}^{p-2} (1 + |k|^2) U_n + E[1_{n<stop} S^T p_{n+1}].

Controls live in the closed ball of radius R in the
L^p(0, T; H1) Bochner norm; projection is radial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adjoint as adj
from . import spectral as sp
from .forward import EnsembleResult, SimConfig, simulate_ensemble
from .tangent import control_to_state


# Armijo sufficient-decrease constant, backtracking factor and smallest trial step
ARMIJO, SHRINK, MIN_STEP = 1e-4, 0.5, 1e-10


@dataclass(frozen=True)
class AdmissibleSet:
    radius: float
    p_exp: float

    def norm(self, grid, U, dt):
        """|| U ||_{L^p(0,T; H1)} = (sum_n dt ||U_n||_{H1}^p)^{1/p}."""
        return float(np.sum(dt * sp.h1_norm(grid, U) ** self.p_exp) ** (1.0 / self.p_exp))

    def contains(self, grid, U, dt, tol=1e-12):
        return self.norm(grid, U, dt) <= self.radius * (1 + tol)

    def project(self, grid, U, dt):
        n = self.norm(grid, U, dt)
        if n <= self.radius or n == 0.0:
            return np.asarray(U, dtype=complex)
        return np.asarray(U, dtype=complex) * (self.radius / n)


@dataclass
class CostReport:
    """Cost of one control, with the forward solve the gradient reuses."""

    total: float
    tracking: float
    penalty: float
    aborted: int
    U: np.ndarray | None
    dW: np.ndarray
    ensemble: EnsembleResult
    y_d: np.ndarray


def eval_cost(U, y0, y_d, cfg: SimConfig, n_samples: int, lam: float):
    """Sample-average cost on the frozen noise bank of cfg.seed, tracking in
    the norm of ``cfg.tracking``.  An aborted sample leaves the tracking sum
    at its abort index; ``aborted`` counts them."""
    g = cfg.grid
    dW = cfg.noise_bank(n_samples)
    base = simulate_ensemble(y0, U, dW, cfg)
    # the residual is the weighted misfit w (y_n - y_d), zero from the exit
    # on, so 1/2 ||y_n - y_d||_w^2 = 1/2 (res, res / w); one step at a time
    unweight = 1.0 / cfg.tracking_weight
    tr = 0
    for n in range(cfg.steps):
        r = adj.tracking_residual(base.fields[:, n], y_d, n, base.stop > n, cfg)
        tr = tr + 0.5 * cfg.dt * sp.sobolev_inner(g, r, r, unweight)
    pen = 0.0 if U is None else (lam / cfg.p_exp) * float(np.sum(cfg.dt * sp.h1_norm(g, U) ** cfg.p_exp))
    return CostReport(
        total=float(np.mean(tr) + pen),
        tracking=float(np.mean(tr)),
        penalty=float(pen),
        aborted=int(np.count_nonzero(base.aborted)),
        U=U,
        dW=dW,
        ensemble=base,
        y_d=y_d,
    )


def _gradient(rep: CostReport, lam: float, cfg: SimConfig):
    """Adjoint gradient of the cost in ``rep``.  S^T is linear and the same for
    every sample, so it acts once, on the live-weighted sample mean of p_{n+1}."""
    g = cfg.grid
    mean_p = np.empty((cfg.steps, g.dim) + g.spec_shape, dtype=complex)
    base = rep.ensemble
    for n, live, p in adj.costate_sweep(base.fields, base.stop, rep.y_d, rep.dW, cfg):
        mean_p[n] = np.einsum("s,s...->...", live / base.n_samples, p)
    grad = control_to_state(mean_p, cfg)
    if rep.U is not None and lam != 0.0:
        Un = np.asarray(rep.U, dtype=complex)
        hn = sp.h1_norm(g, Un)
        w = lam * hn ** (cfg.p_exp - 2.0)
        grad += w[(slice(None),) + (None,) * (g.dim + 1)] * ((1.0 + g.k2) * Un)
    return grad


def cost_gradient(U, y0, y_d, cfg: SimConfig, n_samples: int, lam: float):
    """Adjoint gradient of the sample-average cost; stop indices frozen.

    Returns (grad, report): grad of shape (steps, dim, *spec_shape) and the
    CostReport of U.
    """
    rep = eval_cost(U, y0, y_d, cfg, n_samples, lam)
    return _gradient(rep, lam, cfg), rep


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
    tol: float = 0.0,
    verbose=False,
):
    """Projected gradient descent with Armijo backtracking on the SAA cost.

    The noise bank is frozen (cfg.seed), so the objective is a fixed
    deterministic function of U throughout the run.  An accepted trial's
    gradient comes from its cost report; only the iterate's cost report is
    kept across trials.  Aborts end tracking sums early, so a trial with an
    aborted sample is rejected, and a starting iterate with one ends the
    search before any step: its history holds only the final entry.

    The history holds one entry per iteration made, then a final entry
    with the last cost, the number of iterations made and whether the
    last line search was accepted (False when none ran).
    """
    g = cfg.grid
    U = g.zeros((cfg.steps,))
    history = []
    step = step0
    accepted = False
    rep = eval_cost(U, y0, y_d, cfg, n_samples, lam)
    J, aborted = rep.total, rep.aborted
    for it in range(0 if aborted else iters):
        grad = _gradient(rep, lam, cfg)
        del rep  # free the iterate's ensemble before the trials
        accepted = False
        while step >= MIN_STEP:
            cand = admissible.project(g, U - step * grad, cfg.dt)
            gmap = (U - cand) / step
            gmap2 = float(np.sum(cfg.dt * sp.l2_inner(g, gmap, gmap)))
            trial = eval_cost(cand, y0, y_d, cfg, n_samples, lam)
            if not trial.aborted and trial.total <= J - ARMIJO * step * gmap2:
                accepted = True
                break
            del trial  # free its ensemble before the next solve
            step *= SHRINK
        history.append(
            {
                "iter": it,
                "cost": J,
                "step": step,
                "grad_norm": float(
                    np.sqrt(np.sum(cfg.dt * sp.l2_inner(g, grad, grad)))
                ),
                "accepted": accepted,
                "aborted": aborted,
            }
        )
        if verbose:
            print(f"iter {it:3d}  J = {J:.8e}  step = {step:.2e}")
        if not accepted:
            break
        U, J, rep = cand, trial.total, trial
        del trial
        if tol > 0.0 and np.sqrt(gmap2) * step <= tol:
            break
        step = min(step / SHRINK, step0)
    history.append(
        {"iter": len(history), "cost": J, "step": step, "grad_norm": None,
         "accepted": accepted, "aborted": aborted}
    )
    return {"U": U, "cost": J, "history": history}


def sample_directions(grid, steps, admissible: AdmissibleSet, dt, rng, n_dirs, U=None):
    """Admissible candidate controls: random interior and boundary points of
    the ball, single-mode impulses, the origin, and U itself."""
    dirs = []
    zero = grid.zeros((steps,))
    dirs.append(zero)
    if U is not None:
        dirs.append(np.asarray(U, dtype=complex))
    while len(dirs) < n_dirs:
        kind = len(dirs) % 3
        base = sp.random_field(grid, rng, amplitude=1.0, batch=(steps,))
        if kind == 2:
            # impulse: one random step carries a single random mode; the
            # batch above is still drawn, which keeps the rng stream fixed
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
    n_samples: int, n_dirs: int = 64, seed: int = 0,
):
    """min over sampled admissible W of sum_n dt (grad_n, W_n - U_n).

    Nonnegative (up to tolerance) exactly when U satisfies the first
    order condition of the projected problem over the sampled set.
    """
    g = cfg.grid
    grad, rep = cost_gradient(U, y0, y_d, cfg, n_samples, lam)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for W in sample_directions(g, cfg.steps, admissible, cfg.dt, rng, n_dirs, U):
        val = gradient_pairing(g, grad, W - np.asarray(U), cfg.dt)
        worst = min(worst, val)
    return {"min_pairing": float(worst), "cost": rep.total, "n_dirs": n_dirs}
