"""Tests for the cost functional, adjoint gradient and control search."""

import numpy as np
import pytest

from stgflow import control as ct
from stgflow import forward as fw
from stgflow import noise as nz
from stgflow import spectral as sp


PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)


def make_cfg(**kw):
    base = dict(
        dim=2, n_max=8, dt=0.01, steps=25, params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.2), M=50.0, seed=29,
    )
    base.update(kw)
    return fw.SimConfig(**base)


def setup(cfg, seed=31):
    g = cfg.grid
    rng = np.random.default_rng(seed)
    y0 = sp.random_field(g, rng, amplitude=0.8)
    y_d = sp.random_field(g, rng, amplitude=0.5)
    U = np.stack([sp.random_field(g, rng, amplitude=0.4) for _ in range(cfg.steps)])
    psi = np.stack([sp.random_field(g, rng) for _ in range(cfg.steps)])
    return y0, y_d, U, psi


class TestAdmissible:
    def test_bochner_norm_single_step(self):
        # constant-in-time control: ||U||_Y = (T)^{1/p} ||u||_{H1}
        cfg = make_cfg()
        g = cfg.grid
        u = sp.random_field(g, np.random.default_rng(1))
        U = np.stack([u] * cfg.steps)
        direct = (cfg.T ** (1.0 / cfg.p_exp)) * float(sp.h1_norm(g, u))
        assert abs(ct.bochner_norm(g, U, cfg.dt, cfg.p_exp) - direct) < 1e-10

    def test_h1_norm_definition(self):
        # H1 norm from the (1 + |k|^2) multiplier against the two-term sum
        g = sp.WaveGrid(2, 8)
        u = sp.random_field(g, np.random.default_rng(2), amplitude=1.7)
        J = sp.jacobian_phys(g, u)
        up = sp.to_phys(g, u)
        direct = sp.quad_integral(g, np.sum(up**2, axis=-3)) + sp.quad_integral(
            g, np.sum(J**2, axis=(-3, -4))
        )
        assert abs(float(sp.h1_norm(g, u)) - np.sqrt(direct)) < 1e-10

    def test_projection_radial(self):
        cfg = make_cfg()
        g = cfg.grid
        adm = ct.AdmissibleSet(radius=0.5, p_exp=cfg.p_exp)
        _, _, U, _ = setup(cfg)
        Up = adm.project(g, U, cfg.dt)
        assert adm.contains(g, Up, cfg.dt)
        assert abs(adm.norm(g, Up, cfg.dt) - 0.5) < 1e-10
        # direction preserved
        ratio = Up[3, 0, 2, 1] / U[3, 0, 2, 1]
        assert abs(Up[5, 1, 1, 4] / U[5, 1, 1, 4] - ratio) < 1e-12

    def test_projection_identity_inside(self):
        cfg = make_cfg()
        g = cfg.grid
        adm = ct.AdmissibleSet(radius=1e6, p_exp=cfg.p_exp)
        _, _, U, _ = setup(cfg)
        assert np.array_equal(adm.project(g, U, cfg.dt), U)

    def test_ingest_projects(self):
        g = sp.WaveGrid(2, 8)
        raw = np.random.default_rng(3).standard_normal((4, 2) + g.shape)
        U = ct.ingest_control(g, sp.to_spec(g, raw))
        for n in range(4):
            assert sp.divergence_defect(g, U[n]) < 1e-13


class TestCost:
    def test_zero_control_no_penalty(self):
        cfg = make_cfg(steps=10)
        y0, y_d, _, _ = setup(cfg)
        rep = ct.eval_cost(None, y0, y_d, cfg, 3, lam=0.7)
        assert rep.penalty == 0.0
        assert rep.total == rep.tracking

    def test_penalty_closed_form(self):
        cfg = make_cfg(steps=10)
        g = cfg.grid
        y0, y_d, U, _ = setup(cfg)
        lam = 0.3
        rep = ct.eval_cost(U, y0, y_d, cfg, 2, lam=lam)
        hn = sp.h1_norm(g, U)
        want = (lam / cfg.p_exp) * np.sum(cfg.dt * hn**cfg.p_exp)
        assert abs(rep.penalty - want) < 1e-12

    def test_tracking_stops_at_exit(self):
        cfg = make_cfg(steps=20, M=2.0)
        g = cfg.grid
        rng = np.random.default_rng(33)
        y0 = sp.random_field(g, rng, amplitude=0.3)
        y_d = sp.random_field(g, rng, amplitude=0.2)
        U = np.stack([sp.random_field(g, rng, amplitude=25.0)] * 20)
        rep = ct.eval_cost(U, y0, y_d, cfg, 3, lam=0.0)
        assert np.all(rep.stop < cfg.steps)
        # trajectory is frozen after stop, so doubling the horizon past the
        # exit must not change the tracking value
        cfgL = make_cfg(steps=40, M=2.0)
        UL = np.concatenate([U, U])
        repL = ct.eval_cost(UL, y0, y_d, cfgL, 3, lam=0.0)
        assert abs(rep.tracking - repL.tracking) < 1e-10

    def test_unknown_variant(self):
        # eval_cost and cost_gradient share one variant check
        cfg = make_cfg(steps=4)
        y0, y_d, U, _ = setup(cfg)
        with pytest.raises(ValueError):
            ct.eval_cost(U, y0, y_d, cfg, 2, lam=0.1, variant="V")
        with pytest.raises(ValueError):
            ct.cost_gradient(U, y0, y_d, cfg, 2, 0.1, "V")

    def test_deterministic_given_seed(self):
        cfg = make_cfg(steps=8)
        y0, y_d, U, _ = setup(cfg)
        a = ct.eval_cost(U, y0, y_d, cfg, 4, lam=0.1).total
        b = ct.eval_cost(U, y0, y_d, cfg, 4, lam=0.1).total
        assert a == b


class TestGradient:
    @pytest.mark.parametrize("variant", ["l2", "v"])
    def test_matches_finite_differences(self, variant):
        cfg = make_cfg()
        g = cfg.grid
        y0, y_d, U, psi = setup(cfg)
        lam = 0.05
        S = 4
        grad, _ = ct.cost_gradient(U, y0, y_d, cfg, S, lam, variant)
        pair = ct.gradient_pairing(g, grad, psi, cfg.dt)
        rho = 1e-4
        Jp = ct.eval_cost(U + rho * psi, y0, y_d, cfg, S, lam, variant).total
        Jm = ct.eval_cost(U - rho * psi, y0, y_d, cfg, S, lam, variant).total
        fd = (Jp - Jm) / (2 * rho)
        assert abs(fd - pair) <= 1e-4 * max(1.0, abs(fd))

    def test_penalty_gradient_alone(self):
        # zero tracking influence: lam term must be the H1-weighted field
        cfg = make_cfg(model=nz.NoiseModel(K=0, family="zero"), steps=5)
        g = cfg.grid
        y0, _, U, psi = setup(cfg)
        lam = 0.4
        g1, _ = ct.cost_gradient(U, y0, np.zeros_like(y0), cfg, 1, lam)
        g0, _ = ct.cost_gradient(U, y0, np.zeros_like(y0), cfg, 1, 0.0)
        hn = sp.h1_norm(g, U)
        want = lam * hn[:, None, None, None] ** (cfg.p_exp - 2) * ((1 + g.k2) * U)
        assert np.max(np.abs((g1 - g0) - want)) < 1e-12

    def test_gradient_zero_for_perfect_tracking(self):
        # target equals the noise-free trajectory of the zero control
        cfg = make_cfg(model=nz.NoiseModel(K=0, family="zero"), steps=10)
        g = cfg.grid
        y0 = sp.random_field(g, np.random.default_rng(41), amplitude=0.5)
        res = fw.run_ensemble(y0, None, cfg, 1)
        y_d = np.asarray(res.fields[0, :-1], dtype=complex)
        grad, rep = ct.cost_gradient(None, y0, y_d, cfg, 1, lam=0.0)
        assert rep["tracking"] < 1e-25
        assert np.max(np.abs(grad)) < 1e-12


class TestOptimize:
    def test_descent_and_feasible(self):
        cfg = make_cfg(steps=15)
        g = cfg.grid
        y0, y_d, _, _ = setup(cfg)
        adm = ct.AdmissibleSet(radius=2.0, p_exp=cfg.p_exp)
        out = ct.optimize(y0, y_d, cfg, lam=0.05, admissible=adm, n_samples=3, iters=6, step0=2.0)
        costs = [h["cost"] for h in out["history"]]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        assert adm.contains(g, out["U"], cfg.dt)

    def test_optimality_residual_after_descent(self):
        cfg = make_cfg(steps=15)
        y0, y_d, _, _ = setup(cfg)
        adm = ct.AdmissibleSet(radius=2.0, p_exp=cfg.p_exp)
        out = ct.optimize(y0, y_d, cfg, lam=0.05, admissible=adm, n_samples=3, iters=12, step0=2.0)
        res = ct.optimality_residual(
            out["U"], y0, y_d, cfg, 0.05, adm, 3, n_dirs=24, seed=5
        )
        assert res["min_pairing"] >= -1e-4

    def test_directions_are_admissible(self):
        cfg = make_cfg(steps=6)
        g = cfg.grid
        adm = ct.AdmissibleSet(radius=1.5, p_exp=cfg.p_exp)
        rng = np.random.default_rng(6)
        dirs = ct.sample_directions(g, cfg.steps, adm, cfg.dt, rng, 12)
        assert len(dirs) == 12
        for W in dirs:
            assert adm.contains(g, W, cfg.dt, tol=1e-9)
