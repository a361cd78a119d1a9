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
        adm = ct.AdmissibleSet(radius=1.0, p_exp=cfg.p_exp)
        assert abs(adm.norm(g, U, cfg.dt) - direct) < 1e-10

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
        assert np.all(rep.ensemble.stop < cfg.steps)
        # trajectory is frozen after stop, so doubling the horizon past the
        # exit must not change the tracking value
        cfgL = make_cfg(steps=40, M=2.0)
        UL = np.concatenate([U, U])
        repL = ct.eval_cost(UL, y0, y_d, cfgL, 3, lam=0.0)
        assert abs(rep.tracking - repL.tracking) < 1e-10

    def test_unknown_variant(self):
        # the cost and its gradient read the one tracking norm the config holds
        with pytest.raises(ValueError, match="tracking"):
            make_cfg(steps=4, tracking="V")

    @pytest.mark.parametrize("variant", ["l2", "v"])
    def test_time_indexed_target_constant_rows(self, variant):
        # a target given per step, every row the single field, prices and
        # differentiates the cost bitwise as the single field does
        cfg = make_cfg(steps=12, tracking=variant)
        y0, y_d, U, _ = setup(cfg)
        stack = np.stack([y_d] * cfg.steps)
        assert stack.shape == (cfg.steps, cfg.dim) + cfg.grid.spec_shape
        grad, rep = ct.cost_gradient(U, y0, y_d, cfg, 3, 0.1)
        grad_t, rep_t = ct.cost_gradient(U, y0, stack, cfg, 3, 0.1)
        assert rep_t.total == rep.total
        assert np.array_equal(grad_t, grad)

    def test_deterministic_given_seed(self):
        cfg = make_cfg(steps=8)
        y0, y_d, U, _ = setup(cfg)
        a = ct.eval_cost(U, y0, y_d, cfg, 4, lam=0.1).total
        b = ct.eval_cost(U, y0, y_d, cfg, 4, lam=0.1).total
        assert a == b


class TestGradient:
    @pytest.mark.parametrize("variant", ["l2", "v"])
    def test_matches_finite_differences(self, variant):
        cfg = make_cfg(tracking=variant)
        g = cfg.grid
        y0, y_d, U, psi = setup(cfg)
        lam = 0.05
        S = 4
        grad, _ = ct.cost_gradient(U, y0, y_d, cfg, S, lam)
        pair = ct.gradient_pairing(g, grad, psi, cfg.dt)
        rho = 1e-4
        Jp = ct.eval_cost(U + rho * psi, y0, y_d, cfg, S, lam).total
        Jm = ct.eval_cost(U - rho * psi, y0, y_d, cfg, S, lam).total
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
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(1), cfg)
        y_d = np.asarray(res.fields[0, :-1], dtype=complex)
        grad, rep = ct.cost_gradient(None, y0, y_d, cfg, 1, lam=0.0)
        assert rep.tracking < 1e-25
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

    def test_one_forward_solve_per_accepted_iteration(self, monkeypatch):
        # the gradient of an accepted trial comes from its cost report
        cfg = make_cfg(steps=15)
        y0, y_d, _, _ = setup(cfg)
        solve, calls = ct.simulate_ensemble, []
        monkeypatch.setattr(ct, "simulate_ensemble", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        adm = ct.AdmissibleSet(radius=2.0, p_exp=cfg.p_exp)
        out = ct.optimize(y0, y_d, cfg, lam=0.05, admissible=adm, n_samples=3, iters=3, step0=2.0)
        iters = out["history"][:-1]
        assert len(iters) == 3
        assert all(h["accepted"] and h["step"] == 2.0 for h in iters)  # no backtracks
        assert len(calls) == 1 + len(iters)

    def test_no_gradient_after_last_iteration(self, monkeypatch):
        # one adjoint sweep per iteration: none for the final iterate, which
        # no iteration reads; history is unchanged by the saved sweep
        cfg = make_cfg(steps=15)
        y0, y_d, _, _ = setup(cfg)
        adm = ct.AdmissibleSet(radius=2.0, p_exp=cfg.p_exp)
        kw = dict(lam=0.05, admissible=adm, n_samples=3, iters=3, step0=2.0)
        ref = ct.optimize(y0, y_d, cfg, **kw)
        sweep, calls = ct.adj.costate_sweep, []
        monkeypatch.setattr(ct.adj, "costate_sweep", lambda *a, **k: calls.append(1) or sweep(*a, **k))
        out = ct.optimize(y0, y_d, cfg, **kw)
        iters = out["history"][:-1]
        assert all(h["accepted"] and h["step"] == 2.0 for h in iters)  # no backtracks
        assert len(calls) == len(iters) == 3
        assert out["history"] == ref["history"]
        assert np.array_equal(out["U"], ref["U"])

    def test_final_entry_after_tol_stop(self):
        # a tol larger than any step ends the search after its first iteration
        cfg = make_cfg(steps=15)
        y0, y_d, _, _ = setup(cfg)
        adm = ct.AdmissibleSet(radius=2.0, p_exp=cfg.p_exp)
        out = ct.optimize(y0, y_d, cfg, lam=0.05, admissible=adm, n_samples=3, iters=5,
                          step0=2.0, tol=1e9)
        first, final = out["history"]
        assert first["iter"] == 0 and first["accepted"]
        assert final["iter"] == 1 and final["accepted"] and final["grad_norm"] is None
        assert final["cost"] == out["cost"] < first["cost"]

    def test_aborting_trial_rejected(self):
        # the first trial drives every sample past blowup_factor * M at step
        # 0, which ends each tracking sum there: its cost is 0, yet it must
        # not be accepted
        cfg = make_cfg(steps=10, M=12.0, blowup_factor=1.01)
        g = cfg.grid
        rng = np.random.default_rng(31)
        y0 = sp.random_field(g, rng, amplitude=0.8)
        y_d = sp.random_field(g, rng, amplitude=5.0)
        adm = ct.AdmissibleSet(radius=3000.0, p_exp=cfg.p_exp)
        U = g.zeros((cfg.steps,))
        grad, _ = ct.cost_gradient(U, y0, y_d, cfg, 3, 0.0)
        first = adm.project(g, U - 1e6 * grad, cfg.dt)
        assert fw.simulate_ensemble(y0, first, cfg.noise_bank(3), cfg).aborted.all()
        assert not fw.simulate_ensemble(y0, U, cfg.noise_bank(3), cfg).aborted.any()
        assert ct.eval_cost(first, y0, y_d, cfg, 3, 0.0).total < ct.eval_cost(U, y0, y_d, cfg, 3, 0.0).total
        out = ct.optimize(y0, y_d, cfg, lam=0.0, admissible=adm, n_samples=3, iters=2, step0=1e6)
        assert not fw.simulate_ensemble(y0, out["U"], cfg.noise_bank(3), cfg).aborted.any()
        assert out["history"][0]["accepted"] and out["history"][0]["step"] < 1e6
        assert all(h["aborted"] == 0 for h in out["history"])

    def test_directions_are_admissible(self):
        cfg = make_cfg(steps=6)
        g = cfg.grid
        adm = ct.AdmissibleSet(radius=1.5, p_exp=cfg.p_exp)
        rng = np.random.default_rng(6)
        dirs = ct.sample_directions(g, cfg.steps, adm, cfg.dt, rng, 12)
        assert len(dirs) == 12
        for W in dirs:
            assert adm.contains(g, W, cfg.dt, tol=1e-9)
