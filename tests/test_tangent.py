"""Tests for the exact linearization and tangent recursion."""

import numpy as np
import pytest

from stgflow import forward as fw
from stgflow import noise as nz
from stgflow import spectral as sp
from stgflow import tangent as tg


PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)
# alpha1 + alpha2 = 0 and beta = 0: the drift assembly skips both stress forms
NO_STRESS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.4, beta=0.0)
DRIFT_CASES = [
    pytest.param(2, 8, PARAMS, id="2-8"),
    pytest.param(3, 3, PARAMS, id="3-3"),
    pytest.param(2, 8, NO_STRESS, id="2-8-no_stress"),
    pytest.param(3, 3, NO_STRESS, id="3-3-no_stress"),
]


def make_cfg(**kw):
    base = dict(
        dim=2, n_max=8, dt=0.01, steps=30, params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.2), M=50.0, seed=11,
    )
    base.update(kw)
    return fw.SimConfig(**base)


class TestLinearizedDrift:
    @pytest.mark.parametrize("dim,n_max,params", DRIFT_CASES)
    def test_jacobian_of_drift(self, dim, n_max, params):
        # central finite differences of the nonlinear assembly
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(0)
        y = sp.random_field(g, rng, amplitude=1.3)
        z = sp.random_field(g, rng)
        eps = 1e-6
        fd = (
            sp.state_drift(g, y + eps * z, None, params)
            - sp.state_drift(g, y - eps * z, None, params)
        ) / (2 * eps)
        an = tg.linearized_drift(g, y, z, None, params)
        assert np.max(np.abs(fd - an)) < 1e-7

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_linear_in_z(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(1)
        y = sp.random_field(g, rng)
        z1 = sp.random_field(g, rng)
        z2 = sp.random_field(g, rng)
        a = tg.linearized_drift(g, y, z1 + 2.0 * z2, None, PARAMS)
        b = tg.linearized_drift(g, y, z1, None, PARAMS) + 2.0 * tg.linearized_drift(
            g, y, z2, None, PARAMS
        )
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("dim,n_max,params", DRIFT_CASES)
    def test_exact_transpose(self, dim, n_max, params):
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(2)
        y = sp.random_field(g, rng, amplitude=1.5)
        for trial in range(4):
            z = sp.random_field(g, rng)
            w = sp.random_field(g, rng)
            lhs = sp.l2_inner(g, tg.linearized_drift(g, y, z, None, params), w)
            rhs = sp.l2_inner(g, z, tg.linearized_drift_T(g, y, w, params))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_stress_terms_self_adjoint(self, dim, n_max):
        # alpha and beta stress derivatives alone are symmetric bilinear forms
        g = sp.WaveGrid(dim, n_max)
        p = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=0.2, beta=0.6)
        rng = np.random.default_rng(3)
        y = sp.random_field(g, rng, amplitude=1.2)
        z = sp.random_field(g, rng)
        w = sp.random_field(g, rng)
        yc = sp.Collocation(g, y, p)
        Lz = sp.leray_project(g, sp.stress_terms(yc, sp.Collocation(g, z, p)))
        Lw = sp.leray_project(g, sp.stress_terms(yc, sp.Collocation(g, w, p)))
        assert abs(sp.l2_inner(g, Lz, w) - sp.l2_inner(g, z, Lw)) < 1e-12


class TestStepPair:
    def test_step_jacobian(self):
        cfg = make_cfg()
        g = cfg.grid
        rng = np.random.default_rng(4)
        y = sp.random_field(g, rng)
        z = sp.random_field(g, rng)
        dW = rng.standard_normal(8) * 0.1
        eps = 1e-6
        fd = (
            fw.step(y + eps * z, None, dW, 0.0, cfg)
            - fw.step(y - eps * z, None, dW, 0.0, cfg)
        ) / (2 * eps)
        an = tg.tangent_step(y, z, None, dW, 0.0, cfg)
        assert np.max(np.abs(fd - an)) < 1e-8

    def test_step_transpose(self):
        cfg = make_cfg(model=nz.NoiseModel(K=5, family="smooth", c0=0.3))
        g = cfg.grid
        rng = np.random.default_rng(5)
        y = sp.random_field(g, rng, amplitude=1.1)
        z = sp.random_field(g, rng)
        p = sp.random_field(g, rng)
        dW = rng.standard_normal(5) * 0.15
        lhs = sp.l2_inner(g, tg.tangent_step(y, z, None, dW, 0.2, cfg), p)
        rhs = sp.l2_inner(g, z, tg.transpose_step(y, p, dW, 0.2, cfg))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_control_injection_transpose(self):
        # the psi term enters as dt * S psi; S^T must be its exact transpose
        cfg = make_cfg(model=nz.NoiseModel(K=0, family="zero"))
        g = cfg.grid
        rng = np.random.default_rng(6)
        psi = sp.random_field(g, rng)
        p = sp.random_field(g, rng)
        y = sp.random_field(g, rng)
        z0 = np.zeros_like(psi)
        with_psi = tg.tangent_step(y, z0, psi, np.zeros(0), 0.0, cfg)
        lhs = sp.l2_inner(g, with_psi, p) / cfg.dt
        rhs = sp.l2_inner(g, psi, tg.control_to_state(p, cfg))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestTangentTrajectory:
    def test_zero_direction_stays_zero(self):
        cfg = make_cfg(steps=12)
        g = cfg.grid
        y0 = sp.random_field(g, np.random.default_rng(7))
        dW = nz.sample_paths(cfg.seed, 2, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, None, dW, cfg)
        psi = np.zeros((cfg.steps, 2) + g.spec_shape)
        seen = []
        for n, _, z in tg.tangent_sweep(base.fields, base.stop, psi, dW, cfg):
            seen.append(n)
            assert np.max(np.abs(z)) == 0.0
        assert seen == list(range(cfg.steps + 1))

    def test_frozen_after_stop(self):
        cfg = make_cfg(steps=25, M=2.0)
        g = cfg.grid
        rng = np.random.default_rng(8)
        y0 = sp.random_field(g, rng, amplitude=0.3)
        U = np.stack([sp.random_field(g, rng, amplitude=20.0)] * 25)
        dW = nz.sample_paths(cfg.seed, 2, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        assert np.any(base.stop < cfg.steps)
        psi = np.stack([sp.random_field(g, rng)] * 25)
        sweep = tg.tangent_sweep(base.fields, base.stop, psi, dW, cfg)
        ztraj = np.stack([z.copy() for _, _, z in sweep], axis=1)
        for s in range(2):
            st = base.stop[s]
            for n in range(st, cfg.steps):
                assert np.array_equal(ztraj[s, n + 1], ztraj[s, st])

    def test_gateaux_slope(self):
        cfg = make_cfg(steps=40, dt=0.01)
        g = cfg.grid
        rng = np.random.default_rng(9)
        y0 = sp.random_field(g, rng, amplitude=0.8)
        psi = np.stack([sp.random_field(g, rng, amplitude=0.5)] * 40)
        rep = tg.gateaux_check(y0, None, psi, cfg, rhos=[1e-2, 1e-3, 1e-4], n_samples=3)
        assert rep["slope"] >= 1.8
        assert rep["errors"][0] > rep["errors"][-1]
