"""Tests for the pathwise and adapted costate solvers."""

import numpy as np
import pytest

from stgflow import adjoint as adj
from stgflow import forward as fw
from stgflow import noise as nz
from stgflow import spectral as sp
from stgflow import tangent as tg


PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)


def make_cfg(**kw):
    base = dict(
        dim=2, n_max=8, dt=0.01, steps=30, params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.2), M=50.0, seed=17,
    )
    base.update(kw)
    return fw.SimConfig(**base)


def stopping_setup(cfg, amp=0.8, force=None, seed=21):
    """Initial state, forcing and target sized so some samples exit mid-run."""
    g = cfg.grid
    rng = np.random.default_rng(seed)
    y0 = sp.random_field(g, rng, amplitude=amp)
    y_d = sp.random_field(g, rng, amplitude=0.5)
    psi = np.stack([sp.random_field(g, rng) for _ in range(cfg.steps)])
    U = None
    if force is not None:
        U = np.stack([sp.random_field(g, rng, amplitude=force)] * cfg.steps)
    return y0, U, psi, y_d


class TestTrackingResidual:
    def test_l2_variant(self):
        cfg = make_cfg(steps=6)
        g = cfg.grid
        y0, _, _, y_d = stopping_setup(cfg)
        dW = nz.sample_paths(cfg.seed, 2, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, None, dW, cfg)
        gf = adj.tracking_residual(base.fields, y_d, base.stop, cfg, "l2")
        assert np.max(np.abs(gf[:, 3] - (base.fields[:, 3] - y_d))) < 1e-12

    def test_v_variant(self):
        cfg = make_cfg(steps=4)
        g = cfg.grid
        y0, _, _, y_d = stopping_setup(cfg)
        dW = nz.sample_paths(cfg.seed, 1, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, None, dW, cfg)
        gf = adj.tracking_residual(base.fields, y_d, base.stop, cfg, "v")
        want = sp.v_apply(g, np.asarray(base.fields[:, 2], dtype=complex) - y_d, cfg.params)
        assert np.max(np.abs(gf[:, 2] - want)) < 1e-12

    def test_zero_after_stop(self):
        cfg = make_cfg(steps=20, M=2.0)
        y0, U, _, y_d = stopping_setup(cfg, amp=0.3, force=20.0)
        dW = nz.sample_paths(cfg.seed, 3, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        assert np.any(base.stop < cfg.steps)
        gf = adj.tracking_residual(base.fields, y_d, base.stop, cfg)
        for s in range(3):
            if base.stop[s] < cfg.steps:
                assert np.max(np.abs(gf[s, base.stop[s]:])) == 0.0

    def test_unknown_variant(self):
        cfg = make_cfg(steps=2)
        y0, _, _, y_d = stopping_setup(cfg)
        dW = nz.sample_paths(cfg.seed, 1, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, None, dW, cfg)
        with pytest.raises(ValueError):
            adj.tracking_residual(base.fields, y_d, base.stop, cfg, "h2")


class TestPathwiseDuality:
    @pytest.mark.parametrize("fam", ["linear", "smooth"])
    @pytest.mark.parametrize("dim,n_max,steps", [(2, 8, 40), (3, 3, 25)])
    def test_machine_precision(self, fam, dim, n_max, steps):
        cfg = make_cfg(
            dim=dim, n_max=n_max, steps=steps, p_exp=10.0,
            model=nz.NoiseModel(K=8, family=fam, c0=0.3),
        )
        g = cfg.grid
        rng = np.random.default_rng(2)
        y0 = sp.random_field(g, rng, amplitude=0.8)
        w0 = float(sp.w24_norm(g, y0))
        cfg = make_cfg(
            dim=dim, n_max=n_max, steps=steps, p_exp=10.0, M=1.25 * w0,
            model=nz.NoiseModel(K=8, family=fam, c0=0.3),
        )
        U = np.stack([sp.random_field(g, rng, amplitude=5.0 * w0)] * steps)
        psi = np.stack([sp.random_field(g, rng) for _ in range(steps)])
        y_d = sp.random_field(g, rng, amplitude=0.5)
        rep = adj.duality_check(y0, U, psi, y_d, cfg, n_samples=6)
        assert rep["max_rel_gap"] < 1e-10

    def test_duality_with_v_tracking(self):
        cfg = make_cfg(steps=25)
        y0, U, psi, y_d = stopping_setup(cfg, force=3.0)
        rep = adj.duality_check(y0, U, psi, y_d, cfg, n_samples=4, variant="v")
        assert rep["max_rel_gap"] < 1e-10

    def test_last_tangent_step_skipped(self, monkeypatch):
        # z_N pairs with nothing, so duality_gap advances the tangent
        # steps - 1 times (it used to take steps); rhs is unchanged to the bit
        cfg = make_cfg(steps=12)
        y0, U, psi, y_d = stopping_setup(cfg, force=2.0)
        dW = nz.sample_paths(cfg.seed, 3, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        gf = adj.tracking_residual(base.fields, y_d, base.stop, cfg)
        ptraj, _ = adj.pathwise_adjoint(base.fields, base.stop, gf, dW, cfg)
        calls = []

        def counted(*args):
            calls.append(1)
            return tg.tangent_step(*args)

        monkeypatch.setattr(adj, "tangent_step", counted)
        lhs, rhs = adj.duality_gap(psi, ptraj, base.fields, base.stop, gf, dW, cfg)
        assert len(calls) == cfg.steps - 1
        ztraj, _ = tg.simulate_tangent(base.fields, base.stop, psi, dW, cfg)
        rhs_ref = np.zeros(3)
        for n in range(cfg.steps):
            live = base.stop > n
            rhs_ref += np.where(live, cfg.dt * sp.l2_inner(cfg.grid, gf[:, n], ztraj[:, n]), 0.0)
        assert np.array_equal(rhs, rhs_ref)
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)) < 1e-10

    def test_costate_zero_after_stop(self):
        cfg = make_cfg(steps=20, M=2.5)
        y0, U, psi, y_d = stopping_setup(cfg, amp=0.3, force=25.0)
        dW = nz.sample_paths(cfg.seed, 3, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        assert np.any(base.stop < cfg.steps)
        gf = adj.tracking_residual(base.fields, y_d, base.stop, cfg)
        ptraj, _ = adj.pathwise_adjoint(base.fields, base.stop, gf, dW, cfg)
        for s in range(3):
            st = base.stop[s]
            if st < cfg.steps:
                assert np.max(np.abs(ptraj[s, st:])) == 0.0
        assert np.max(np.abs(ptraj[:, cfg.steps])) == 0.0

    def test_weak_residual_zero_for_exact_costate(self):
        cfg = make_cfg(steps=15)
        y0, U, psi, y_d = stopping_setup(cfg, force=2.0)
        dW = nz.sample_paths(cfg.seed, 2, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        gf = adj.tracking_residual(base.fields, y_d, base.stop, cfg)
        ptraj, _ = adj.pathwise_adjoint(base.fields, base.stop, gf, dW, cfg)
        res = adj.adjoint_weak_residual(base.fields, base.stop, gf, ptraj, dW, cfg)
        assert res < 1e-12
        # a perturbed costate must be flagged
        bad = ptraj.copy()
        bad[:, 5] += 1e-3
        assert adj.adjoint_weak_residual(base.fields, base.stop, gf, bad, dW, cfg) > 1e-6


class TestAdapted:
    def small_cfg(self):
        return make_cfg(n_max=3, dt=0.02, steps=24, M=4.0,
                        model=nz.NoiseModel(K=5, family="linear", c0=0.3))

    def test_duality_within_mc_error(self):
        cfg = self.small_cfg()
        g = cfg.grid
        rng = np.random.default_rng(5)
        y0 = sp.random_field(g, rng, amplitude=0.8)
        w0 = float(sp.w24_norm(g, y0))
        cfg = make_cfg(n_max=3, dt=0.02, steps=24, M=1.3 * w0,
                       model=nz.NoiseModel(K=5, family="linear", c0=0.3))
        U = np.stack([sp.random_field(g, rng, amplitude=4.0 * w0)] * cfg.steps)
        psi = np.stack([sp.random_field(g, rng) for _ in range(cfg.steps)])
        y_d = sp.random_field(g, rng, amplitude=0.5)
        rep = adj.adapted_duality_check(y0, U, psi, y_d, cfg, n_samples=300)
        assert rep["within_3se"]
        assert rep["post_exit_max"] == 0.0
        assert rep["terminal_max"] == 0.0
        assert np.any(rep["stop"] < cfg.steps)

    def test_adapted_p_is_function_of_features(self):
        # two samples with identical state summaries at a step get fitted
        # values from the same regression surface; just sanity-check shapes
        cfg = self.small_cfg()
        g = cfg.grid
        rng = np.random.default_rng(6)
        y0 = sp.random_field(g, rng, amplitude=0.5)
        y_d = sp.random_field(g, rng, amplitude=0.3)
        dW = nz.sample_paths(cfg.seed, 50, cfg.dt, cfg.steps, cfg.model.K)
        base = fw.simulate_ensemble(y0, None, dW, cfg, store_dtype=np.complex64)
        gf = adj.tracking_residual(base.fields, y_d, base.stop, cfg)
        sol = adj.adapted_bsde(base.fields, base.stop, gf, dW, cfg, store_q=True)
        assert sol["p_hat"].shape == (50, cfg.steps + 1, 2) + g.shape
        assert sol["q_hat"].shape == (50, cfg.steps, 5, 2) + g.shape
        direct = sp.l2_norm(g, np.asarray(sol["q_hat"], dtype=complex))
        assert np.allclose(sol["q_norms"], direct, atol=1e-5)
        # q columns are solenoidal
        qk = np.asarray(sol["q_hat"][0, 3, 0], dtype=complex)
        assert sp.divergence_defect(g, qk) < 1e-5
