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


# ---------------------------------------------------------------------------
# live-sample compaction against the np.where freeze it replaced

BSEL = (slice(None), None, None, None)


def _freeze_simulate(y0, U, dW, cfg):
    """Forward loop that steps every sample and discards the frozen ones'
    results with np.where: the reference for the compacted loop (no aborts)."""
    g, S = cfg.grid, dW.shape[0]
    y = np.broadcast_to(np.asarray(y0, dtype=complex), (S, g.dim) + g.shape).copy()
    stop = np.full(S, cfg.steps)
    w24 = np.empty((S, cfg.steps + 1))
    w24[:, 0] = sp.w24_norm(g, y)
    fields = [y]
    for n in range(cfg.steps):
        live = stop > n
        y_next = fw.step(y, U[n], dW[:, n], n * cfg.dt, cfg)
        w_next = sp.w24_norm(g, y_next)
        y = np.where(live[BSEL], y_next, y)
        stop[live & (w_next >= cfg.M)] = n + 1
        w24[:, n + 1] = np.where(live, w_next, w24[:, n])
        fields.append(y)
    return np.stack(fields, axis=1), stop, w24


def _freeze_adjoint(fields, stop, gf, dW, cfg):
    p = np.zeros_like(fields[:, 0])
    traj = np.zeros_like(fields)
    for n in range(cfg.steps - 1, -1, -1):
        p_prev = tg.transpose_step(fields[:, n], p, dW[:, n], n * cfg.dt, cfg) + cfg.dt * gf[:, n]
        p = np.where((stop > n)[BSEL], p_prev, p)
        traj[:, n] = p
    return traj


def _freeze_duality(psi, p_traj, fields, stop, gf, dW, cfg):
    g, S = cfg.grid, fields.shape[0]
    lhs, rhs, z = np.zeros(S), np.zeros(S), np.zeros_like(fields[:, 0])
    for n in range(cfg.steps):
        live = stop > n
        sp_n = tg.control_to_state(p_traj[:, n + 1], cfg)
        lhs += np.where(live, cfg.dt * sp.l2_inner(g, np.broadcast_to(psi[n], sp_n.shape), sp_n), 0.0)
        rhs += np.where(live, cfg.dt * sp.l2_inner(g, gf[:, n], z), 0.0)
        if n + 1 < cfg.steps:
            z_next = tg.tangent_step(fields[:, n], z, psi[n], dW[:, n], n * cfg.dt, cfg)
            z = np.where(live[BSEL], z_next, z)
    return lhs, rhs


class TestLiveCompaction:
    def setup_method(self):
        # stops at 10..16 of 16 steps: all live first, then a shrinking live set
        self.cfg = make_cfg(steps=16, M=4.0, model=nz.NoiseModel(K=8, family="linear", c0=2.0))
        self.y0, self.U, self.psi, self.y_d = stopping_setup(self.cfg, amp=0.3, force=20.0)
        self.dW = nz.sample_paths(self.cfg.seed, 6, self.cfg.dt, self.cfg.steps, self.cfg.model.K)

    def test_kernels_see_live_samples_only(self, monkeypatch):
        cfg, dW = self.cfg, self.dW
        sizes = []

        def recorder(f):
            def rec(y, *args):
                sizes.append(y.shape[0])
                return f(y, *args)
            return rec

        monkeypatch.setattr(fw, "step", recorder(fw.step))
        tangent = recorder(tg.tangent_step)
        monkeypatch.setattr(tg, "tangent_step", tangent)
        monkeypatch.setattr(adj, "tangent_step", tangent)
        monkeypatch.setattr(adj, "transpose_step", recorder(tg.transpose_step))

        def seen(run):
            sizes.clear()
            run()
            return list(sizes)

        base = fw.simulate_ensemble(self.y0, self.U, dW, cfg)
        assert not base.aborted.any()
        live = [int(np.count_nonzero(base.stop > n)) for n in range(cfg.steps)]
        assert live[0] == 6 and 0 < min(live) < 6
        gf = adj.tracking_residual(base.fields, self.y_d, base.stop, cfg)
        assert seen(lambda: fw.simulate_ensemble(self.y0, self.U, dW, cfg)) == live
        assert seen(lambda: tg.simulate_tangent(base.fields, base.stop, self.psi, dW, cfg)) == live
        ptraj, _ = adj.pathwise_adjoint(base.fields, base.stop, gf, dW, cfg)
        assert sizes[-cfg.steps:] == live[::-1]
        assert seen(lambda: adj.duality_gap(self.psi, ptraj, base.fields, base.stop, gf, dW,
                                            cfg)) == live[:-1]
        assert seen(lambda: adj.adapted_bsde(base.fields, base.stop, gf, dW, cfg)) == live[::-1]

    def test_bitwise_equal_to_freeze_reference(self):
        cfg, dW = self.cfg, self.dW
        fields, stop, w24 = _freeze_simulate(self.y0, self.U, dW, cfg)
        base = fw.simulate_ensemble(self.y0, self.U, dW, cfg)
        assert np.array_equal(base.fields, fields)
        assert np.array_equal(base.stop, stop) and np.array_equal(base.w24, w24)
        assert np.array_equal(base.final, fields[:, -1])
        gf = adj.tracking_residual(fields, self.y_d, stop, cfg)
        ptraj, p0 = adj.pathwise_adjoint(fields, stop, gf, dW, cfg)
        ref = _freeze_adjoint(fields, stop, gf, dW, cfg)
        assert np.array_equal(ptraj, ref) and np.array_equal(p0, ref[:, 0])
        lhs, rhs = adj.duality_gap(self.psi, ptraj, fields, stop, gf, dW, cfg)
        lhs_ref, rhs_ref = _freeze_duality(self.psi, ptraj, fields, stop, gf, dW, cfg)
        assert np.array_equal(lhs, lhs_ref) and np.array_equal(rhs, rhs_ref)
