"""Tests for the pathwise and adapted costate solvers."""

import numpy as np
import pytest

from stgflow import adjoint as adj
from stgflow import forward as fw
from stgflow import noise as nz
from stgflow import spectral as sp
from stgflow import tangent as tg


PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)
BSEL = (slice(None), None, None, None)  # per-sample mask over a 2D field


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
        assert cfg.tracking == "l2"
        y0, _, _, y_d = stopping_setup(cfg)
        dW = cfg.noise_bank(2)
        base = fw.simulate_ensemble(y0, None, dW, cfg)
        gf = adj.tracking_residual(base.fields[:, 3], y_d, 3, base.stop > 3, cfg)
        assert np.max(np.abs(gf - (base.fields[:, 3] - y_d))) < 1e-12

    def test_v_variant(self):
        cfg = make_cfg(steps=4, tracking="v")
        g = cfg.grid
        y0, _, _, y_d = stopping_setup(cfg)
        dW = cfg.noise_bank(1)
        base = fw.simulate_ensemble(y0, None, dW, cfg)
        gf = adj.tracking_residual(base.fields[:, 2], y_d, 2, base.stop > 2, cfg)
        want = sp.v_apply(g, np.asarray(base.fields[:, 2], dtype=complex) - y_d, cfg.params)
        assert np.max(np.abs(gf - want)) < 1e-12

    def test_zero_after_stop(self):
        cfg = make_cfg(steps=20, M=2.0)
        y0, U, _, y_d = stopping_setup(cfg, amp=0.3, force=20.0)
        dW = cfg.noise_bank(3)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        assert np.any(base.stop < cfg.steps)
        for n in range(cfg.steps):
            gf = adj.tracking_residual(base.fields[:, n], y_d, n, base.stop > n, cfg)
            for s in range(3):
                if base.stop[s] <= n:
                    assert np.max(np.abs(gf[s])) == 0.0

    def test_unknown_variant(self):
        # the tracking norm is checked once, where the problem is configured
        with pytest.raises(ValueError, match="tracking"):
            make_cfg(steps=2, tracking="h2")


def costate_trajectory(fields, stop, y_d, dW, cfg):
    """p_1 ... p_N collected from the costate sweep (p_0 is not formed)."""
    traj = np.zeros(fields.shape, dtype=complex)
    for n, _, p in adj.costate_sweep(fields, stop, y_d, dW, cfg):
        traj[:, n + 1] = p
    return traj


def adjoint_weak_residual(fields, stop, y_d, p_traj, dW, cfg):
    """Backward one-step defect of a stored costate p_1 ... p_N, normalized."""
    worst = 0.0
    pmax = max(float(np.max(np.abs(p_traj))), 1e-30)
    for n in range(1, cfg.steps):
        live = stop > n
        gn = adj.tracking_residual(fields[:, n], y_d, n, live, cfg)
        pred = tg.transpose_step(fields[:, n], p_traj[:, n + 1], dW[:, n], n * cfg.dt, cfg)
        pred = pred + cfg.dt * gn
        pred = np.where(live[BSEL], pred, p_traj[:, n + 1])
        worst = max(worst, float(np.max(np.abs(p_traj[:, n] - pred))) / pmax)
    return worst


def duality_rhs_reference(y0, U, psi, y_d, cfg, S):
    """sum_{n < stop} dt (g_n, z_n) per sample, with z_n from the stored-field
    tangent recursion ``_freeze_tangent`` along a stored base ensemble."""
    dW = cfg.noise_bank(S)
    base = fw.simulate_ensemble(y0, U, dW, cfg)
    ztraj = _freeze_tangent(psi, base.fields, base.stop, dW, cfg)
    rhs = np.zeros(S)
    for n in range(cfg.steps):
        live = base.stop > n
        gn = adj.tracking_residual(base.fields[:, n], y_d, n, live, cfg)
        rhs += np.where(live, cfg.dt * sp.l2_inner(cfg.grid, gn, ztraj[:, n]), 0.0)
    return rhs


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
        cfg = make_cfg(steps=25, tracking="v")
        y0, U, psi, y_d = stopping_setup(cfg, force=3.0)
        rep = adj.duality_check(y0, U, psi, y_d, cfg, n_samples=4)
        assert rep["max_rel_gap"] < 1e-10

    @pytest.mark.parametrize("variant", ["l2", "v"])
    def test_duality_with_time_varying_target(self, variant):
        cfg = make_cfg(steps=20, M=4.0, tracking=variant,
                       model=nz.NoiseModel(K=8, family="linear", c0=2.0))
        y0, U, psi, _ = stopping_setup(cfg, amp=0.3, force=20.0)
        rng = np.random.default_rng(23)
        y_d = np.stack([sp.random_field(cfg.grid, rng, amplitude=0.5) for _ in range(cfg.steps)])
        rep = adj.duality_check(y0, U, psi, y_d, cfg, n_samples=4)
        assert len(set(rep["stop"])) > 1  # the target's rows end at different exits
        assert rep["max_rel_gap"] <= 1e-10
        # each step pairs with its own row, not the first one
        first = adj.duality_check(y0, U, psi, y_d[0], cfg, n_samples=4)
        assert np.all(first["rhs"] != rep["rhs"])

    def test_last_tangent_step_skipped(self, monkeypatch):
        # z_N pairs with nothing, so the duality rhs advances the tangent
        # steps - 1 times; rhs is unchanged to the bit
        cfg = make_cfg(steps=12)
        y0, U, psi, y_d = stopping_setup(cfg, force=2.0)
        calls = []
        tangent = tg.tangent_step
        monkeypatch.setattr(tg, "tangent_step", lambda *a: calls.append(1) or tangent(*a))
        rep = adj.duality_check(y0, U, psi, y_d, cfg, n_samples=3)
        assert len(calls) == cfg.steps - 1
        assert np.array_equal(rep["rhs"], duality_rhs_reference(y0, U, psi, y_d, cfg, 3))
        assert rep["max_rel_gap"] < 1e-10

    @pytest.mark.parametrize("blowup", [10.0, 1.0])
    @pytest.mark.parametrize("variant", ["l2", "v"])
    def test_rhs_matches_stored_field_reference(self, blowup, variant):
        # stops at 10..16 of 16 steps; with blowup_factor = 1 they are aborts
        cfg = make_cfg(steps=16, M=4.0, blowup_factor=blowup, tracking=variant,
                       model=nz.NoiseModel(K=8, family="linear", c0=2.0))
        y0, U, psi, y_d = stopping_setup(cfg, amp=0.3, force=20.0)
        rep = adj.duality_check(y0, U, psi, y_d, cfg, n_samples=6)
        assert len(set(rep["stop"])) > 1
        ref = duality_rhs_reference(y0, U, psi, y_d, cfg, 6)
        assert np.array_equal(rep["rhs"], ref)
        assert rep["max_rel_gap"] < 1e-10

    def test_first_costate_not_formed(self, monkeypatch):
        # every reader pairs p_{n+1} with step n, so the sweep stops at p_1
        cfg = make_cfg(steps=12)
        y0, U, _, y_d = stopping_setup(cfg, force=2.0)
        dW = cfg.noise_bank(3)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        calls = []
        transpose = tg.transpose_step
        monkeypatch.setattr(adj, "transpose_step", lambda *a: calls.append(1) or transpose(*a))
        steps = [n for n, _, _ in adj.costate_sweep(base.fields, base.stop, y_d, dW, cfg)]
        assert steps == list(range(cfg.steps - 1, -1, -1))
        assert len(calls) == cfg.steps - 1

    def test_costate_zero_after_stop(self):
        cfg = make_cfg(steps=20, M=2.5)
        y0, U, psi, y_d = stopping_setup(cfg, amp=0.3, force=25.0)
        dW = cfg.noise_bank(3)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        assert np.any(base.stop < cfg.steps)
        ptraj = costate_trajectory(base.fields, base.stop, y_d, dW, cfg)
        for s in range(3):
            st = base.stop[s]
            if st < cfg.steps:
                assert np.max(np.abs(ptraj[s, max(st, 1):])) == 0.0
        assert np.max(np.abs(ptraj[:, cfg.steps])) == 0.0

    def test_weak_residual_zero_for_exact_costate(self):
        cfg = make_cfg(steps=15)
        y0, U, psi, y_d = stopping_setup(cfg, force=2.0)
        dW = cfg.noise_bank(2)
        base = fw.simulate_ensemble(y0, U, dW, cfg)
        ptraj = costate_trajectory(base.fields, base.stop, y_d, dW, cfg)
        res = adjoint_weak_residual(base.fields, base.stop, y_d, ptraj, dW, cfg)
        assert res < 1e-12
        # a perturbed costate must be flagged
        bad = ptraj.copy()
        bad[:, 5] += 1e-3
        assert adjoint_weak_residual(base.fields, base.stop, y_d, bad, dW, cfg) > 1e-6


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
        # p_hat_{n+1} = Q B, with Q an orthonormal basis of the features of
        # y_{n+1} and B Leray projected: its rows lie in the span of the
        # design columns, and it is solenoidal
        cfg = self.small_cfg()
        g = cfg.grid
        rng = np.random.default_rng(6)
        y0 = sp.random_field(g, rng, amplitude=0.5)
        y_d = sp.random_field(g, rng, amplitude=0.3)
        dW = cfg.noise_bank(50)
        base = fw.simulate_ensemble(y0, None, dW, cfg, store_dtype=np.complex64)
        seen = []
        for n, live, Q, B, q_norms in adj.adapted_pair(base.fields, base.stop, y_d, dW, cfg):
            seen.append(n)
            r = Q.shape[1]
            assert Q.shape == (50, r) and B.shape == (r, 2) + g.spec_shape
            assert q_norms.shape == (50, 5) and np.all(q_norms >= 0.0)
            X = adj._features(g, np.asarray(base.fields[:, n + 1], dtype=complex),
                              (base.stop > n + 1).astype(float))
            assert np.max(np.abs(Q.T @ Q - np.eye(r)), initial=0.0) <= 1e-12
            assert np.max(np.abs(Q @ (Q.T @ X) - X)) <= 1e-12 * max(np.max(np.abs(X)), 1e-300)
            p_hat = np.tensordot(Q, B, axes=1)
            P = p_hat.reshape(50, -1)
            scale = max(np.max(np.abs(P)), 1e-30)
            assert np.max(np.abs(X @ (np.linalg.pinv(X) @ P) - P)) <= 1e-6 * scale
            # p_hat is solenoidal
            assert sp.divergence_defect(g, p_hat[0]) < 1e-5
        assert seen == list(range(cfg.steps - 1, -1, -1))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_feature_space_pair_matches_fitted_reference(self, dim):
        # P(X beta) = X (P beta): the pair made in feature space against the
        # per-sample fit, projection and norms it replaces.  The states are
        # spread widely, which keeps the design well conditioned: on a
        # simulated ensemble X is so near singular that X (X^+ T) itself
        # carries rounding of about 1e-7
        K = 4
        cfg = make_cfg(dim=dim, n_max=3 if dim == 2 else 2, dt=0.02, steps=8, p_exp=10.0,
                       model=nz.NoiseModel(K=K, family="linear", c0=0.3))
        g, S = cfg.grid, 40
        rng = np.random.default_rng(40 + dim)
        fields = np.stack([sp.random_field(g, rng, amplitude=a, batch=(cfg.steps + 1,))
                           for a in rng.uniform(0.2, 2.0, S)])
        stop = rng.integers(cfg.steps // 2, cfg.steps + 1, S)
        assert 0 < np.count_nonzero(stop < cfg.steps) < S
        y_d = sp.random_field(g, rng, amplitude=0.5)
        psi = np.stack([sp.random_field(g, rng) for _ in range(cfg.steps)])
        dW = cfg.noise_bank(S)
        bsel = (slice(None),) + (None,) * (dim + 1)

        def fitted(n, T):
            live = stop > n
            X = adj._features(g, fields[:, n], live.astype(float))
            fit = (X @ (np.linalg.pinv(X) @ T.reshape(S, -1))).reshape(T.shape)
            return sp.leray_project(g, np.where(live[bsel], fit, 0.0))

        def close(a, ref):
            return np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))

        sweeps = zip(adj.adapted_pair(fields, stop, y_d, dW, cfg),
                     adj.costate_sweep(fields, stop, y_d, dW, cfg))
        for (n, live, Q, B, q_norms), (_, _, p) in sweeps:
            p_ref = fitted(n + 1, p)
            p_hat = np.tensordot(Q, B, axes=1)
            assert close(p_hat, p_ref)
            q_ref = np.stack([sp.l2_norm(g, fitted(n, p * (dW[:, n, k] / cfg.dt)[bsel]))
                              for k in range(K)], axis=1)
            assert close(q_norms, q_ref)
            lhs_ref = np.where(live, adj._lhs_term(psi[n], p_ref, cfg), 0.0)
            assert close(Q @ adj._lhs_term(psi[n], B, cfg), lhs_ref)
            # the rows of stopped samples are exact zeros
            gone = stop <= n + 1
            assert np.all(Q[gone] == 0.0) and np.all(p_hat[gone] == 0.0)
            assert np.all(q_norms[stop <= n] == 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_features_probe_modes(self, dim):
        # the probe modes are the unit vectors then the all-ones vector
        g = sp.WaveGrid(dim, 3)
        y = np.stack([sp.random_field(g, np.random.default_rng(s)) for s in range(7)])
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        ks = [(1, 0), (0, 1), (1, 1)] if dim == 2 else [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        cols = [np.ones(7), sp.l2_norm(g, y), sp.h1_norm(g, y)]
        for kv in ks:
            cols += [y[(slice(None), 0) + kv].real, y[(slice(None), 0) + kv].imag]
        ref = np.stack(cols, axis=1)
        ref = np.concatenate([ref, ref[:, 1:] ** 2], axis=1) * mask[:, None]
        assert np.array_equal(adj._features(g, y, mask), ref)


# ---------------------------------------------------------------------------
# live-sample compaction against the np.where freeze it replaced


def _freeze_simulate(y0, U, dW, cfg):
    """Forward loop that steps every sample and discards the frozen ones'
    results with np.where: the reference for the compacted loop (no aborts)."""
    g, S = cfg.grid, dW.shape[0]
    y = np.broadcast_to(np.asarray(y0, dtype=complex), (S, g.dim) + g.spec_shape).copy()
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


def _freeze_adjoint(fields, stop, y_d, dW, cfg):
    p = np.zeros_like(fields[:, 0])
    traj = np.zeros_like(fields)
    for n in range(cfg.steps - 1, -1, -1):
        gn = adj.tracking_residual(fields[:, n], y_d, n, stop > n, cfg)
        p_prev = tg.transpose_step(fields[:, n], p, dW[:, n], n * cfg.dt, cfg) + cfg.dt * gn
        p = np.where((stop > n)[BSEL], p_prev, p)
        traj[:, n] = p
    return traj


def _freeze_tangent(psi, fields, stop, dW, cfg):
    z = np.zeros_like(fields[:, 0])
    traj = np.zeros_like(fields)
    for n in range(cfg.steps):
        z_next = tg.tangent_step(fields[:, n], z, psi[n], dW[:, n], n * cfg.dt, cfg)
        z = np.where((stop > n)[BSEL], z_next, z)
        traj[:, n + 1] = z
    return traj


class TestLiveCompaction:
    def setup_method(self):
        # stops at 10..16 of 16 steps: all live first, then a shrinking live set
        self.cfg = make_cfg(steps=16, M=4.0, model=nz.NoiseModel(K=8, family="linear", c0=2.0))
        self.y0, self.U, self.psi, self.y_d = stopping_setup(self.cfg, amp=0.3, force=20.0)
        self.dW = self.cfg.noise_bank(6)

    def test_kernels_see_live_samples_only(self, monkeypatch):
        cfg, dW = self.cfg, self.dW
        sizes = []

        def recorder(f):
            def rec(y, *args):
                sizes.append(y.shape[0])
                return f(y, *args)
            return rec

        monkeypatch.setattr(fw, "step", recorder(fw.step))
        monkeypatch.setattr(tg, "tangent_step", recorder(tg.tangent_step))
        monkeypatch.setattr(adj, "transpose_step", recorder(tg.transpose_step))

        def seen(run):
            sizes.clear()
            for _ in run():
                pass
            return list(sizes)

        base = fw.simulate_ensemble(self.y0, self.U, dW, cfg)
        assert not base.aborted.any()
        live = [int(np.count_nonzero(base.stop > n)) for n in range(cfg.steps)]
        assert live[0] == 6 and 0 < min(live) < 6
        fields, stop = base.fields, base.stop
        assert seen(lambda: [fw.simulate_ensemble(self.y0, self.U, dW, cfg)]) == live
        # the fused loop: step n, then tangent step n, on the same live samples
        fused = [m for m in live for _ in range(2)]
        assert seen(lambda: [fw.simulate_ensemble(self.y0, self.U, dW, cfg, psi=self.psi,
                                                  read=lambda *a: None, read_to=cfg.steps)]) == fused
        # p_0 is not formed, and the duality rhs does not form z_N
        assert seen(lambda: adj.costate_sweep(fields, stop, self.y_d, dW, cfg)) == live[:0:-1]
        assert seen(lambda: adj.adapted_pair(fields, stop, self.y_d, dW, cfg)) == live[:0:-1]
        assert seen(lambda: [adj.duality_check(self.y0, self.U, self.psi, self.y_d, cfg, 6)]) == (
            fused[:-1] + live[:0:-1])

    def test_bitwise_equal_to_freeze_reference(self):
        cfg, dW = self.cfg, self.dW
        fields, stop, w24 = _freeze_simulate(self.y0, self.U, dW, cfg)
        base = fw.simulate_ensemble(self.y0, self.U, dW, cfg)
        assert np.array_equal(base.fields, fields)
        assert np.array_equal(base.stop, stop) and np.array_equal(base.w24, w24)
        ref = _freeze_adjoint(fields, stop, self.y_d, dW, cfg)
        for n, _, p in adj.costate_sweep(fields, stop, self.y_d, dW, cfg):
            assert np.array_equal(p, ref[:, n + 1])
        ref = _freeze_tangent(self.psi, fields, stop, dW, cfg)
        seen = []

        def read(n, live, y, z):
            seen.append(n)
            assert np.array_equal(y, fields[:, n]) and np.array_equal(z, ref[:, n])
            assert np.array_equal(live, stop > n)

        fw.simulate_ensemble(self.y0, self.U, dW, cfg, psi=self.psi, read=read, read_to=cfg.steps)
        assert seen == list(range(cfg.steps + 1))
