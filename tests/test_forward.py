"""Tests for the semi-implicit Euler-Maruyama solver and stopping logic."""

import re

import numpy as np
import pytest

from stgflow import forward as fw
from stgflow import noise as nz
from stgflow import spectral as sp


PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)
SECOND_GRADE = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.4, beta=0.0)


def make_cfg(**kw):
    base = dict(
        dim=2,
        n_max=8,
        dt=0.01,
        steps=50,
        params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.1),
        M=50.0,
        seed=3,
    )
    base.update(kw)
    return fw.SimConfig(**base)


class TestConfig:
    def test_p_exp_bound(self):
        with pytest.raises(ValueError):
            make_cfg(p_exp=6.0)  # 2*(dim+1) = 6 in 2D, must be strict
        make_cfg(p_exp=6.5)
        with pytest.raises(ValueError):
            fw.SimConfig(
                dim=3, n_max=3, dt=0.01, steps=10, params=PARAMS,
                model=nz.NoiseModel(K=2), p_exp=8.0,
            )

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            make_cfg(dt=0.0)
        with pytest.raises(ValueError):
            make_cfg(M=-1.0)

    def test_horizon(self):
        cfg = make_cfg(dt=0.02, steps=50)
        assert abs(cfg.T - 1.0) < 1e-14

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_implicit_denominator_from_v_symbol(self, dim, n_max):
        cfg = make_cfg(dim=dim, n_max=n_max, p_exp=10.0)
        g = cfg.grid
        want = sp.v_symbol(g, cfg.params) + cfg.dt * cfg.params.nu * g.k2
        assert np.array_equal(cfg.implicit_denominator, want)


class TestStep:
    def test_stokes_decay_oracle(self):
        # zero noise, a single shear mode under a second-grade fluid stays a
        # single mode with the exact per-step factor (1+a1)/(1+a1+dt nu)
        cfg = make_cfg(params=SECOND_GRADE, model=nz.NoiseModel(K=0, family="zero"))
        g = cfg.grid
        x = 2 * np.pi * np.arange(g.N) / g.N
        X1 = x[:, None] + 0 * x[None, :]
        y = sp.to_spec(g, np.stack([0 * X1, np.cos(X1)]))
        fac = (1 + 0.4) / (1 + 0.4 + cfg.dt * 0.5)
        y1 = fw.step(y, None, np.zeros(0), 0.0, cfg)
        assert np.max(np.abs(y1 - fac * y)) < 1e-13

    def test_control_enters_linearly(self):
        cfg = make_cfg(model=nz.NoiseModel(K=0, family="zero"))
        g = cfg.grid
        rng = np.random.default_rng(5)
        y = sp.random_field(g, rng)
        u = sp.random_field(g, rng)
        a = fw.step(y, None, np.zeros(0), 0.0, cfg)
        b = fw.step(y, u[None].repeat(1, axis=0)[0], np.zeros(0), 0.0, cfg)
        expect = cfg.dt * sp.leray_project(g, u / cfg.implicit_denominator)
        assert np.max(np.abs(b - a - expect)) < 1e-13

    def test_noise_term_matches_operator(self):
        cfg = make_cfg()
        g = cfg.grid
        rng = np.random.default_rng(6)
        y = sp.random_field(g, rng)
        dW = rng.standard_normal(8) * 0.1
        with_n = fw.step(y, None, dW, 0.0, cfg)
        cfg0 = make_cfg(model=nz.NoiseModel(K=0, family="zero"))
        without = fw.step(y, None, np.zeros(0), 0.0, cfg0)
        expect = sp.leray_project(
            g, nz.noise_increment(g, 0.0, y, dW, cfg.model) / cfg.implicit_denominator
        )
        assert np.max(np.abs(with_n - without - expect)) < 1e-13

    def test_divergence_free_invariant(self):
        cfg = make_cfg()
        g = cfg.grid
        y = sp.random_field(g, np.random.default_rng(7), amplitude=2.0)
        dW = np.random.default_rng(8).standard_normal(8) * 0.1
        assert sp.divergence_defect(g, fw.step(y, None, dW, 0.0, cfg)) < 1e-12


class TestSimulate:
    def test_reproducible(self):
        cfg = make_cfg(steps=20)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(1))
        r1 = fw.simulate_ensemble(y0, None, cfg.noise_bank(3), cfg)
        r2 = fw.simulate_ensemble(y0, None, cfg.noise_bank(3), cfg)
        assert np.array_equal(r1.fields, r2.fields)
        assert np.array_equal(r1.stop, r2.stop)

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_fields_hold_half_spectrum(self, dim, n_max):
        # every stored snapshot keeps last-axis modes 0..N/2 only
        cfg = make_cfg(dim=dim, n_max=n_max, steps=3, p_exp=10.0)
        g = cfg.grid
        res = fw.simulate_ensemble(sp.random_field(g, np.random.default_rng(5)), None, cfg.noise_bank(2), cfg)
        assert res.fields.shape == (2, 4, dim) + (g.N,) * (dim - 1) + (g.N // 2 + 1,)
        assert res.fields[:, -1].shape == (2, dim) + g.spec_shape

    def test_batch_matches_single(self):
        cfg = make_cfg(steps=15)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(2))
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(4), cfg)
        for s in range(4):
            path = nz.sample_path(cfg.seed, s, cfg.dt, cfg.steps, cfg.model.K)
            tr = fw.simulate_ensemble(y0, None, path[None], cfg)
            assert np.max(np.abs(tr.fields[0] - res.fields[s])) < 1e-12
            assert tr.stop[0] == res.stop[s]

    def test_stopping_freezes_state(self):
        # low threshold stops immediately after a step or two; the state and
        # the norm trace must be constant from the crossing on
        cfg = make_cfg(M=0.9, steps=30)
        g = cfg.grid
        y0 = sp.random_field(g, np.random.default_rng(3), amplitude=0.2)
        U = 5.0 * np.stack([sp.random_field(g, np.random.default_rng(4))] * 30)
        res = fw.simulate_ensemble(y0, U, cfg.noise_bank(2), cfg)
        for s in range(2):
            st = res.stop[s]
            assert st < cfg.steps
            assert res.w24[s, st] >= cfg.M
            for n in range(st, cfg.steps):
                assert np.array_equal(res.fields[s, n + 1], res.fields[s, st])

    def test_initial_state_beyond_threshold(self):
        cfg = make_cfg(M=0.1, steps=5)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(5), amplitude=3.0)
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(1), cfg)
        assert res.stop[0] == 0
        assert np.array_equal(res.fields[0, -1], res.fields[0, 0])

    def test_stop_monotone_in_threshold(self):
        g = sp.WaveGrid(2, 8)
        y0 = sp.random_field(g, np.random.default_rng(6), amplitude=1.0)
        stops = []
        for M in (1.5, 3.0, 50.0):
            cfg = make_cfg(M=M, steps=40)
            stops.append(fw.simulate_ensemble(y0, None, cfg.noise_bank(3), cfg).stop)
        assert np.all(stops[0] <= stops[1])
        assert np.all(stops[1] <= stops[2])

    def test_abort_on_blowup(self):
        # anti-dissipative forcing with a tiny guard triggers the abort path
        cfg = make_cfg(M=0.5, blowup_factor=1.1, steps=10)
        g = cfg.grid
        rng = np.random.default_rng(7)
        y0 = sp.random_field(g, rng, amplitude=0.01)
        U = 5000.0 * np.stack([sp.random_field(g, rng)] * 10)
        res = fw.simulate_ensemble(y0, U, cfg.noise_bank(1), cfg)
        assert res.aborted[0]
        assert np.all(np.isfinite(res.w24))

    def test_store_dtype(self):
        cfg = make_cfg(steps=8)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(8))
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(2), cfg, store_dtype=np.complex64)
        assert res.fields.dtype == np.complex64

    @pytest.mark.parametrize("steps", [2, 3])
    @pytest.mark.parametrize("arg", ["U", "psi"])
    def test_single_field_per_step_array_rejected(self, steps, arg):
        # a (dim, *spec_shape) field read step by step would index its
        # components: it ran silently at steps = dim and failed at step dim
        cfg = make_cfg(steps=steps)
        g = cfg.grid
        rng = np.random.default_rng(9)
        y0, field = sp.random_field(g, rng), sp.random_field(g, rng)
        dW = cfg.noise_bank(2)
        kw = {"U": field} if arg == "U" else {"U": None, "psi": field, "read": lambda *a: None}
        want = f"{arg} must be (steps, dim, *spec_shape) = {(steps, 2) + g.spec_shape}"
        with pytest.raises(ValueError, match=re.escape(want)):
            fw.simulate_ensemble(y0, dW=dW, cfg=cfg, **kw)
        kw[arg] = np.stack([field] * steps)  # one field per step is accepted
        fw.simulate_ensemble(y0, dW=dW, cfg=cfg, **kw)


class TestEnergy:
    def test_deterministic_dissipation(self):
        # no noise, no control: the discrete V-energy decays monotonically
        cfg = make_cfg(model=nz.NoiseModel(K=0, family="zero"), dt=0.005, steps=100)
        g = cfg.grid
        y0 = sp.random_field(g, np.random.default_rng(9), kmax=g.cubic_cut, amplitude=1.0)
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(1), cfg)
        wv = 1.0 + cfg.params.alpha1 * g.k2
        v2 = np.array(
            [sp.sobolev_inner(g, res.fields[0, n], res.fields[0, n], wv) for n in range(101)]
        )
        assert np.all(np.diff(v2) <= 5.0 * cfg.dt * v2[0])
        assert v2[-1] < v2[0]

    def test_energy_stats_fields_required(self):
        cfg = make_cfg(steps=5)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(10))
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(2), cfg, store_fields=False)
        assert res.fields is None
        with pytest.raises(ValueError):
            fw.energy_stats(res, cfg)

    def test_energy_stats_contents(self):
        cfg = make_cfg(steps=20)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(11))
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(4), cfg)
        stats = fw.energy_stats(res, cfg)
        assert stats["sup_v_sq"]["mean"] > 0
        assert stats["int_sym_grad_sq"]["mean"] > 0
        assert sum(stats["stop_histogram"]) == 4
        assert stats["aborted"] == 0

    @pytest.mark.parametrize("dim,n_max", [(2, 4), (3, 3)])
    def test_int_deformation_4_against_full_tensor(self, dim, n_max):
        # reference: dt-sum over n < stop of the quadrature of (sum_ab A_ab^2)^2,
        # A = J + J^T of the mask3-dealiased y_n, J from jacobian_phys
        cfg = make_cfg(dim=dim, n_max=n_max, steps=8, p_exp=10.0, M={2: 3.3, 3: 2.9}[dim],
                       model=nz.NoiseModel(K=8, family="linear", c0=1.0), seed=12)
        g = cfg.grid
        y0 = sp.random_field(g, np.random.default_rng(12), amplitude=1.5)
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(4), cfg)
        assert 0 < np.count_nonzero(res.stop < cfg.steps) < 4  # the stopped sums end early
        want = np.zeros(4)
        for n in range(cfg.steps):
            J = sp.jacobian_phys(g, res.fields[:, n] * g.mask3)
            A = J + np.swapaxes(J, -dim - 1, -dim - 2)
            a4 = sp.quad_integral(g, np.sum(A**2, axis=(-dim - 1, -dim - 2)) ** 2)
            want += np.where(res.stop > n, cfg.dt * a4, 0.0)
        got = fw.energy_stats(res, cfg)["int_deformation_4"]
        ci95 = 1.96 * np.std(want, ddof=1) / np.sqrt(4)
        np.testing.assert_allclose([got["mean"], got["ci95"]], [np.mean(want), ci95], rtol=1e-13)


class TestProbes:
    def test_stability_probe_finite(self):
        cfg = make_cfg(steps=25, dt=0.01)
        g = cfg.grid
        rng = np.random.default_rng(12)
        y0 = sp.random_field(g, rng, amplitude=0.5)
        U1 = np.stack([sp.random_field(g, rng, amplitude=0.3)] * 25)
        U2 = U1 + 0.2 * np.stack([sp.random_field(g, rng)] * 25)
        rep = fw.stability_probe(y0, U1, U2, cfg, n_samples=4)
        assert np.isfinite(rep["ratio_v"]) and rep["ratio_v"] > 0
        assert np.isfinite(rep["ratio_w"]) and rep["ratio_w"] > 0
        assert rep["aborted"] == 0

    def test_stop_time_probe_decreasing(self):
        # with M just above the base sup-norm the disagreement vanishes as rho -> 0
        cfg0 = make_cfg(steps=30, M=1e9)
        g = cfg0.grid
        rng = np.random.default_rng(13)
        y0 = sp.random_field(g, rng, amplitude=0.8)
        base = fw.simulate_ensemble(y0, None, cfg0.noise_bank(8), cfg0, store_fields=False)
        M = 1.02 * float(np.max(base.w24))
        cfg = make_cfg(steps=30, M=M)
        dU = np.stack([sp.random_field(g, rng)] * 30)
        rep = fw.stop_time_probe(y0, None, dU, cfg, 8, rhos=[0.4, 0.2, 0.1])
        probs = [r["prob"] for r in rep["rows"]]
        assert probs[0] >= probs[1] >= probs[2]
        assert rep["aborted"] == 0
