"""Tests for the semi-implicit Euler-Maruyama solver and stopping logic."""

import re
import warnings

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

    @pytest.mark.parametrize("kw", [{"M": np.nan}, {"blowup_factor": np.nan},
                                    {"blowup_factor": 0.0}, {"M": np.inf, "blowup_factor": 0.0}])
    def test_stop_thresholds_not_nan(self, kw):
        # M = NaN once switched off the exit and the guard: every comparison with it is false
        with pytest.raises(ValueError):
            make_cfg(**kw)

    def test_infinite_threshold_never_stops(self):
        # M = inf is a free run (the benchmark's pilot sets M from one), in both stop tests
        cfg = make_cfg(M=np.inf, steps=5)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(4), amplitude=3.0)
        for norms in (True, False):
            res = fw.simulate_ensemble(y0, None, cfg.noise_bank(2), cfg, norms=norms)
            assert (res.stop == cfg.steps).all() and not res.aborted.any()

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
        cfg = make_cfg(params=SECOND_GRADE, model=nz.NoiseModel(K=0))
        g = cfg.grid
        x = 2 * np.pi * np.arange(g.N) / g.N
        X1 = x[:, None] + 0 * x[None, :]
        y = sp.to_spec(g, np.stack([0 * X1, np.cos(X1)]))
        fac = (1 + 0.4) / (1 + 0.4 + cfg.dt * 0.5)
        y1 = fw.step(y, None, np.zeros(0), 0.0, cfg)
        assert np.max(np.abs(y1 - fac * y)) < 1e-13

    def test_control_enters_linearly(self):
        cfg = make_cfg(model=nz.NoiseModel(K=0))
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
        cfg0 = make_cfg(model=nz.NoiseModel(K=0))
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

    @pytest.mark.parametrize("blowup", [10.0, 1.0])
    @pytest.mark.parametrize("dim,n_max,m_rel", [(2, 8, 1.04), (3, 3, 1.15)])
    def test_store_frozen_from_stop(self, dim, n_max, m_rel, blowup):
        # energy_stats takes its sups over every n: y(n) must be y(stop) to
        # the bit for n >= stop, after a stop and (blowup_factor = 1) an abort
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(21)
        y0 = sp.random_field(g, rng, amplitude=0.3)
        U = np.stack([sp.random_field(g, rng, amplitude=20.0)] * 16)
        cfg = make_cfg(dim=dim, n_max=n_max, steps=16, p_exp=10.0, blowup_factor=blowup,
                       M=m_rel * float(sp.w24_norm(g, y0)),
                       model=nz.NoiseModel(K=8, family="linear", c0=2.0))
        res = fw.simulate_ensemble(y0, U, cfg.noise_bank(8), cfg)
        assert np.count_nonzero(res.stop < cfg.steps) > 1
        assert res.aborted.any() == (blowup == 1.0)
        for s, st in enumerate(res.stop):
            for n in range(st, cfg.steps + 1):
                assert np.array_equal(res.y(n)[s], res.y(st)[s])
                assert res.w24[s, n] == res.w24[s, st]

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
        # a complex dtype as store_fields keeps the fields in it, and y(n)
        # hands them out widened to complex128
        cfg = make_cfg(steps=8)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(8))
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(2), cfg, store_fields=np.complex64)
        assert res.fields.dtype == np.complex64
        for n in range(cfg.steps + 1):
            assert res.y(n).dtype == np.complex128
            assert np.array_equal(res.y(n), res.fields[:, n].astype(complex))

    def test_store_reads_without_copy(self):
        # by default y(n) is a view of the complex128 store, not a copy
        cfg = make_cfg(steps=4)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(8))
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(2), cfg)
        assert res.fields.dtype == np.complex128
        for n in range(cfg.steps + 1):
            assert np.shares_memory(res.y(n), res.fields)
            assert np.array_equal(res.y(n), res.fields[:, n])

    @pytest.mark.parametrize("store", [True, False, np.complex64])
    def test_store_holds_its_noise_bank(self, store):
        # the backward sweeps read the increments from the ensemble itself
        cfg = make_cfg(steps=4)
        y0 = sp.random_field(cfg.grid, np.random.default_rng(8))
        dW = cfg.noise_bank(3)
        res = fw.simulate_ensemble(y0, None, dW, cfg, store_fields=store)
        assert res.dW is dW

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

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    @pytest.mark.parametrize("defect", ["divergence", "Hermitian"])
    def test_bad_y0_rejected(self, dim, n_max, defect):
        # the stop test's bounds read the half spectrum of a real field, and the 2D
        # drift holds on divergence-free fields: y0 must be both, to rounding
        cfg = make_cfg(dim=dim, n_max=n_max, steps=2, p_exp=10.0)
        g = cfg.grid
        y0 = sp.random_field(g, np.random.default_rng(10), batch=(2,))
        dW = cfg.noise_bank(2)
        fw.simulate_ensemble(y0, None, dW, cfg)
        bad, size = y0.copy(), 1e-6 * np.max(np.abs(y0))
        if defect == "divergence":  # mode (0, ..., 0, 1), off the plane k_d = 0, along k
            bad[(1, dim - 1) + (0,) * (dim - 1) + (1,)] += size
        else:  # mode (1, 0, ..., 0) on the plane k_d = 0, across k, but not its mirror
            bad[(1, 1, 1) + (0,) * (dim - 1)] += size
        assert (sp.divergence_defect(g, bad) > 1e-3 * size) == (defect == "divergence")
        with pytest.raises(ValueError, match=f"y0 has {defect} defect"):
            fw.simulate_ensemble(bad, None, dW, cfg)


def banded_ensemble(dim, n_max, blowup, S=12, steps=20):
    """A forced ensemble with M inside the band of ``sp.w24_bounds``: samples exit
    mid-run, and sample 0 starts at 2.5 M, where the lower bound is above M."""
    g = sp.WaveGrid(dim, n_max)
    rng = np.random.default_rng(1)
    y0 = sp.random_field(g, rng, amplitude=0.02, batch=(S,))
    U = np.stack([sp.random_field(g, rng, amplitude=4.0)] * steps)
    kw = dict(dim=dim, n_max=n_max, dt=0.05, steps=steps, p_exp=10.0,
              model=nz.NoiseModel(K=4, family="linear", c0=1.0))
    free = make_cfg(M=1e9, **kw)
    M = float(np.median(fw.simulate_ensemble(y0, U, free.noise_bank(S), free).w24[:, -1]))
    y0[0] *= 2.5 * M / sp.w24_norm(g, y0[0])
    return y0, U, make_cfg(M=M, blowup_factor=blowup, **kw)


def bound_decided(cfg, c):
    """Where the bounds decide the stop test of the states c, by the rule of ``fw._stop_test``."""
    lo, hi = sp.w24_bounds(cfg.grid, c)
    M, guard, m = cfg.M, cfg.blowup_factor * cfg.M, fw.STOP_MARGIN
    return (hi < min(M, guard) * (1 - m)) | ((lo > M * (1 + m)) & (hi < guard * (1 - m)))


class TestStopTest:
    @pytest.mark.parametrize("blowup", [10.0, 1.1])
    @pytest.mark.parametrize("dim,n_max", [(2, 3), (2, 4), (2, 8), (3, 3)])
    def test_norms_opt_out_bitwise(self, dim, n_max, blowup):
        y0, U, cfg = banded_ensemble(dim, n_max, blowup)
        dW = cfg.noise_bank(len(y0))
        exact = fw.simulate_ensemble(y0, U, dW, cfg)
        fast = fw.simulate_ensemble(y0, U, dW, cfg, norms=False)
        for key in ("stop", "aborted", "fields"):
            assert np.array_equal(getattr(fast, key), getattr(exact, key))
        # NaN exactly where the bounds decide the state the loop tested (the
        # frozen rows repeat it), the exact norm everywhere else
        decided = bound_decided(cfg, exact.fields)
        assert np.array_equal(np.isnan(fast.w24), decided)
        assert np.array_equal(fast.w24[~decided], exact.w24[~decided])
        assert decided.any() and not decided.all()
        # on every evolved state the bounds bracket the norm
        lo, hi = sp.w24_bounds(cfg.grid, exact.fields)
        assert np.all(lo <= exact.w24 * (1 + 1e-13)) and np.all(exact.w24 <= hi * (1 + 1e-13))
        assert exact.stop[0] == 0 and ((0 < exact.stop) & (exact.stop < cfg.steps)).any()
        assert np.isnan(fast.w24[0]).all() == (blowup == 10.0)  # decided above M, not aborted
        if (dim, n_max, blowup) == (2, 4, 1.1):
            assert exact.aborted.any()

    def test_margin_leaves_near_ties_to_the_exact_norm(self):
        # a bound within the margin of M or of the guard decides nothing
        cfg = make_cfg(steps=2)
        y = sp.random_field(cfg.grid, np.random.default_rng(9), batch=(1,))
        (lo,), (hi,) = sp.w24_bounds(cfg.grid, y)
        w = sp.w24_norm(cfg.grid, y)
        # (M, blowup_factor, decided): below M, then above it with the guard above hi
        for M, blowup, decided in ((2 * hi, 10.0, True), (hi / (1 - 1e-13), 10.0, False),
                                   (2 * hi, 0.5 / (1 - 1e-13), False), (lo / 2, 4 * hi / lo, True),
                                   (lo / (1 + 1e-13), 10.0, False),
                                   (lo / 2, 2 * hi / lo / (1 - 1e-13), False)):
            c = make_cfg(steps=2, M=M, blowup_factor=blowup)
            got, over, bad = fw._stop_test(y, c, norms=False)
            assert np.array_equal(got, [np.nan] if decided else w, equal_nan=True)
            assert over[0] == (w[0] >= M) and bad[0] == (w[0] > blowup * M)

    def test_non_finite_state_aborts(self):
        # NaN bounds decide nothing: the exact norm is NaN and the sample aborts, silently
        cfg = make_cfg(steps=2)
        y = sp.random_field(cfg.grid, np.random.default_rng(9), batch=(2,))
        y[0, 0, 1, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, over, bad = fw._stop_test(y, cfg, norms=False)
        assert np.isnan(w).all() and list(bad) == [True, False] and not over.any()

    def test_probes_match_exact_norms(self, monkeypatch):
        # the probes opt out of the exact norms: their reports are bitwise those
        # of runs that compute every norm
        y0, U, cfg = banded_ensemble(2, 4, 1.1, S=6)
        rng = np.random.default_rng(2)
        psi = np.stack([sp.random_field(cfg.grid, rng)] * cfg.steps)
        solve, opted = fw.simulate_ensemble, []

        def run():
            return (fw.gateaux_check(y0[1], U, psi, cfg, [0.2, 0.1], 6),
                    fw.stability_probe(y0[1], U, U + 0.1 * psi, cfg, 6),
                    fw.stop_time_probe(y0[1], U, psi, cfg, 6, [0.5, 0.2]))

        def spy(*a, **kw):
            res = solve(*a, **kw)
            opted.append(np.isnan(res.w24).any())
            return res

        monkeypatch.setattr(fw, "simulate_ensemble", spy)
        fast = run()
        assert len(opted) == 8 and all(opted)
        monkeypatch.setattr(fw, "simulate_ensemble", lambda *a, norms, **kw: solve(*a, **kw))
        exact = run()
        assert repr(fast) == repr(exact)


class TestEnergy:
    def test_deterministic_dissipation(self):
        # no noise, no control: the discrete V-energy decays monotonically
        cfg = make_cfg(model=nz.NoiseModel(K=0), dt=0.005, steps=100)
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
        with pytest.raises(ValueError, match="store_fields=False"):
            res.y(0)
        with pytest.raises(ValueError, match="store_fields=False"):
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
