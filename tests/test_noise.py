"""Tests for the multiplicative noise operator and Wiener sampling."""

import numpy as np
import pytest

from stgflow import noise as nz
from stgflow import spectral as sp


G2 = sp.WaveGrid(2, 8)


def rand_field(seed, grid=G2, amp=1.0):
    return sp.random_field(grid, np.random.default_rng(seed), amplitude=amp)


class TestModel:
    def test_weights_decay(self):
        m = nz.NoiseModel(K=8, family="linear", c0=0.5)
        w = m.weights
        assert abs(w[0] - 0.5) < 1e-15
        assert abs(w[3] - 0.5 / 8.0) < 1e-15  # 4^{1.5} = 8
        assert np.all(np.diff(w) < 0)

    def test_vanishes_at_zero(self):
        for fam in nz.FAMILIES:
            m = nz.NoiseModel(K=4, family=fam)
            lam = np.zeros((2, 5, 5))
            assert np.max(np.abs(m.profile(lam))) == 0.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            nz.NoiseModel(K=4, family="cubic")

    def test_pointwise_lipschitz(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(200)
        b = rng.standard_normal(200)
        for fam in ("linear", "smooth"):
            m = nz.NoiseModel(K=6, family=fam, c0=0.3)
            L = m.lipschitz_bound()
            lhs = np.sum(m.weights[:, None] ** 2, axis=0) * (
                m.profile(a) - m.profile(b)
            ) ** 2
            assert np.all(lhs <= L * (a - b) ** 2 + 1e-14)

    def test_smooth_matches_linear_at_small_amplitude(self):
        # d sigma/d lam at 0 is c_k for both families
        y = rand_field(1, amp=1e-6)
        ml = nz.NoiseModel(K=4, family="linear", c0=0.2)
        ms = nz.NoiseModel(K=4, family="smooth", c0=0.2)
        gl = nz.apply_G(G2, 0.0, y, ml)
        gs = nz.apply_G(G2, 0.0, y, ms)
        assert np.max(np.abs(gl - gs)) < 1e-18


class TestSampling:
    def test_shapes_and_scaling(self):
        p = nz.sample_path(7, 0, dt=0.01, steps=50, K=8)
        assert p.increments.shape == (50, 8)
        assert p.steps == 50 and p.K == 8
        # variance of increments ~ dt
        big = nz.sample_paths(7, 400, dt=0.01, steps=20, K=4)
        assert abs(np.var(big) - 0.01) < 0.002

    def test_reproducible_and_batch_independent(self):
        a = nz.sample_paths(3, 6, 0.05, 10, 3)
        b = nz.sample_paths(3, 9, 0.05, 10, 3)
        assert np.array_equal(a, b[:6])
        c = nz.sample_path(3, 4, 0.05, 10, 3)
        assert np.array_equal(c.increments, a[4])

    def test_seed_sensitivity(self):
        a = nz.sample_paths(3, 2, 0.05, 10, 3)
        b = nz.sample_paths(4, 2, 0.05, 10, 3)
        assert not np.array_equal(a, b)


class TestOperator:
    def test_columns_divergence_free(self):
        y = rand_field(5)
        m = nz.NoiseModel(K=5, family="smooth", c0=0.4)
        cols = nz.apply_G(G2, 0.3, y, m)
        for k in range(5):
            assert sp.divergence_defect(G2, cols[k]) < 1e-13

    def test_linear_family_is_projected_scaling(self):
        y = rand_field(6)
        m = nz.NoiseModel(K=3, family="linear", c0=0.7)
        cols = nz.apply_G(G2, 0.0, y, m)
        for k, ck in enumerate(m.weights):
            assert np.max(np.abs(cols[k] - ck * y)) < 1e-13

    def test_fused_increment_matches_columns(self):
        y = rand_field(8)
        m = nz.NoiseModel(K=6, family="smooth", c0=0.3)
        dW = np.random.default_rng(2).standard_normal(6) * 0.1
        fused = nz.noise_increment(G2, 0.2, y, dW, m)
        cols = nz.apply_G(G2, 0.2, y, m)
        direct = np.tensordot(dW, cols, axes=(0, 0))
        assert np.max(np.abs(fused - direct)) < 1e-13

    def test_grad_G_is_directional_derivative(self):
        y = rand_field(9)
        v = rand_field(10)
        m = nz.NoiseModel(K=4, family="smooth", c0=0.5)
        eps = 1e-6
        fd = (nz.apply_G(G2, 0.1, y + eps * v, m) - nz.apply_G(G2, 0.1, y - eps * v, m)) / (
            2 * eps
        )
        an = nz.apply_grad_G(G2, 0.1, y, v, m)
        assert np.max(np.abs(fd - an)) < 1e-8

    @pytest.mark.parametrize("fam", ["linear", "smooth"])
    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_adjointness_exact(self, fam, dim, n_max):
        # sum_k (grad_G[v]_k, q_k) == (v, G* q) to machine precision
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(11)
        y = sp.random_field(g, rng, amplitude=1.5)
        v = sp.random_field(g, rng)
        m = nz.NoiseModel(K=5, family=fam, c0=0.4)
        q = np.stack([sp.random_field(g, rng) for _ in range(5)])
        lhs = float(np.sum(sp.l2_inner(g, nz.apply_grad_G(g, 0.4, y, v, m), q)))
        rhs = float(sp.l2_inner(g, v, nz.apply_G_star(g, 0.4, y, q, m)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_fused_transpose_pair(self):
        y = rand_field(13)
        v = rand_field(14)
        w = rand_field(15)
        m = nz.NoiseModel(K=5, family="smooth", c0=0.4)
        dW = np.random.default_rng(3).standard_normal(5) * 0.2
        lhs = sp.l2_inner(G2, nz.grad_noise_increment(G2, 0.0, y, v, dW, m), w)
        rhs = sp.l2_inner(G2, v, nz.grad_noise_increment(G2, 0.0, y, w, dW, m))
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))

    def test_zero_family(self):
        y = rand_field(16)
        m = nz.NoiseModel(K=4, family="zero")
        dW = np.ones(4)
        assert np.max(np.abs(nz.noise_increment(G2, 0.0, y, dW, m))) == 0.0

    def test_remainder_second_order(self):
        # sigma(y + h) - sigma(y) - dsigma(y)[h] = O(|h|^2) for the smooth family
        m = nz.NoiseModel(K=3, family="smooth", c0=0.5)
        y = rand_field(17)
        h = rand_field(18)
        outs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            r = nz.apply_G(G2, 0.0, y + eps * h, m) - nz.apply_G(G2, 0.0, y, m) - nz.apply_grad_G(
                G2, 0.0, y, eps * h, m
            )
            outs.append(np.max(np.abs(r)))
        assert outs[0] / outs[1] > 3.5  # quadratic decay ratio ~4
        assert outs[1] / outs[2] > 3.5
