"""Tests for the divergence-free spectral core.

Derivative and integral operators are checked against independent
oracles: closed-form single-mode fields, dense oversampled quadrature,
and finite differences where a closed form is unavailable.
"""

import numpy as np
import pytest

from stgflow import spectral as sp


PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)


def grid2():
    return sp.WaveGrid(2, 8)


def grid3():
    return sp.WaveGrid(3, 4)


class TestParams:
    def test_valid(self):
        sp.PhysicalParams(nu=1.0, alpha1=0.0, alpha2=0.0, beta=0.0)
        sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sp.PhysicalParams(nu=-0.1, alpha1=0.0, alpha2=0.0, beta=0.0)
        with pytest.raises(ValueError):
            sp.PhysicalParams(nu=1.0, alpha1=-1.0, alpha2=0.0, beta=0.0)
        with pytest.raises(ValueError):
            sp.PhysicalParams(nu=1.0, alpha1=0.0, alpha2=0.0, beta=-0.2)

    def test_modulus_inequality(self):
        # sqrt(24 * 0.5 * 0.3) ~ 1.897; alpha1 + alpha2 = 2 must fail
        with pytest.raises(ValueError):
            sp.PhysicalParams(nu=0.5, alpha1=1.0, alpha2=1.0, beta=0.3)
        # beta = 0 forces alpha1 + alpha2 = 0
        with pytest.raises(ValueError):
            sp.PhysicalParams(nu=1.0, alpha1=0.5, alpha2=0.0, beta=0.0)
        sp.PhysicalParams(nu=1.0, alpha1=0.5, alpha2=-0.5, beta=0.0)


class TestGrid:
    def test_shapes(self):
        g = grid2()
        assert g.N == 18
        assert g.dealias_cut == 5
        assert g.cubic_cut == 4
        assert g.k.shape == (2, 18, 18)

    def test_nyquist_excluded(self):
        g = grid2()
        # the retain mask must kill the Nyquist plane index N//2
        assert not g.retain[g.N // 2, 0]
        assert not g.retain[0, g.N // 2]
        assert g.retain[g.n_max, 0]

    def test_wavevectors_count(self):
        g = grid2()
        ks = g.wavevectors()
        assert ks.shape == ((2 * g.n_max + 1) ** 2 - 1, 2)
        assert np.all(np.abs(ks) <= g.n_max)


class TestTransforms:
    def test_roundtrip(self):
        g = grid2()
        rng = np.random.default_rng(11)
        c = sp.random_field(g, rng)
        u = sp.to_phys(g, c)
        c2 = sp.to_spec(g, u)
        assert np.max(np.abs(c - c2)) < 1e-13

    def test_single_mode_values(self):
        # u = (0, cos(x1)): coefficients 1/2 at k = (1,0) and (-1,0)
        g = grid2()
        x = 2 * np.pi * np.arange(g.N) / g.N
        X1 = x[:, None] + 0 * x[None, :]
        u = np.stack([0 * X1, np.cos(X1)])
        c = sp.to_spec(g, u)
        assert abs(c[1, 1, 0] - 0.5) < 1e-14
        assert abs(c[1, -1 % g.N, 0] - 0.5) < 1e-14
        assert np.sum(np.abs(c) > 1e-12) == 2

    def test_parseval_against_quadrature(self):
        g = grid3()
        rng = np.random.default_rng(7)
        c = sp.random_field(g, rng, amplitude=2.3)
        up = sp.to_phys(g, c)
        quad = sp.quad_integral(g, np.sum(up**2, axis=-4))
        assert abs(quad - sp.l2_inner(g, c, c)) < 1e-11


class TestLeray:
    def test_idempotent_divfree(self):
        for g in (grid2(), grid3()):
            rng = np.random.default_rng(3)
            raw = sp.to_spec(g, rng.standard_normal((g.dim,) + g.shape))
            p1 = sp.leray_project(g, raw)
            assert sp.divergence_defect(g, p1) < 1e-13
            p2 = sp.leray_project(g, p1)
            assert np.max(np.abs(p1 - p2)) < 1e-13

    def test_orthogonality(self):
        # the removed part is a gradient, L2-orthogonal to the projection
        g = grid2()
        rng = np.random.default_rng(4)
        raw = sp.to_spec(g, rng.standard_normal((2,) + g.shape))
        raw = sp.zero_mean(g, raw)
        p = sp.leray_project(g, raw)
        assert abs(sp.l2_inner(g, p, raw - p)) < 1e-12

    def test_self_adjoint(self):
        g = grid2()
        rng = np.random.default_rng(5)
        a = sp.zero_mean(g, sp.to_spec(g, rng.standard_normal((2,) + g.shape)))
        b = sp.zero_mean(g, sp.to_spec(g, rng.standard_normal((2,) + g.shape)))
        lhs = sp.l2_inner(g, sp.leray_project(g, a), b)
        rhs = sp.l2_inner(g, a, sp.leray_project(g, b))
        assert abs(lhs - rhs) < 1e-12


class TestVMap:
    def test_single_mode_factor(self):
        # |k|^2 = 1, alpha1 = 2 -> amplitude multiplied by 3
        g = grid2()
        pa = sp.PhysicalParams(nu=1.0, alpha1=2.0, alpha2=-2.0, beta=0.0)
        c = g.zeros()
        c[1, 1, 0] = 0.5
        c[1, -1 % g.N, 0] = 0.5
        vc = sp.v_apply(g, c, pa)
        assert abs(vc[1, 1, 0] - 1.5) < 1e-14

    def test_inverse(self):
        g = grid3()
        rng = np.random.default_rng(9)
        c = sp.random_field(g, rng)
        back = sp.v_inv(g, sp.v_apply(g, c, PARAMS), PARAMS)
        assert np.max(np.abs(back - c)) < 1e-13

    def test_v_inner_matches_definition(self):
        # (u, z)_V = (u, z) + 2 alpha1 (Du, Dz) with D the symmetric gradient
        g = grid2()
        rng = np.random.default_rng(10)
        a = sp.random_field(g, rng, amplitude=1.7)
        b = sp.random_field(g, rng, amplitude=0.9)
        Da = 0.5 * sp.deformation_phys(g, a)
        Db = 0.5 * sp.deformation_phys(g, b)
        direct = sp.l2_inner(g, a, b) + 2 * PARAMS.alpha1 * sp.quad_integral(
            g, np.sum(Da * Db, axis=(-3, -4))
        )
        assert abs(direct - sp.v_inner(g, a, b, PARAMS)) < 1e-11


class TestDerivatives:
    def test_jacobian_single_mode(self):
        g = grid2()
        x = 2 * np.pi * np.arange(g.N) / g.N
        X2 = 0 * x[:, None] + x[None, :]
        u = np.stack([np.sin(X2), 0 * X2])  # u1 = sin(x2)
        J = sp.jacobian_phys(g, sp.to_spec(g, u))
        assert np.max(np.abs(J[0, 1] - np.cos(X2))) < 1e-12
        assert np.max(np.abs(J[0, 0])) < 1e-12

    def test_jacobian_fd_oracle(self):
        # spectral derivative against high-order finite differences on a
        # heavily oversampled evaluation of the same trig polynomial
        g = sp.WaveGrid(2, 4)
        rng = np.random.default_rng(21)
        c = sp.random_field(g, rng, kmax=2)
        big = sp.refined(g, 16)
        ub = sp.to_phys(big, sp.embed(g, big, c))
        h = 2 * np.pi / big.N
        fd = (np.roll(ub, -1, axis=-1) - np.roll(ub, 1, axis=-1)) / (2 * h)
        Jb = sp.jacobian_phys(big, sp.embed(g, big, c))
        assert np.max(np.abs(Jb[:, 1] - fd)) < 5e-3

    def test_curl_2d_single_mode(self):
        # y = (0, cos x1): curl v(y) = -(1 + alpha1) sin(x1) * ... check sign
        g = grid2()
        pa = sp.PhysicalParams(nu=1.0, alpha1=0.7, alpha2=-0.7, beta=0.0)
        x = 2 * np.pi * np.arange(g.N) / g.N
        X1 = x[:, None] + 0 * x[None, :]
        c = sp.to_spec(g, np.stack([0 * X1, np.cos(X1)]))
        w = sp.curl_v_phys(g, c, pa)
        # curl = d1 v2 - d2 v1 = -(1 + 0.7) sin(x1)
        assert np.max(np.abs(w + 1.7 * np.sin(X1))) < 1e-12


class TestTrilinear:
    def test_antisymmetry(self):
        for g in (grid2(), grid3()):
            rng = np.random.default_rng(31)
            y = sp.random_field(g, rng, amplitude=1.5)
            z = sp.random_field(g, rng)
            w = sp.random_field(g, rng)
            s1 = sp.trilinear_b(g, y, z, w, refine=2)
            s2 = sp.trilinear_b(g, y, w, z, refine=2)
            assert abs(s1 + s2) < 1e-12 * max(1.0, abs(s1))

    def test_dense_quadrature_oracle(self):
        # low-mode triple evaluated on a 4x refined grid must match the
        # native evaluation to quadrature exactness
        g = grid2()
        rng = np.random.default_rng(32)
        u = sp.random_field(g, rng, kmax=2)
        z = sp.random_field(g, rng, kmax=2)
        w = sp.random_field(g, rng, kmax=2)
        native = sp.trilinear_b(g, u, z, w, refine=1)
        dense = sp.trilinear_b(g, u, z, w, refine=4)
        assert abs(native - dense) < 1e-12 * max(1.0, abs(dense))

    def test_closed_form_2d(self):
        # u = (sin x2, 0), z = (0, sin x1), w = (cos x2, 0)
        # b = int u1 d1 z . w + ... only term: u1 * d1 z2 * w2 = 0; and
        # u . grad z = (sin x2 * cos x1) e2, dotted with w gives 0.
        g = grid2()
        x = 2 * np.pi * np.arange(g.N) / g.N
        X1 = x[:, None] + 0 * x[None, :]
        X2 = 0 * x[:, None] + x[None, :]
        u = sp.to_spec(g, np.stack([np.sin(X2), 0 * X1]))
        z = sp.to_spec(g, np.stack([0 * X1, np.sin(X1)]))
        w = sp.to_spec(g, np.stack([np.cos(X2), 0 * X1]))
        assert abs(sp.trilinear_b(g, u, z, w, refine=2)) < 1e-13
        # and a nonzero one with a hand value:
        # b(u, z2, w2) with z2 = (0, sin x2 is not div-free) -- use
        # u = (sin x2, 0), z = (sin x2, 0), w = (0, ...): d_i z_a only
        # d2 z1 = cos x2, so (u . grad z)_1 = 0 (u2 = 0). Stays zero.
        z3 = sp.to_spec(g, np.stack([np.sin(X2), 0 * X1]))
        assert abs(sp.trilinear_b(g, u, z3, w, refine=2)) < 1e-13


class TestNorms:
    def test_w24_quadrature_oracle(self):
        # W^{2,4} norm of a single mode u = (0, a cos x1):
        # |u|^4, |grad u|^4, |grad2 u|^4 all integrate a^4 * int cos^4 or sin^4
        g = grid2()
        a = 1.3
        x = 2 * np.pi * np.arange(g.N) / g.N
        X1 = x[:, None] + 0 * x[None, :]
        c = sp.to_spec(g, np.stack([0 * X1, a * np.cos(X1)]))
        # int cos^4 over box = (2pi)^2 * 3/8
        box = (2 * np.pi) ** 2
        expect = (3 * (a**4) * box * 3.0 / 8.0) ** 0.25
        assert abs(sp.w24_norm(g, c) - expect) < 1e-10

    def test_w1inf_single_mode(self):
        g = grid2()
        x = 2 * np.pi * np.arange(g.N) / g.N
        X1 = x[:, None] + 0 * x[None, :]
        c = sp.to_spec(g, np.stack([0 * X1, 2.0 * np.cos(X1)]))
        assert abs(sp.w1inf_norm(g, c) - 2.0) < 1e-10

    def test_norm_ordering(self):
        g = grid2()
        rng = np.random.default_rng(41)
        c = sp.random_field(g, rng, amplitude=1.0)
        rep = sp.norms(g, c, PARAMS)
        assert rep.l2 <= rep.v_norm <= rep.w_norm
        assert rep.v_norm <= rep.wtilde_norm

    def test_wtilde_uses_curl(self):
        # ||u||_Wtilde^2 = ||u||_V^2 + ||curl v(u)||^2 on solenoidal fields
        g = grid2()
        rng = np.random.default_rng(42)
        c = sp.random_field(g, rng, amplitude=1.4)
        w = sp.curl_v_phys(g, c, PARAMS)
        curlsq = sp.quad_integral(g, w**2)
        vsq = sp.v_inner(g, c, c, PARAMS)
        rep = sp.norms(g, c, PARAMS)
        assert abs(rep.wtilde_norm**2 - (vsq + curlsq)) < 1e-10

    def test_basis_eigenvalues(self):
        g = grid2()
        pa = sp.PhysicalParams(nu=1.0, alpha1=2.0, alpha2=-2.0, beta=0.0)
        mu = np.sort(sp.basis_eigenvalues(g, pa))
        assert abs(mu[0] - 4.0) < 1e-14  # |k|^2 = 1
        ks = g.wavevectors()
        assert np.allclose(
            sp.basis_eigenvalues(g, pa), 2.0 + 2.0 * np.sum(ks**2, axis=1)
        )


class TestDrift:
    def test_projected_and_divfree(self):
        for g in (grid2(), grid3()):
            rng = np.random.default_rng(51)
            y = sp.random_field(g, rng, amplitude=1.2)
            d = sp.state_drift(g, y, None, PARAMS)
            assert sp.divergence_defect(g, d) < 1e-12

    def test_convective_energy_cancellation(self):
        # ((y.grad) v(y) + sum_j v_j grad y_j, y) = 0 discretely
        p0 = sp.PhysicalParams(nu=0.0, alpha1=0.4, alpha2=-0.4, beta=0.0)
        for g in (grid2(), grid3()):
            rng = np.random.default_rng(52)
            y = sp.random_field(g, rng, amplitude=2.0)
            d = sp.state_drift(g, y, None, p0, include_viscosity=False)
            # alpha12 = 0 cancels the stress term, beta = 0 the cubic one
            assert abs(sp.l2_inner(g, d, y)) < 1e-11

    def test_cubic_term_dissipative(self):
        # (beta div(|A|^2 A), y) = -(beta/2) int |A|^4 for band-limited y
        pb = sp.PhysicalParams(nu=1.0, alpha1=0.4, alpha2=-0.4, beta=0.5)
        g = grid2()
        rng = np.random.default_rng(53)
        y = sp.random_field(g, rng, kmax=g.cubic_cut, amplitude=1.5)
        d = sp.state_drift(g, y, None, pb, include_viscosity=False)
        A = sp.deformation_phys(g, y)
        quartic = sp.quad_integral(g, np.sum(A**2, axis=(-3, -4)) ** 2)
        assert abs(sp.l2_inner(g, d, y) + 0.5 * pb.beta * quartic) < 1e-9

    def test_forcing_passthrough(self):
        g = grid2()
        rng = np.random.default_rng(54)
        y = sp.random_field(g, rng)
        f = sp.random_field(g, rng)
        d0 = sp.state_drift(g, y, None, PARAMS)
        d1 = sp.state_drift(g, y, f, PARAMS)
        assert np.max(np.abs(d1 - d0 - f)) < 1e-12

    def test_batched_matches_loop(self):
        g = grid2()
        rng = np.random.default_rng(56)
        ys = np.stack([sp.random_field(g, rng) for _ in range(4)])
        batched = sp.state_drift(g, ys, None, PARAMS)
        for s in range(4):
            single = sp.state_drift(g, ys[s], None, PARAMS)
            assert np.max(np.abs(batched[s] - single)) < 1e-13


class TestIdentityCorpus:
    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 4)])
    def test_verify_identities(self, dim, n_max):
        rep = sp.verify_identities(123, PARAMS, sp.WaveGrid(dim, n_max), n_triples=8)
        assert rep["lemma_curl_cross_max_rel"] < 1e-11
        assert rep["curl_of_cross_max_rel"] < 1e-11
        assert rep["antisymmetry_max_rel"] < 1e-11
        assert np.isfinite(rep["technical_bound_C"])
        assert rep["technical_bound_C"] > 0
