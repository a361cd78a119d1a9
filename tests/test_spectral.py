"""Tests for the divergence-free spectral core.

Derivative and integral operators are checked against independent
oracles: closed-form single-mode fields, dense oversampled quadrature,
and finite differences where a closed form is unavailable.
"""

import warnings

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
        assert g.shape == (18, 18) and g.npts == 324
        assert g.spec_shape == (18, 10) and g.nspec == 180
        assert g.k.shape == (2, 18, 10)
        assert g.zeros((3,)).shape == (3, 2, 18, 10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grid_holds_a_field(self, dim):
        # at n_max = 1 the 2/3 cut (2 n_max) // 3 is 0: no mode survives dealiasing
        assert sp.WaveGrid(dim, sp.MIN_N_MAX).mask2.sum() > 1
        with pytest.raises(ValueError, match=rf"n_max must be >= {sp.MIN_N_MAX}, got 1"):
            sp.WaveGrid(dim, 1)

    def test_nyquist_excluded(self):
        g = grid2()
        # the retain mask must kill the Nyquist plane index N//2
        assert not g.retain[g.N // 2, 0]
        assert not g.retain[0, g.N // 2]
        assert g.retain[g.n_max, 0]


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

    @pytest.mark.parametrize("dim,n_max,n", [(2, 8, 25), (3, 3, 6)])
    def test_random_field_batch_matches_sequential_draws(self, dim, n_max, n):
        # one batched draw is bitwise the fields drawn one after another, each
        # with its own norm, and it leaves the generator in the same state
        g = sp.WaveGrid(dim, n_max)
        r1, r2 = np.random.default_rng(31), np.random.default_rng(31)
        batched = sp.random_field(g, r1, amplitude=0.7, batch=(n,))
        sequential = np.stack([sp.random_field(g, r2, amplitude=0.7) for _ in range(n)])
        assert np.array_equal(batched, sequential)
        assert r1.integers(2**62) == r2.integers(2**62)
        assert np.allclose(sp.l2_norm(g, batched), 0.7, rtol=1e-14)
        assert np.array_equal(sp.random_field(g, r1, kmax=0, batch=(2,)), g.zeros((2,)))


SEAM_GRIDS = [(2, 8), (3, 3)]


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _div_matrix_spec(g, M_phys, mask=None):
    """Spectral divergence out_a = sum_j d_j M[a, j] of a full collocation
    matrix field, every entry transformed: the reference for the packed kernels."""
    return np.sum(1j * g.k * sp.to_spec(g, M_phys, mask), axis=-g.dim - 1)


def _rebuilt(g, A):
    """The full packing (entries a <= b) of traceless packed tensors: the kept
    entries and the last diagonal one rebuilt."""
    return np.concatenate([A, sp.last_diagonal(g, A)], axis=-g.dim - 1)


def _deformation_full(g, c):
    """The full d x d deformation tensor from its traceless packed entries."""
    return np.take(_rebuilt(g, sp.deformation_packed(g, c)), g.sym_unpack, axis=-g.dim - 1)


def _full_matrix(g, X):
    """(..., *grid, d, d) full tensors of packed entries a <= b."""
    ci = -g.dim - 1
    return np.moveaxis(np.take(X, g.sym_unpack, axis=ci), (ci - 1, ci), (-2, -1))


def _traceless_packed(g, M):
    """The traceless packing of the traceless part of (..., *grid, d, d) tensors M."""
    a, b = g.sym_pairs
    M = M - np.trace(M, axis1=-2, axis2=-1)[..., None, None] * np.eye(g.dim) / g.dim
    return np.moveaxis(M[..., a[:-1], b[:-1]], -1, -g.dim - 1)


def _mirror(g, c):
    """c[-k] for every k of the full N^d grid."""
    neg = (-np.arange(g.N)) % g.N
    return c[(Ellipsis,) + np.ix_(*[neg] * g.dim)]


def _curl_v_phys(g, c, params):
    """Collocation values of curl v(u) from the explicit curl stencil: a
    scalar in 2D, a vector in 3D."""
    vc = sp.v_apply(g, c, params)
    if g.dim == 2:
        return sp.to_phys(g, 1j * (g.k[0] * g.c(vc, 1) - g.k[1] * g.c(vc, 0)))
    (kx, ky, kz), (cx, cy, cz) = g.k, (g.c(vc, i) for i in range(3))
    w = np.stack([ky * cz - kz * cy, kz * cx - kx * cz, kx * cy - ky * cx], axis=-4)
    return sp.to_phys(g, 1j * w)


def _w1inf_norm(g, c):
    """max over the grid of |u| and of |grad u| (Frobenius), whichever is larger."""
    ci = -g.dim - 1
    m0 = np.max(np.sqrt(np.sum(sp.to_phys(g, c) ** 2, axis=ci)), axis=g.axes)
    m1 = np.max(np.sqrt(np.sum(sp.jacobian_phys(g, c) ** 2, axis=(ci, ci - 1))), axis=g.axes)
    return np.maximum(m0, m1)


def _zero_mean(g, c):
    c = c.copy()
    c[(Ellipsis,) + (0,) * g.dim] = 0.0
    return c


class TestRealTransformSeam:
    """The real-data transforms on the half spectrum against the full complex
    ones they replace."""

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    @pytest.mark.parametrize("mask", ["retain", "mask2", "mask3"])
    def test_matches_complex_transforms(self, dim, n_max, mask):
        g = sp.WaveGrid(dim, n_max)
        m = getattr(g, mask)
        u = np.random.default_rng(61).standard_normal((2, dim) + g.shape)
        c = sp.to_spec(g, u, m)
        assert c.shape == (2, dim) + g.spec_shape
        full = sp.full_spectrum(g, c)
        m_full = sp.full_spectrum(g, 1.0 * m)
        assert _rel(full, np.fft.fftn(u, axes=g.axes) / g.npts * m_full) <= 1e-13
        assert _rel(sp.to_phys(g, c), np.fft.ifftn(full, axes=g.axes).real * g.npts) <= 1e-13

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    @pytest.mark.parametrize("mask", ["retain", "mask2", "mask3"])
    def test_to_spec_exactly_hermitian(self, dim, n_max, mask):
        g = sp.WaveGrid(dim, n_max)
        u = np.random.default_rng(62).standard_normal((2, dim) + g.shape)
        full = sp.full_spectrum(g, sp.to_spec(g, u, getattr(g, mask)))
        assert full.shape == (2, dim) + g.shape
        assert np.array_equal(_mirror(g, full), np.conj(full))

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_half_pairings_match_full_sums(self, dim, n_max):
        # the Hermitian multiplicities make the half-spectrum pairings the
        # plain sums over the full spectrum
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(60)
        a = sp.to_spec(g, rng.standard_normal((3, dim) + g.shape))
        b = np.stack([sp.random_field(g, rng, amplitude=x) for x in (0.5, 1.0, 2.0)])
        fa, fb = sp.full_spectrum(g, a), sp.full_spectrum(g, b)
        axes = (-dim - 1,) + g.axes
        weight = 1.0 + PARAMS.alpha1 * g.k2
        full_l2 = g.vol * np.sum(fa * np.conj(fb), axis=axes).real
        full_w = g.vol * np.sum(sp.full_spectrum(g, weight) * fa * np.conj(fb), axis=axes).real
        assert _rel(sp.l2_inner(g, a, b), full_l2) <= 1e-13
        assert _rel(sp.sobolev_inner(g, a, b, weight), full_w) <= 1e-13

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_l2_pairing(self, dim, n_max):
        # to_phys and to_spec are transposes in the L2 pairing on retained modes
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(63)
        c = sp.to_spec(g, rng.standard_normal((3, dim) + g.shape))
        u = rng.standard_normal((3, dim) + g.shape)
        lhs = sp.quad_integral(g, np.sum(sp.to_phys(g, c) * u, axis=-dim - 1))
        rhs = sp.l2_inner(g, c, sp.to_spec(g, u))
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-12


def _nd_to_phys(g, c):
    return np.fft.irfftn(c, s=g.shape, axes=g.irfft_axes, norm="forward")


def _nd_to_spec(g, u, mask=None, rfftn=False):
    # rfft over the last axis, then fftn over the others, whose passes run in
    # reverse axis order on every numpy; numpy 2's rfftn runs the same passes
    if rfftn:
        c = np.fft.rfftn(u, axes=g.axes, norm="forward")
    else:
        c = np.fft.fftn(np.fft.rfft(u, norm="forward"), axes=g.axes[:-1], norm="forward")
    c *= g.retain if mask is None else mask
    c[..., 0] = 0.5 * (c[..., 0] + np.conj(c[g.mirror + (0,)]))
    return c


def _as_input(g, x, layout):
    if layout == "strided":
        return x[::2]
    if layout == "component":
        return g.c(x, 1)
    if layout == "single":
        return x.astype(np.complex64 if np.iscomplexobj(x) else np.float32)
    return x


def _assert_bitwise(out, ref):
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes()


class TestTransformContract:
    """to_phys and to_spec run one 1-D pass at a time, each on a contiguous
    copy; their outputs stay bitwise those of numpy's strided passes in the
    same order (irfftn, and numpy 2's rfftn), whatever the input's layout,
    batch shape or precision."""

    GRIDS = [(2, 3), (2, 4), (2, 8), (3, 3)]
    BATCHES = [(), (7,), (2, 3)]
    LAYOUTS = ["contiguous", "strided", "component", "single"]

    @pytest.mark.parametrize("dim,n_max", GRIDS)
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_to_phys_is_irfftn(self, dim, n_max, batch, layout):
        g = sp.WaveGrid(dim, n_max)
        u = np.random.default_rng(64).standard_normal(batch + (dim,) + g.shape)
        c = _as_input(g, _nd_to_spec(g, u), layout)
        before = c.copy()
        _assert_bitwise(sp.to_phys(g, c), _nd_to_phys(g, c))
        assert c.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dim,n_max", GRIDS)
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_to_spec_is_rfftn(self, dim, n_max, batch, layout):
        g = sp.WaveGrid(dim, n_max)
        u = _as_input(g, np.random.default_rng(65).standard_normal(batch + (dim,) + g.shape), layout)
        before = u.copy()
        for mask in (None, g.mask2):
            _assert_bitwise(sp.to_spec(g, u, mask), _nd_to_spec(g, u, mask))
        assert u.tobytes() == before.tobytes()

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy 1's rfftn runs the 3D complex passes -3 before -2")
    @pytest.mark.parametrize("dim,n_max", GRIDS)
    def test_to_spec_is_rfftn_on_numpy2(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        u = np.random.default_rng(66).standard_normal((7, dim) + g.shape)
        _assert_bitwise(sp.to_spec(g, u), _nd_to_spec(g, u, rfftn=True))


class TestSymmetricKernels:
    """Kernels that transform only the entries a <= b of a symmetric tensor,
    against the full-tensor formulas."""

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_w24_against_full_hessian(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(64)
        c = np.stack([sp.random_field(g, rng, amplitude=a) for a in (0.5, 1.0, 2.0)])
        ci = -dim - 1
        up = sp.to_phys(g, c)
        J = sp.jacobian_phys(g, c)
        H = sp.to_phys(g, 1j * g.k * (1j * g.k[:, None] * np.expand_dims(c, (ci, ci - 1))))
        full = (
            sp.quad_integral(g, np.sum(up**2, axis=ci) ** 2)
            + sp.quad_integral(g, np.sum(J**2, axis=(ci, ci - 1)) ** 2)
            + sp.quad_integral(g, np.sum(H**2, axis=(ci, ci - 1, ci - 2)) ** 2)
        ) ** 0.25
        assert _rel(sp.w24_norm(g, c), full) <= 1e-12

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_deformation_against_symmetrized_jacobian(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        c = np.stack([sp.random_field(g, np.random.default_rng(65 + s)) for s in range(2)])
        J = sp.jacobian_phys(g, c)
        full = J + np.swapaxes(J, -dim - 1, -dim - 2)
        assert _rel(_deformation_full(g, c), full) <= 1e-12

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_traceless_deformation_rebuilds_full(self, dim, n_max):
        # the kept entries and the rebuilt last diagonal one are the full packed
        # deformation of a divergence-free field
        g = sp.WaveGrid(dim, n_max)
        c = sp.random_field(g, np.random.default_rng(68), batch=(3,))
        J = sp.jacobian_phys(g, c)
        a, b = g.sym_pairs
        full = (J[(Ellipsis, a, b) + (slice(None),) * dim] + J[(Ellipsis, b, a) + (slice(None),) * dim])
        A = sp.deformation_packed(g, c)
        assert A.shape[-dim - 1] == g.tl_size == {2: 2, 3: 5}[dim]
        assert _rel(_rebuilt(g, A), full) <= 1e-14

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_traceless_divergence_is_gram_adjoint_of_gradient(self, dim, n_max):
        # sym_div_tl = G sym_grad_tl / 2 with G = E^T diag(sym_weight) E, E the map
        # that rebuilds the full packing: exactly, mode by mode
        g = sp.WaveGrid(dim, n_max)
        n = g.tl_size
        E = np.zeros((n + 1, n))
        E[:n] = np.eye(n)
        E[n, [p for p, (a, b) in enumerate(zip(*g.sym_pairs)) if a == b and p < n]] = -1.0
        G = E.T @ np.diag(g.sym_weight.ravel()) @ E
        assert np.array_equal(G, g.sym_gram)
        assert np.array_equal(G, 2.0 * np.eye(n)) == (dim == 2)
        want = -0.5 * np.einsum("pq,pe...->qe...", G, np.conj(g.sym_grad_tl))
        assert np.array_equal(g.sym_div_tl, want)
        # the fast pairing is the full contraction of the rebuilt tensors
        A, B = (np.random.default_rng(69 + i).standard_normal((2, n) + g.shape) for i in range(2))
        full = np.sum(_full_matrix(g, _rebuilt(g, A)) * _full_matrix(g, _rebuilt(g, B)), axis=(-2, -1))
        assert _rel(g.c(sp.sym_inner(g, A, B), 0), full) <= 1e-14
        assert _rel(sp.sym_inner(g, A), sp.sym_inner(g, A, A)) == 0.0

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    @pytest.mark.parametrize("mask", ["mask2", "mask3"])
    def test_symmetric_divergence_against_full(self, dim, n_max, mask):
        # the packed divergence of a traceless tensor and that of the full tensor
        # differ by a gradient: equal once projected
        g = sp.WaveGrid(dim, n_max)
        M = np.random.default_rng(66).standard_normal((2,) + g.shape + (dim, dim))
        M = M + np.swapaxes(M, -1, -2)
        packed = _traceless_packed(g, M)
        S = np.take(_rebuilt(g, packed), g.sym_unpack, axis=-dim - 1)  # (2, d, d, *grid)
        m = getattr(g, mask)
        got = sp.leray_project(g, sp.div_sym_spec(g, packed, m))
        want = sp.leray_project(g, _div_matrix_spec(g, S, m))
        assert _rel(got, want) <= 1e-14


@pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
def test_sym_product_against_full_tensors(dim, n_max):
    # packed A A and A B + B A against the traceless parts of the full d x d
    # matrix products; in 2D those parts vanish (WaveGrid.square_is_isotropic)
    g = sp.WaveGrid(dim, n_max)
    rng = np.random.default_rng(67)
    A, B = (sp.deformation_packed(g, sp.random_field(g, rng, batch=(2,))) for _ in range(2))
    fA, fB = (_full_matrix(g, _rebuilt(g, X)) for X in (A, B))
    AB = fA @ fB
    scale = np.max(np.abs(fA)) * np.max(np.abs(fB))
    for got, want in ((sp.sym_product(g, A), _traceless_packed(g, fA @ fA)),
                      (sp.sym_product(g, A, B), _traceless_packed(g, AB + np.swapaxes(AB, -1, -2)))):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert (np.max(np.abs(got)) <= 1e-13 * scale) == g.square_is_isotropic


def _advective(g, a, b, params):
    """The advective form -(a . grad) v(b) - sum_j v(b)_j grad a_j at collocation
    points, from full Jacobians of the mask2-dealiased fields."""
    ci = -g.dim - 1
    a, vb = a * g.mask2, sp.v_apply(g, b * g.mask2, params)
    along = np.sum(np.expand_dims(sp.to_phys(g, a), ci - 1) * sp.jacobian_phys(g, vb), axis=ci)
    cograd = np.sum(np.expand_dims(sp.to_phys(g, vb), ci) * sp.jacobian_phys(g, a), axis=ci - 1)
    return -along - cograd


def _curl_cross(g, y, u, params):
    """curl v(y) x u from the explicit curl stencil: in 2D the scalar curl w
    acts as the rotation (-w u_2, w u_1)."""
    w, up = _curl_v_phys(g, y, params), sp.to_phys(g, u)
    if g.dim == 2:
        return np.stack([-w * g.c(up, 1), w * g.c(up, 0)], axis=-3)
    return np.moveaxis(np.cross(np.moveaxis(w, -4, -1), np.moveaxis(up, -4, -1)), -1, -4)


class TestRotationalForm:
    """The packed rotation kernels and the rotational convective form against
    full-Jacobian references."""

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_rotation_against_jacobian(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        c = np.stack([sp.random_field(g, np.random.default_rng(70 + s)) for s in range(2)])
        J = sp.jacobian_phys(g, c)
        a, b = g.asym_pairs
        full = (J - np.swapaxes(J, -dim - 1, -dim - 2))[(Ellipsis, a, b) + (slice(None),) * dim]
        assert _rel(sp.rotation_packed(g, c), full) <= 1e-12

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_rotate_against_curl_cross(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(71)
        y = np.stack([sp.random_field(g, rng, amplitude=1.5) for _ in range(2)])
        u = np.stack([sp.random_field(g, rng) for _ in range(2)])
        ref = _curl_cross(g, y, u, PARAMS)
        W = sp.rotation_packed(g, sp.v_apply(g, y, PARAMS))
        assert _rel(sp.rotate(g, W, sp.to_phys(g, u)), ref) <= 1e-12
        # the drift's convective form: B(u, y) = -curl v(y) x u on mask2 fields
        conv = sp.convective(sp.Collocation(g, u, PARAMS), sp.Collocation(g, y, PARAMS))
        assert _rel(-conv, ref) <= 1e-12

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    @pytest.mark.parametrize("mask", ["retain", "mask2"])
    def test_antisymmetric_divergence_against_full(self, dim, n_max, mask):
        g = sp.WaveGrid(dim, n_max)
        M = np.random.default_rng(72).standard_normal((2, dim, dim) + g.shape)
        S = M - np.swapaxes(M, -dim - 1, -dim - 2)
        a, b = g.asym_pairs
        m = getattr(g, mask)
        packed = S[(Ellipsis, a, b) + (slice(None),) * dim]
        assert _rel(sp.div_asym_spec(g, packed, m), _div_matrix_spec(g, S, m)) <= 1e-12

    @pytest.mark.parametrize("dim,n_max", SEAM_GRIDS)
    def test_projected_convective_matches_advective(self, dim, n_max):
        # the two forms differ by grad(a . v(b)), which the projection removes
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(73)
        y = np.stack([sp.random_field(g, rng, amplitude=1.5) for _ in range(3)])
        z = np.stack([sp.random_field(g, rng) for _ in range(3)])
        yc, zc = sp.Collocation(g, y, PARAMS), sp.Collocation(g, z, PARAMS)

        def proj(f):
            return sp.leray_project(g, sp.to_spec(g, f, g.mask2))

        assert _rel(proj(sp.convective(yc, yc)), proj(_advective(g, y, y, PARAMS))) <= 1e-13
        lin = proj(sp.convective(yc, zc) + sp.convective(zc, yc))
        ref = proj(_advective(g, y, z, PARAMS) + _advective(g, z, y, PARAMS))
        assert _rel(lin, ref) <= 1e-13


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
        raw = _zero_mean(g, raw)
        p = sp.leray_project(g, raw)
        assert abs(sp.l2_inner(g, p, raw - p)) < 1e-12

    def test_self_adjoint(self):
        g = grid2()
        rng = np.random.default_rng(5)
        a = _zero_mean(g, sp.to_spec(g, rng.standard_normal((2,) + g.shape)))
        b = _zero_mean(g, sp.to_spec(g, rng.standard_normal((2,) + g.shape)))
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

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_v_symbol_is_v_apply_multiplier(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        assert np.array_equal(sp.v_apply(g, np.ones(g.spec_shape), PARAMS), sp.v_symbol(g, PARAMS))

    def test_inverse(self):
        g = grid3()
        rng = np.random.default_rng(9)
        c = sp.random_field(g, rng)
        back = sp.v_apply(g, c, PARAMS) / (1.0 + PARAMS.alpha1 * g.k2)
        assert np.max(np.abs(back - c)) < 1e-13

    def test_v_inner_matches_definition(self):
        # (u, z)_V = (u, z) + 2 alpha1 (Du, Dz) with D the symmetric gradient
        g = grid2()
        rng = np.random.default_rng(10)
        a = sp.random_field(g, rng, amplitude=1.7)
        b = sp.random_field(g, rng, amplitude=0.9)
        Da = 0.5 * _deformation_full(g, a)
        Db = 0.5 * _deformation_full(g, b)
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
        w = _curl_v_phys(g, c, pa)
        # curl = d1 v2 - d2 v1 = -(1 + 0.7) sin(x1)
        assert np.max(np.abs(w + 1.7 * np.sin(X1))) < 1e-12


def _refined_b(g, factor, *fields):
    """trilinear_b on fields embedded onto the grid ``factor`` times as fine."""
    big = sp.refined(g, factor)
    return sp.trilinear_b(big, *(sp.embed(g, big, f) for f in fields))


class TestTrilinear:
    def test_antisymmetry(self):
        for g in (grid2(), grid3()):
            rng = np.random.default_rng(31)
            y = sp.random_field(g, rng, amplitude=1.5)
            z = sp.random_field(g, rng)
            w = sp.random_field(g, rng)
            s1 = _refined_b(g, 2, y, z, w)
            s2 = _refined_b(g, 2, y, w, z)
            assert abs(s1 + s2) < 1e-12 * max(1.0, abs(s1))

    def test_dense_quadrature_oracle(self):
        # low-mode triple evaluated on a 4x refined grid must match the
        # native evaluation to quadrature exactness
        g = grid2()
        rng = np.random.default_rng(32)
        u = sp.random_field(g, rng, kmax=2)
        z = sp.random_field(g, rng, kmax=2)
        w = sp.random_field(g, rng, kmax=2)
        native = sp.trilinear_b(g, u, z, w)
        dense = _refined_b(g, 4, u, z, w)
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
        assert abs(_refined_b(g, 2, u, z, w)) < 1e-13
        # and a nonzero one with a hand value:
        # b(u, z2, w2) with z2 = (0, sin x2 is not div-free) -- use
        # u = (sin x2, 0), z = (sin x2, 0), w = (0, ...): d_i z_a only
        # d2 z1 = cos x2, so (u . grad z)_1 = 0 (u2 = 0). Stays zero.
        z3 = sp.to_spec(g, np.stack([np.sin(X2), 0 * X1]))
        assert abs(_refined_b(g, 2, u, z3, w)) < 1e-13

    def test_mismatched_grids_rejected(self):
        # every field, u included, must live on the grid b is evaluated on
        g = grid2()
        big = sp.refined(g, 2)
        f = sp.random_field(g, np.random.default_rng(33))
        F = sp.embed(g, big, f)
        for args in ((f, F, F), (F, f, F), (F, F, f)):
            with pytest.raises(ValueError, match="mismatched grids"):
                sp.trilinear_b(big, *args)


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
        assert abs(_w1inf_norm(g, c) - 2.0) < 1e-10

    def test_norm_ordering(self):
        g = grid2()
        rng = np.random.default_rng(41)
        c = sp.random_field(g, rng, amplitude=1.0)
        wv = 1.0 + PARAMS.alpha1 * g.k2
        l2, v, w, wt = (np.sqrt(sp.sobolev_inner(g, c, c, weight))
                        for weight in (1.0, wv, wv + wv**2, wv + g.k2 * wv**2))
        assert l2 <= v <= w
        assert v <= wt

    def test_wtilde_uses_curl(self):
        # ||u||_Wtilde^2 = ||u||_V^2 + ||curl v(u)||^2 on solenoidal fields,
        # the Sobolev pairing of weight |k|^2 (1 + alpha1 |k|^2)^2 against quadrature
        g = grid2()
        rng = np.random.default_rng(42)
        c = sp.random_field(g, rng, amplitude=1.4)
        w = _curl_v_phys(g, c, PARAMS)
        curlsq = sp.quad_integral(g, w**2)
        wv = 1.0 + PARAMS.alpha1 * g.k2
        assert abs(sp.sobolev_inner(g, c, c, g.k2 * wv**2) - curlsq) < 1e-10


def _w24_orders(g, c):
    """Collocation values of s_0, s_1, s_2, the squared derivatives of each order
    summed over components and over every (also mixed) derivative, stacked first."""
    ci = -g.dim - 1
    hess = -g.k[:, None] * g.k[None] * c.reshape(c.shape[:-g.dim] + (1, 1) + g.spec_shape)
    return np.stack([np.sum(sp.to_phys(g, c) ** 2, axis=ci),
                     np.sum(sp.jacobian_phys(g, c) ** 2, axis=(ci, ci - 1)),
                     np.sum(sp.to_phys(g, hess) ** 2, axis=(ci, ci - 1, ci - 2))])


class TestW24Bounds:
    GRIDS = [(2, 3), (2, 4), (2, 8), (3, 3)]

    @pytest.mark.parametrize("dim,n_max", GRIDS)
    def test_bracket_the_norm(self, dim, n_max):
        # random fields of several bands and sizes; forward's TestStopTest checks
        # the evolved states of ensembles on the same grids
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(10 * dim + n_max)
        c = np.concatenate([sp.random_field(g, rng, kmax=kmax, amplitude=amp, batch=(5,))
                            for kmax in (1, None, n_max) for amp in (1e-3, 1.0, 40.0)])
        w, (lo, hi) = sp.w24_norm(g, c), sp.w24_bounds(g, c)
        assert np.all(lo <= w * (1 + 1e-13)) and np.all(w <= hi * (1 + 1e-13))
        assert np.all(lo < w) and np.all(w < hi)  # neither is tight on these

    @pytest.mark.parametrize("dim,n_max", [(2, 3), (3, 3)])
    def test_formulas(self, dim, n_max):
        # lo: the Parseval mean of each s_j is its collocation mean, exactly
        g = sp.WaveGrid(dim, n_max)
        c = sp.random_field(g, np.random.default_rng(3), amplitude=1.7, batch=(4,))
        mean = _w24_orders(g, c).mean(axis=g.axes)
        lo, hi = sp.w24_bounds(g, c)
        assert np.allclose(lo**4, g.vol * np.sum(mean**2, axis=0), rtol=1e-13, atol=0)
        # hi: on u = e cos(k . x), e . k = 0, the |d^alpha u_a| of one order peak
        # together, at grid points (N = 8), so the bound on each max_x s_j is
        # attained; k has mixed second derivatives
        k, e = ((1, 2), (2, -1)) if dim == 2 else ((1, 2, 1), (2, -1, 0))
        x = np.stack(np.meshgrid(*[2 * np.pi * np.arange(g.N) / g.N] * dim, indexing="ij"))
        u = 0.7 * np.asarray(e, float).reshape((dim,) + (1,) * dim) * np.cos(np.tensordot(k, x, 1))
        c = sp.to_spec(g, u)
        s = _w24_orders(g, c)
        lo, hi = sp.w24_bounds(g, c)
        want = g.vol * np.sum(s.max(axis=g.axes) * s.mean(axis=g.axes))
        assert abs(hi**4 - want) <= 1e-12 * want

    def test_non_finite_decides_nothing(self):
        # no warning even under -W error, and hi is inf or NaN, so no bound test passes
        g = sp.WaveGrid(2, 4)
        c = sp.random_field(g, np.random.default_rng(5), batch=(4,))
        c[0] = np.nan
        c[1, 0, 1, 2] = np.inf
        c[2] *= 1e200  # finite, but its squares overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = sp.w24_bounds(g, c)
        assert not np.isfinite(hi[:3]).any() and np.isfinite(hi[3]) and np.isfinite(lo[3])

    def test_tables_made_on_first_use(self):
        # a grid that never bounds a norm builds nothing for it
        g = sp.WaveGrid(3, 3)
        assert "w24_tables" not in vars(g)
        sp.w24_bounds(g, g.zeros((1,)))
        assert "w24_tables" in vars(g)


class TestDrift:
    """The unprojected drift form: y is solenoidal, so the pairings below are
    those of the projected drift."""

    def test_convective_energy_cancellation(self):
        # ((y.grad) v(y) + sum_j v_j grad y_j, y) = 0 discretely
        p0 = sp.PhysicalParams(nu=0.0, alpha1=0.4, alpha2=-0.4, beta=0.0)
        for g in (grid2(), grid3()):
            rng = np.random.default_rng(52)
            y = sp.random_field(g, rng, amplitude=2.0)
            d = sp.drift_terms(sp.Collocation(g, y, p0))
            # alpha12 = 0 cancels the stress term, beta = 0 the cubic one
            assert abs(sp.l2_inner(g, d, y)) < 1e-11

    def test_cubic_term_dissipative(self):
        # (beta div(|A|^2 A), y) = -(beta/2) int |A|^4 for band-limited y
        pb = sp.PhysicalParams(nu=1.0, alpha1=0.4, alpha2=-0.4, beta=0.5)
        g = grid2()
        rng = np.random.default_rng(53)
        y = sp.random_field(g, rng, kmax=g.cubic_cut, amplitude=1.5)
        d = sp.drift_terms(sp.Collocation(g, y, pb))
        A = _deformation_full(g, y)
        quartic = sp.quad_integral(g, np.sum(A**2, axis=(-3, -4)) ** 2)
        assert abs(sp.l2_inner(g, d, y) + 0.5 * pb.beta * quartic) < 1e-9

    def test_batched_matches_loop(self):
        g = grid2()
        rng = np.random.default_rng(56)
        ys = np.stack([sp.random_field(g, rng) for _ in range(4)])
        batched = sp.drift_terms(sp.Collocation(g, ys, PARAMS))
        for s in range(4):
            single = sp.drift_terms(sp.Collocation(g, ys[s], PARAMS))
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
