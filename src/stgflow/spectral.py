"""Divergence-free spectral core on the periodic box [0, 2*pi)^d.

Velocity fields are stored as truncated Fourier amplitudes: a field u
with coefficient array ``c`` of shape ``(..., d, N, ..., N)`` satisfies
``u(x) = sum_k c[k] exp(i k.x)`` componentwise.  Leading axes are batch
axes (ensemble samples), so every operator here vectorises over an
arbitrary number of Monte Carlo samples.

Transform convention: ``to_phys`` maps coefficients to collocation values
(``Re ifftn * N^d``) and ``to_spec`` maps back (``fftn / N^d``) and masks
the result, by default to the retained modes.  Every transform in the
package goes through these two functions.

Pointwise products of collocation (or coefficient) arrays go through one
contraction helper that merges the d trailing spatial axes into a single
index ``x``, so one einsum subscript string serves d = 2 and d = 3.

All quadratic products are dealiased by the 2/3 rule, cubic products by
the 1/2 rule; the collocation grid has N = 2*(n_max+1) points per axis,
which makes every masked product alias-free.  The drift is assembled from
per-field collocation pieces (``Collocation``) fed to a bilinear
convective form and the two stress forms; the tangent module reuses the
same forms for the exact Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PhysicalParams:
    """Material moduli of the third-grade fluid model.

    The constraint |alpha1 + alpha2| <= sqrt(24 nu beta) keeps the model
    thermodynamically admissible; beta = 0 recovers a second-grade fluid.
    """

    nu: float
    alpha1: float
    alpha2: float
    beta: float

    def __post_init__(self):
        if self.nu < 0 or self.alpha1 < 0 or self.beta < 0:
            raise ValueError(
                "require nu >= 0, alpha1 >= 0, beta >= 0, got "
                f"nu={self.nu}, alpha1={self.alpha1}, beta={self.beta}"
            )
        lhs = abs(self.alpha1 + self.alpha2)
        rhs = math.sqrt(24.0 * self.nu * self.beta)
        if lhs > rhs + 1e-12:
            raise ValueError(
                f"|alpha1 + alpha2| = {lhs:.6g} exceeds sqrt(24*nu*beta) = {rhs:.6g}"
            )


@dataclass(frozen=True)
class NormReport:
    l2: float
    v_norm: float
    w_norm: float
    wtilde_norm: float
    w24_norm: float
    w1inf_norm: float


class WaveGrid:
    """Wavenumber bookkeeping for the box [0, 2*pi)^d, d in {2, 3}.

    Retains integer modes with |k_i| <= n_max on an N = 2*(n_max+1)
    collocation grid (the Nyquist plane is always zeroed).
    """

    def __init__(self, dim: int, n_max: int):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.dim = dim
        self.n_max = n_max
        self.N = 2 * (n_max + 1)
        self.shape = (self.N,) * dim
        self.npts = self.N**dim
        self.vol = (2.0 * np.pi) ** dim
        self.axes = tuple(range(-dim, 0))
        self.dealias_cut = (2 * n_max) // 3
        self.cubic_cut = n_max // 2

        freqs = np.fft.fftfreq(self.N, d=1.0 / self.N)  # integers, Nyquist = -N/2
        mesh = np.meshgrid(*([freqs] * dim), indexing="ij")
        self.k = np.stack(mesh)  # (dim, *shape)
        self.k2 = np.sum(self.k**2, axis=0)

        kabs = np.abs(self.k)
        self.retain = np.all(kabs <= n_max, axis=0)
        self.mask2 = np.all(kabs <= self.dealias_cut, axis=0)
        self.mask3 = np.all(kabs <= self.cubic_cut, axis=0)

        # Per-mode Leray projector I - k k^T / |k|^2 (identity at k = 0;
        # the mean mode is pinned to zero separately).
        k2s = np.where(self.k2 == 0, 1.0, self.k2)
        eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
        self.leray_tensor = eye - self.k[:, None] * self.k[None, :] / k2s

    def __eq__(self, other):
        return (
            isinstance(other, WaveGrid)
            and self.dim == other.dim
            and self.n_max == other.n_max
        )

    def __hash__(self):
        return hash((self.dim, self.n_max))

    def __repr__(self):
        return f"WaveGrid(dim={self.dim}, n_max={self.n_max})"

    # component accessor: component axis sits at -(dim+1)
    def c(self, arr, i):
        return arr[(Ellipsis, i) + (slice(None),) * self.dim]

    def zeros(self, batch=()):
        return np.zeros(tuple(batch) + (self.dim,) + self.shape, dtype=complex)

    def wavevectors(self):
        """Retained nonzero wavevectors as an (n_modes, dim) integer array."""
        idx = np.argwhere(self.retain & (self.k2 > 0))
        ks = np.stack([self.k[(a,) + tuple(idx.T)] for a in range(self.dim)], axis=-1)
        return ks.astype(int)


# ---------------------------------------------------------------------------
# transforms and elementary operators


def to_phys(grid: WaveGrid, c):
    """Collocation values of the coefficients ``c`` (real part)."""
    return np.fft.ifftn(c, axes=grid.axes).real * grid.npts


def to_spec(grid: WaveGrid, u, mask=None):
    """Coefficients of the collocation values ``u``, multiplied by ``mask``
    (the retained modes when None)."""
    c = np.fft.fftn(u, axes=grid.axes)
    c /= grid.npts
    c *= grid.retain if mask is None else mask
    return c


def _contract(grid: WaveGrid, subscripts, *operands):
    """np.einsum with each operand's d trailing spatial axes merged into the
    single index ``x``; the result gets them back."""
    flat = [op.reshape(op.shape[: op.ndim - grid.dim] + (grid.npts,)) for op in operands]
    out = np.einsum(subscripts, *flat)
    return out.reshape(out.shape[:-1] + grid.shape)


def zero_mean(grid: WaveGrid, c):
    c = c.copy()
    c[(Ellipsis,) + (0,) * grid.dim] = 0.0
    return c


def leray_project(grid: WaveGrid, c):
    """Project per mode onto k . c(k) = 0; pins the mean mode to zero."""
    out = _contract(grid, "abx,...bx->...ax", grid.leray_tensor, c)
    return zero_mean(grid, out * grid.retain)


def v_apply(grid: WaveGrid, c, params: PhysicalParams):
    return c * (1.0 + params.alpha1 * grid.k2)


def v_inv(grid: WaveGrid, c, params: PhysicalParams):
    return c / (1.0 + params.alpha1 * grid.k2)


def divergence_defect(grid: WaveGrid, c):
    """max_k |k . c(k)|, zero for valid fields."""
    d = sum(grid.k[i] * grid.c(c, i) for i in range(grid.dim))
    return float(np.max(np.abs(d)))


def l2_inner(grid: WaveGrid, a, b):
    """L2(D) inner product from spectral coefficients (Parseval, exact)."""
    s = np.sum(a * np.conj(b), axis=(-grid.dim - 1,) + grid.axes)
    return grid.vol * s.real


def l2_norm(grid: WaveGrid, c):
    return np.sqrt(np.maximum(l2_inner(grid, c, c), 0.0))


def sobolev_inner(grid: WaveGrid, a, b, weight):
    s = np.sum(weight * a * np.conj(b), axis=(-grid.dim - 1,) + grid.axes)
    return grid.vol * s.real


def v_inner(grid: WaveGrid, a, b, params: PhysicalParams):
    return sobolev_inner(grid, a, b, 1.0 + params.alpha1 * grid.k2)


def v_norm(grid: WaveGrid, c, params: PhysicalParams):
    return np.sqrt(np.maximum(v_inner(grid, c, c, params), 0.0))


def h1_inner(grid: WaveGrid, a, b):
    return sobolev_inner(grid, a, b, 1.0 + grid.k2)


def h1_norm(grid: WaveGrid, c):
    return np.sqrt(np.maximum(h1_inner(grid, c, c), 0.0))


def jacobian_phys(grid: WaveGrid, c):
    """Collocation Jacobian J[..., a, i] = d u_a / d x_i."""
    return to_phys(grid, 1j * grid.k * np.expand_dims(c, -grid.dim - 1))


def _symmetrize(grid: WaveGrid, J):
    return J + np.swapaxes(J, -grid.dim - 1, -grid.dim - 2)


def deformation_phys(grid: WaveGrid, c):
    """Symmetric deformation tensor A = grad u + (grad u)^T at collocation points."""
    return _symmetrize(grid, jacobian_phys(grid, c))


def div_matrix_spec(grid: WaveGrid, M_phys, mask=None):
    """Spectral divergence of a collocation matrix field: out_a = sum_j d_j M[a, j],
    masked like ``to_spec``."""
    return _contract(grid, "jx,...ajx->...ax", 1j * grid.k, to_spec(grid, M_phys, mask))


def advect(grid: WaveGrid, a_phys, J):
    """comp b = sum_i a_i J[b, i], i.e. (a . grad) u for J = jacobian of u."""
    return _contract(grid, "...ix,...bix->...bx", a_phys, J)


def cograd(grid: WaveGrid, a_phys, J):
    """comp i = sum_j a_j J[j, i], i.e. (grad u)^T a for J = jacobian of u."""
    return _contract(grid, "...jx,...jix->...ix", a_phys, J)


def outer_phys(grid: WaveGrid, a_phys, b_phys):
    """Pointwise outer product M[a, i] = a_a b_i at collocation points."""
    return _contract(grid, "...ax,...ix->...aix", a_phys, b_phys)


def curl_v_phys(grid: WaveGrid, c, params: PhysicalParams):
    """Collocation values of curl v(u): scalar in 2D, vector in 3D."""
    vc = v_apply(grid, c, params)
    if grid.dim == 2:
        w = 1j * (grid.k[0] * grid.c(vc, 1) - grid.k[1] * grid.c(vc, 0))
        return to_phys(grid, w)
    kx, ky, kz = grid.k
    cx, cy, cz = (grid.c(vc, i) for i in range(3))
    w = np.stack(
        [
            1j * (ky * cz - kz * cy),
            1j * (kz * cx - kx * cz),
            1j * (kx * cy - ky * cx),
        ],
        axis=-4,
    )
    return to_phys(grid, w)


# ---------------------------------------------------------------------------
# quadrature helpers (zero-padded, alias-free evaluation for identity checks)


def embed(grid: WaveGrid, big: WaveGrid, c):
    """Zero-pad coefficients from grid onto the finer grid ``big``."""
    pad = (big.N - grid.N) // 2
    sh = np.fft.fftshift(c, axes=grid.axes)
    widths = [(0, 0)] * (sh.ndim - grid.dim) + [(pad, big.N - grid.N - pad)] * grid.dim
    return np.fft.ifftshift(np.pad(sh, widths), axes=grid.axes)


def refined(grid: WaveGrid, factor: int = 2) -> WaveGrid:
    return WaveGrid(grid.dim, factor * (grid.n_max + 1) - 1)


def quad_integral(grid: WaveGrid, f_phys):
    """Trapezoid-exact integral over the box of collocation values."""
    return grid.vol * np.mean(f_phys, axis=grid.axes)


def trilinear_b(grid: WaveGrid, u, z, w, refine: int = 1):
    """b(u, z, w) = int (u . grad z) . w dx, pseudo-spectrally.

    With refine > 1 the product is evaluated on a zero-padded grid so the
    quadrature is exact for full-band inputs.
    """
    for f in (z, w):
        if f.shape[-grid.dim :] != grid.shape:
            raise ValueError("trilinear_b: fields on mismatched grids")
    g = grid if refine == 1 else refined(grid, refine)
    if refine != 1:
        u, z, w = (embed(grid, g, f) for f in (u, z, w))
    up = to_phys(g, u)
    wp = to_phys(g, w)
    Jz = jacobian_phys(g, z)  # [a, i] = d z_a / d x_i
    return quad_integral(g, _contract(g, "...ix,...aix,...ax->...x", up, Jz, wp))


# ---------------------------------------------------------------------------
# norms


def w24_norm(grid: WaveGrid, c):
    """Collocation W^{2,4} norm, batched: (||u||_4^4 + ||grad u||_4^4 + ||grad^2 u||_4^4)^{1/4}."""
    ci = -grid.dim - 1
    up = to_phys(grid, c)
    J = jacobian_phys(grid, c)
    Hp = to_phys(grid, 1j * grid.k * (1j * grid.k[:, None] * np.expand_dims(c, (ci, ci - 1))))
    s0 = np.sum(up**2, axis=ci)
    s1 = np.sum(J**2, axis=(ci, ci - 1))
    s2 = np.sum(Hp**2, axis=(ci, ci - 1, ci - 2))
    total = (
        quad_integral(grid, s0**2)
        + quad_integral(grid, s1**2)
        + quad_integral(grid, s2**2)
    )
    return total**0.25


def w1inf_norm(grid: WaveGrid, c):
    up = to_phys(grid, c)
    J = jacobian_phys(grid, c)
    m0 = np.max(np.sqrt(np.sum(up**2, axis=-grid.dim - 1)), axis=grid.axes)
    m1 = np.max(
        np.sqrt(np.sum(J**2, axis=(-grid.dim - 1, -grid.dim - 2))), axis=grid.axes
    )
    return np.maximum(m0, m1)


def norms(grid: WaveGrid, c, params: PhysicalParams) -> NormReport:
    wv = 1.0 + params.alpha1 * grid.k2
    l2sq = l2_inner(grid, c, c)
    vsq = sobolev_inner(grid, c, c, wv)
    wsq = vsq + sobolev_inner(grid, c, c, wv**2)
    wtsq = vsq + sobolev_inner(grid, c, c, grid.k2 * wv**2)
    return NormReport(
        l2=float(np.sqrt(max(l2sq, 0.0))),
        v_norm=float(np.sqrt(max(vsq, 0.0))),
        w_norm=float(np.sqrt(max(wsq, 0.0))),
        wtilde_norm=float(np.sqrt(max(wtsq, 0.0))),
        w24_norm=float(w24_norm(grid, c)),
        w1inf_norm=float(w1inf_norm(grid, c)),
    )


def basis_eigenvalues(grid: WaveGrid, params: PhysicalParams):
    """W-vs-V Rayleigh quotients mu(k) = 1 + (1 + alpha1 |k|^2) per retained mode."""
    ks = grid.wavevectors()
    k2 = np.sum(ks**2, axis=1)
    return 2.0 + params.alpha1 * k2


# ---------------------------------------------------------------------------
# drift assembly


class Collocation:
    """Collocation pieces of one field for the drift forms: u, J = grad u,
    v = v(u), Jv = grad v(u) and A = J + J^T of the mask2-dealiased field,
    and A3 = A of the mask3-dealiased one.

    Each form reads each piece once, so to keep a step's peak memory low the
    pieces are transformed on access and freed after use; only J (read by B
    and by A) and the coefficients of v(u) are kept.
    """

    def __init__(self, grid: WaveGrid, c, params: PhysicalParams):
        self.grid = grid
        self.params = params
        self.c = c * grid.mask2

    vc = cached_property(lambda self: v_apply(self.grid, self.c, self.params))
    u = property(lambda self: to_phys(self.grid, self.c))
    v = property(lambda self: to_phys(self.grid, self.vc))
    J = cached_property(lambda self: jacobian_phys(self.grid, self.c))
    Jv = property(lambda self: jacobian_phys(self.grid, self.vc))
    A = property(lambda self: _symmetrize(self.grid, self.J))
    A3 = property(lambda self: deformation_phys(self.grid, self.c * self.grid.mask3))


def convective(a: Collocation, b: Collocation):
    """Bilinear convective form B(a, b) = -(a . grad) v(b) - sum_j v(b)_j grad a_j
    at collocation points; the drift carries B(y, y)."""
    return -advect(a.grid, a.u, b.Jv) - cograd(a.grid, b.v, a.J)


def stress_terms(y: Collocation, z: Collocation = None):
    """Spectral beta div(|A|^2 A) on mask3 plus (alpha1+alpha2) div(A^2) on
    mask2 at y; given z, their derivative at y in direction z, which is
    self-adjoint in z."""
    grid, params = y.grid, y.params
    ci = -grid.dim - 1
    out = 0.0
    if params.beta != 0.0:
        Ay = y.A3
        norm2 = np.sum(Ay**2, axis=(ci, ci - 1), keepdims=True)
        if z is None:
            S = norm2 * Ay
        else:
            Az = z.A3
            S = 2.0 * np.sum(Ay * Az, axis=(ci, ci - 1), keepdims=True) * Ay + norm2 * Az
        out = params.beta * div_matrix_spec(grid, S, grid.mask3)
    a12 = params.alpha1 + params.alpha2
    if a12 != 0.0:
        Ay = y.A
        Az = Ay if z is None else z.A
        S = _contract(grid, "...acx,...cbx->...abx", Ay, Az)
        if z is not None:
            S = S + _contract(grid, "...acx,...cbx->...abx", Az, Ay)
        out = out + a12 * div_matrix_spec(grid, S, grid.mask2)
    return out


def drift_terms(y: Collocation, z: Collocation = None):
    """Nonlinear drift N(y), or, given z, its derivative N'(y)[z] =
    B(y, z) + B(z, y) + stress derivatives; spectral, dealiased, not projected."""
    # stress first: its Jacobians are then taken while the fewest arrays are live
    out = stress_terms(y, z)
    conv = convective(y, y) if z is None else convective(y, z) + convective(z, y)
    return out + to_spec(y.grid, conv, y.grid.mask2)


def state_drift(
    grid: WaveGrid, y, u=None, params: PhysicalParams = None, include_viscosity: bool = True
):
    """Leray-projected drift of the state equation (pressure eliminated)."""
    out = drift_terms(Collocation(grid, y, params))
    if include_viscosity:
        out = out - params.nu * grid.k2 * y
    if u is not None:
        out = out + u
    return leray_project(grid, out)


# ---------------------------------------------------------------------------
# random fields and identity corpus


def random_field(grid: WaveGrid, rng, kmax=None, amplitude=1.0):
    """Random real, divergence-free, mean-free field band-limited to |k_i| <= kmax."""
    if kmax is None:
        kmax = grid.dealias_cut
    u = rng.standard_normal((grid.dim,) + grid.shape)
    c = to_spec(grid, u)
    band = np.all(np.abs(grid.k) <= kmax, axis=0)
    c = leray_project(grid, c * band)
    n = l2_norm(grid, c)
    if n > 0:
        c = c * (amplitude / n)
    return c


def curl_cross_phys(grid: WaveGrid, y, u, params: PhysicalParams):
    """Collocation values of curl v(y) x u (2D scalar curl acts as rotation)."""
    w = curl_v_phys(grid, y, params)
    up = to_phys(grid, u)
    if grid.dim == 2:
        return np.stack([-w * grid.c(up, 1), w * grid.c(up, 0)], axis=-3)
    cr = np.cross(np.moveaxis(w, -4, -1), np.moveaxis(up, -4, -1))
    return np.moveaxis(cr, -1, -4)


def _cross_field_spec(grid: WaveGrid, big: WaveGrid, y, p):
    """Coefficients of y x p on the refined grid (scalar in 2D)."""
    yb = embed(grid, big, y)
    pb = embed(grid, big, p)
    ypb = to_phys(big, yb)
    ppb = to_phys(big, pb)
    if grid.dim == 2:
        return to_spec(big, big.c(ypb, 0) * big.c(ppb, 1) - big.c(ypb, 1) * big.c(ppb, 0))
    cr = np.cross(np.moveaxis(ypb, -4, -1), np.moveaxis(ppb, -4, -1))
    return to_spec(big, np.moveaxis(cr, -1, -4))


def curl_v_of_cross(grid: WaveGrid, big: WaveGrid, y, p, params: PhysicalParams):
    """Collocation (on ``big``) of curl v(y x p)."""
    s = _cross_field_spec(grid, big, y, p)
    vs = s * (1.0 + params.alpha1 * big.k2)
    if grid.dim == 2:
        # curl of a scalar s: (d2 s, -d1 s)
        return to_phys(big, np.stack([1j * big.k[1] * vs, -1j * big.k[0] * vs], axis=-3))
    kx, ky, kz = big.k
    cx, cy, cz = (big.c(vs, i) for i in range(3))
    out = np.stack(
        [
            1j * (ky * cz - kz * cy),
            1j * (kz * cx - kx * cz),
            1j * (kx * cy - ky * cx),
        ],
        axis=-4,
    )
    return to_phys(big, out)


def verify_identities(seed: int, params: PhysicalParams, grid: WaveGrid = None, n_triples: int = 20):
    """Numerically witness the curl/trilinear identities on random fields.

    Returns a report dict with the worst relative defects and the empirical
    constant of the |b(delta, y, v(delta))| bound.  On the periodic box the
    3D boundary integral vanishes identically, so the 2D form of the
    curl-of-cross identity is asserted in both dimensions.
    """
    if grid is None:
        grid = WaveGrid(2, 8)
    rng = np.random.default_rng(seed)
    big = refined(grid, 2)
    worst31 = worst_ipp = worst_anti = 0.0
    c_emp = 0.0
    for _ in range(n_triples):
        y = random_field(grid, rng, amplitude=rng.uniform(0.5, 2.0))
        u = random_field(grid, rng, amplitude=rng.uniform(0.5, 2.0))
        phi = random_field(grid, rng, amplitude=rng.uniform(0.5, 2.0))

        vy = v_apply(grid, y, params)
        # (curl v(y) x u, phi) = b(phi, u, v(y)) - b(u, phi, v(y))
        lhs = quad_integral(
            big,
            np.sum(
                curl_cross_phys(big, embed(grid, big, y), embed(grid, big, u), params)
                * to_phys(big, embed(grid, big, phi)),
                axis=-grid.dim - 1,
            ),
        )
        rhs = trilinear_b(grid, phi, u, vy, refine=2) - trilinear_b(
            grid, u, phi, vy, refine=2
        )
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst31 = max(worst31, abs(lhs - rhs) / scale)

        # (curl v(y x p), phi) = b(p, y, v(phi)) - b(y, p, v(phi))
        vphi = v_apply(grid, phi, params)
        lhs2 = quad_integral(
            big,
            np.sum(
                curl_v_of_cross(grid, big, y, u, params)
                * to_phys(big, embed(grid, big, phi)),
                axis=-grid.dim - 1,
            ),
        )
        rhs2 = trilinear_b(grid, u, y, vphi, refine=2) - trilinear_b(
            grid, y, u, vphi, refine=2
        )
        scale2 = max(abs(lhs2), abs(rhs2), 1e-30)
        worst_ipp = max(worst_ipp, abs(lhs2 - rhs2) / scale2)

        # antisymmetry b(y, z, phi) = -b(y, phi, z)
        s1 = trilinear_b(grid, y, u, phi, refine=2)
        s2 = trilinear_b(grid, y, phi, u, refine=2)
        worst_anti = max(
            worst_anti, abs(s1 + s2) / max(abs(s1), abs(s2), 1e-30)
        )

        # |b(delta, y, v(delta))| <= C ||y||_{W^{2,4}} ||delta||_V^2
        bval = abs(trilinear_b(grid, u, y, v_apply(grid, u, params), refine=2))
        denom = w24_norm(grid, y) * v_norm(grid, u, params) ** 2
        if denom > 0:
            c_emp = max(c_emp, bval / float(denom))

    return {
        "lemma_curl_cross_max_rel": worst31,
        "curl_of_cross_max_rel": worst_ipp,
        "antisymmetry_max_rel": worst_anti,
        "technical_bound_C": c_emp,
        "triples": n_triples,
        "dim": grid.dim,
    }
