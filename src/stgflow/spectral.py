"""Divergence-free spectral core on the periodic box [0, 2*pi)^d.

Velocity fields are stored as truncated Fourier amplitudes of real
fields: a field u with coefficients c satisfies
``u(x) = sum_k c[k] exp(i k.x)`` componentwise.  Leading axes are batch
axes (ensemble samples), so every operator here vectorises over an
arbitrary number of Monte Carlo samples.

Storage convention: the coefficients of a real field are Hermitian,
``c[-k] = conj(c[k])``, so only half of them are stored.  A spectral
array has shape ``(..., d, N, ..., N, N/2+1)``: the last axis keeps the
indices 0..N/2, exactly what numpy's ``rfftn`` returns and ``irfftn``
reads.  ``WaveGrid.spec_shape`` (and ``nspec``) size every spectral
array; ``WaveGrid.shape`` (and ``npts``) stay the physical N^d
collocation grid.  The grid's wavenumbers, masks and symbols live on the
half grid, so every elementwise operator and contraction acts on the
stored modes only.  The L2 and Sobolev pairings weight each stored mode
by its Hermitian multiplicity, 1 on the planes k_d = 0 and k_d = N/2 and
2 elsewhere, which is exact for Hermitian inputs; every grid mask zeroes
the Nyquist planes.  ``full_spectrum`` expands a half spectrum to the
full N^d one (the trajectory file holds that).

Transforms use ``norm="forward"``: ``to_phys`` is ``irfftn`` of the
stored half spectrum, which must be the half of a Hermitian array (the
plane k_d = 0 Hermitian in the other axes); ``to_spec`` is
``rfftn / N^d``, masked, by default to the retained modes, with the plane
k_d = 0 averaged with its mirror image, so its output is exactly the
half of a Hermitian array.  Both run one 1-D pass at a time on a
contiguous copy with its axis last (on small batches faster than numpy's
strided n-D passes), in ``WaveGrid.irfft_axes`` order: their outputs are
bitwise those of ``irfftn`` and of numpy 2's ``rfftn``.
Every transform in the package goes through these two functions;
symmetric tensors (the Hessian in ``w24_norm``) are transformed in their
entries a <= b only, traceless symmetric ones (the deformation tensor of a
divergence-free field, the stresses) in those entries but the last
diagonal one, which is minus the sum of the others (``last_diagonal``): 2
components in 2D, 5 in 3D.  Antisymmetric ones (the rotation of v(u), the
wedge products of the convective transpose) are transformed in their
entries a < b only: 1 component in 2D, 3 in 3D.

Contractions of coefficient (or collocation) arrays go through one
helper that merges the d trailing axes into a single index ``x``, so one
einsum subscript string serves d = 2 and d = 3, half spectrum and
collocation grid alike.

All quadratic products are dealiased by the 2/3 rule, cubic products by
the 1/2 rule; the collocation grid has N = 2*(n_max+1) points per axis,
which makes every masked product alias-free.  The drift is assembled from
per-field collocation pieces (``Collocation``) fed to a bilinear
convective form and the two stress forms, beta div(|A|^2 A) and, in 3D,
(alpha1 + alpha2) div(A^2); the tangent module reuses the same forms for
the exact Jacobian and reads them the other way for its transpose.
``drift_terms`` is not projected: the step's one Leray projection, after
the implicit solve, eliminates the pressure, and it takes every gradient
the traceless packing leaves in the stresses.  Their pointwise pairings
A : B are the kept entries with their multiplicities plus the product of
the last diagonal ones (``sym_inner``); the packed divergence
``div_sym_spec`` is minus half the transpose of the packed deformation in
that pairing and differs from the divergence of the full tensor by a
gradient; of A^2 only the traceless part is transformed, its trace part
being a gradient too.  In 2D that part is zero, A^2 = |A|^2 I / 2
(``WaveGrid.square_is_isotropic``), and the second stress form is left out.
The drift is N(y) minus these gradients on divergence-free y, the same once
projected.

The convective form is the rotational one, B(a, b) = -curl v(b) x a,
evaluated as ``rotate`` of the packed rotation W_ab = d_b v_a - d_a v_b.
It differs from the advective form -(a . grad) v(b) - sum_j v(b)_j grad a_j
by grad(a . v(b)); the product a . v(b) of two mask2 fields is resolved
alias-free on the retained modes, so the per-mode Leray projection removes
that gradient exactly and the projected drift is the same.  It needs the
rotation of v(u) alone, not the two full Jacobians of u and v(u).
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


MIN_N_MAX = 2  # the least n_max whose 2/3 cut, (2 n_max) // 3, keeps a mode


class WaveGrid:
    """Wavenumber bookkeeping for the box [0, 2*pi)^d, d in {2, 3}.

    Retains integer modes with |k_i| <= n_max on an N = 2*(n_max+1)
    collocation grid (the Nyquist planes are always zeroed).  ``shape`` is
    the collocation grid, ``spec_shape`` the stored half spectrum; every
    wavenumber array below lives on the latter.
    """

    def __init__(self, dim: int, n_max: int):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if n_max < MIN_N_MAX:
            raise ValueError(f"n_max must be >= {MIN_N_MAX}, got {n_max}")
        self.dim = dim
        self.n_max = n_max
        self.N = 2 * (n_max + 1)
        self.shape = (self.N,) * dim
        self.npts = self.N**dim
        h = self.N // 2 + 1
        self.spec_shape = (self.N,) * (dim - 1) + (h,)
        self.nspec = self.N ** (dim - 1) * h
        self.vol = (2.0 * np.pi) ** dim
        self.axes = tuple(range(-dim, 0))
        # The complex passes run over axis -2 before axis -3, as irfftn and
        # numpy 2's rfftn do (numpy 1's rfftn runs -3 first): kept for
        # bitwise equality with them and with earlier outputs
        self.irfft_axes = self.axes[-2::-1] + (-1,)
        self.dealias_cut = (2 * n_max) // 3
        self.cubic_cut = n_max // 2

        freqs = np.fft.fftfreq(self.N, d=1.0 / self.N)  # integers, Nyquist = -N/2
        mesh = np.meshgrid(*([freqs] * (dim - 1) + [freqs[:h]]), indexing="ij")
        self.k = np.stack(mesh)  # (dim, *spec_shape)
        self.k2 = np.sum(self.k**2, axis=0)

        kabs = np.abs(self.k)
        self.retain = np.all(kabs <= n_max, axis=0)
        self.mask2 = np.all(kabs <= self.dealias_cut, axis=0)
        self.mask3 = np.all(kabs <= self.cubic_cut, axis=0)

        # Index of -k along the axes before the last, for the conjugate mirror
        # c[-k] = conj(c[k]) of a real field's coefficients (see to_spec), and
        # each stored mode's multiplicity in the full spectrum: the planes
        # k_d = 0 and k_d = N/2 are their own mirrors, the others stand for two.
        neg = -np.arange(self.N) % self.N
        self.mirror = (Ellipsis,) + np.ix_(*[neg] * (dim - 1))
        self.herm_weight = np.full(h, 2.0)
        self.herm_weight[[0, -1]] = 1.0

        # Entries a <= b of a symmetric d x d tensor, packed along one axis:
        # sym_pairs lists them, sym_unpack[a, b] is the packed index of (a, b)
        # and (b, a), sym_weight (broadcast over the grid) counts each packed
        # entry's multiplicity in the full tensor.
        self.sym_pairs = np.triu_indices(dim)
        a, b = self.sym_pairs
        self.sym_unpack = np.zeros((dim, dim), dtype=int)
        self.sym_unpack[a, b] = self.sym_unpack[b, a] = np.arange(len(a))
        self.sym_weight = np.where(a == b, 1.0, 2.0).reshape((-1,) + (1,) * dim)
        # A traceless symmetric tensor (the deformation of a divergence-free
        # field, the stresses made of it) is packed by the same entries but the
        # last, (d-1, d-1), which is minus the sum of the kept diagonal entries
        # tl_diag: tl_size = 2 entries in 2D, 5 in 3D.  E rebuilds the full
        # packing and G = E^T diag(sym_weight) E is the Gram matrix of A : B
        # (2 I in 2D; in 3D one cross term between the kept diagonal entries).
        # sym_grad_tl[p, e] maps coefficients c to the packed deformation
        # A_ab = i (k_b c_a + k_a c_b), and sym_div_tl[q, e] maps a packed
        # traceless S to div S up to a gradient: minus half the L2 transpose of
        # sym_grad_tl in the pairing G (sym_grad_tl is purely imaginary).
        self.tl_size = len(a) - 1
        self.tl_diag = np.flatnonzero(a[:-1] == b[:-1])
        E = np.vstack([np.eye(self.tl_size), -np.eye(self.tl_size)[self.tl_diag].sum(axis=0)])
        self.sym_gram = E.T @ (self.sym_weight.reshape(-1, 1) * E)
        eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
        a, b = a[:-1], b[:-1]
        self.sym_grad_tl = 1j * (self.k[b, None] * eye[a] + self.k[a, None] * eye[b])
        self.sym_div_tl = 0.5 * np.einsum("pq,p...->q...", self.sym_gram, self.sym_grad_tl)

        # Entries a < b of an antisymmetric d x d tensor, packed along one axis
        # (1 in 2D, 3 in 3D): asym_grad[p, e] maps coefficients c to the packed
        # rotation W_ab = i (k_b c_a - k_a c_b), i.e. d_b u_a - d_a u_b.  It is
        # purely imaginary, so its conjugate transpose is minus itself; read the
        # other way, it maps a packed antisymmetric S to div S.
        self.asym_pairs = np.triu_indices(dim, 1)
        a, b = self.asym_pairs
        self.asym_grad = 1j * (self.k[b, None] * eye[a] - self.k[a, None] * eye[b])

        # Per-mode Leray projector I - k k^T / |k|^2 (identity at k = 0;
        # the mean mode is pinned to zero separately).
        k2s = np.where(self.k2 == 0, 1.0, self.k2)
        self.leray_tensor = eye - self.k[:, None] * self.k[None, :] / k2s

    def __repr__(self):
        return f"WaveGrid(dim={self.dim}, n_max={self.n_max})"

    @property
    def square_is_isotropic(self):
        """Whether A^2 and A_y A_z + A_z A_y are multiples of I for traceless
        symmetric A, A_y, A_z: true for d = 2, where A^2 = |A|^2 I / 2 and
        A_y A_z + A_z A_y = (A_y : A_z) I, so their traceless parts
        (``sym_product``) are zero.  The deformation of a divergence-free
        field is traceless, so there the (alpha1 + alpha2) div(A^2) stress is a
        gradient, which the step's Leray projection removes; ``stress_terms``
        leaves it out."""
        return self.dim == 2

    @cached_property
    def w24_tables(self):
        """``w24_bounds``' tables on the flattened half spectrum, made on first use."""
        kabs, (a, b) = np.abs(self.k).reshape(self.dim, -1), self.sym_pairs
        m = np.broadcast_to(self.herm_weight, self.spec_shape).reshape(-1)
        mixed = np.sqrt(self.sym_weight.reshape(-1, 1)) * kabs[a] * kabs[b]  # squared: w_alpha
        sup = m * np.concatenate([np.ones((1, self.nspec)), kabs, mixed])
        return sup, m * self.k2.reshape(-1) ** np.arange(3)[:, None]

    # component accessor: component axis sits at -(dim+1)
    def c(self, arr, i):
        return arr[(Ellipsis, i) + (slice(None),) * self.dim]

    def zeros(self, batch=()):
        return np.zeros(tuple(batch) + (self.dim,) + self.spec_shape, dtype=complex)


# ---------------------------------------------------------------------------
# transforms and elementary operators


def _pass(fft, x, axis, **kw):
    """``fft`` along ``axis`` of a contiguous copy of ``x`` with that axis last."""
    y = fft(np.ascontiguousarray(x.swapaxes(axis, -1)), norm="forward", **kw)
    return y.swapaxes(axis, -1)


def to_phys(grid: WaveGrid, c):
    """Collocation values of the half-spectrum coefficients ``c`` of a real
    field (the plane k_d = 0 Hermitian in the other axes)."""
    for axis in grid.irfft_axes[:-1]:
        c = _pass(np.fft.ifft, c, axis)
    return _pass(np.fft.irfft, c, -1, n=grid.N)


def to_spec(grid: WaveGrid, u, mask=None):
    """Half-spectrum coefficients of the real collocation values ``u``,
    multiplied by ``mask`` (the retained modes when None).

    The output is exactly the half of a Hermitian array for masks that vanish
    on the Nyquist planes, as all of the grid's masks do: the plane k_d = 0,
    its own mirror, is averaged with its mirror image.
    """
    c = _pass(np.fft.rfft, u, -1)
    for axis in grid.irfft_axes[:-1]:  # the order of numpy 2's rfftn
        c = _pass(np.fft.fft, c, axis)
    c = np.multiply(c, grid.retain if mask is None else mask, order="C")
    c[..., 0] = 0.5 * (c[..., 0] + np.conj(c[grid.mirror + (0,)]))
    return c


def full_spectrum(grid: WaveGrid, c):
    """The full N^d coefficient array of the half spectrum ``c``: the upper
    half of the last axis is the conjugate mirror of the stored modes."""
    h = grid.N // 2 + 1
    out = np.empty(c.shape[:-1] + (grid.N,), dtype=c.dtype)
    out[..., :h] = c
    np.conjugate(c[grid.mirror + (slice(h - 2, 0, -1),)], out=out[..., h:])
    return out


def _contract(grid: WaveGrid, subscripts, *operands):
    """np.einsum with each operand's d trailing axes merged into the single
    index ``x``; the result gets back the operands' trailing shape (the half
    spectrum or the collocation grid)."""
    tail = operands[0].shape[-grid.dim :]
    flat = [op.reshape(op.shape[: -grid.dim] + (math.prod(tail),)) for op in operands]
    out = np.einsum(subscripts, *flat)
    return out.reshape(out.shape[:-1] + tail)


def leray_project(grid: WaveGrid, c):
    """Project per mode onto k . c(k) = 0; pins the mean mode to zero."""
    out = _contract(grid, "abx,...bx->...ax", grid.leray_tensor, c)
    # out is freshly made: mask it and zero its mean in place
    out *= grid.retain
    out[(Ellipsis,) + (0,) * grid.dim] = 0.0
    return out


def v_symbol(grid: WaveGrid, params: PhysicalParams):
    """Fourier multiplier 1 + alpha1 |k|^2 of the v-map v(u) = u - alpha1 Laplace u."""
    return 1.0 + params.alpha1 * grid.k2


def v_apply(grid: WaveGrid, c, params: PhysicalParams):
    return c * v_symbol(grid, params)


def divergence_defect(grid: WaveGrid, c):
    """max_k |k . c(k)|, zero for valid fields."""
    d = sum(grid.k[i] * grid.c(c, i) for i in range(grid.dim))
    return float(np.max(np.abs(d)))


def l2_inner(grid: WaveGrid, a, b):
    """L2(D) inner product from half-spectrum coefficients (Parseval, exact):
    each stored mode counts with its Hermitian multiplicity."""
    s = np.sum(grid.herm_weight * (a * np.conj(b)).real, axis=(-grid.dim - 1,) + grid.axes)
    return grid.vol * s


def l2_norm(grid: WaveGrid, c):
    return np.sqrt(np.maximum(l2_inner(grid, c, c), 0.0))


def sobolev_inner(grid: WaveGrid, a, b, weight):
    return l2_inner(grid, weight * a, b)


def v_inner(grid: WaveGrid, a, b, params: PhysicalParams):
    return sobolev_inner(grid, a, b, v_symbol(grid, params))


def v_norm(grid: WaveGrid, c, params: PhysicalParams):
    return np.sqrt(np.maximum(v_inner(grid, c, c, params), 0.0))


def h1_norm(grid: WaveGrid, c):
    return np.sqrt(np.maximum(sobolev_inner(grid, c, c, 1.0 + grid.k2), 0.0))


def jacobian_phys(grid: WaveGrid, c):
    """Collocation Jacobian J[..., a, i] = d u_a / d x_i."""
    return to_phys(grid, 1j * grid.k * np.expand_dims(c, -grid.dim - 1))


def deformation_packed(grid: WaveGrid, c):
    """The deformation tensor A = grad u + (grad u)^T at collocation points in
    the traceless packing (``WaveGrid.tl_size`` entries); only these are
    transformed.  With ``last_diagonal`` it is the full tensor for a
    divergence-free u."""
    return to_phys(grid, _contract(grid, "pex,...ex->...px", grid.sym_grad_tl, c))


def last_diagonal(grid: WaveGrid, A):
    """The entry (d-1, d-1) of traceless symmetric tensors given by their packed
    entries: minus the sum of the kept diagonal ones, with the packed axis kept."""
    return -np.sum(grid.c(A, grid.tl_diag), axis=-grid.dim - 1, keepdims=True)


def sym_inner(grid: WaveGrid, A, B=None):
    """Pointwise A : B = sum_ab A_ab B_ab of traceless symmetric tensors given by
    their packed entries (|A|^2 without B), with the packed axis kept: the kept
    entries with their multiplicities plus the product of the last diagonal ones."""
    last = last_diagonal(grid, A)
    last_B = last if B is None else last_diagonal(grid, B)
    B = A if B is None else B
    return np.sum(grid.sym_weight[:-1] * A * B, axis=-grid.dim - 1, keepdims=True) + last * last_B


def div_sym_spec(grid: WaveGrid, S_packed, mask=None):
    """Spectral divergence out_a = sum_j d_j S[a, j] of a traceless symmetric
    collocation tensor S given by its packed entries, up to a gradient, masked
    like ``to_spec``; only the packed entries are transformed.  Its symbol is
    ``WaveGrid.sym_div_tl``; the projected result is that of the full tensor."""
    return _contract(grid, "pex,...px->...ex", grid.sym_div_tl, to_spec(grid, S_packed, mask))


def rotation_packed(grid: WaveGrid, c):
    """Entries a < b of the rotation W = grad u - (grad u)^T, W_ab = d_b u_a - d_a u_b,
    at collocation points, packed along one axis; only these are transformed."""
    return to_phys(grid, _contract(grid, "pex,...ex->...px", grid.asym_grad, c))


def div_asym_spec(grid: WaveGrid, S_packed, mask=None):
    """Spectral divergence out_a = sum_j d_j S[a, j] of an antisymmetric
    collocation tensor S given by its packed entries a < b, masked like
    ``to_spec``; minus the L2 transpose of ``rotation_packed``'s symbol."""
    return _contract(grid, "pex,...px->...ex", grid.asym_grad, to_spec(grid, S_packed, mask))


def rotate(grid: WaveGrid, W, a):
    """comp i = sum_j W[i, j] a_j at collocation points for an antisymmetric W
    given by its packed entries a < b: (curl v) x a when W is the rotation of v.
    Each packed entry is read once; no full d x d tensor is built."""
    ci = -grid.dim - 1
    out = np.zeros(np.broadcast_shapes(W.shape[:ci], a.shape[:ci]) + a.shape[ci:],
                   dtype=np.result_type(W, a))
    for p, (i, j) in enumerate(zip(*grid.asym_pairs)):
        Wp, out_i, out_j = grid.c(W, p), grid.c(out, i), grid.c(out, j)
        out_i += Wp * grid.c(a, j)
        out_j -= Wp * grid.c(a, i)
    return out


def wedge(grid: WaveGrid, a, b):
    """Packed entries a_i b_j - a_j b_i, i < j, of the pointwise wedge product:
    the transpose of ``rotate`` in W, (rotate(W, b), a) = sum_p W_p wedge(a, b)_p."""
    i, j = grid.asym_pairs
    rest = (slice(None),) * grid.dim
    ai, aj, bi, bj = (f[(Ellipsis, idx) + rest] for f, idx in ((a, i), (a, j), (b, i), (b, j)))
    return ai * bj - aj * bi


# ---------------------------------------------------------------------------
# quadrature helpers (zero-padded, alias-free evaluation for identity checks)


def embed(grid: WaveGrid, big: WaveGrid, c):
    """Zero-pad half-spectrum coefficients from grid onto the finer grid
    ``big``: centred along the leading axes, appended along the last."""
    lead, pad = grid.axes[:-1], (big.N - grid.N) // 2
    sh = np.fft.fftshift(c, axes=lead)
    widths = ([(0, 0)] * (sh.ndim - grid.dim) + [(pad, big.N - grid.N - pad)] * (grid.dim - 1)
              + [(0, (big.N - grid.N) // 2)])
    return np.fft.ifftshift(np.pad(sh, widths), axes=lead)


def refined(grid: WaveGrid, factor: int = 2) -> WaveGrid:
    return WaveGrid(grid.dim, factor * (grid.n_max + 1) - 1)


def quad_integral(grid: WaveGrid, f_phys):
    """Trapezoid-exact integral over the box of collocation values."""
    return grid.vol * np.mean(f_phys, axis=grid.axes)


def trilinear_b(grid: WaveGrid, u, z, w):
    """b(u, z, w) = int (u . grad z) . w dx, pseudo-spectrally on ``grid``.

    The quadrature is exact when the three fields' bands sum to less than
    N, as for fields embedded onto ``refined(g, 2)`` from a grid g.
    """
    for f in (u, z, w):
        if f.shape[-grid.dim :] != grid.spec_shape:
            raise ValueError("trilinear_b: fields on mismatched grids")
    up = to_phys(grid, u)
    wp = to_phys(grid, w)
    Jz = jacobian_phys(grid, z)  # [a, i] = d z_a / d x_i
    return quad_integral(grid, _contract(grid, "...ix,...aix,...ax->...x", up, Jz, wp))


# ---------------------------------------------------------------------------
# norms


def w24_norm(grid: WaveGrid, c):
    """Collocation W^{2,4} norm, batched: (||u||_4^4 + ||grad u||_4^4 + ||grad^2 u||_4^4)^{1/4}.

    The Hessian of each component is symmetric, so only its entries
    d_a d_b u, a <= b, are transformed; the off-diagonal ones count twice.
    """
    ci = -grid.dim - 1
    a, b = grid.sym_pairs
    # one derivative order at a time, so only one order's values are live
    s0 = np.sum(to_phys(grid, c) ** 2, axis=ci)
    total = quad_integral(grid, s0**2)
    s1 = np.sum(jacobian_phys(grid, c) ** 2, axis=(ci, ci - 1))
    total = total + quad_integral(grid, s1**2)
    # and one component's Hessian at a time: its transform is the largest here
    kk, h2 = -grid.k[a] * grid.k[b], 0.0
    for i in range(grid.dim):
        h2 = h2 + to_phys(grid, kk * np.expand_dims(grid.c(c, i), ci)) ** 2  # (..., pair, *sp)
    s2 = np.sum(grid.sym_weight * h2, axis=ci)
    return (total + quad_integral(grid, s2**2)) ** 0.25


def w24_bounds(grid: WaveGrid, c):
    """Bounds (lo, hi) on ``w24_norm`` with no transform, batched, for real fields on
    the retained modes.  With s_j the weighted sum of the squared derivatives of order j,
    w24^4 = vol sum_j mean_x s_j^2, and mean_x s_j = sum_k m_k |k|^(2j) |c(k)|^2 exactly
    (s_j has band 2 n_max < N).  lo^4 = vol sum_j (mean s_j)^2, hi^4 = vol sum_j mean s_j
    sup_j with max_x s_j <= sup_j = sum_(alpha of order j) w_alpha sum_a (sum_k m_k
    |k^alpha| |c_a(k)|)^2.  A non-finite c makes hi inf or NaN, silently."""
    sup, mean = grid.w24_tables
    lead, a = c.shape[: -grid.dim - 1] + (grid.dim, -1), np.abs(c).reshape(-1, grid.nspec)
    with np.errstate(over="ignore", invalid="ignore"):
        s_sup = np.add.reduceat(np.square(a @ sup.T), [0, 1, 1 + grid.dim], axis=-1)  # by order
        s_mean, s_sup = (s.reshape(lead).sum(axis=-2) for s in (np.square(a) @ mean.T, s_sup))
        return tuple((grid.vol * np.sum(s_mean * s, axis=-1)) ** 0.25 for s in (s_mean, s_sup))


# ---------------------------------------------------------------------------
# drift assembly


class Collocation:
    """Collocation pieces of one field for the drift forms: u, W = the packed
    rotation of v(u) and A = the deformation of the mask2-dealiased field, and
    A3 = the deformation of the mask3-dealiased one, both in the traceless
    packing.  A is read only where ``WaveGrid.square_is_isotropic`` is false,
    in 3D.  ``values``, the field itself at collocation points, is read by the
    smooth noise family.

    Each form reads each piece once, so to keep a step's peak memory low the
    pieces are transformed on access and freed after use.
    """

    def __init__(self, grid: WaveGrid, c, params: PhysicalParams):
        self.grid = grid
        self.params = params
        self.field = c
        self.c = c * grid.mask2

    u = property(lambda self: to_phys(self.grid, self.c))
    W = property(lambda self: rotation_packed(self.grid, v_apply(self.grid, self.c, self.params)))
    A = property(lambda self: deformation_packed(self.grid, self.c))
    A3 = property(lambda self: deformation_packed(self.grid, self.c * self.grid.mask3))
    values = property(lambda self: to_phys(self.grid, self.field))


class CachedCollocation(Collocation):
    """Collocation whose pieces are transformed once, on first access, and
    kept: one base state read by both the forward step and the tangent step."""

    u, W, A, A3, values = (cached_property(getattr(Collocation, p).fget)
                           for p in ("u", "W", "A", "A3", "values"))


def sym_product(grid: WaveGrid, A, B=None):
    """The traceless part of the pointwise square A A of a traceless symmetric
    collocation tensor, or, given B, of A B + B A = P + P^T with P = A B, all in
    the traceless packing.  P_ab = sum_c A_ac B_cb reads the packed entries
    through ``sym_unpack``, the last diagonal one rebuilt; the trace, |A|^2 or
    2 A : B, is taken off the kept diagonal entries.  No full d x d tensor is built."""
    u, symmetrize = grid.sym_unpack, B is not None
    B = A if B is None else B

    def entries(X):  # the entries a <= b, the last one rebuilt
        return [grid.c(X, p) for p in range(grid.tl_size)] + [grid.c(last_diagonal(grid, X), 0)]

    Ae = entries(A)
    Be = entries(B) if symmetrize else Ae
    out = np.zeros(np.broadcast_shapes(A.shape, B.shape), dtype=np.result_type(A, B))
    for p, (a, b) in enumerate(zip(*(ab[:-1] for ab in grid.sym_pairs))):
        o = grid.c(out, p)
        # (B A)_ab = P_ba for symmetric factors, so a diagonal entry of P + P^T is 2 P_aa
        for i, j in ((a, b), (b, a)) if symmetrize and a != b else ((a, b),):
            for c in range(grid.dim):
                o += Ae[u[i, c]] * Be[u[c, j]]
        if symmetrize and a == b:
            o *= 2.0
    trace = sym_inner(grid, A, B) * 2.0 if symmetrize else sym_inner(grid, A)
    out[(Ellipsis, grid.tl_diag) + (slice(None),) * grid.dim] -= trace / grid.dim
    return out


def convective(a: Collocation, b: Collocation):
    """Bilinear convective form B(a, b) = -curl v(b) x a at collocation points;
    the drift carries B(y, y).  It differs from the advective form
    -(a . grad) v(b) - sum_j v(b)_j grad a_j by grad(a . v(b)), which the
    Leray projection removes."""
    return -rotate(a.grid, b.W, a.u)


def stress_terms(y: Collocation, z: Collocation = None):
    """Spectral beta div(|A|^2 A) on mask3 plus (alpha1+alpha2) div(A^2) on
    mask2 at y; given z, their derivative at y in direction z, which is
    self-adjoint in z.  Every tensor is in the traceless packing, which holds
    the deformation of a divergence-free field; in 2D and 3D alike the forms
    rely on divergence-free y and z.  Of A^2 only the traceless part is sent
    through ``to_spec`` (``sym_product``), and where
    ``WaveGrid.square_is_isotropic`` (d = 2) that part is zero and the term is
    left out.  The parts dropped are gradients, as is the difference between
    ``div_sym_spec`` and the divergence of the full tensor; the Leray
    projection ending every step kernel removes them, so the projected drift,
    tangent and transpose are unchanged to rounding."""
    grid, params = y.grid, y.params
    out = 0.0
    if params.beta != 0.0:
        Ay = y.A3
        norm2 = sym_inner(grid, Ay)
        if z is None:
            S = norm2 * Ay
        else:
            Az = z.A3
            S = 2.0 * sym_inner(grid, Ay, Az) * Ay + norm2 * Az
        out = params.beta * div_sym_spec(grid, S, grid.mask3)
    a12 = params.alpha1 + params.alpha2
    if a12 != 0.0 and not grid.square_is_isotropic:
        S = sym_product(grid, y.A, None if z is None else z.A)
        out = out + a12 * div_sym_spec(grid, S, grid.mask2)
    return out


def drift_terms(y: Collocation, z: Collocation = None):
    """Nonlinear drift N(y), or, given z, its derivative N'(y)[z] =
    B(y, z) + B(z, y) + stress derivatives; spectral, dealiased, not projected.
    On divergence-free y it is N(y) minus the gradients ``stress_terms``
    leaves out (in 2D all of (alpha1 + alpha2) div(A^2)), the same once projected."""
    # stress first: its deformations are then taken while the fewest arrays are live
    out = stress_terms(y, z)
    conv = convective(y, y) if z is None else convective(y, z) + convective(z, y)
    return out + to_spec(y.grid, conv, y.grid.mask2)


# ---------------------------------------------------------------------------
# random fields and identity corpus


def random_field(grid: WaveGrid, rng, kmax=None, amplitude=1.0, batch=()):
    """Random real, divergence-free, mean-free field band-limited to |k_i| <= kmax,
    with L2 norm ``amplitude``; a ``batch`` of them, each normalized on its own,
    is bitwise the same as that many draws in sequence."""
    if kmax is None:
        kmax = grid.dealias_cut
    u = rng.standard_normal(tuple(batch) + (grid.dim,) + grid.shape)
    c = to_spec(grid, u)
    band = np.all(np.abs(grid.k) <= kmax, axis=0)
    c = leray_project(grid, c * band)
    n = l2_norm(grid, c)
    scale = np.divide(amplitude, n, out=np.ones_like(n), where=n > 0)
    return c * scale[(Ellipsis,) + (None,) * (grid.dim + 1)]


def curl_v_of_cross(grid: WaveGrid, y, p, params: PhysicalParams):
    """Collocation values of curl v(y x p): the divergence of the packed
    wedge y_i p_j - y_j p_i, which is y x p (a scalar in 2D) in packed form."""
    yp = wedge(grid, to_phys(grid, y), to_phys(grid, p))
    return to_phys(grid, v_apply(grid, div_asym_spec(grid, yp), params))


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


# verify_identities' report keys of the worst relative defects, in its order
IDENTITIES = ("lemma_curl_cross_max_rel", "curl_of_cross_max_rel", "antisymmetry_max_rel")


def verify_identities(seed: int, params: PhysicalParams, grid: WaveGrid, n_triples: int):
    """Numerically witness the curl/trilinear identities on random fields.

    Returns a report dict with the worst relative defects (keys
    ``IDENTITIES``) and the empirical constant of the |b(delta, y, v(delta))|
    bound.  On the periodic box the 3D boundary integral vanishes
    identically, so the 2D form of the curl-of-cross identity is asserted in
    both dimensions.  Each triple and its v-images are embedded once onto
    ``refined(grid, 2)``, where every product below is exact.
    """
    rng = np.random.default_rng(seed)
    big = refined(grid, 2)
    worst = [0.0] * len(IDENTITIES)
    c_emp = 0.0

    def b(*fields):
        return trilinear_b(big, *fields)

    def pairing(f_phys, g_phys):
        return quad_integral(big, np.sum(f_phys * g_phys, axis=-grid.dim - 1))

    for _ in range(n_triples):
        y, u, phi = (random_field(grid, rng, amplitude=rng.uniform(0.5, 2.0)) for _ in range(3))
        Y, U, PHI = (embed(grid, big, f) for f in (y, u, phi))
        vY, vU, vPHI = (v_apply(big, f, params) for f in (Y, U, PHI))
        phi_p = to_phys(big, PHI)
        sides = (  # (lhs, rhs) of each identity, in the order of IDENTITIES
            # (curl v(y) x u, phi) = b(phi, u, v(y)) - b(u, phi, v(y)), with curl v(y) x u
            # the drift's own -B(u, y); big's mask2 keeps every embedded mode
            (pairing(-convective(Collocation(big, U, params), Collocation(big, Y, params)), phi_p),
             b(PHI, U, vY) - b(U, PHI, vY)),
            # (curl v(y x p), phi) = b(p, y, v(phi)) - b(y, p, v(phi))
            (pairing(curl_v_of_cross(big, Y, U, params), phi_p), b(U, Y, vPHI) - b(Y, U, vPHI)),
            # antisymmetry b(y, z, phi) = -b(y, phi, z)
            (b(Y, U, PHI), -b(Y, PHI, U)),
        )
        worst = [max(w, _rel(lhs, rhs)) for w, (lhs, rhs) in zip(worst, sides)]

        # |b(delta, y, v(delta))| <= C ||y||_{W^{2,4}} ||delta||_V^2
        bval = abs(b(U, Y, vU))
        denom = w24_norm(grid, y) * v_norm(grid, u, params) ** 2
        if denom > 0:
            c_emp = max(c_emp, bval / float(denom))

    return {
        **dict(zip(IDENTITIES, worst)),
        "technical_bound_C": c_emp,
        "triples": n_triples,
        "dim": grid.dim,
    }
