"""Tests for the exact linearization and tangent recursion."""

import ast
import dataclasses
import inspect

import numpy as np
import pytest

from stgflow import forward as fw
from stgflow import noise as nz
from stgflow import spectral as sp
from stgflow import tangent as tg


PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)
# alpha1 + alpha2 = 0 and beta = 0: the drift assembly skips both stress forms
NO_STRESS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.4, beta=0.0)
DRIFT_CASES = [
    pytest.param(2, 8, PARAMS, id="2-8"),
    pytest.param(3, 3, PARAMS, id="3-3"),
    pytest.param(2, 8, NO_STRESS, id="2-8-no_stress"),
    pytest.param(3, 3, NO_STRESS, id="3-3-no_stress"),
]


def test_tangent_imports_no_ensemble_code():
    # tangent is a leaf: the forward loop imports it, and the Gateaux check
    # that runs ensembles lives in forward; a TYPE_CHECKING import never runs
    tree = ast.parse(inspect.getsource(tg))
    typing_only = {id(n) for node in ast.walk(tree)
                   if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
                   for stmt in node.body for n in ast.walk(stmt)}
    imported = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert imported == {"noise", "spectral"}
    assert callable(fw.gateaux_check) and not hasattr(tg, "gateaux_check")


def count_components(monkeypatch):
    """Patch ``to_phys`` and ``to_spec``, in ``spectral`` and where ``noise`` imports
    them, to count the components they transform; returns components(run), the
    count of one call of ``run``."""
    seen = []
    for name in ("to_phys", "to_spec"):
        transform = getattr(sp, name)
        for module in (sp, nz):
            monkeypatch.setattr(module, name, lambda g, c, *a, f=transform:
                                seen.append(int(np.prod(c.shape[:-g.dim]))) or f(g, c, *a))

    def components(run):
        seen.clear()
        run()
        return sum(seen)

    return components


def make_cfg(**kw):
    base = dict(
        dim=2, n_max=8, dt=0.01, steps=30, params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.2), M=50.0, seed=11,
    )
    base.update(kw)
    return fw.SimConfig(**base)


def yc_of(cfg, y):
    """The base state y as the ``spectral.Collocation`` the step kernels take."""
    return sp.Collocation(cfg.grid, y, cfg.params)


class TestLinearizedDrift:
    """The unprojected drift forms: drift_terms(y, z) is the Jacobian of
    drift_terms(y) and drift_terms_T its transpose."""

    @pytest.mark.parametrize("dim,n_max,params", DRIFT_CASES)
    def test_jacobian_of_drift(self, dim, n_max, params):
        # central finite differences of the nonlinear assembly
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(0)
        y = sp.random_field(g, rng, amplitude=1.3)
        z = sp.random_field(g, rng)
        eps = 1e-6
        fd = (
            sp.drift_terms(sp.Collocation(g, y + eps * z, params))
            - sp.drift_terms(sp.Collocation(g, y - eps * z, params))
        ) / (2 * eps)
        an = sp.drift_terms(sp.Collocation(g, y, params), sp.Collocation(g, z, params))
        assert np.max(np.abs(fd - an)) < 1e-7

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_linear_in_z(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(1)
        y = sp.Collocation(g, sp.random_field(g, rng), PARAMS)
        z1 = sp.random_field(g, rng)
        z2 = sp.random_field(g, rng)

        def lin(z):
            return sp.drift_terms(y, sp.Collocation(g, z, PARAMS))

        assert np.max(np.abs(lin(z1 + 2.0 * z2) - (lin(z1) + 2.0 * lin(z2)))) < 1e-12

    @pytest.mark.parametrize("dim,n_max,params", DRIFT_CASES)
    def test_exact_transpose(self, dim, n_max, params):
        g = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(2)
        yc = sp.Collocation(g, sp.random_field(g, rng, amplitude=1.5), params)
        for trial in range(4):
            z = sp.random_field(g, rng)
            w = sp.random_field(g, rng)
            lhs = sp.l2_inner(g, sp.drift_terms(yc, sp.Collocation(g, z, params)), w)
            rhs = sp.l2_inner(g, z, tg.drift_terms_T(yc, sp.Collocation(g, w, params)))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_stress_terms_self_adjoint(self, dim, n_max):
        # alpha and beta stress derivatives alone are symmetric bilinear forms
        g = sp.WaveGrid(dim, n_max)
        p = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=0.2, beta=0.6)
        rng = np.random.default_rng(3)
        y = sp.random_field(g, rng, amplitude=1.2)
        z = sp.random_field(g, rng)
        w = sp.random_field(g, rng)
        yc = sp.Collocation(g, y, p)
        Lz = sp.leray_project(g, sp.stress_terms(yc, sp.Collocation(g, z, p)))
        Lw = sp.leray_project(g, sp.stress_terms(yc, sp.Collocation(g, w, p)))
        assert abs(sp.l2_inner(g, Lz, w) - sp.l2_inner(g, z, Lw)) < 1e-12


class TestStepPair:
    def test_step_jacobian(self):
        cfg = make_cfg()
        g = cfg.grid
        rng = np.random.default_rng(4)
        y = sp.random_field(g, rng)
        z = sp.random_field(g, rng)
        dW = rng.standard_normal(8) * 0.1
        eps = 1e-6
        fd = (
            fw.step(yc_of(cfg, y + eps * z), None, dW, 0.0, cfg)
            - fw.step(yc_of(cfg, y - eps * z), None, dW, 0.0, cfg)
        ) / (2 * eps)
        an = tg.tangent_step(yc_of(cfg, y), z, g.zeros(), dW, 0.0, cfg)
        assert np.max(np.abs(fd - an)) < 1e-8

    def test_step_transpose(self):
        cfg = make_cfg(model=nz.NoiseModel(K=5, family="smooth", c0=0.3))
        g = cfg.grid
        rng = np.random.default_rng(5)
        y = sp.random_field(g, rng, amplitude=1.1)
        z = sp.random_field(g, rng)
        p = sp.random_field(g, rng)
        dW = rng.standard_normal(5) * 0.15
        lhs = sp.l2_inner(g, tg.tangent_step(yc_of(cfg, y), z, g.zeros(), dW, 0.2, cfg), p)
        rhs = sp.l2_inner(g, z, tg.transpose_step(yc_of(cfg, y), p, dW, 0.2, cfg))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_control_injection_transpose(self):
        # the psi term enters as dt * S psi; S^T must be its exact transpose
        cfg = make_cfg(model=nz.NoiseModel(K=0))
        g = cfg.grid
        rng = np.random.default_rng(6)
        psi = sp.random_field(g, rng)
        p = sp.random_field(g, rng)
        y = sp.random_field(g, rng)
        z0 = np.zeros_like(psi)
        with_psi = tg.tangent_step(yc_of(cfg, y), z0, psi, np.zeros(0), 0.0, cfg)
        lhs = sp.l2_inner(g, with_psi, p) / cfg.dt
        rhs = sp.l2_inner(g, psi, tg.control_to_state(p, cfg))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def tangent_sweep(ens, psi, cfg):
    """The stored-field tangent recursion the fused loop replaced: yields
    (n, live, z_n) for n = 0 ... steps along a frozen base ensemble, each
    step on the live samples only (live = stop > n), z_0 = 0."""
    z = cfg.grid.zeros((ens.n_samples,))
    for n in range(cfg.steps + 1):
        live = ens.stop > n
        yield n, live, z
        if live.any():
            rows = np.flatnonzero(live)
            y = ens.y(n)[rows]
            z[rows] = tg.tangent_step(yc_of(cfg, y), z[rows], psi[n], ens.dW[rows, n], n * cfg.dt,
                                      cfg)


def gateaux_reference(y0, U, psi, cfg, rhos, n_samples):
    """``gateaux_check``'s errors from stored ensembles and ``tangent_sweep``."""
    g = cfg.grid
    dW = cfg.noise_bank(n_samples)
    base = fw.simulate_ensemble(y0, U, dW, cfg)
    perts = [fw.simulate_ensemble(y0, psi * rho if U is None else U + rho * psi, dW, cfg)
             for rho in rhos]
    wv = 1.0 + cfg.params.alpha1 * g.k2
    worst = np.zeros((len(rhos), n_samples))
    for n, _, z in tangent_sweep(base, psi, cfg):
        for i, (rho, pert) in enumerate(zip(rhos, perts)):
            diff = (pert.y(n) - base.y(n)) / rho - z
            v2 = sp.sobolev_inner(g, diff, diff, wv)
            upto = np.minimum(base.stop, pert.stop) >= n
            worst[i] = np.where(upto, np.maximum(worst[i], v2), worst[i])
    return [float(np.mean(w)) for w in worst]


def fused_tangent(y0, U, psi, dW, cfg):
    """The fused loop's ensemble, z_0 ... z_N (S, steps+1, ...) and the
    (n, live) pairs its reader saw."""
    traj, seen = [], []

    def read(n, live, y, z):
        seen.append((n, live.copy()))
        traj.append(z.copy())

    res = fw.simulate_ensemble(y0, U, dW, cfg, psi=psi, read=read, read_to=cfg.steps)
    return res, np.stack(traj, axis=1), seen


def stopping_case(cfg, S, seed=8):
    """The config with M set, initial state, forcing, direction and noise
    sized so that samples exit mid-run, at different steps."""
    g = cfg.grid
    rng = np.random.default_rng(seed)
    y0 = sp.random_field(g, rng, amplitude=0.8)
    w0 = float(sp.w24_norm(g, y0))
    U = np.stack([sp.random_field(g, rng, amplitude=15.0 * w0)] * cfg.steps)
    psi = np.stack([sp.random_field(g, rng) for _ in range(cfg.steps)])
    dW = cfg.noise_bank(S)
    return dataclasses.replace(cfg, M=1.25 * w0), y0, U, psi, dW


class TestTangentTrajectory:
    def test_zero_direction_stays_zero(self):
        cfg = make_cfg(steps=12)
        g = cfg.grid
        y0 = sp.random_field(g, np.random.default_rng(7))
        dW = cfg.noise_bank(2)
        psi = np.zeros((cfg.steps, 2) + g.spec_shape)
        _, ztraj, seen = fused_tangent(y0, None, psi, dW, cfg)
        assert np.max(np.abs(ztraj)) == 0.0
        assert [n for n, _ in seen] == list(range(cfg.steps + 1))

    def test_frozen_after_stop(self):
        cfg = make_cfg(steps=25)
        cfg, y0, U, psi, dW = stopping_case(cfg, 2)
        base, ztraj, _ = fused_tangent(y0, U, psi, dW, cfg)
        assert np.any(base.stop < cfg.steps)
        for s in range(2):
            st = base.stop[s]
            for n in range(st, cfg.steps):
                assert np.array_equal(ztraj[s, n + 1], ztraj[s, st])

    def test_gateaux_slope(self):
        cfg = make_cfg(steps=40, dt=0.01)
        g = cfg.grid
        rng = np.random.default_rng(9)
        y0 = sp.random_field(g, rng, amplitude=0.8)
        psi = np.stack([sp.random_field(g, rng, amplitude=0.5)] * 40)
        rep = fw.gateaux_check(y0, None, psi, cfg, rhos=[1e-2, 1e-3, 1e-4], n_samples=3)
        assert rep["slope"] >= 1.8
        assert rep["errors"][0] > rep["errors"][-1]
        assert rep["aborted"] == 0


class TestFusedTangent:
    """The tangent advanced inside the forward loop against the stored-field
    recursion it replaced, on complex128 fields."""

    @pytest.mark.parametrize("dim,n_max,fam", [(2, 8, "linear"), (3, 3, "smooth")])
    def test_matches_stored_field_reference(self, dim, n_max, fam):
        cfg = make_cfg(dim=dim, n_max=n_max, steps=20, p_exp=10.0,
                       model=nz.NoiseModel(K=6, family=fam, c0=1.5))
        cfg, y0, U, psi, dW = stopping_case(cfg, 5)
        base, ztraj, seen = fused_tangent(y0, U, psi, dW, cfg)
        stop = base.stop
        assert len(set(stop)) > 1 and np.any(stop < cfg.steps)
        assert not base.aborted.any()
        for n, live, z in tangent_sweep(base, psi, cfg):
            assert np.array_equal(ztraj[:, n], z), n
            assert seen[n][0] == n and np.array_equal(seen[n][1], live)

    def test_aborted_sample_frozen(self):
        # blowup_factor = 1: a sample whose norm passes M aborts instead of stopping
        cfg = make_cfg(dim=3, n_max=3, steps=20, p_exp=10.0, blowup_factor=1.0,
                       model=nz.NoiseModel(K=6, family="linear", c0=2.0))
        cfg, y0, U, psi, dW = stopping_case(cfg, 5)
        base, ztraj, _ = fused_tangent(y0, U, psi, dW, cfg)
        assert base.aborted.any() and not base.aborted.all()
        for s in np.flatnonzero(base.aborted):
            st = base.stop[s]
            for n in range(st, cfg.steps + 1):
                assert np.array_equal(ztraj[s, n], ztraj[s, st])
            assert np.max(np.abs(ztraj[s, st])) > 0.0
        for n, _, z in tangent_sweep(base, psi, cfg):
            assert np.array_equal(ztraj[:, n], z), n

    @pytest.mark.parametrize("blowup", [10.0, 1.0])
    def test_gateaux_matches_reference(self, blowup):
        cfg = make_cfg(steps=20, blowup_factor=blowup,
                       model=nz.NoiseModel(K=6, family="linear", c0=1.5))
        cfg, y0, U, psi, _ = stopping_case(cfg, 4)
        rhos = [1e-2, 1e-3]
        rep = fw.gateaux_check(y0, U, psi, cfg, rhos, n_samples=4)
        assert rep["errors"] == gateaux_reference(y0, U, psi, cfg, rhos, 4)

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_fused_step_matches_separate_steps(self, dim, n_max):
        cfg = make_cfg(dim=dim, n_max=n_max, p_exp=10.0,
                       model=nz.NoiseModel(K=5, family="smooth", c0=0.3))
        rng = np.random.default_rng(10)
        y, z, u, psi = (sp.random_field(cfg.grid, rng, batch=(3,)) for _ in range(4))
        dW = rng.standard_normal((3, 5)) * 0.1
        y_next, z_next = fw.fused_step(y, z, u, psi, dW, 0.3, cfg)
        assert np.array_equal(y_next, fw.step(yc_of(cfg, y), u, dW, 0.3, cfg))
        assert np.array_equal(z_next, tg.tangent_step(yc_of(cfg, y), z, psi, dW, 0.3, cfg))

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_fused_step_transforms_base_pieces_once(self, dim, n_max, monkeypatch):
        # fusing saves the pieces of y the drift reads: u, W and A3 (2 + 1 + 2 components)
        # in 2D, where the projection takes the (alpha1 + alpha2) stress and A is not
        # read (WaveGrid.square_is_isotropic), and u, W, A and A3 (3 + 3 + 5 + 5) in 3D;
        # the deformations are in the traceless packing
        cfg = make_cfg(dim=dim, n_max=n_max, p_exp=10.0)
        g = cfg.grid
        rng = np.random.default_rng(11)
        y, z, psi = (sp.random_field(g, rng) for _ in range(3))
        dW = rng.standard_normal(8) * 0.1
        components = count_components(monkeypatch)
        made, cached = [], sp.CachedCollocation
        monkeypatch.setattr(sp, "CachedCollocation", lambda *a: made.append(cached(*a)) or made[-1])

        separate = components(lambda: (fw.step(yc_of(cfg, y), None, dW, 0.0, cfg),
                                       tg.tangent_step(yc_of(cfg, y), z, psi, dW, 0.0, cfg)))
        fused = components(lambda: fw.fused_step(y, z, None, psi, dW, 0.0, cfg))
        pieces = {name: piece for name, piece in vars(made[0]).items() if name in ("u", "W", "A", "A3")}
        assert set(pieces) == ({"u", "W", "A3"} if dim == 2 else {"u", "W", "A", "A3"})
        assert separate - fused == sum(piece.shape[-dim - 1] for piece in pieces.values())
        assert fused > 0

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_fused_step_transforms_y_once_for_smooth_noise(self, dim, n_max, monkeypatch):
        # the smooth noise forms of step and tangent_step both read y at collocation
        # points: fused_step transforms it once (the d components of ``values``), so
        # its noise makes 4 d components (values, noise to_spec, to_phys of z and
        # to_spec) where the linear family makes none; the linear kernels are untouched
        cfg = make_cfg(dim=dim, n_max=n_max, p_exp=10.0)
        smooth = dataclasses.replace(cfg, model=nz.NoiseModel(K=8, family="smooth", c0=0.3))
        rng = np.random.default_rng(16)
        y, z, psi = (sp.random_field(cfg.grid, rng) for _ in range(3))
        dW = rng.standard_normal(8) * 0.1
        components = count_components(monkeypatch)
        made, cached = [], sp.CachedCollocation
        monkeypatch.setattr(sp, "CachedCollocation", lambda *a: made.append(cached(*a)) or made[-1])

        def fused(c):
            return components(lambda: fw.fused_step(y, z, None, psi, dW, 0.3, c))

        assert fused(smooth) - fused(cfg) == 4 * dim
        assert "values" in vars(made[0]) and "values" not in vars(made[1])
        separate = components(lambda: (fw.step(yc_of(smooth, y), None, dW, 0.3, smooth),
                                       tg.tangent_step(yc_of(smooth, y), z, psi, dW, 0.3, smooth)))
        pieces = sum(vars(made[0])[name].shape[-dim - 1] for name in ("u", "W", "A", "A3", "values")
                     if name in vars(made[0]))
        assert separate - fused(smooth) == pieces

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_one_projection_per_step(self, dim, n_max, monkeypatch):
        # the drift forms are not projected: step and tangent_step end in the
        # one projection of S = P D^-1; transpose_step applies S, then projects
        cfg = make_cfg(dim=dim, n_max=n_max, p_exp=10.0)
        g = cfg.grid
        rng = np.random.default_rng(12)
        y, z, p, psi = (sp.random_field(g, rng) for _ in range(4))
        dW = rng.standard_normal(8) * 0.1
        calls = []
        project = sp.leray_project
        monkeypatch.setattr(sp, "leray_project", lambda g, c: calls.append(1) or project(g, c))

        def projections(run):
            calls.clear()
            run()
            return len(calls)

        assert projections(lambda: fw.step(yc_of(cfg, y), psi, dW, 0.0, cfg)) == 1
        assert projections(lambda: tg.tangent_step(yc_of(cfg, y), z, psi, dW, 0.0, cfg)) == 1
        assert projections(lambda: fw.fused_step(y, z, psi, psi, dW, 0.0, cfg)) == 2
        assert projections(lambda: tg.transpose_step(yc_of(cfg, y), p, dW, 0.0, cfg)) == 2
        for fam in ("linear", "smooth"):
            c = dataclasses.replace(cfg, model=nz.NoiseModel(K=8, family=fam, c0=0.3))
            assert sp.divergence_defect(g, tg.transpose_step(yc_of(c, y), p, dW, 0.2, c)) < 1e-12


def _full_deformation(grid, c):
    """Every entry a <= b of the deformation of c at collocation points (the full
    packing), from the Jacobian."""
    J = sp.jacobian_phys(grid, c)
    a, b = grid.sym_pairs
    rest = (slice(None),) * grid.dim
    return J[(Ellipsis, a, b) + rest] + J[(Ellipsis, b, a) + rest]


def _full_square(grid, A, B=None):
    """A A, or A B + B A, of symmetric tensors in the full packing."""
    ci, (a, b) = -grid.dim - 1, grid.sym_pairs
    fA, fB = (np.moveaxis(np.take(X, grid.sym_unpack, axis=ci), (ci - 1, ci), (-2, -1))
              for X in (A, A if B is None else B))
    P = fA @ fB
    return np.moveaxis((P if B is None else P + np.swapaxes(P, -1, -2))[..., a, b], -1, ci)


def _full_div(grid, S, mask):
    """div S of a symmetric collocation tensor in the full packing: every entry
    transformed, out_a = sum_j i k_j S[a, j]."""
    Sh = np.take(sp.to_spec(grid, S, mask), grid.sym_unpack, axis=-grid.dim - 1)
    return np.sum(1j * grid.k * Sh, axis=-grid.dim - 1)


def stress_terms_with_square(y, z=None):
    """``spectral.stress_terms`` in the full packing, with the (alpha1 + alpha2)
    div(A^2) stress kept in every dimension: the reference the step kernels are
    compared against."""
    grid, params = y.grid, y.params
    ci, w = -grid.dim - 1, grid.sym_weight
    out = 0.0
    if params.beta != 0.0:
        Ay = _full_deformation(grid, y.c * grid.mask3)
        norm2 = np.sum(w * Ay**2, axis=ci, keepdims=True)
        if z is None:
            S = norm2 * Ay
        else:
            Az = _full_deformation(grid, z.c * grid.mask3)
            S = 2.0 * np.sum(w * Ay * Az, axis=ci, keepdims=True) * Ay + norm2 * Az
        out = params.beta * _full_div(grid, S, grid.mask3)
    a12 = params.alpha1 + params.alpha2
    if a12 != 0.0:
        S = _full_square(grid, _full_deformation(grid, y.c),
                         None if z is None else _full_deformation(grid, z.c))
        out = out + a12 * _full_div(grid, S, grid.mask2)
    return out


class TestIsotropicSquare:
    """The (alpha1 + alpha2) div(A^2) stress of a divergence-free field: its
    isotropic part is a gradient, so the kernels send only the traceless part of
    A^2 through the transform, and in 2D, where that part is zero, leave the term
    to the Leray projection; in 3D they keep its traceless part."""

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_projection_removes_square_in_2d_only(self, dim, n_max):
        g = sp.WaveGrid(dim, n_max)
        assert g.square_is_isotropic == (dim == 2)
        rng = np.random.default_rng(13)
        y, z = (sp.Collocation(g, sp.random_field(g, rng, batch=(4,)), PARAMS) for _ in range(2))
        Ay, Az = (_full_deformation(g, f.c) for f in (y, z))
        for S, S_tl in ((_full_square(g, Ay), sp.sym_product(g, y.A)),
                        (_full_square(g, Ay, Az), sp.sym_product(g, y.A, z.A))):
            term = _full_div(g, S, g.mask2)
            rel = np.max(np.abs(sp.leray_project(g, term))) / np.max(np.abs(term))
            assert rel <= 1e-14 if dim == 2 else rel > 0.1
            # the traceless part the kernels transform: zero in 2D
            zero = np.max(np.abs(S_tl)) <= 1e-14 * np.max(np.abs(S))
            assert zero == (dim == 2)

    @pytest.mark.parametrize("dim,n_max", [(2, 8), (3, 3)])
    def test_kernels_match_reference_with_square(self, dim, n_max, monkeypatch):
        cfg = make_cfg(dim=dim, n_max=n_max, p_exp=10.0)
        rng = np.random.default_rng(14)
        y, z, p, psi = (sp.random_field(cfg.grid, rng, batch=(3,)) for _ in range(4))
        dW = rng.standard_normal((3, 8)) * 0.1

        def kernels():
            yc = yc_of(cfg, y)
            return (fw.step(yc, psi, dW, 0.1, cfg), tg.tangent_step(yc, z, psi, dW, 0.1, cfg),
                    tg.transpose_step(yc, p, dW, 0.1, cfg))

        got, calls = kernels(), []
        monkeypatch.setattr(sp, "stress_terms",
                            lambda *a: calls.append(1) or stress_terms_with_square(*a))
        refs = kernels()
        assert len(calls) == 3
        for a, ref in zip(got, refs):
            assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim,n_max,table", [(2, 8, (9, 18, 14)), (3, 3, (29, 58, 45))])
    def test_transform_table(self, dim, n_max, table, monkeypatch):
        # components per call of step, fused_step and transpose_step; the linear
        # noise forms transform nothing.  The rows are printed for the CI log
        # (pytest -rP).
        cfg = make_cfg(dim=dim, n_max=n_max, p_exp=10.0)
        rng = np.random.default_rng(15)
        y, z, p, psi = (sp.random_field(cfg.grid, rng) for _ in range(4))
        dW = rng.standard_normal(8) * 0.1
        components = count_components(monkeypatch)
        rows = {"step": components(lambda: fw.step(yc_of(cfg, y), psi, dW, 0.0, cfg)),
                "fused_step": components(lambda: fw.fused_step(y, z, psi, psi, dW, 0.0, cfg)),
                "transpose_step": components(
                    lambda: tg.transpose_step(yc_of(cfg, y), p, dW, 0.0, cfg))}
        for kernel, count in rows.items():
            print(f"components per call, {dim}D n_max={n_max}: {kernel:<15} {count:>3}")
        assert tuple(rows.values()) == table
