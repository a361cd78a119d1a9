"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines;
every criterion is independent and finishes well inside five minutes
at desk scale (2D n_max=8, 3D n_max=3, K=8, up to 10^4 samples).
"""

import json
import time

import numpy as np
import pytest

from stgflow import adjoint as adj
from stgflow import cli
from stgflow import control as ct
from stgflow import forward as fw
from stgflow import noise as nz
from stgflow import spectral as sp


PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)


def report(num, name, ok, detail):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print("\n" + line)
    assert ok, line


def rand_fields(grid, n, rng, amplitude=1.0, kmax=None):
    return np.stack(
        [sp.random_field(grid, rng, kmax=kmax, amplitude=amplitude) for _ in range(n)]
    )


def test_criterion_01_pathwise_duality():
    """Every sample of a 64-path run closes the discrete duality identity."""
    worst = 0.0
    for dim, n_max, steps, p_exp in ((2, 8, 100, 8.0), (3, 3, 50, 10.0)):
        grid = sp.WaveGrid(dim, n_max)
        rng = np.random.default_rng(101)
        y0 = sp.random_field(grid, rng, amplitude=0.8)
        w0 = float(sp.w24_norm(grid, y0))
        U = np.stack([sp.random_field(grid, rng, amplitude=5.0 * w0)] * steps)
        psi = rand_fields(grid, steps, rng)
        y_d = sp.random_field(grid, rng, amplitude=0.5)
        for family in ("linear", "smooth"):
            cfg = fw.SimConfig(
                dim=dim, n_max=n_max, dt=0.01, steps=steps, params=PARAMS,
                model=nz.NoiseModel(K=8, family=family, c0=0.3),
                M=1.25 * w0, p_exp=p_exp, seed=41,
            )
            rep = adj.duality_check(y0, U, psi, y_d, cfg, n_samples=64)
            worst = max(worst, rep["max_rel_gap"])
    report(1, "pathwise duality, 2D/3D, both families", worst <= 1e-10,
           f"max relative gap {worst:.3e} <= 1e-10 over 64 samples")


def test_criterion_02_gradient_vs_fd():
    """Adjoint gradient matches central differences along 10 directions."""
    t0 = time.time()
    steps = 100
    cfg = fw.SimConfig(
        dim=2, n_max=8, dt=0.01, steps=steps, params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.2),
        M=1e6, seed=43,  # threshold far above reach: no sample stops
    )
    g = cfg.grid
    rng = np.random.default_rng(103)
    y0 = sp.random_field(g, rng, amplitude=0.8)
    y_d = sp.random_field(g, rng, amplitude=0.5)
    U = rand_fields(g, steps, rng, amplitude=0.4)
    lam, S, rho = 0.05, 8, 1e-4
    grad, _ = ct.cost_gradient(U, y0, y_d, cfg, S, lam)
    worst = 0.0
    for d in range(10):
        psi = rand_fields(g, steps, np.random.default_rng(200 + d))
        pair = ct.gradient_pairing(g, grad, psi, cfg.dt)
        jp = ct.eval_cost(U + rho * psi, y0, y_d, cfg, S, lam).total
        jm = ct.eval_cost(U - rho * psi, y0, y_d, cfg, S, lam).total
        fd = (jp - jm) / (2 * rho)
        worst = max(worst, abs(fd - pair) / max(1.0, abs(fd)))
    elapsed = time.time() - t0
    report(2, "adjoint gradient vs finite differences",
           worst <= 1e-4 and elapsed <= 60.0,
           f"max rel err {worst:.3e} <= 1e-4 over 10 directions in {elapsed:.1f}s")


def test_criterion_03_gateaux_slope():
    """Tangent remainder decays superlinearly in the squared V norm."""
    steps = 60
    rhos = [1e-1, 1e-2, 1e-3, 1e-4]
    slopes = {}
    for family in ("linear", "smooth"):
        cfg = fw.SimConfig(
            dim=2, n_max=8, dt=0.01, steps=steps, params=PARAMS,
            model=nz.NoiseModel(K=8, family=family, c0=0.2), M=1e6, seed=47,
        )
        g = cfg.grid
        rng = np.random.default_rng(105)
        y0 = sp.random_field(g, rng, amplitude=0.8)
        psi = rand_fields(g, steps, rng, amplitude=0.5)
        slopes[family] = fw.gateaux_check(y0, None, psi, cfg, rhos, n_samples=4)["slope"]
    report(3, "Gateaux representation slope", slopes["linear"] >= 1.8,
           f"linear slope {slopes['linear']:.3f} >= 1.8 "
           f"(smooth family slope {slopes['smooth']:.3f})")


def test_criterion_04_stop_time_probe():
    """Exit-index disagreement shrinks with the control perturbation."""
    steps, S = 50, 2000
    probe_cfg = dict(
        dim=2, n_max=4, dt=0.01, steps=steps, params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.8), seed=53,
    )
    g = sp.WaveGrid(2, 4)
    rng = np.random.default_rng(107)
    y0 = sp.random_field(g, rng, amplitude=0.8)
    free = fw.SimConfig(M=1e9, **probe_cfg)
    base = fw.simulate_ensemble(y0, None, free.noise_bank(S), free, store_fields=False)
    # threshold just above the unperturbed sup: exit moves only when the
    # perturbation itself pushes a path across, so P(tau differs) -> 0
    # superlinearly as rho -> 0
    M = 1.03 * float(np.max(base.w24))
    cfg = fw.SimConfig(M=M, **probe_cfg)
    dU = np.stack([sp.random_field(g, np.random.default_rng(9), amplitude=20.0)] * steps)
    rho0 = 0.4
    rows = fw.stop_time_probe(y0, None, dU, cfg, S, [rho0, rho0 / 2, rho0 / 4, rho0 / 8])["rows"]
    probs = [r["prob"] for r in rows]
    ratios = [r["prob_over_rho"] for r in rows]
    mono = all(a >= b for a, b in zip(probs, probs[1:]))
    ok = mono and probs[0] > 0 and ratios[-1] < ratios[0]
    report(4, "stopping-time sensitivity", ok,
           f"P = {probs} nonincreasing, P/rho {ratios[0]:.3f} -> {ratios[-1]:.3f} at 2000 samples")


def test_criterion_05_stability_sweep():
    """State-vs-control separation ratio is flat across an 8x gap sweep."""
    steps, S = 50, 64
    cfg = fw.SimConfig(
        dim=2, n_max=8, dt=0.01, steps=steps, params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.2), M=1e6, seed=59,
    )
    g = cfg.grid
    rng = np.random.default_rng(109)
    y0 = sp.random_field(g, rng, amplitude=0.8)
    U1 = rand_fields(g, steps, rng, amplitude=0.3)
    U2 = U1 + rand_fields(g, steps, rng, amplitude=0.3)
    # one noise bank (cfg.seed) for every scale: the ratios share common random numbers
    ratios = [fw.stability_probe(y0, U1, U1 + s * (U2 - U1), cfg, S)["ratio_v"]
              for s in [1.0, 0.5, 0.25, 0.125]]
    spread = max(ratios) / min(ratios)
    report(5, "V-stability ratio under CRN sweep", spread < 2.0,
           f"ratio spread x{spread:.3f} < 2 across scales 1..1/8 ({ratios[0]:.3e}..{ratios[-1]:.3e})")


def test_criterion_06_energy_dissipation():
    """Noise- and control-free runs dissipate the V energy monotonically."""
    steps, dt = 150, 0.005
    cfg = fw.SimConfig(
        dim=2, n_max=8, dt=dt, steps=steps, params=PARAMS,
        model=nz.NoiseModel(K=0), M=1e9, seed=61,
    )
    g = cfg.grid
    wv = 1.0 + PARAMS.alpha1 * g.k2
    worst = -np.inf
    decayed = True
    for trial in range(5):
        y0 = sp.random_field(g, np.random.default_rng(300 + trial),
                             kmax=g.cubic_cut, amplitude=1.0)
        res = fw.simulate_ensemble(y0, None, cfg.noise_bank(1), cfg)
        y = res.fields[0]
        v2 = sp.sobolev_inner(g, y, y, wv)
        envelope = 5.0 * dt * v2[0]
        worst = max(worst, float(np.max(np.diff(v2)) / envelope))
        decayed &= v2[-1] < v2[0]
    report(6, "deterministic V-energy dissipation", worst <= 1.0 and decayed,
           f"max increment / (5 dt ||y0||_V^2) = {worst:.3e} <= 1 for 5 initial fields")


def test_criterion_07_optimality_certificate():
    """After projected gradient descent the first-order residual is clean."""
    steps = 40
    cfg = fw.SimConfig(
        dim=2, n_max=4, dt=0.01, steps=steps, params=PARAMS,
        model=nz.NoiseModel(K=8, family="linear", c0=0.2), M=1e6, seed=67,
    )
    g = cfg.grid
    rng = np.random.default_rng(113)
    y0 = sp.random_field(g, rng, amplitude=0.8)
    y_d = sp.random_field(g, rng, amplitude=0.5)
    lam = 0.1
    adm = ct.AdmissibleSet(radius=1.0, p_exp=cfg.p_exp)
    out = ct.optimize(y0, y_d, cfg, lam, adm, n_samples=8, iters=60, step0=2.0, tol=1e-5)
    res = ct.optimality_residual(out["U"], y0, y_d, cfg, lam, adm, 8, n_dirs=64, seed=71)
    report(7, "optimality certificate", res["min_pairing"] >= -1e-4,
           f"min pairing {res['min_pairing']:.3e} >= -1e-4 over 64 admissible directions")


def test_criterion_08_identity_suite():
    """Curl/trilinear identities and G* adjointness at machine precision."""
    rep = sp.verify_identities(123, PARAMS, sp.WaveGrid(2, 8), n_triples=20)
    idworst = max(rep["lemma_curl_cross_max_rel"], rep["curl_of_cross_max_rel"],
                  rep["antisymmetry_max_rel"])
    g = sp.WaveGrid(2, 8)
    rng = np.random.default_rng(127)
    gworst = 0.0
    for trial in range(50):
        fam = ("linear", "smooth")[trial % 2]
        m = nz.NoiseModel(K=5, family=fam, c0=0.4)
        y = sp.random_field(g, rng, amplitude=1.5)
        v = sp.random_field(g, rng)
        q = np.stack([sp.random_field(g, rng) for _ in range(5)])
        lhs = float(np.sum(sp.l2_inner(g, nz.apply_grad_G(g, 0.3, y, v, m), q)))
        rhs = float(sp.l2_inner(g, v, nz.apply_G_star(g, 0.3, y, q, m)))
        gworst = max(gworst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = idworst <= 1e-11 and gworst <= 1e-11
    report(8, "identity corpus and G* adjointness", ok,
           f"identities {idworst:.3e} <= 1e-11 (20 triples), G* {gworst:.3e} <= 1e-11 (50 triples)")


def test_criterion_09_adapted_bsde():
    """Adapted (p, q) closes the duality in expectation at 10^4 samples."""
    steps, S = 32, 10_000
    g = sp.WaveGrid(2, 3)
    rng = np.random.default_rng(131)
    y0 = sp.random_field(g, rng, amplitude=0.8)
    w0 = float(sp.w24_norm(g, y0))
    cfg = fw.SimConfig(
        dim=2, n_max=3, dt=0.02, steps=steps, params=PARAMS,
        model=nz.NoiseModel(K=6, family="linear", c0=0.3), M=1.3 * w0, seed=73,
    )
    U = np.stack([sp.random_field(g, rng, amplitude=4.0 * w0)] * steps)
    psi = rand_fields(g, steps, rng)
    y_d = sp.random_field(g, rng, amplitude=0.5)
    rep = adj.adapted_duality_check(y0, U, psi, y_d, cfg, n_samples=S)
    stopped = int(np.sum(rep["stop"] < steps))
    ok = (rep["within_3se"] and rep["post_exit_max"] == 0.0
          and rep["terminal_max"] == 0.0 and stopped > 0)
    report(9, "adapted BSDE duality at 10^4 samples", ok,
           f"gap {rep['gap_mean']:.3e} within 3 se ({rep['gap_se']:.3e}), "
           f"post-exit/terminal exactly 0, {stopped} stopped samples")


def test_criterion_10_reproducibility(tmp_path):
    """Identical config + seed reruns of every command are byte-identical."""
    cfgfile = tmp_path / "accept.cfg"
    cfgfile.write_text(
        "n_max = 3\nsteps = 12\ndt = 0.01\nsamples = 4\n"
        "stop.M = 50.0\nnoise.c0 = 0.2\nnoise.K = 4\n"
        "control.iters = 2\ncontrol.n_dirs = 6\n"
    )
    commands = {
        "simulate": [],
        "verify": [],
        "duality-check": [],
        "tangent-check": [],
        "adapted-check": ["--set", "samples=30"],
        "optimize": ["--set", "samples=2"],
        "stability-probe": [],
        "stop-probe": [],
    }
    mismatches = []
    for name, extra in commands.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            rc = cli.main([name, "--config", str(cfgfile), *extra,
                           "--out", str(out), "--quiet"])
            assert rc == 0, f"{name} exited {rc}"
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for f in files:
            if (outs[0] / f).read_bytes() != (outs[1] / f).read_bytes():
                mismatches.append(f"{name}:{f}")
    report(10, "byte-identical reruns of every command", not mismatches,
           f"{len(commands)} commands rerun, mismatches: {mismatches or 'none'}")
