"""Command-line front end.

    stgflow simulate        run an ensemble, write trajectory/norms/manifest
    stgflow verify          run the identity and duality verification suite
    stgflow duality-check   pathwise tangent/costate duality report
    stgflow adapted-check   adapted costate duality report
    stgflow tangent-check   Gateaux finite-difference convergence report
    stgflow optimize        projected-gradient control search
    stgflow stability-probe two-control separation ratios
    stgflow stop-probe      exit-time sensitivity under control perturbation

Exit codes: 0 success, 2 configuration error, 3 a sample aborted
(non-finite, or W^{2,4} norm above blowup_factor * M), 4 verification
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import adjoint as adj
from . import config as cfgmod
from . import control as ct
from . import forward as fw
from . import io as sio
from . import noise as nz
from . import spectral as sp
from . import tangent as tg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_VERIFY = 4


def _parser():
    p = argparse.ArgumentParser(prog="stgflow", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp_):
        sp_.add_argument("--config", default=None, help="config file (key=value or JSON)")
        sp_.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config entry (repeatable)")
        sp_.add_argument("--out", default=".", help="output directory")
        sp_.add_argument("--quiet", action="store_true")
        return sp_

    common(sub.add_parser("simulate", help="run an ensemble of forward paths"))
    v = common(sub.add_parser("verify", help="identity and duality suite"))
    v.add_argument("--tol", type=float, default=1e-10)
    d = common(sub.add_parser("duality-check"))
    d.add_argument("--tol", type=float, default=1e-10)
    common(sub.add_parser("adapted-check"))
    t = common(sub.add_parser("tangent-check"))
    t.add_argument("--rhos", default="1e-2,1e-3,1e-4")
    common(sub.add_parser("optimize"))
    s = common(sub.add_parser("stability-probe"))
    s.add_argument("--scale", type=float, default=0.5,
                   help="relative size of the control perturbation")
    q = common(sub.add_parser("stop-probe"))
    q.add_argument("--rhos", default="0.4,0.2,0.1")
    return p


def _setup(args):
    tree = cfgmod.load(args.config, args.set)
    sim = cfgmod.build_sim(tree)
    y0 = cfgmod.initial_field(tree, sim)
    y_d = cfgmod.target_field(tree, sim)
    return tree, sim, y0, y_d


def _psi_bank(tree, sim):
    rng = np.random.default_rng(int(tree["seed"]) + 7)
    return sp.random_field(sim.grid, rng, batch=(sim.steps,))


def _emit(args, tree, name, payload):
    """Write ``payload``, stamped with the config hash, as JSON file ``name`` in --out."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    sio.write_json(path, {**payload, "config_hash": cfgmod.config_hash(tree)})
    if not args.quiet:
        print(f"wrote {path}")


def _aborted(n, sim):
    """Report ``n`` aborted samples on stderr; True when there are any."""
    if n:
        print(f"blow-up abort in {n} sample(s); guard = {sim.blowup_factor} * M", file=sys.stderr)
    return n > 0


def cmd_simulate(args, tree, sim, y0, y_d):
    res = fw.run_ensemble(y0, None, sim, int(tree["samples"]))
    os.makedirs(args.out, exist_ok=True)
    sio.write_trajectory(
        os.path.join(args.out, "trajectory.bin"),
        sp.full_spectrum(sim.grid, res.fields[0]), sim.dim, sim.n_max, sim.dt, int(res.stop[0]),
    )
    sio.write_norms_csv(os.path.join(args.out, "norms.csv"), sim.dt, res.w24, res.stop)
    stats = fw.energy_stats(res, sim)
    _emit(args, tree, "manifest.json", {
        "config": tree,
        "energy": stats,
        "stop": res.stop,
        "aborted": res.aborted,
    })
    if _aborted(int(res.aborted.sum()), sim):
        return EXIT_BLOWUP
    if not args.quiet:
        print(f"{res.n_samples} samples, stop indices {res.stop.min()}..{res.stop.max()}")
    return EXIT_OK


def cmd_verify(args, tree, sim, y0, y_d):
    variant = str(tree["cost"]["variant"])
    rep_id = sp.verify_identities(int(tree["seed"]) + 1, sim.params, sim.grid, n_triples=10)
    ids = ("lemma_curl_cross_max_rel", "curl_of_cross_max_rel", "antisymmetry_max_rel")
    failures = [key for key in ids if not rep_id[key] < 1e-11]
    psi = _psi_bank(tree, sim)
    dual = adj.duality_check(y0, None, psi, y_d, sim, n_samples=4, variant=variant)
    if not dual["max_rel_gap"] < args.tol:
        failures.append("pathwise_duality")
    # gradient versus finite differences on the frozen-sample cost
    lam = float(tree["cost"]["lam"])
    U = 0.1 * psi
    grad, rep = ct.cost_gradient(U, y0, y_d, sim, 2, lam, variant)
    pair = ct.gradient_pairing(sim.grid, grad, psi, sim.dt)
    rho = 1e-4
    jp = ct.eval_cost(U + rho * psi, y0, y_d, sim, 2, lam, variant).total
    jm = ct.eval_cost(U - rho * psi, y0, y_d, sim, 2, lam, variant).total
    fd = (jp - jm) / (2 * rho)
    grad_rel = abs(fd - pair) / max(1.0, abs(fd))
    if not grad_rel < 1e-4:
        failures.append("gradient_fd")
    aborted = dual["aborted"] + rep.aborted
    _emit(args, tree, "verify.json", {
        "identities": rep_id,
        "duality_max_rel_gap": dual["max_rel_gap"],
        "gradient_fd_rel": grad_rel,
        "failures": failures,
        "aborted": aborted,
    })
    if _aborted(aborted, sim):
        return EXIT_BLOWUP
    for key in ids:
        print(f"{key}: {rep_id[key]:.3e}")
    print(f"pathwise duality max rel gap: {dual['max_rel_gap']:.3e}")
    print(f"gradient vs FD rel err: {grad_rel:.3e}")
    if failures:
        print("FAILED: " + ", ".join(failures), file=sys.stderr)
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def cmd_duality(args, tree, sim, y0, y_d):
    psi = _psi_bank(tree, sim)
    rep = adj.duality_check(y0, None, psi, y_d, sim, n_samples=int(tree["samples"]),
                            variant=str(tree["cost"]["variant"]))
    _emit(args, tree, "duality.json", {
        "max_rel_gap": rep["max_rel_gap"],
        "stop": rep["stop"],
        "aborted": rep["aborted"],
    })
    if _aborted(rep["aborted"], sim):
        return EXIT_BLOWUP
    print(f"max rel duality gap over {tree['samples']} samples: {rep['max_rel_gap']:.3e}")
    return EXIT_OK if rep["max_rel_gap"] < args.tol else EXIT_VERIFY


def cmd_adapted(args, tree, sim, y0, y_d):
    psi = _psi_bank(tree, sim)
    rep = adj.adapted_duality_check(y0, None, psi, y_d, sim,
                                    n_samples=int(tree["samples"]),
                                    variant=str(tree["cost"]["variant"]))
    _emit(args, tree, "adapted.json", {
        "gap_mean": rep["gap_mean"],
        "gap_se": rep["gap_se"],
        "within_3se": rep["within_3se"],
        "post_exit_max": rep["post_exit_max"],
        "terminal_max": rep["terminal_max"],
        "aborted": rep["aborted"],
    })
    if _aborted(rep["aborted"], sim):
        return EXIT_BLOWUP
    print(f"adapted duality gap {rep['gap_mean']:.3e} (se {rep['gap_se']:.3e})")
    return EXIT_OK if rep["within_3se"] else EXIT_VERIFY


def cmd_tangent(args, tree, sim, y0, y_d):
    psi = _psi_bank(tree, sim)
    rhos = [float(r) for r in args.rhos.split(",")]
    rep = tg.gateaux_check(y0, None, psi, sim, rhos, n_samples=min(int(tree["samples"]), 4))
    _emit(args, tree, "tangent.json", rep)
    print(f"gateaux slope {rep['slope']:.3f} over rhos {rep['rhos']}")
    return EXIT_OK


def cmd_optimize(args, tree, sim, y0, y_d):
    ctl, lam, variant = tree["control"], float(tree["cost"]["lam"]), str(tree["cost"]["variant"])
    adm = ct.AdmissibleSet(radius=float(ctl["radius"]), p_exp=sim.p_exp)
    out = ct.optimize(y0, y_d, sim, lam, adm, int(tree["samples"]), iters=int(ctl["iters"]),
                      step0=float(ctl["step0"]), variant=variant, verbose=not args.quiet)
    res = ct.optimality_residual(out["U"], y0, y_d, sim, lam, adm, int(tree["samples"]),
                                 n_dirs=int(ctl["n_dirs"]), seed=int(tree["seed"]) + 13,
                                 variant=variant)
    aborted = out["history"][-1]["aborted"]
    os.makedirs(args.out, exist_ok=True)
    np.save(os.path.join(args.out, "control.npy"), out["U"])
    _emit(args, tree, "optimize.json", {
        "history": out["history"],
        "final_cost": out["cost"],
        "optimality_min_pairing": res["min_pairing"],
        "aborted": aborted,
    })
    if _aborted(aborted, sim):
        return EXIT_BLOWUP
    print(f"final cost {out['cost']:.6e}, optimality residual {res['min_pairing']:.3e}")
    return EXIT_OK


def cmd_stability(args, tree, sim, y0, y_d):
    rng = np.random.default_rng(int(tree["seed"]) + 23)
    U1 = np.stack([sp.random_field(sim.grid, rng, amplitude=0.3)] * sim.steps)
    U2 = U1 + args.scale * np.stack([sp.random_field(sim.grid, rng)] * sim.steps)
    rep = fw.stability_probe(y0, U1, U2, sim, n_samples=int(tree["samples"]))
    _emit(args, tree, "stability.json", rep)
    print(f"V ratio {rep['ratio_v']:.3e}, W ratio {rep['ratio_w']:.3e}")
    return EXIT_OK


def cmd_stop_probe(args, tree, sim, y0, y_d):
    rng = np.random.default_rng(int(tree["seed"]) + 29)
    dU = np.stack([sp.random_field(sim.grid, rng)] * sim.steps)
    rhos = [float(r) for r in args.rhos.split(",")]
    rep = fw.stop_time_probe(y0, None, dU, sim, int(tree["samples"]), rhos)
    _emit(args, tree, "stop_probe.json", {"rows": rep})
    for row in rep:
        print(f"rho {row['rho']:g}: P = {row['prob']:.4f}, P/rho = {row['prob_over_rho']:.4f}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "duality-check": cmd_duality,
    "adapted-check": cmd_adapted,
    "tangent-check": cmd_tangent,
    "optimize": cmd_optimize,
    "stability-probe": cmd_stability,
    "stop-probe": cmd_stop_probe,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        tree, sim, y0, y_d = _setup(args)
    except (cfgmod.ConfigError, ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return _COMMANDS[args.command](args, tree, sim, y0, y_d)


if __name__ == "__main__":
    sys.exit(main())
