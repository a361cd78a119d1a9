"""Command-line front end.

    stgflow simulate        run an ensemble, write trajectory/norms/manifest
    stgflow verify          run the identity and duality verification suite
    stgflow duality-check   pathwise tangent/costate duality report
    stgflow adapted-check   adapted costate duality report
    stgflow tangent-check   Gateaux finite-difference convergence report
    stgflow optimize        projected-gradient control search
    stgflow stability-probe two-control separation ratios
    stgflow stop-probe      exit-time sensitivity under control perturbation

Each command returns a ``Report`` of what it found, and ``main`` alone
reports it.  It writes the JSON report, stamped with the config hash, to
--out and notes its path on stderr unless --quiet.  On an aborted sample
it then prints the blow-up line to stderr and exits 3 before any stdout
line, so no verdict comes from aborted samples; otherwise it prints the
stdout lines, then the command's stderr note, if any.

Exit codes: 0 success, 2 configuration error (also an --out that cannot
be made a directory), 3 a sample aborted (non-finite, or W^{2,4} norm
above blowup_factor * M), 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

import numpy as np

from . import adjoint as adj
from . import config as cfgmod
from . import control as ct
from . import forward as fw
from . import io as sio
from . import spectral as sp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_VERIFY = 4


def _parser():
    p = argparse.ArgumentParser(prog="stgflow", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(name, run, **kw):
        sp_ = sub.add_parser(name, **kw)
        sp_.set_defaults(run=run)
        sp_.add_argument("--config", default=None, help="config file (key=value or JSON)")
        sp_.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config entry (repeatable)")
        sp_.add_argument("--out", default=".", help="output directory")
        sp_.add_argument("--quiet", action="store_true")
        return sp_

    common("simulate", cmd_simulate, help="run an ensemble of forward paths")
    v = common("verify", cmd_verify, help="identity and duality suite")
    v.add_argument("--tol", type=float, default=1e-10)
    d = common("duality-check", cmd_duality)
    d.add_argument("--tol", type=float, default=1e-10)
    common("adapted-check", cmd_adapted)
    t = common("tangent-check", cmd_tangent)
    t.add_argument("--rhos", type=_rhos(2), default="1e-2,1e-3,1e-4")
    common("optimize", cmd_optimize)
    s = common("stability-probe", cmd_stability)
    s.add_argument("--scale", type=float, default=0.5,
                   help="relative size of the control perturbation")
    q = common("stop-probe", cmd_stop_probe)
    q.add_argument("--rhos", type=_rhos(1), default="0.4,0.2,0.1")
    return p


def _rhos(least):
    """argparse type of --rhos: comma-separated numbers, each finite and > 0,
    at least ``least`` of them distinct (tangent-check fits a slope through 2)."""
    def rhos(text):
        vals = [float(r) for r in text.split(",")]  # argparse exits 2 on a ValueError
        if not all(0 < r < np.inf for r in vals):
            raise argparse.ArgumentTypeError(f"each rho must be finite and > 0, got {text!r}")
        if len(set(vals)) < least:
            raise argparse.ArgumentTypeError(f"need at least {least} distinct rhos, got {text!r}")
        return vals
    return rhos


def _psi_bank(tree, sim):
    rng = np.random.default_rng(int(tree["seed"]) + 7)
    return sp.random_field(sim.grid, rng, batch=(sim.steps,))


class Report(NamedTuple):
    """What a command found, for ``main`` to report (see the module docstring)."""

    name: str  # the JSON file written in --out
    payload: dict  # its "aborted" counts the aborted samples (per sample for simulate)
    lines: list  # stdout lines, printed only when no sample aborted
    ok: bool = True  # False exits with EXIT_VERIFY
    note: str = None  # a stderr line printed after the stdout lines


def cmd_simulate(args, tree, sim, y0, y_d):
    res = fw.simulate_ensemble(y0, None, sim.noise_bank(int(tree["samples"])), sim)
    sio.write_trajectory(
        os.path.join(args.out, "trajectory.bin"),
        sp.full_spectrum(sim.grid, res.fields[0]), sim.dim, sim.n_max, sim.dt, int(res.stop[0]),
    )
    sio.write_norms_csv(os.path.join(args.out, "norms.csv"), sim.dt, res.w24, res.stop)
    payload = {
        "config": tree,
        "energy": fw.energy_stats(res, sim),
        "stop": res.stop,
        "aborted": res.aborted,
    }
    summary = f"{res.n_samples} samples, stop indices {res.stop.min()}..{res.stop.max()}"
    return Report("manifest.json", payload, [] if args.quiet else [summary])


def cmd_verify(args, tree, sim, y0, y_d):
    rep_id = sp.verify_identities(int(tree["seed"]) + 1, sim.params, sim.grid, n_triples=10)
    psi = _psi_bank(tree, sim)
    dual = adj.duality_check(y0, None, psi, y_d, sim, n_samples=4)
    # gradient versus finite differences on the frozen-sample cost
    lam = float(tree["cost"]["lam"])
    U = 0.1 * psi
    grad, rep = ct.cost_gradient(U, y0, y_d, sim, 2, lam)
    pair = ct.gradient_pairing(sim.grid, grad, psi, sim.dt)
    rho = 1e-4
    jp = ct.eval_cost(U + rho * psi, y0, y_d, sim, 2, lam).total
    jm = ct.eval_cost(U - rho * psi, y0, y_d, sim, 2, lam).total
    fd = (jp - jm) / (2 * rho)
    grad_rel = abs(fd - pair) / max(1.0, abs(fd))
    passed = {key: rep_id[key] < 1e-11 for key in sp.IDENTITIES}
    passed.update(pathwise_duality=dual["max_rel_gap"] < args.tol, gradient_fd=grad_rel < 1e-4)
    failures = [key for key, ok in passed.items() if not ok]
    payload = {
        "identities": rep_id,
        "duality_max_rel_gap": dual["max_rel_gap"],
        "gradient_fd_rel": grad_rel,
        "failures": failures,
        "aborted": dual["aborted"] + rep.aborted,
    }
    lines = [f"{key}: {rep_id[key]:.3e}" for key in sp.IDENTITIES] + [
        f"pathwise duality max rel gap: {dual['max_rel_gap']:.3e}",
        f"gradient vs FD rel err: {grad_rel:.3e}",
    ]
    if failures:
        return Report("verify.json", payload, lines, False,
                      "FAILED: " + ", ".join(failures))
    return Report("verify.json", payload, lines + ["all checks passed"])


def cmd_duality(args, tree, sim, y0, y_d):
    psi = _psi_bank(tree, sim)
    rep = adj.duality_check(y0, None, psi, y_d, sim, n_samples=int(tree["samples"]))
    payload = {k: rep[k] for k in ("max_rel_gap", "stop", "aborted")}
    line = f"max rel duality gap over {tree['samples']} samples: {rep['max_rel_gap']:.3e}"
    return Report("duality.json", payload, [line], rep["max_rel_gap"] < args.tol)


def cmd_adapted(args, tree, sim, y0, y_d):
    psi = _psi_bank(tree, sim)
    rep = adj.adapted_duality_check(y0, None, psi, y_d, sim, n_samples=int(tree["samples"]))
    keys = ("gap_mean", "gap_se", "within_3se", "post_exit_max", "terminal_max", "aborted")
    line = f"adapted duality gap {rep['gap_mean']:.3e} (se {rep['gap_se']:.3e})"
    return Report("adapted.json", {k: rep[k] for k in keys}, [line], rep["within_3se"])


def cmd_tangent(args, tree, sim, y0, y_d):
    psi = _psi_bank(tree, sim)
    rep = fw.gateaux_check(y0, None, psi, sim, args.rhos, n_samples=min(int(tree["samples"]), 4))
    line = f"gateaux slope {rep['slope']:.3f} over rhos {rep['rhos']}"
    return Report("tangent.json", rep, [line])


def cmd_optimize(args, tree, sim, y0, y_d):
    ctl, lam = tree["control"], float(tree["cost"]["lam"])
    adm = ct.AdmissibleSet(radius=float(ctl["radius"]), p_exp=sim.p_exp)
    out = ct.optimize(y0, y_d, sim, lam, adm, int(tree["samples"]), iters=int(ctl["iters"]),
                      step0=float(ctl["step0"]), verbose=not args.quiet)
    aborted = out["history"][-1]["aborted"]
    # no certificate for an aborted iterate: its tracking sums ended early
    pairing = None if aborted else ct.optimality_residual(
        out["U"], y0, y_d, sim, lam, adm, int(tree["samples"]),
        n_dirs=int(ctl["n_dirs"]), seed=int(tree["seed"]) + 13)["min_pairing"]
    np.save(os.path.join(args.out, "control.npy"), out["U"])
    payload = {
        "history": out["history"],
        "final_cost": out["cost"],
        "optimality_min_pairing": pairing,
        "aborted": aborted,
    }
    # the pairing of an aborted run is None; main prints no line for it
    lines = [] if aborted else [f"final cost {out['cost']:.6e}, optimality residual {pairing:.3e}"]
    return Report("optimize.json", payload, lines)


def cmd_stability(args, tree, sim, y0, y_d):
    rng = np.random.default_rng(int(tree["seed"]) + 23)
    U1 = np.stack([sp.random_field(sim.grid, rng, amplitude=0.3)] * sim.steps)
    U2 = U1 + args.scale * np.stack([sp.random_field(sim.grid, rng)] * sim.steps)
    rep = fw.stability_probe(y0, U1, U2, sim, n_samples=int(tree["samples"]))
    line = f"V ratio {rep['ratio_v']:.3e}, W ratio {rep['ratio_w']:.3e}"
    return Report("stability.json", rep, [line])


def cmd_stop_probe(args, tree, sim, y0, y_d):
    rng = np.random.default_rng(int(tree["seed"]) + 29)
    dU = np.stack([sp.random_field(sim.grid, rng)] * sim.steps)
    rep = fw.stop_time_probe(y0, None, dU, sim, int(tree["samples"]), args.rhos)
    lines = [f"rho {row['rho']:g}: P = {row['prob']:.4f}, P/rho = {row['prob_over_rho']:.4f}"
             for row in rep["rows"]]
    return Report("stop_probe.json", rep, lines)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        tree = cfgmod.load(args.config, args.set)
        sim = cfgmod.build_sim(tree)
        y0 = cfgmod.initial_field(tree, sim)
        y_d = cfgmod.target_field(tree, sim)
        os.makedirs(args.out, exist_ok=True)  # for the commands' side files too
    except (cfgmod.ConfigError, ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    rep = args.run(args, tree, sim, y0, y_d)
    path = os.path.join(args.out, rep.name)
    sio.write_json(path, {**rep.payload, "config_hash": cfgmod.config_hash(tree)})
    if not args.quiet:
        print(f"wrote {path}", file=sys.stderr)
    aborted = int(np.sum(rep.payload["aborted"]))
    if aborted:
        print(f"blow-up abort in {aborted} sample(s); guard = {sim.blowup_factor} * M",
              file=sys.stderr)
        return EXIT_BLOWUP
    for line in rep.lines:
        print(line)
    if rep.note:
        print(rep.note, file=sys.stderr)
    return EXIT_OK if rep.ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
