"""The benchmark's workloads: fixed shapes, inputs made from a seed, one
repetition through stgflow's public API, and the gates that decide whether
a repetition produced a verified result.

Each workload exposes
    setup(seed, workdir) -> state     inputs, config and the warm-up call
    run(state) -> output              one repetition (the timed part)
    check(state, output, ref) -> [failed gate names]
    final_check(state, ref) -> ([failed gate names], info)   once per run, untimed
where ``ref`` is the output of the run's first repetition.  Besides its own
gates, a repetition fails when any forward sample aborts (``AbortWatch``).

Shapes are sized so that one repetition takes one to two seconds on one
core: a run then holds a few dozen repetitions, and their median is not
moved by a burst of load on a shared host.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from stgflow import adjoint as adj
from stgflow import cli
from stgflow import control as ct
from stgflow import forward as fw
from stgflow import io as sio
from stgflow import noise as nz
from stgflow import spectral as sp

from tracer import rebind

PARAMS = sp.PhysicalParams(nu=0.5, alpha1=0.4, alpha2=-0.1, beta=0.3)


class AbortWatch:
    """Counts aborted samples over every forward ensemble the program runs.

    One extra Python frame per ``simulate_ensemble`` call, so it stays on
    in untraced runs.
    """

    def __init__(self):
        self.aborted = 0
        inner = fw.simulate_ensemble

        def watched(*args, **kwargs):
            res = inner(*args, **kwargs)
            self.aborted += int(np.count_nonzero(res.aborted))
            return res

        rebind(inner, watched)


def _seeds(seed, n):
    """n independent 31-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=n)]


def _fields(grid, n, rng, amplitude=1.0):
    return np.stack([sp.random_field(grid, rng, amplitude=amplitude) for _ in range(n)])


# ---------------------------------------------------------------------------


class Simulate3D:
    """``stgflow simulate`` in 3D: forward ensemble, trajectory and manifest on disk."""

    name = "simulate_3d"
    shape = {"dim": 3, "n_max": 3, "p_exp": 10, "steps": 20, "samples": 16,
             "noise.K": 8, "noise.family": "linear"}
    outputs = ("trajectory.bin", "norms.csv", "manifest.json")

    def setup(self, seed, workdir):
        noise_seed, init_seed, target_seed = _seeds(seed, 3)
        tree = dict(self.shape, **{"seed": noise_seed, "init.seed": init_seed,
                                   "target.seed": target_seed})
        lines = [f"{k} = {json.dumps(v)}" for k, v in tree.items()]
        os.makedirs(workdir, exist_ok=True)
        cfg_path = os.path.join(workdir, "simulate_3d.cfg")
        with open(cfg_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        state = {"argv": ["simulate", "--config", cfg_path, "--out",
                          os.path.join(workdir, "out"), "--quiet"],
                 "out": os.path.join(workdir, "out")}
        cli.main(["simulate", "--config", cfg_path, "--out", os.path.join(workdir, "warm"),
                  "--quiet", "--set", "steps=2", "--set", "samples=2"])
        return state

    def run(self, state):
        rc = cli.main(state["argv"])
        files = {}
        for name in self.outputs:
            with open(os.path.join(state["out"], name), "rb") as f:
                files[name] = f.read()
        return {"rc": rc, "files": files}

    def check(self, state, out, ref):
        failed = []
        if out["rc"] != 0:
            failed.append("exit_code")
        manifest = json.loads(out["files"]["manifest.json"])
        if any(manifest["aborted"]):
            failed.append("aborted_sample")
        if out["files"] != ref["files"]:
            failed.append("outputs_byte_identical")
        traj = sio.read_trajectory(os.path.join(state["out"], "trajectory.bin"))
        steps = self.shape["steps"]
        header_ok = (traj["dim"] == 3 and traj["n_max"] == 3 and traj["steps"] == steps
                     and traj["stop_index"] == manifest["stop"][0]
                     and traj["dt"] == manifest["config"]["dt"]
                     and traj["fields"].shape == (steps + 1, 3, 8, 8, 8))
        if not header_ok:
            failed.append("trajectory_roundtrip")
        return failed

    def final_check(self, state, ref):
        return [], {}


class Optimize2D:
    """What ``stgflow optimize`` runs: two projected-gradient iterations, then
    the optimality certificate, on the criterion-02 shape at 25 steps."""

    name = "optimize_2d"
    shape = {"dim": 2, "n_max": 8, "dt": 0.01, "steps": 25, "samples": 8, "noise.K": 8,
             "noise.family": "linear", "noise.c0": 0.2, "M": 1e6, "lam": 0.05,
             "radius": 1.0, "step0": 1.0, "iters": 2, "n_dirs": 16}
    fd_rho, fd_tol = 1e-4, 1e-4

    def _cfg(self, noise_seed, steps):
        s = self.shape
        return fw.SimConfig(
            dim=s["dim"], n_max=s["n_max"], dt=s["dt"], steps=steps, params=PARAMS,
            model=nz.NoiseModel(K=s["noise.K"], family=s["noise.family"], c0=s["noise.c0"]),
            M=s["M"], seed=noise_seed)

    def setup(self, seed, workdir):
        noise_seed, cert_seed, field_seed, dir_seed = _seeds(seed, 4)
        cfg = self._cfg(noise_seed, self.shape["steps"])
        rng = np.random.default_rng(field_seed)
        state = {
            "cfg": cfg,
            "y0": sp.random_field(cfg.grid, rng, amplitude=0.8),
            "y_d": sp.random_field(cfg.grid, rng, amplitude=0.5),
            "adm": ct.AdmissibleSet(radius=self.shape["radius"], p_exp=cfg.p_exp),
            "cert_seed": cert_seed,
            "dir_seed": dir_seed,
        }
        self._solve(dict(state, cfg=dataclasses.replace(cfg, steps=2)), n_dirs=4)
        return state

    def _solve(self, state, n_dirs):
        s = self.shape
        out = ct.optimize(state["y0"], state["y_d"], state["cfg"], lam=s["lam"],
                          admissible=state["adm"], n_samples=s["samples"],
                          iters=s["iters"], step0=s["step0"])
        res = ct.optimality_residual(out["U"], state["y0"], state["y_d"], state["cfg"],
                                     s["lam"], state["adm"], s["samples"], n_dirs=n_dirs,
                                     seed=state["cert_seed"])
        return {"U": out["U"], "history": out["history"], "min_pairing": res["min_pairing"]}

    def run(self, state):
        return self._solve(state, self.shape["n_dirs"])

    def check(self, state, out, ref):
        failed = []
        iters = out["history"][:-1]
        if len(iters) != self.shape["iters"] or not all(h["accepted"] for h in iters):
            failed.append("iterations_accepted")
        costs = [h["cost"] for h in out["history"]]
        if any(b > a for a, b in zip(costs, costs[1:])):
            failed.append("cost_non_increasing")
        if out["U"].tobytes() != ref["U"].tobytes():
            failed.append("control_byte_identical")
        return failed

    def final_check(self, state, ref):
        """Adjoint gradient against a central difference along one seeded direction."""
        s, cfg, U = self.shape, state["cfg"], ref["U"]
        args = (state["y0"], state["y_d"], cfg, s["samples"], s["lam"])
        psi = _fields(cfg.grid, cfg.steps, np.random.default_rng(state["dir_seed"]))
        grad, _ = ct.cost_gradient(U, *args)
        pair = ct.gradient_pairing(cfg.grid, grad, psi, cfg.dt)
        jp = ct.eval_cost(U + self.fd_rho * psi, *args).total
        jm = ct.eval_cost(U - self.fd_rho * psi, *args).total
        fd = (jp - jm) / (2 * self.fd_rho)
        rel = abs(fd - pair) / max(1.0, abs(fd))
        failed = [] if rel <= self.fd_tol else ["gradient_vs_fd"]
        return failed, {"gradient_fd_rel": rel, "min_pairing": ref["min_pairing"]}


def _past_exit_share(w24, M):
    """Share of sample-steps at or after each path's exit, the first step
    whose norm reaches M."""
    steps = w24.shape[1] - 1
    crossed = w24 >= M
    stop = np.where(crossed.any(axis=1), crossed.argmax(axis=1), steps)
    return float(np.mean(steps - stop)) / steps


def _threshold_for_share(w24, share):
    """The largest path norm above the initial one whose past-exit share
    reaches ``share``; the smallest such norm when none reaches it."""
    for M in np.sort(w24[w24 > w24[:, 0].max()])[::-1]:
        if _past_exit_share(w24, M) >= share:
            break
    return float(M)


class Adapted2D:
    """``adapted_duality_check`` on the criterion-09 shape at 100 samples.

    The stopping threshold M is set on a pilot ensemble with its own noise
    so that a fixed share of its sample-steps lie past the exit time; the
    timed ensemble then has about that share on every seed.  A fixed
    multiple of the initial norm stopped anywhere from none to nearly all
    samples, depending on the seed.
    """

    name = "adapted_2d"
    shape = {"dim": 2, "n_max": 3, "dt": 0.02, "steps": 32, "samples": 100, "noise.K": 6,
             "noise.family": "linear", "noise.c0": 0.3, "pilot_samples": 32,
             "past_exit_share": 0.15}

    def setup(self, seed, workdir):
        s = self.shape
        noise_seed, field_seed, pilot_seed = _seeds(seed, 3)
        grid = sp.WaveGrid(s["dim"], s["n_max"])
        rng = np.random.default_rng(field_seed)
        y0 = sp.random_field(grid, rng, amplitude=0.8)
        w0 = float(sp.w24_norm(grid, y0))
        U = np.stack([sp.random_field(grid, rng, amplitude=4.0 * w0)] * s["steps"])
        cfg = fw.SimConfig(
            dim=s["dim"], n_max=s["n_max"], dt=s["dt"], steps=s["steps"], params=PARAMS,
            model=nz.NoiseModel(K=s["noise.K"], family=s["noise.family"], c0=s["noise.c0"]),
            M=np.inf, seed=noise_seed)
        pilot_dW = nz.sample_paths(pilot_seed, s["pilot_samples"], cfg.dt, cfg.steps,
                                   cfg.model.K)
        w24 = fw.simulate_ensemble(y0, U, pilot_dW, cfg, store_fields=False).w24
        cfg = dataclasses.replace(cfg, M=_threshold_for_share(w24, s["past_exit_share"]))
        state = {
            "cfg": cfg,
            "y0": y0,
            "U": U,
            "psi": _fields(grid, s["steps"], rng),
            "y_d": sp.random_field(grid, rng, amplitude=0.5),
        }
        adj.adapted_duality_check(state["y0"], state["U"], state["psi"], state["y_d"], cfg,
                                  n_samples=8)
        return state

    def run(self, state):
        return adj.adapted_duality_check(state["y0"], state["U"], state["psi"], state["y_d"],
                                         state["cfg"], n_samples=self.shape["samples"])

    def check(self, state, out, ref):
        failed = []
        if not out["within_3se"]:
            failed.append("within_3se")
        if out["post_exit_max"] != 0.0:
            failed.append("post_exit_zero")
        if out["terminal_max"] != 0.0:
            failed.append("terminal_zero")
        if not np.any(out["stop"] < self.shape["steps"]):
            failed.append("some_sample_stopped")
        if out["gap_mean"] != ref["gap_mean"]:
            failed.append("gap_mean_identical")
        return failed

    def final_check(self, state, ref):
        stopped = int(np.sum(ref["stop"] < self.shape["steps"]))
        past_exit = float(np.mean(self.shape["steps"] - ref["stop"])) / self.shape["steps"]
        return [], {"gap_mean": ref["gap_mean"], "gap_se": ref["gap_se"],
                    "stopped_samples": stopped, "past_exit_share": past_exit, "M": state["cfg"].M}


WORKLOADS = {w.name: w for w in (Simulate3D(), Optimize2D(), Adapted2D())}
