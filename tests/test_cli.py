"""Tests for configuration parsing, the binary format, and the CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stgflow import cli
from stgflow import config as cfgmod
from stgflow import control as ct
from stgflow import forward as fw
from stgflow import io as sio
from stgflow import spectral as sp


class TestConfig:
    def test_defaults_build(self):
        tree = cfgmod.load()
        sim = cfgmod.build_sim(tree)
        assert sim.dim == 2 and sim.n_max == 8
        assert sim.model.family == "linear"

    def test_dotted_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# comment\n"
            "dim = 2\n"
            "params.nu = 0.25  # inline comment\n"
            'noise.family = "smooth"\n'
            "stop.M = 3.5\n"
        )
        tree = cfgmod.load(p)
        assert tree["params"]["nu"] == 0.25
        assert tree["noise"]["family"] == "smooth"
        assert tree["stop"]["M"] == 3.5
        # untouched defaults survive the merge
        assert tree["params"]["alpha1"] == 0.4

    def test_json_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"dim": 2, "noise": {"K": 3}}))
        tree = cfgmod.load(p)
        assert tree["noise"]["K"] == 3
        assert tree["noise"]["family"] == "linear"

    def test_overrides(self):
        tree = cfgmod.load(overrides=["params.beta=0.5", "noise.family=smooth"])
        assert tree["params"]["beta"] == 0.5
        assert tree["noise"]["family"] == "smooth"

    def test_bad_override(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.load(overrides=["nonsense"])

    def test_bad_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("this is not an assignment\n")
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.load(p)

    def test_invalid_params_raise_config_error(self):
        tree = cfgmod.load(overrides=["params.alpha2=99"])
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.build_sim(tree)

    def test_hash_stable_and_sensitive(self):
        a = cfgmod.config_hash(cfgmod.load())
        b = cfgmod.config_hash(cfgmod.load())
        c = cfgmod.config_hash(cfgmod.load(overrides=["seed=1"]))
        assert a == b
        assert a != c
        assert len(a) == 16


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        g = sp.WaveGrid(2, 4)
        rng = np.random.default_rng(0)
        fields = sp.full_spectrum(g, np.stack([sp.random_field(g, rng) for _ in range(6)]))
        path = tmp_path / "traj.bin"
        sio.write_trajectory(path, fields, 2, 4, 0.02, 3)
        back = sio.read_trajectory(path)
        assert back["dim"] == 2 and back["n_max"] == 4
        assert back["steps"] == 5 and back["stop_index"] == 3
        assert back["dt"] == 0.02
        assert np.array_equal(back["fields"], fields)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            sio.read_trajectory(path)

    @pytest.mark.parametrize("delta", [None, -16, 3], ids=["short_header", "short_payload", "trailing_bytes"])
    def test_size_mismatch(self, tmp_path, delta):
        g = sp.WaveGrid(2, 4)
        fields = sp.full_spectrum(g, np.stack([sp.random_field(g, np.random.default_rng(1))] * 3))
        path = tmp_path / "traj.bin"
        sio.write_trajectory(path, fields, 2, 4, 0.02, 2)
        raw = path.read_bytes()
        expected, found = (32, 20) if delta is None else (len(raw), len(raw) + delta)
        path.write_bytes((raw + b"\0" * 3)[:found])
        with pytest.raises(ValueError, match=rf"traj\.bin: expected (at least )?{expected} .*found {found}$"):
            sio.read_trajectory(path)

    def test_half_spectrum_rejected(self, tmp_path):
        # the file holds the full spectrum; the stored half must be expanded first
        g = sp.WaveGrid(2, 4)
        with pytest.raises(ValueError, match="must have shape"):
            sio.write_trajectory(tmp_path / "traj.bin", g.zeros((3,)), 2, 4, 0.02, 2)

    def test_json_writer_handles_numpy(self, tmp_path):
        path = tmp_path / "out.json"
        sio.write_json(path, {"a": np.int64(3), "b": np.array([1.5, 2.5]), "c": np.bool_(True)})
        data = json.loads(path.read_text())
        assert data == {"a": 3, "b": [1.5, 2.5], "c": True}


def run_cli(args):
    return cli.main(args)


@pytest.fixture()
def small_cfg(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(
        "n_max = 4\nsteps = 15\ndt = 0.01\nsamples = 3\n"
        "stop.M = 50.0\nnoise.c0 = 0.2\n"
    )
    return p


class TestCli:
    def test_simulate_outputs(self, small_cfg, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(["simulate", "--config", str(small_cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        assert (out / "trajectory.bin").exists()
        assert (out / "norms.csv").exists()
        man = json.loads((out / "manifest.json").read_text())
        assert man["config_hash"] == cfgmod.config_hash(cfgmod.load(small_cfg))
        traj = sio.read_trajectory(out / "trajectory.bin")
        assert traj["steps"] == 15

    def test_simulate_trajectory_full_hermitian(self, small_cfg, tmp_path):
        # version 1, the full N^d spectrum expanded from the stored half,
        # exactly Hermitian, and its half is the ensemble's first sample
        out = tmp_path / "run"
        assert run_cli(["simulate", "--config", str(small_cfg), "--out", str(out), "--quiet"]) == 0
        raw = (out / "trajectory.bin").read_bytes()
        assert raw[:4] == b"STGF" and int.from_bytes(raw[4:8], "little") == 1
        traj = sio.read_trajectory(out / "trajectory.bin")
        g = sp.WaveGrid(2, 4)
        assert traj["fields"].shape == (16, 2) + g.shape
        neg = (-np.arange(g.N)) % g.N
        fields = traj["fields"]
        assert np.array_equal(fields[(Ellipsis,) + np.ix_(neg, neg)], np.conj(fields))
        tree = cfgmod.load(small_cfg)
        sim = cfgmod.build_sim(tree)
        res = fw.simulate_ensemble(cfgmod.initial_field(tree, sim), None,
                                   sim.noise_bank(int(tree["samples"])), sim)
        assert np.array_equal(fields[..., : g.N // 2 + 1], res.fields[0])

    def test_rerun_byte_identical(self, small_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "--config", str(small_cfg), "--out", str(a), "--quiet"]) == 0
        assert run_cli(["simulate", "--config", str(small_cfg), "--out", str(b), "--quiet"]) == 0
        for name in ("trajectory.bin", "norms.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_error_exit_code(self, small_cfg, tmp_path):
        rc = run_cli([
            "simulate", "--config", str(small_cfg),
            "--set", "params.alpha2=99", "--out", str(tmp_path / "x"), "--quiet",
        ])
        assert rc == 2

    @pytest.mark.parametrize("override", ["noise.co=5", "stopp.M=1", "target.kind=zer0",
                                          "cost.variant=V"])
    def test_unknown_config_input_exit_code(self, small_cfg, tmp_path, override):
        # a misspelled key or an enum value outside its choices must not be ignored
        rc = run_cli([
            "simulate", "--config", str(small_cfg),
            "--set", override, "--out", str(tmp_path / "x"), "--quiet",
        ])
        assert rc == 2
        assert not (tmp_path / "x").exists()

    def test_blowup_exit_code(self, tmp_path):
        # gigantic initial amplitude with a tiny threshold and guard
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(
            "n_max = 4\nsteps = 10\ndt = 0.2\nsamples = 1\n"
            "stop.M = 1e-4\nstop.blowup_factor = 1.0\n"
            "init.amplitude = 1e4\nnoise.c0 = 5.0\n"
        )
        rc = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "y"), "--quiet"])
        assert rc in (0, 3)  # stop-at-0 short-circuits the guard; force a step
        cfg.write_text(
            "n_max = 4\nsteps = 10\ndt = 0.5\nsamples = 1\n"
            "stop.M = 1e6\nstop.blowup_factor = 1e-9\n"
            "init.amplitude = 10.0\nnoise.c0 = 0.0\n"
        )
        rc = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "z"), "--quiet"])
        assert rc == 3

    BLOWUP_CFG = ("n_max = 2\nsteps = 4\ndt = 0.5\nsamples = 4\nnoise.K = 2\n"
                  "stop.M = 1e6\nstop.blowup_factor = 1e-9\n"
                  "init.amplitude = 10.0\nnoise.c0 = 0.0\n")

    # the count runs over all of a command's ensembles: verify's 4-sample duality
    # and 2-sample gradient checks, tangent-check's base run and its three
    # perturbed runs of 4 samples, stop-probe's likewise, stability-probe's two
    BLOWUP_ABORTS = {"verify": 6, "tangent-check": 16, "stability-probe": 8, "stop-probe": 16}

    @pytest.mark.parametrize("command, report", [
        ("duality-check", "duality.json"), ("adapted-check", "adapted.json"),
        ("verify", "verify.json"), ("optimize", "optimize.json"),
        ("tangent-check", "tangent.json"), ("stability-probe", "stability.json"),
        ("stop-probe", "stop_probe.json"),
    ])
    def test_check_blowup_exit_code(self, tmp_path, command, report, capsys):
        # the guard of test_blowup_exit_code aborts every sample at its first step
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(self.BLOWUP_CFG)
        out = tmp_path / "chk"
        rc = run_cli([command, "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == cli.EXIT_BLOWUP
        want = self.BLOWUP_ABORTS.get(command, 4)
        assert json.loads((out / report).read_text())["aborted"] == want
        printed = capsys.readouterr()
        assert f"blow-up abort in {want} sample(s)" in printed.err
        assert printed.out == ""  # no verdict or cost line from aborted samples

    def test_optimize_aborted_iterate_ends_search(self, tmp_path, capsys):
        # an iterate with aborted samples takes no step: no iteration line even
        # without --quiet, and the history holds only the final entry, which
        # records that no iteration was made and no line search accepted
        cfg = tmp_path / "blow.cfg"
        cfg.write_text(self.BLOWUP_CFG)
        out = tmp_path / "opt"
        rc = run_cli(["optimize", "--config", str(cfg), "--set", "control.iters=2",
                      "--out", str(out)])
        assert rc == cli.EXIT_BLOWUP
        assert capsys.readouterr().out == ""
        rep = json.loads((out / "optimize.json").read_text())
        assert [(h["iter"], h["accepted"]) for h in rep["history"]] == [(0, False)]
        assert rep["aborted"] == 4
        assert rep["optimality_min_pairing"] is None  # no certificate for an aborted iterate

    def test_verify_passes(self, small_cfg, tmp_path):
        rc = run_cli(["verify", "--config", str(small_cfg), "--out", str(tmp_path / "v"), "--quiet"])
        assert rc == 0
        rep = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert rep["failures"] == []

    def test_duality_check(self, small_cfg, tmp_path):
        rc = run_cli(["duality-check", "--config", str(small_cfg), "--out", str(tmp_path / "d"), "--quiet"])
        assert rc == 0
        assert json.loads((tmp_path / "d" / "duality.json").read_text())["aborted"] == 0

    def test_adapted_check(self, small_cfg, tmp_path):
        rc = run_cli([
            "adapted-check", "--config", str(small_cfg),
            "--set", "samples=40", "--set", "n_max=2", "--set", "noise.K=3",
            "--out", str(tmp_path / "ad"), "--quiet",
        ])
        assert rc == 0
        assert json.loads((tmp_path / "ad" / "adapted.json").read_text())["aborted"] == 0

    def test_optimize(self, small_cfg, tmp_path):
        out = tmp_path / "opt"
        rc = run_cli([
            "optimize", "--config", str(small_cfg),
            "--set", "control.iters=2", "--set", "samples=2",
            "--set", "control.n_dirs=6", "--out", str(out), "--quiet",
        ])
        assert rc == 0
        U = np.load(out / "control.npy")
        assert U.shape[0] == 15
        rep = json.loads((out / "optimize.json").read_text())
        assert rep["optimality_min_pairing"] >= -1e-4

    def test_optimize_certificate_uses_cost_variant(self, small_cfg, tmp_path):
        # the certificate pairs the gradient of the cost that was minimized
        sets = ["cost.variant=v", "control.iters=0", "samples=2", "control.n_dirs=6"]
        out = tmp_path / "optv"
        rc = run_cli(["optimize", "--config", str(small_cfg), "--out", str(out), "--quiet",
                      *(a for kv in sets for a in ("--set", kv))])
        assert rc == 0
        tree = cfgmod.load(small_cfg, sets)
        sim = cfgmod.build_sim(tree)
        assert sim.tracking == "v"
        adm = ct.AdmissibleSet(radius=float(tree["control"]["radius"]), p_exp=sim.p_exp)
        want = ct.optimality_residual(
            np.load(out / "control.npy"), cfgmod.initial_field(tree, sim),
            cfgmod.target_field(tree, sim), sim, float(tree["cost"]["lam"]), adm, 2,
            n_dirs=6, seed=int(tree["seed"]) + 13)
        rep = json.loads((out / "optimize.json").read_text())
        assert rep["optimality_min_pairing"] == want["min_pairing"]

    def test_no_scipy_import(self):
        # the transforms are numpy.fft's: importing scipy.fft would add about
        # 0.2 s and 27 MiB to every process
        code = "import sys, stgflow.cli; sys.exit('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_console_script_installed(self, small_cfg, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "stgflow.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
