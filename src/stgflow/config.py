"""Run configuration: flat key=value files, JSON, overrides, hashing.

A config file is either a JSON object or a line-oriented list of dotted
assignments:

    # comment
    dim = 2
    params.nu = 0.5
    noise.family = "linear"

Values are parsed as JSON where possible (numbers, booleans, null,
quoted strings) and fall back to bare strings.  The same ``a.b = v``
grammar drives command-line overrides.  Keys outside ``DEFAULTS`` and
values outside ``CHOICES`` are rejected with ConfigError.

``config_hash`` digests the canonical JSON form of the merged mapping,
so manifests identify runs without embedding timestamps or paths.
"""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np

from . import noise as nz
from . import spectral as sp
from .forward import SimConfig


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "dim": 2,
    "n_max": 8,
    "dt": 0.01,
    "steps": 100,
    "seed": 0,
    "samples": 16,
    "p_exp": 8.0,
    "params": {"nu": 0.5, "alpha1": 0.4, "alpha2": -0.1, "beta": 0.3},
    "noise": {"K": 8, "family": "linear", "c0": 0.1, "modulation": 0.0},
    "stop": {"M": 10.0, "blowup_factor": 10.0},
    "cost": {"lam": 0.1, "variant": "l2"},
    "control": {"radius": 1.0, "iters": 20, "step0": 1.0, "n_dirs": 64},
    "init": {"amplitude": 0.8, "kmax": None, "seed": 100},
    "target": {"kind": "random", "amplitude": 0.5, "kmax": None, "seed": 200},
}

CHOICES = {("target", "kind"): ("random", "zero"), ("cost", "variant"): ("l2", "v")}


def _parse_value(text: str):
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _set_dotted(tree: dict, key: str, value):
    parts = key.strip().split(".")
    node = tree
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into scalar at {p!r} in {key!r}")
    node[parts[-1]] = value


def parse_text(text: str) -> dict:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON config: {e}") from e
    tree: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        _set_dotted(tree, key, _parse_value(val))
    return tree


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _check_keys(tree: dict, defaults: dict, prefix: str = ""):
    for key, val in tree.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(defaults[key], dict) and not isinstance(val, dict):
            raise ConfigError(f"config key {prefix + key!r} is a section, got {val!r}")
        if isinstance(val, dict):
            sub = defaults[key] if isinstance(defaults[key], dict) else {}
            _check_keys(val, sub, prefix + key + ".")


def load(path=None, overrides=()) -> dict:
    """Merged mapping: defaults <- file <- key=value override strings.

    Raises ConfigError for a key not in DEFAULTS and for a value outside CHOICES.
    """
    tree = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path) as f:
            tree = _merge(tree, parse_text(f.read()))
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must look like key=value, got {ov!r}")
        key, _, val = ov.partition("=")
        patch: dict = {}
        _set_dotted(patch, key, _parse_value(val))
        tree = _merge(tree, patch)
    _check_keys(tree, DEFAULTS)
    for (section, key), allowed in CHOICES.items():
        if tree[section][key] not in allowed:
            raise ConfigError(f"{section}.{key} must be one of {allowed}, got {tree[section][key]!r}")
    return tree


def config_hash(tree: dict) -> str:
    canon = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_sim(tree: dict) -> SimConfig:
    try:
        params = sp.PhysicalParams(
            nu=float(tree["params"]["nu"]),
            alpha1=float(tree["params"]["alpha1"]),
            alpha2=float(tree["params"]["alpha2"]),
            beta=float(tree["params"]["beta"]),
        )
        model = nz.NoiseModel(
            K=int(tree["noise"]["K"]),
            family=str(tree["noise"]["family"]),
            c0=float(tree["noise"]["c0"]),
            modulation=float(tree["noise"]["modulation"]),
        )
        return SimConfig(
            dim=int(tree["dim"]),
            n_max=int(tree["n_max"]),
            dt=float(tree["dt"]),
            steps=int(tree["steps"]),
            params=params,
            model=model,
            M=float(tree["stop"]["M"]),
            p_exp=float(tree["p_exp"]),
            seed=int(tree["seed"]),
            blowup_factor=float(tree["stop"]["blowup_factor"]),
            tracking=str(tree["cost"]["variant"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _random_block(block: dict, cfg: SimConfig):
    """The random field of an ``init`` or ``target`` block: its seed, kmax
    (null: the dealiasing cutoff) and L2 amplitude."""
    kmax = block["kmax"]
    return sp.random_field(
        cfg.grid,
        np.random.default_rng(int(block["seed"])),
        kmax=None if kmax is None else int(kmax),
        amplitude=float(block["amplitude"]),
    )


def initial_field(tree: dict, cfg: SimConfig):
    return _random_block(tree["init"], cfg)


def target_field(tree: dict, cfg: SimConfig):
    block = tree["target"]
    return cfg.grid.zeros() if block["kind"] == "zero" else _random_block(block, cfg)
