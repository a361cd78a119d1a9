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
values outside ``CHOICES`` are rejected with ConfigError.  A config that
sets no ``p_exp`` gets ``default_p_exp(dim)``: 8.0 in 2D, 10.0 in 3D.

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
from .forward import SimConfig, default_p_exp


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "dim": 2,
    "n_max": 8,
    "dt": 0.01,
    "steps": 100,
    "seed": 0,
    "samples": 16,
    "p_exp": 8.0,  # the 2D value of default_p_exp, which load() sets for the config's dim
    "params": {"nu": 0.5, "alpha1": 0.4, "alpha2": -0.1, "beta": 0.3},
    "noise": {"K": 8, "family": "linear", "c0": 0.1, "modulation": 0.0},
    "stop": {"M": 10.0, "blowup_factor": 10.0},
    "cost": {"lam": 0.1, "variant": "l2"},
    "control": {"radius": 1.0, "iters": 20, "step0": 1.0, "n_dirs": 64},
    "init": {"amplitude": 0.8, "kmax": None, "seed": 100},
    "target": {"kind": "random", "amplitude": 0.5, "kmax": None, "seed": 200},
}

CHOICES = {("target", "kind"): ("random", "zero"), ("cost", "variant"): ("l2", "v")}

# values with a range: the test each passes after the integer and finiteness checks
POSITIVE, NONNEGATIVE = (lambda v: v > 0, "> 0"), (lambda v: v >= 0, ">= 0")
KMAX = (lambda v: v is None or type(v) is int and v >= 1, "null or an integer >= 1")
SIZING = (
    *((key, *POSITIVE) for key in ("dt", "stop.M", "stop.blowup_factor", "control.radius",
                                   "control.step0")),
    *((key, *NONNEGATIVE) for key in ("init.amplitude", "target.amplitude", "seed", "init.seed",
                                      "target.seed", "control.iters")),
    *((key, lambda v: v >= 1, ">= 1") for key in ("samples", "control.n_dirs")),
    ("init.kmax", *KMAX),
    ("target.kmax", *KMAX),
)


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
        if type(defaults[key]) is int and type(val) is not int:  # a bool is no int here
            raise ConfigError(f"config key {prefix + key!r} must be an integer, got {val!r}")
        if type(defaults[key]) is float and not (type(val) in (int, float) and np.isfinite(val)):
            raise ConfigError(f"config key {prefix + key!r} must be a finite number, got {val!r}")
        if isinstance(val, dict):
            sub = defaults[key] if isinstance(defaults[key], dict) else {}
            _check_keys(val, sub, prefix + key + ".")


def load(path=None, overrides=()) -> dict:
    """Merged mapping: defaults <- file <- key=value override strings; ``p_exp``,
    unless set, is ``default_p_exp`` of the merged dim.

    Raises ConfigError for a key not in DEFAULTS, a value outside CHOICES, a non-integer
    where DEFAULTS holds an integer, no finite number for a float and a value outside SIZING.
    """
    tree = copy.deepcopy(DEFAULTS)
    del tree["p_exp"]  # set below from the merged dim unless the file or an override sets it
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
    tree.setdefault("p_exp", default_p_exp(tree["dim"]))
    for (section, key), allowed in CHOICES.items():
        if tree[section][key] not in allowed:
            raise ConfigError(f"{section}.{key} must be one of {allowed}, got {tree[section][key]!r}")
    for key, ok, want in SIZING:
        section, _, name = key.rpartition(".")
        val = tree[section][name] if section else tree[name]
        if not ok(val):
            raise ConfigError(f"config key {key!r} must be {want}, got {val!r}")
    return tree


def config_hash(tree: dict) -> str:
    canon = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_sim(tree: dict) -> SimConfig:
    """The run's ``SimConfig`` from a mapping ``load`` returned: ``PhysicalParams``
    and ``NoiseModel`` from their sections as they stand, whose types ``load`` checked."""
    try:
        return SimConfig(
            dim=tree["dim"], n_max=tree["n_max"], dt=tree["dt"], steps=tree["steps"],
            params=sp.PhysicalParams(**tree["params"]), model=nz.NoiseModel(**tree["noise"]),
            M=tree["stop"]["M"], p_exp=tree["p_exp"], seed=tree["seed"],
            blowup_factor=tree["stop"]["blowup_factor"], tracking=tree["cost"]["variant"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _random_block(block: dict, cfg: SimConfig):
    """The random field of an ``init`` or ``target`` block: its seed, kmax
    (null: the dealiasing cutoff) and L2 amplitude."""
    return sp.random_field(
        cfg.grid,
        np.random.default_rng(int(block["seed"])),
        kmax=block["kmax"],
        amplitude=float(block["amplitude"]),
    )


def initial_field(tree: dict, cfg: SimConfig):
    return _random_block(tree["init"], cfg)


def target_field(tree: dict, cfg: SimConfig):
    block = tree["target"]
    return cfg.grid.zeros() if block["kind"] == "zero" else _random_block(block, cfg)
