"""Deterministic on-disk formats: trajectory binary, norm CSV, manifests.

The trajectory container is a little-endian binary file:

    bytes 0..3    magic  b"STGF"
    int32         format version (1)
    int32         dim
    int32         n_max
    int32         steps          (fields hold steps + 1 snapshots)
    int32         stop_index
    float64       dt
    complex128[]  coefficients, C order, shape (steps+1, dim, N, ..., N)

The file holds the full N^d spectrum, although the program stores the
half spectrum (last axis 0..N/2, see ``spectral``): the writer takes the
full array, which ``stgflow simulate`` expands on write with
``spectral.full_spectrum``.

No timestamps or absolute paths are written anywhere, so rerunning the
same configuration reproduces every output byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np

MAGIC = b"STGF"
VERSION = 1
_HEADER = "<4s5id"


def write_trajectory(path, fields, dim, n_max, dt, stop_index):
    """Write full-spectrum ``fields`` (steps+1, dim, N, ..., N); ValueError
    for any other trailing shape, such as the stored half spectrum."""
    fields = np.ascontiguousarray(np.asarray(fields, dtype="<c16"))
    want = (dim,) + (2 * (n_max + 1),) * dim
    if fields.shape[1:] != want:
        raise ValueError(f"{path}: trajectory snapshots must have shape {want}, got {fields.shape[1:]}")
    steps = fields.shape[0] - 1
    with open(path, "wb") as f:
        f.write(struct.pack(_HEADER, MAGIC, VERSION, dim, n_max, steps, int(stop_index), dt))
        f.write(fields.tobytes())


def read_trajectory(path):
    """Decode a trajectory file; ValueError unless its size is exactly the
    header plus the payload the header describes."""
    with open(path, "rb") as f:
        raw = f.read()
    head = struct.calcsize(_HEADER)
    if len(raw) < head:
        raise ValueError(f"{path}: expected at least {head} header bytes, found {len(raw)}")
    magic, version, dim, n_max, steps, stop_index, dt = struct.unpack_from(_HEADER, raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: not a trajectory file")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    N = 2 * (n_max + 1)
    shape = (steps + 1, dim) + (N,) * dim
    expected = head + 16 * math.prod(shape)
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for shape {shape}, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<c16", offset=head).reshape(shape)
    return {
        "fields": data,
        "dim": dim,
        "n_max": n_max,
        "steps": steps,
        "stop_index": stop_index,
        "dt": dt,
    }


def write_norms_csv(path, dt, w24, stop):
    """Per-sample W^{2,4} traces; one row per (sample, step)."""
    w24 = np.asarray(w24)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sample", "step", "time", "w24_norm", "stopped"])
        for s in range(w24.shape[0]):
            for n in range(w24.shape[1]):
                w.writerow([s, n, f"{n * dt:.12g}", f"{w24[s, n]:.17g}", int(n >= stop[s])])


def write_json(path, payload):
    """``payload`` as indented JSON with sorted keys; json hands each numpy
    array or scalar to ``default``, which writes its ``tolist()``."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=lambda x: x.tolist())
        f.write("\n")
