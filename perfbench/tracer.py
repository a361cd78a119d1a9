"""Per-layer tracing of stgflow from outside the program.

The tracer replaces module attributes: every public function named in
``layers.json`` is wrapped, and every ``from .x import f`` copy of it in
another stgflow module is rebound to the same wrapper.  Calls made through
a module attribute or an intra-module global resolve at call time, so they
reach the wrapper without further work.

Transforms are counted, not timed, by wrapping the n-d entry points of
``numpy.fft`` and ``scipy.fft``.  Those wrappers must be installed before
stgflow is imported so that a module which binds ``rfftn`` by name at
import time still gets the counting version.

Spans (name, start, end, parent) stay in memory until ``write_spans``.
A function's self time is its span duration minus the time its child
spans cover; children of one span never overlap, since the program is
single-threaded at the Python level.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")


def stgflow_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stgflow" or name.startswith("stgflow."))]


def rebind(original, replacement):
    """Point every stgflow module attribute that is ``original`` at ``replacement``."""
    for mod in stgflow_modules():
        for name, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, name, replacement)


def load_layers(path):
    with open(path) as f:
        return json.load(f)


def nbytes(obj):
    """Bytes held in the numpy arrays of a returned value."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(nbytes(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(nbytes(getattr(obj, k)) for k in obj.__dataclass_fields__)
    return 0


class Tracer:
    def __init__(self, layers):
        self.layers = layers
        self.active = False
        self.spans = []  # [rep, name, start, end, parent index or -1]
        self.stack = []
        self.rep = 0
        self.counters = Counter()
        self.missing = []

    # -- installation -----------------------------------------------------

    def install_fft_counters(self):
        import numpy.fft

        mods = [numpy.fft]
        try:
            import scipy.fft
        except ImportError:
            pass
        else:
            mods.append(scipy.fft)
        for mod in mods:
            for name in FFT_ENTRY_POINTS:
                f = getattr(mod, name, None)
                if f is not None:
                    setattr(mod, name, self._count_fft(f))

    def _count_fft(self, f):
        @functools.wraps(f)
        def counted(x, *args, **kwargs):
            if self.active:
                self.counters["spectral.fft.calls"] += 1
                self.counters["spectral.fft.points"] += int(getattr(x, "size", 1))
            return f(x, *args, **kwargs)

        return counted

    def install(self):
        """Wrap every function of the layer table; record the ones that are gone."""
        for layer in self.layers["layers"]:
            for qual in layer["functions"]:
                modname, fname = qual.split(".")
                mod = sys.modules.get("stgflow." + modname)
                original = getattr(mod, fname, None)
                if not callable(original):
                    self.missing.append(qual)
                    continue
                rebind(original, self._wrap(qual, original, _HOOKS.get(qual)))

    def _wrap(self, qual, f, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if not self.active:
                return f(*args, **kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append([self.rep, qual, 0.0, 0.0, parent])
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid][2] = t0
                spans[sid][3] = t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def start(self):
        """Trace the next repetition."""
        self.active = True

    def stop(self):
        self.active = False
        self.rep += 1

    def ancestors(self):
        return [self.spans[i][1] for i in self.stack]

    # -- results ----------------------------------------------------------

    def metrics(self, n_reps):
        """Per-repetition calls, self time and counters for every layer name."""
        calls, total, child = Counter(), Counter(), Counter()
        for _, name, t0, t1, parent in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[self.spans[parent][1]] += t1 - t0
        units = {}
        out = {}
        for layer in self.layers["layers"]:
            for qual in layer["functions"]:
                out[qual + ".calls"] = calls[qual] / n_reps
                out[qual + ".self_s"] = (total[qual] - child[qual]) / n_reps
                units[qual + ".calls"] = "count"
                units[qual + ".self_s"] = "s"
            for name, unit in layer["counters"]:
                units[name] = unit
                if name == "forward.live_frac":
                    computed = self.counters["forward.computed_steps"]
                    out[name] = self.counters["forward.live_steps"] / computed if computed else 0.0
                else:
                    out[name] = self.counters[name] / n_reps
        return out, units

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, (rep, name, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({"rep": rep, "id": i, "name": name, "start": t0,
                                    "end": t1, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# counters read off arguments and returned values


def _forward_hook(tr, args, kwargs, res):
    import numpy as np

    S = res.stop.shape[0]
    # a sample aborted at step n was computed, and live, at step n
    live_until = res.stop + res.aborted
    tr.counters["forward.live_steps"] += int(np.sum(live_until))
    tr.counters["forward.computed_steps"] += S * int(np.max(live_until, initial=0))
    tr.counters["forward.aborted"] += int(np.count_nonzero(res.aborted))
    tr.counters["forward.stored_bytes"] += nbytes(res)
    if any(a.startswith("control.") for a in tr.ancestors()):
        tr.counters["control.forward_solves"] += 1


def _adjoint_hook(tr, args, kwargs, res):
    tr.counters["adjoint.stored_bytes"] += nbytes(res)


def _eval_cost_hook(tr, args, kwargs, res):
    # an eval_cost directly under optimize is one line-search trial
    if tr.stack and tr.spans[tr.stack[-1]][1] == "control.optimize":
        tr.counters["control.backtracks"] += 1


def _optimize_hook(tr, args, kwargs, res):
    # each accepted iteration used up exactly one trial
    accepted = sum(1 for h in res["history"][:-1] if h["accepted"])
    tr.counters["control.backtracks"] -= accepted


def _io_hook(tr, args, kwargs, res):
    path = args[0] if args else kwargs["path"]
    tr.counters["io.bytes_written"] += os.path.getsize(path)


_HOOKS = {
    "forward.simulate_ensemble": _forward_hook,
    "adjoint.pathwise_adjoint": _adjoint_hook,
    "adjoint.adapted_bsde": _adjoint_hook,
    "control.eval_cost": _eval_cost_hook,
    "control.optimize": _optimize_hook,
    "io.write_trajectory": _io_hook,
    "io.write_norms_csv": _io_hook,
    "io.write_json": _io_hook,
}
