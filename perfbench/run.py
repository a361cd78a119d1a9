"""stgflow benchmark: one workload, timed end to end or traced per layer.

Run from the root of an stgflow checkout:

    python3 perfbench/run.py --workload optimize_2d --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  One process runs one
repetition at a time, with BLAS and OpenMP pinned to one thread.  Inputs (fields, controls, noise seeds) come from ``--seed``.

``--trace 0`` reports the end-to-end metrics:
    wall_rel      median, over warm verified repetitions, of a repetition's
                  wall time divided by the mean wall time of the reference
                  computation run just before and just after it (unit ``ref``)
    setup_s       median, over fresh processes, of the time from process
                  start until the first repetition may begin (imports,
                  config, inputs, warm-up)
    peak_rss_mib  peak resident memory of this fresh process up to the end
                  of its first repetition
On a shared host (two vCPUs of a larger machine) every process speeds up
or slows down by a third or more over tens of seconds, so raw wall times
of runs a minute apart disagree by more than any useful bound.  The
reference computation (``reference.py``) is fixed numpy work that calls
nothing in stgflow; dividing by it cancels the host's speed and leaves the
program's.  The raw median wall time is in the report line as ``wall_s``.

``--trace 1`` reports, per repetition, the calls and self time of every
function in ``layers.json``, the layer counters, and the tracing overhead
against untraced repetitions of the same process.

A repetition fails when a gate of its workload fails or a sample aborts;
``attempted`` and ``failed`` count repetitions.  The report line before the
result records the seed, gate details, failed fraction and environment;
the same report, and the spans of a traced run, go to ``.perfbench_out/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("simulate_3d", "optimize_2d", "adapted_2d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_PROBES = 7
MIN_REPS = 3  # untraced; a traced run needs at least 2 on each side


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def pin_threads():
    """One BLAS/OpenMP thread: the single-threaded baseline.

    BLAS here only sees small matrices, and on a shared host a second
    thread mostly spin-waits on the other core, which widens run-to-run
    spread without a steady gain.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc):
    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def import_workloads():
    """Import stgflow from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import stgflow

    if os.path.dirname(os.path.abspath(stgflow.__file__)) != os.path.join(SRC, "stgflow"):
        raise ImportError(f"stgflow imported from {stgflow.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe_setup_times(args):
    """Spawn fresh processes that only set up; time each from spawn to ready."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


class Repetitions:
    """Runs repetitions, times them and applies the workload's gates."""

    def __init__(self, wl, state, watch):
        self.wl, self.state, self.watch = wl, state, watch
        self.ref = None
        self.attempted = 0
        self.failures = []  # (repetition index, [gate names])
        self.peak_rss_mib = None
        self.relative = []  # wall time over the bracketing reference times

    def loop(self, seconds, min_reps, before=None, after=None, reference=None):
        walls = []
        t_start = time.perf_counter()
        ref_before = reference() if reference is not None else None
        while True:
            if before is not None:
                before()
            self.watch.aborted = 0
            err = None
            t0 = time.perf_counter()
            try:
                out = self.wl.run(self.state)
            except Exception:
                out, err = None, traceback.format_exc()
            t1 = time.perf_counter()
            if after is not None:
                after()
            walls.append(t1 - t0)
            if reference is not None:
                ref_after = reference()
                self.relative.append((t1 - t0) / (0.5 * (ref_before + ref_after)))
                ref_before = ref_after
            if self.peak_rss_mib is None:
                self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self._gate(out, err)
            elapsed = time.perf_counter() - t_start
            if len(walls) >= min_reps and elapsed + statistics.median(walls) > seconds:
                return walls

    def _gate(self, out, err):
        i = self.attempted
        self.attempted += 1
        if err is not None:
            print(err, file=sys.stderr)
            self.failures.append((i, ["exception"]))
            return
        if self.ref is None:
            self.ref = out
        failed = self.wl.check(self.state, out, self.ref)
        if self.watch.aborted:
            failed.append("aborted_sample")
        if failed:
            self.failures.append((i, failed))


def result_line(correct, reps, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": reps.attempted,
        "failed": len(reps.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stgflow", "__init__.py")):
        print(f"perfbench: no stgflow source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    nproc = pin_threads()
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")

    if args.setup_probe:
        wl = import_workloads()
        wl.AbortWatch()
        wl.WORKLOADS[args.workload].setup(args.seed, workdir)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_times = None if args.trace else probe_setup_times(args)
    tracer_obj = None
    if args.trace:
        import tracer

        tracer_obj = tracer.Tracer(tracer.load_layers(os.path.join(HERE, "layers.json")))
        tracer_obj.install_fft_counters()
    wl_mod = import_workloads()
    watch = wl_mod.AbortWatch()
    wl = wl_mod.WORKLOADS[args.workload]
    state = wl.setup(args.seed, workdir)
    reps = Repetitions(wl, state, watch)

    if args.trace:
        untraced = reps.loop(args.seconds / 2, 2)
        tracer_obj.install()
        traced = reps.loop(args.seconds / 2, 2, before=tracer_obj.start, after=tracer_obj.stop)
        metrics, units = tracer_obj.metrics(len(traced))
        u, t = statistics.median(untraced), statistics.median(traced)
        metrics.update({"trace.untraced_wall_s": u, "trace.traced_wall_s": t,
                        "trace.overhead_frac": t / u - 1.0})
        units.update({name: unit for name, unit in tracer_obj.layers["trace_metrics"]})
    else:
        import reference

        walls = reps.loop(args.seconds, MIN_REPS, reference=reference.Reference())
        metrics = {"wall_rel": statistics.median(reps.relative),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mib": reps.peak_rss_mib}
        units = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mib": "MiB"}

    run_failed, info = ["no_reference_output"], {}
    if reps.ref is not None:
        try:
            run_failed, info = wl.final_check(state, reps.ref)
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            run_failed = ["final_check_exception"]
    correct = not reps.failures and not run_failed
    shutil.rmtree(workdir, ignore_errors=True)

    missing = set(expected_metrics(args.trace)) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(missing)}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "shape": wl.shape,
        "attempted": reps.attempted,
        "failed_frac": len(reps.failures) / reps.attempted,
        "failed_repetitions": reps.failures,
        "run_checks_failed": run_failed,
        "info": info,
        "environment": environment(nproc),
    }
    if args.trace:
        report["traced_functions_missing"] = tracer_obj.missing
        tracer_obj.write_spans(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        report["wall_s"] = statistics.median(walls)
        report["wall_s_samples"] = walls
        report["wall_rel_samples"] = reps.relative
        report["setup_s_samples"] = setup_times
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(report, f, indent=2, default=float)
    print("report " + json.dumps(report, default=float))
    print(result_line(correct, reps, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
