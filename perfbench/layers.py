"""Untraced and traced passes, and the per-layer metrics of a traced pass.

The layers are tenreg's modules.  :data:`LAYER_FUNCTIONS` names the public
functions wrapped in each; every one reports ``<layer>.<function>.calls``
and ``<layer>.<function>.self_s``.  The derived metrics below them are taken
from return values at the same boundaries, so counts come from where the
work happens.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tenreg
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import WORKLOADS

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

LAYER_FUNCTIONS = {
    "datagen": ("gen_truth", "gen_problem", "gen_var_model", "gen_var_series"),
    "solver": (
        "fista_solve",
        "fista_pairwise",
        "admm_matricized",
        "kkt_residual",
        "objective",
        "empirical_norm",
        "marginal_features",
        "save_problem",
        "load_problem",
    ),
    "regularizers": ("prox", "reg_eval", "reg_dual", "subspace_project", "compatibility"),
    "spectral": ("gaussian_width_mc", "matrix_svt"),
    "tensor": ("matricize", "dematricize", "write_tns", "read_tns"),
    "harness": (
        "rate_experiment",
        "width_experiment",
        "pairwise_width_mc",
        "hypercube_packing",
        "verify_packing",
        "fano_precondition_check",
        "emit_report",
    ),
    "cli": ("main",),
}

SOLVES = ("solver.fista_solve", "solver.fista_pairwise", "solver.admm_matricized")

_PACKING_SIGNATURE = inspect.signature(tenreg.harness.hypercube_packing)

# derived per-layer metrics and their units, in report order
DERIVED_UNITS = {
    "solver.solves": "count",
    "solver.iterations": "count",
    "solver.converged_frac": "ratio",
    "solver.solve_p50_ms": "ms",
    "solver.solve_p90_ms": "ms",
    "datagen.gen_problem.mb": "MB",
    "tensor.write_tns.mb": "MB",
    "tensor.read_tns.mb": "MB",
    "spectral.width_draws": "count",
    "spectral.width_draws_per_s": "1/s",
    "harness.packing_accept_frac": "ratio",
    "cli.nonzero_exits": "count",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.span_coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def targets():
    """Metric prefix -> (defining module, attribute) for every wrapped
    function."""
    out = {}
    for layer, names in LAYER_FUNCTIONS.items():
        module = sys.modules[f"tenreg.{layer}"]
        for name in names:
            out[f"{layer}.{name}"] = (module, name)
    return out


def per_layer_units():
    """Every per-layer metric name with its unit, as BENCHMARK.json lists
    them."""
    units = {}
    for prefix in targets():
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


def machine_info(threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "tenreg": tenreg.__version__,
    }


def reference_fingerprint(workload, seed):
    """Output fingerprint recorded for this workload and seed, if any."""
    try:
        with open(FINGERPRINTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_pass(workload, seed, workdir, corrected=True):
    """One untraced pass; returns its end-to-end values (name -> value),
    diagnostics on how the wall time was taken, and the pass.

    With `corrected`, ``wall_s`` is the pass's wall time at the reference
    host speed (see :mod:`hostspeed`) and the raw wall time goes into the
    diagnostics; otherwise ``wall_s`` is the raw wall time.
    """
    speed = HostSpeed() if corrected else contextlib.nullcontext()
    start = time.perf_counter()
    with speed:
        out = WORKLOADS[workload](seed, workdir)
    wall = time.perf_counter() - start
    values = {"wall_s": wall, "peak_rss_mb": _peak_rss_mb()}
    notes = {"raw_wall_s": wall}
    if corrected:
        factor = speed.factor()
        values["wall_s"] = (wall - speed.spent) * factor
        notes.update(
            host_speed=factor, speed_samples=len(speed.durations), sampling_s=speed.spent
        )
    return values, notes, out


class Counters:
    """Layer counters fed by the tracer's return hooks."""

    def __init__(self):
        self.solves = 0
        self.converged = 0
        self.iterations = 0
        self.gen_bytes = 0
        self.write_bytes = 0
        self.read_bytes = 0
        self.width_draws = 0
        self.packing_accepted = 0
        self.packing_candidates = 0
        self.nonzero_exits = 0

    def hooks(self):
        def solve(res, args, kwargs):
            self.solves += 1
            self.converged += res.status == "Converged"
            self.iterations += res.iterations

        def gen(problem, args, kwargs):
            self.gen_bytes += 8 * int(np.prod(problem.covariates.shape))

        def write(_, args, kwargs):
            self.write_bytes += 8 * int(np.prod(np.shape(args[1])))

        def read(tensor, args, kwargs):
            self.read_bytes += 8 * int(np.prod(tensor.shape))

        def width(est, args, kwargs):
            self.width_draws += est.draws

        def packing(pack, args, kwargs):
            call = _PACKING_SIGNATURE.bind(*args, **kwargs)
            call.apply_defaults()
            self.packing_accepted += len(pack.elements)
            self.packing_candidates += call.arguments["budget"]

        def cli_exit(code, args, kwargs):
            self.nonzero_exits += code != 0

        hooks = {name: solve for name in SOLVES}
        hooks.update(
            {
                "datagen.gen_problem": gen,
                "tensor.write_tns": write,
                "tensor.read_tns": read,
                "spectral.gaussian_width_mc": width,
                "harness.pairwise_width_mc": width,
                "harness.hypercube_packing": packing,
                "cli.main": cli_exit,
            }
        )
        return hooks


def wrapper_cost(calls=200_000):
    """Seconds one wrapped call adds over a bare call, measured here."""

    def noop():
        return None

    tracer = Tracer({"noop": (None, None)})
    wrapped = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        end = time.perf_counter()
        best = min(best, ((mid - start) - (end - mid)) / calls)
    return max(best, 0.0)


def _tail_ms(durations):
    """p90 when there are at least 100 solves, else the highest percentile
    with ten solves beyond it; returns (value in ms, label)."""
    k = len(durations)
    if k == 0:
        return 0.0, "no solves"
    if k >= 100:
        q = 90.0
    elif k > 10:
        q = 100.0 * (1.0 - 10.0 / k)
    else:
        return 1e3 * max(durations), f"max of {k} solves"
    return 1e3 * float(np.percentile(durations, q)), f"p{q:g} of {k} solves"


def traced_pass(workload, seed, workdir):
    """One pass with every layer function wrapped; returns the per-layer
    metrics (name -> value), notes that label how some were taken, and the
    pass."""
    counters = Counters()
    tracer = Tracer(targets(), on_return=counters.hooks())
    per_call = wrapper_cost()
    cpu_start = time.process_time()
    with tracer:
        start = time.perf_counter()
        out = WORKLOADS[workload](seed, workdir)
        wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start

    values = {}
    for name, stat in tracer.stats.items():
        values[f"{name}.calls"] = stat.calls
        values[f"{name}.self_s"] = stat.self_s
    durations = [d for name in SOLVES for d in tracer.stats[name].durations]
    tail, tail_label = _tail_ms(durations)
    width_time = sum(
        tracer.stats[name].total_s
        for name in ("spectral.gaussian_width_mc", "harness.pairwise_width_mc")
    )
    calls = sum(stat.calls for stat in tracer.stats.values())
    overhead = calls * per_call
    values.update(
        {
            "solver.solves": counters.solves,
            "solver.iterations": counters.iterations,
            "solver.converged_frac": (
                counters.converged / counters.solves if counters.solves else 0.0
            ),
            "solver.solve_p50_ms": 1e3 * float(np.median(durations)) if durations else 0.0,
            "solver.solve_p90_ms": tail,
            "datagen.gen_problem.mb": counters.gen_bytes / 1e6,
            "tensor.write_tns.mb": counters.write_bytes / 1e6,
            "tensor.read_tns.mb": counters.read_bytes / 1e6,
            "spectral.width_draws": counters.width_draws,
            "spectral.width_draws_per_s": (
                counters.width_draws / width_time if width_time > 0 else 0.0
            ),
            "harness.packing_accept_frac": (
                counters.packing_accepted / counters.packing_candidates
                if counters.packing_candidates
                else 0.0
            ),
            "cli.nonzero_exits": counters.nonzero_exits,
            "process.cpu_s": cpu,
            "trace.wall_s": wall,
            "trace.span_coverage_frac": tracer.self_total() / wall,
            "trace.overhead_frac": overhead / max(wall - overhead, 1e-9),
        }
    )
    notes = {
        "solver.solve_p90_ms": tail_label,
        "trace.overhead_frac": (
            f"{calls} wrapped calls x {per_call * 1e9:.0f} ns measured per-call "
            f"wrapper cost, over the traced wall less that cost"
        ),
        "solver.converged": f"{counters.converged}/{counters.solves}",
    }
    return values, notes, out
