"""Benchmark runner for tenreg.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rate_sweep --seed 0 --seconds 40 --trace 0

One run measures one pass of fixed work of the named workload (see
``workloads.py``) in this process, with the BLAS thread count fixed before
numpy loads.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it wraps the layers' public functions and reports per-layer
metrics instead.  Diagnostic lines (machine, checks, failures, output
fingerprint) go to standard output first; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 2 without a result when the checkout holds no ``src/tenreg``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("rate_sweep", "cli_pipeline", "mc_tables")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed",
        type=_nonnegative,
        default=0,
        help="workload seed; 0 runs the acceptance tests' own seeds",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=35.0,
        help="nominal measuring time; a run always measures exactly one pass",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# BLAS threads per workload.  The rate sweep's tall data-space products
# scale to two cores (62 s against 77 s on one, 2-core host); the other two
# workloads multiply matrices of at most 512 columns, where a second OpenBLAS
# thread only spins (twice the CPU time for the same wall time).
BLAS_THREADS = {"rate_sweep": 2, "cli_pipeline": 1, "mc_tables": 1}


def blas_threads(workload):
    return max(1, min(BLAS_THREADS[workload], len(os.sched_getaffinity(0))))


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def measure_setup(env):
    """Median over fresh interpreters that import tenreg of their wall time
    at the reference host speed, from a reference slice run just before and
    just after each (see hostspeed.py)."""
    from hostspeed import REFERENCE_SLICE_S, ReferenceSlice

    reference = ReferenceSlice()
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import tenreg"],
            cwd=ROOT,
            env=env,
            check=True,
        )
        elapsed = time.perf_counter() - start
        after = reference()
        times.append(elapsed * (REFERENCE_SLICE_S / before + REFERENCE_SLICE_S / after) / 2)
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "tenreg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tenreg sources under {ROOT / 'src'}\n")
        return 2

    threads = blas_threads(args.workload)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, src)
    load_start = loadavg()

    # numpy and tenreg load only now, after the BLAS thread count is fixed
    import layers

    machine = layers.machine_info(threads)
    setup_s = None if args.trace else measure_setup(dict(os.environ))
    workdir = ROOT / f".perfbench_work-{os.getpid()}"

    if args.trace:
        values, notes, out = layers.traced_pass(args.workload, args.seed, str(workdir))
        units = layers.per_layer_units()
    else:
        # the reference slice tracks the speed of the core it runs on, so
        # only a pass on one core is corrected by it (see hostspeed.py)
        values, notes, out = layers.timed_pass(
            args.workload, args.seed, str(workdir), corrected=threads == 1
        )
        values["setup_s"] = setup_s
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    fingerprint = out.fingerprint()
    reference = layers.reference_fingerprint(args.workload, args.seed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "operations": {"attempted": out.attempted, "failed": len(out.failures)},
        "failed_frac": f"{len(out.failures)}/{out.attempted}",
        "failures": [f"{name}: {why}" for name, why in out.failures],
        "checks": [
            {"name": name, "ok": ok, "detail": detail} for name, ok, detail in out.checks
        ],
        "fingerprint": fingerprint,
        "fingerprint_reference": reference,
        "fingerprint_moved": None if reference is None else fingerprint != reference,
        "notes": notes,
    }
    print(json.dumps(info, sort_keys=True))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": len(out.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
