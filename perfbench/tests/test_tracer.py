"""Tests of the benchmark's own tracer and its per-layer report."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings():
    """Every attribute of every loaded tenreg module, by identity."""
    return {
        (key, attr): id(value)
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "tenreg" or key.startswith("tenreg."))
        for attr, value in vars(mod).items()
    }


def test_wrapped_functions_are_restored():
    import tenreg.harness
    import tenreg.solver

    before = _bindings()
    original = tenreg.solver.fista_solve
    tracer = Tracer(layers.targets())
    with pytest.raises(RuntimeError):
        with tracer:
            # the caller-side binding and the defining one are both wrapped
            assert tenreg.harness.fista_solve is not original
            assert tenreg.solver.fista_solve is not original
            assert tenreg.harness.fista_solve is tenreg.solver.fista_solve
            raise RuntimeError("leave the block early")
    assert tenreg.harness.fista_solve is original
    assert _bindings() == before


class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_exact_on_nested_calls(monkeypatch):
    clock = _Clock()
    mod = types.ModuleType("fakepkg.mod")

    def inner():
        clock.now += 5

    def outer():
        clock.now += 1
        mod.inner()
        clock.now += 2
        mod.inner()
        clock.now += 3

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    tracer = Tracer(
        {"mod.outer": (mod, "outer"), "mod.inner": (mod, "inner")}, clock=clock
    )
    tracer.install(package="fakepkg")
    try:
        mod.outer()
        mod.inner()
    finally:
        tracer.restore()
    outer_stat, inner_stat = tracer.stats["mod.outer"], tracer.stats["mod.inner"]
    assert (outer_stat.calls, outer_stat.total_s, outer_stat.self_s) == (1, 16, 6)
    assert (inner_stat.calls, inner_stat.total_s, inner_stat.self_s) == (3, 15, 15)
    # self times partition the covered wall time exactly
    assert tracer.self_total() == clock.now == 21
    assert mod.outer is outer and mod.inner is inner


def test_traced_and_untraced_passes_emit_identical_outputs(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CLI_SEEDS", 1)
    _, _, plain = layers.timed_pass("cli_pipeline", 0, str(tmp_path / "plain"))
    values, _, traced = layers.traced_pass("cli_pipeline", 0, str(tmp_path / "traced"))
    assert plain.outputs and plain.outputs == traced.outputs
    assert plain.fingerprint() == traced.fingerprint()
    assert (plain.attempted, plain.failures) == (traced.attempted, traced.failures)
    assert values.keys() == layers.per_layer_units().keys()
    assert values["cli.main.calls"] == 2 * len(workloads.CLI_CASES)
    assert values["solver.solves"] == len(workloads.CLI_CASES)
    assert 0.95 <= values["trace.span_coverage_frac"] <= 1.0
    assert not list(tmp_path.iterdir())


def test_benchmark_json_lists_every_per_layer_metric():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == layers.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mc_tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_sampler_restores_the_alarm_handler():
    import signal
    import time

    from hostspeed import HostSpeed

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed(interval=0.02) as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.durations) >= 2
    assert speed.factor() > 0
