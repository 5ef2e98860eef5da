"""The benchmark's three workloads, built from the paper's own experiments.

Each workload runs one pass of fixed work from a seed and returns a
:class:`Pass`: the operations it attempted, the ones that failed, the output
checks with the acceptance suite's pinned tolerances, and the canonical
output texts that the fingerprint hashes.  Layer functions are always
reached through a module attribute (``harness.rate_experiment``, never a
name imported here), so the tracer sees every call.

Workload seed ``n`` shifts every acceptance-test seed by ``1000 * n``;
``n = 0`` reproduces the acceptance tests' seeds exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

from tenreg import cli, harness, regularizers, spectral
from tenreg.datagen import ModelClassSpec
from tenreg.harness import RateExperimentConfig
from tenreg.tensor import ProjectorTriple

SEED_STRIDE = 1000

# slack the acceptance suite allows on analytic compatibility bounds
COMPAT_SLACK = 1e-9


class Pass:
    """What one pass of a workload did and whether its outputs hold."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (operation, reason)
        self.checks = []  # (name, ok, detail)
        self.outputs = []  # canonical texts, hashed into the fingerprint

    def op(self, name, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failures.append((name, reason))

    def check(self, name, ok, detail):
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def correct(self):
        return all(ok for _, ok, _ in self.checks)

    def fingerprint(self):
        digest = hashlib.sha256()
        for text in self.outputs:
            digest.update(text.encode())
            digest.update(b"\0")
        return digest.hexdigest()


def _shift(base, seed):
    return base + SEED_STRIDE * seed


# ---------------------------------------------------------------------------
# rate_sweep: the three criterion-5 sweeps
# ---------------------------------------------------------------------------


def rate_configs(seed):
    """The criterion-5 configs, with their seeds shifted by the workload
    seed."""
    return {
        "multi_response": RateExperimentConfig(
            model=ModelClassSpec("t1", (50, 4, 4), s=3),
            regularizer=regularizers.slice_frob((1, 2)),
            n_grid=(500, 1000, 2000, 4000),
            replications=12,
            seed=_shift(301, seed),
            rate_tag="s_max_msq_logp_over_n",
            noise_sigma=1.0,
            split=2,
        ),
        "var": RateExperimentConfig(
            model=ModelClassSpec("t3", (20, 3, 20), s=6),
            regularizer=regularizers.fiber_group(1),
            n_grid=(2000, 4000, 8000, 16000),
            replications=12,
            seed=_shift(302, seed),
            rate_tag="s_max_p_2logm_over_n",
            split=2,
        ),
        "pairwise": RateExperimentConfig(
            model=ModelClassSpec("t4", (8, 8, 8), r=1, magnitude=3.0),
            regularizer="pairwise",
            n_grid=(4000, 8000, 16000, 32000),
            replications=12,
            seed=_shift(303, seed),
            rate_tag="r_max_dim_over_n",
            noise_sigma=1.0,
            split=3,
        ),
    }


def rate_sweep(seed, workdir):
    """Every cell is a solve; a cell whose status is not Converged fails.
    Each fit must have slope in [0.8, 1.2] and R^2 >= 0.9 (criterion 5)."""
    out = Pass()
    for name, config in rate_configs(seed).items():
        report = harness.rate_experiment(config)
        out.outputs.append(harness.emit_report(report))
        for cell in report["cells"]:
            out.op(
                f"{name} n={cell['n']} rep={cell['replication']}",
                cell["status"] == "Converged",
                cell["status"],
            )
        slope = report["fit"]["slope"]
        r2 = report["fit"]["r_squared"]
        out.check(
            f"rate {name} fit",
            0.8 <= slope <= 1.2 and r2 >= 0.9,
            f"slope={slope:.4f} R2={r2:.4f}",
        )
    return out


# ---------------------------------------------------------------------------
# cli_pipeline: gen then solve through the in-process CLI
# ---------------------------------------------------------------------------

CLI_SEEDS = 20  # problems drawn per case in one pass: 100 solves

# (case, truth class, n, regularizer shorthand, lambda).  theta5 takes an
# explicit lambda: on five seeded draws 0.2 and 0.4 gave the lowest
# estimation error, while 0.05 under-regularized (error ~1.0 against ~0.6)
# and needed four times the ADMM iterations.
CLI_CASES = (
    ("theta1", {"kind": "theta1", "shape": [8, 8, 8], "s": 5}, 384, "entry_l1", "auto"),
    (
        "theta2",
        {"kind": "theta2", "shape": [8, 8, 8], "s": 4, "mode": 0},
        384,
        "fiber_group:0",
        "auto",
    ),
    (
        "theta4",
        {"kind": "theta4", "shape": [8, 8, 8], "r": 2, "axes": [0, 1]},
        384,
        "slice_nuclear:0,1",
        "auto",
    ),
    (
        "theta5",
        {"kind": "theta5", "shape": [8, 8, 8], "r": 2},
        384,
        "matricized_nuclear_sum",
        "0.2",
    ),
    ("t4", {"kind": "t4", "shape": [8, 8, 8], "r": 1, "magnitude": 3.0}, 160, "pairwise", "auto"),
)


def _cli(argv):
    """Run ``tenreg`` in process; returns (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def cli_pipeline(seed, workdir):
    """Each CLI call is an operation; it fails on a non-zero exit (a solve
    that is not Converged exits 3) or when its output check fails.  Every
    ``gen`` certificate must be ok and every estimate finite."""
    out = Pass()
    os.makedirs(workdir, exist_ok=True)
    try:
        for i in range(CLI_SEEDS):
            case_seed = str(_shift(904, seed) + i)
            for case, spec, n, reg, lam in CLI_CASES:
                tag = f"{case} seed={case_seed}"
                prob = os.path.join(workdir, f"{case}_{i}")
                code, _, err = _cli(
                    ["--seed", case_seed, "--out", prob, "gen", "--spec",
                     json.dumps(spec), "--n", str(n), "--sigma", "1.0"]
                )
                manifest_path = os.path.join(prob, "manifest.json")
                gen_ok = code == 0 and json.loads(_read(manifest_path))["meta"][
                    "certificate"
                ]["ok"]
                out.op(f"gen {tag}", gen_ok, err.strip() or f"exit {code}")
                if not out.check(f"gen {tag} certificate", gen_ok, f"exit {code}"):
                    continue
                out.outputs.append(_read(manifest_path))
                out.outputs.append(
                    hashlib.sha256(
                        _read(os.path.join(prob, "covariates.tns"), "rb")
                    ).hexdigest()
                )

                result_path = os.path.join(workdir, f"{case}_{i}.json")
                code, _, err = _cli(
                    ["--seed", case_seed, "--out", result_path, "solve",
                     "--problem", prob, "--regularizer", reg, "--lam", lam]
                )
                # exit 2 (bad input) writes no result
                text = _read(result_path) if code in (0, 3) else "{}"
                result = json.loads(text)
                finite = "estimate" in result and bool(
                    np.all(np.isfinite(result["estimate"]))
                )
                status = result.get("status", err.strip())
                out.op(f"solve {tag}", code == 0 and finite, status)
                out.check(f"solve {tag} estimate finite", finite, status)
                out.outputs.append(text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


# ---------------------------------------------------------------------------
# mc_tables: width table, packings and compatibility Monte-Carlo
# ---------------------------------------------------------------------------

WIDTH_CASES = (
    ("entry", regularizers.entry_l1(), [(5, 5, 5), (10, 10, 10), (20, 20, 20)]),
    ("fiber", regularizers.fiber_group(0), [(10, 10, 10), (40, 10, 10), (160, 10, 10)]),
    ("slice_frob", regularizers.slice_frob((0, 1)), [(4, 4, 8), (8, 8, 8), (16, 16, 8)]),
    ("slice_nuclear", regularizers.slice_nuclear((0, 1)), [(4, 4, 8), (8, 8, 8), (16, 16, 8)]),
    (
        "matricized",
        regularizers.matricized_nuclear_sum(),
        [(5, 5, 5), (10, 10, 10), (20, 20, 20)],
    ),
)

COMPAT_DRAWS = 2000


def _compat_pairs(rng):
    """The five matched (penalty, subspace) pairs with closed-form bounds."""
    shape = (4, 4, 5)
    slice_factors = [
        (
            np.linalg.qr(rng.standard_normal((4, 2)))[0],
            np.linalg.qr(rng.standard_normal((4, 1)))[0],
        )
        for _ in range(5)
    ]
    triple = ProjectorTriple.random((4, 4, 4), (2, 2, 2), rng)
    return [
        (
            "entry_l1",
            regularizers.entry_l1(),
            regularizers.support_entries(shape, [(0, 1, 2), (2, 0, 0), (3, 3, 4)]),
        ),
        (
            "fiber_group",
            regularizers.fiber_group(0),
            regularizers.support_fibers(shape, [(0, 0), (2, 3), (1, 4)], mode=0),
        ),
        (
            "slice_frob",
            regularizers.slice_frob((0, 1)),
            regularizers.support_slices(shape, [0, 2], axes=(0, 1)),
        ),
        (
            "slice_nuclear",
            regularizers.slice_nuclear((0, 1)),
            regularizers.slicewise_projectors(
                shape, slice_factors, axes=(0, 1), role="b_space"
            ),
        ),
        (
            "matricized_tucker",
            regularizers.matricized_nuclear_sum(),
            regularizers.tucker_projectors((4, 4, 4), triple, role="b_space"),
        ),
    ]


def mc_tables(seed, workdir):
    """Every width estimate, packing and compatibility estimate is an
    operation; it fails when it raises or its own check fails."""
    out = Pass()

    # criterion 3: width ratios per kind, and the tensor-spectral window
    for name, spec, shapes in WIDTH_CASES:
        report = harness.width_experiment(
            [spec], shapes, draws=2000, seed=_shift(101, seed)
        )
        out.outputs.append(harness.emit_report(report))
        ratios = [row["ratio"] for row in report["rows"]]
        spread = max(ratios) / min(ratios)
        spread_ok = out.check(f"width {name} ratio spread", spread <= 1.5, f"{spread:.4f}")
        for row in report["rows"]:
            out.op(
                f"width {name} {row['shape']}",
                spread_ok and np.isfinite(row["estimate"]),
                f"ratio spread {spread:.4f}",
            )
    for d in (4, 6, 8):
        est = spectral.gaussian_width_mc(
            regularizers.tensor_spectral(),
            (d, d, d),
            draws=2000,
            seed=_shift(103, seed),
            hopm_restarts=8,
            hopm_iters=80,
        )
        out.outputs.append(json.dumps(est.to_json(), sort_keys=True))
        lo, hi = 0.5 * np.sqrt(3 * d), 4 * np.log(12) * 3 * np.sqrt(d)
        ok = lo <= est.mean <= hi
        out.op(f"width tensor_spectral d={d}", ok, f"{est.mean:.4f}")
        out.check(
            f"width tensor_spectral d={d} window", ok, f"{est.mean:.4f} in [{lo:.2f}, {hi:.1f}]"
        )

    # criterion 7: packings, each re-verified independently, and Fano
    delta = 1.0
    packings = [
        ("full", dict(d=12, delta=delta, kind="full", budget=100000, seed=_shift(701, seed)),
         (delta**2 / 4, delta**2)),
        ("sparse", dict(d=20, delta=delta, kind="sparse", budget=20000, seed=_shift(702, seed), s=4),
         (delta**2 / 8, delta**2)),
        ("lowrank", dict(d=12, delta=delta, kind="lowrank", budget=5000, seed=_shift(704, seed),
                         d1=12, d2=8, r=2),
         (delta**2 / 4, delta**2)),
    ]
    for name, kwargs, (lo, hi) in packings:
        pack = harness.hypercube_packing(**kwargs)
        out.outputs.append(json.dumps(pack.to_json(), sort_keys=True))
        ok, min_sq, max_sq, _ = harness.verify_packing(pack.elements, lo, hi)
        size = len(pack.elements)
        out.op(f"packing {name}", ok and size >= 3, f"size {size}")
        out.check(
            f"packing {name} verified",
            ok and size >= 3,
            f"size {size}, distances [{min_sq:.4f}, {max_sq:.4f}] in [{lo}, {hi}]",
        )
    n, c_u, delta_pack = 50, 1.0, 0.1
    small = harness.hypercube_packing(
        12, delta_pack, kind="full", budget=20000, seed=_shift(703, seed)
    )
    fano = harness.fano_precondition_check(small, n, c_u, delta_pack / (2.0 * np.sqrt(n)))
    out.outputs.append(json.dumps(fano, sort_keys=True, default=lambda v: v.item()))
    out.op("packing fano", fano["ok"], f"log m {fano['log_m']:.4f}")
    out.check("packing fano preconditions", fano["ok"], f"log m {fano['log_m']:.4f}")

    # compatibility: Monte-Carlo ascent stays under the analytic bound
    rng = np.random.default_rng(_shift(1002, seed))
    for name, spec, sub in _compat_pairs(rng):
        res = regularizers.compatibility(spec, sub, draws=COMPAT_DRAWS, rng=rng)
        out.outputs.append(repr((name, res.analytic_bound, res.mc_estimate)))
        ok = 0 < res.mc_estimate <= res.analytic_bound * (1 + COMPAT_SLACK)
        out.op(f"compatibility {name}", ok, f"{res.mc_estimate:.6f}")
        out.check(
            f"compatibility {name} under bound",
            ok,
            f"{res.mc_estimate:.6f} <= {res.analytic_bound}",
        )
    return out


WORKLOADS = {
    "rate_sweep": rate_sweep,
    "cli_pipeline": cli_pipeline,
    "mc_tables": mc_tables,
}
