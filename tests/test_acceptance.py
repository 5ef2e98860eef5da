"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; seeds are fixed so the
whole suite is deterministic.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from tenreg.cli import main as cli_main
from tenreg.datagen import (
    ModelClassSpec,
    VarModel,
    gen_var_model,
    gen_var_series,
    var_spectral_extrema,
)
from tenreg.harness import (
    RateExperimentConfig,
    _cells,
    auto_lambda,
    fano_precondition_check,
    hypercube_packing,
    rate_experiment,
    verify_packing,
)
from tenreg.regularizers import (
    decomposability_margin,
    entry_l1,
    fiber_group,
    matricized_nuclear_sum,
    prox,
    reg_dual,
    reg_eval,
    slice_frob,
    slice_nuclear,
    slicewise_projectors,
    support_entries,
    support_fibers,
    support_slices,
    tucker_projectors,
)
from tenreg.solver import (
    RegressionProblem,
    empirical_norm,
    fista_solve,
    risk_bound_predicted,
)
from tenreg.spectral import gaussian_width_mc, width_rate_expression
from tenreg.tensor import ProjectorTriple


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")


# -------------------------------------------------------------------------
# Criterion 1: closed-form prox correctness
# -------------------------------------------------------------------------


def prox_kkt_residual(spec, x_hat, z, t):
    g = x_hat - z
    r_val = reg_eval(spec, x_hat)
    return max(0.0, reg_dual(spec, g) - t) + abs(float((g * x_hat).sum()) + t * r_val) / (
        1.0 + r_val
    )


def test_criterion_1_prox_correctness():
    start = time.time()
    rng = np.random.default_rng(1001)
    shape = (3, 4, 5)
    specs = [entry_l1(), fiber_group(0), slice_frob((0, 1)), slice_nuclear((0, 1))]
    worst_kkt = 0.0
    worst_gap = -np.inf
    for spec in specs:
        for _ in range(1000):
            z = rng.standard_normal(shape)
            t = float(0.05 + rng.random())
            x_hat = prox(spec, z, t)
            kkt = prox_kkt_residual(spec, x_hat, z, t)
            worst_kkt = max(worst_kkt, kkt)
            base = 0.5 * float(((x_hat - z) ** 2).sum()) + t * reg_eval(spec, x_hat)
            deltas = rng.standard_normal((100,) + shape)
            deltas *= 1e-3 / np.linalg.norm(deltas.reshape(100, -1), axis=1)[
                :, None, None, None
            ]
            cands = x_hat[None] + deltas
            quad = 0.5 * ((cands - z[None]) ** 2).sum(axis=(1, 2, 3))
            if spec.kind == "entry_l1":
                pen = np.abs(cands).sum(axis=(1, 2, 3))
            elif spec.kind == "fiber_group":
                pen = np.sqrt((cands**2).sum(axis=1)).sum(axis=(1, 2))
            elif spec.kind == "slice_frob":
                pen = np.sqrt((cands**2).sum(axis=(1, 2))).sum(axis=1)
            else:
                stack = np.transpose(cands, (0, 3, 1, 2))
                pen = np.linalg.svd(stack, compute_uv=False).sum(axis=(1, 2))
            objs = quad + t * pen
            worst_gap = max(worst_gap, base - float(objs.min()))
    elapsed = time.time() - start
    ok = worst_kkt <= 1e-8 and worst_gap <= 1e-12 and elapsed < 60
    _report(
        "criterion 1 (prox correctness)",
        ok,
        f"worst kkt {worst_kkt:.2e}, worst objective gap {worst_gap:.2e}",
        elapsed,
        60,
    )
    assert worst_kkt <= 1e-8
    assert worst_gap <= 1e-12
    assert elapsed < 60


# -------------------------------------------------------------------------
# Criterion 2: decomposability margins over the matched pairs
# -------------------------------------------------------------------------


def test_criterion_2_decomposability():
    start = time.time()
    rng = np.random.default_rng(1002)
    shape = (4, 4, 5)
    trials = 10000
    worst = {}

    pairs = [
        ("entry_l1", entry_l1(), support_entries(shape, [(0, 1, 2), (2, 0, 0), (3, 3, 4)])),
        ("fiber_group", fiber_group(0), support_fibers(shape, [(0, 0), (2, 3), (1, 4)], mode=0)),
        ("slice_frob", slice_frob((0, 1)), support_slices(shape, [0, 2], axes=(0, 1))),
    ]
    for name, spec, sub in pairs:
        w = np.inf
        for _ in range(trials):
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape)
            w = min(w, decomposability_margin(spec, sub, sub, a, b))
        worst[name] = w

    factors = [
        (
            np.linalg.qr(rng.standard_normal((4, 2)))[0],
            np.linalg.qr(rng.standard_normal((4, 1)))[0],
        )
        for _ in range(5)
    ]
    sub_a = slicewise_projectors(shape, factors, axes=(0, 1), role="a_space")
    sub_b = slicewise_projectors(shape, factors, axes=(0, 1), role="b_space")
    spec = slice_nuclear((0, 1))
    w = np.inf
    for _ in range(trials):
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        w = min(w, decomposability_margin(spec, sub_a, sub_b, a, b))
    worst["slice_nuclear"] = w

    # Tucker-projector pair, exercised through the computable matricized
    # penalty; the complement is sampled from its doubly-orthogonal corner,
    # where per-mode singular values of the two parts concatenate
    triple = ProjectorTriple.random(shape, (2, 2, 2), rng)
    sub_a = tucker_projectors(shape, triple, role="a_space")
    sub_b = tucker_projectors(shape, triple, role="b_space")
    spec = matricized_nuclear_sum()
    w = np.inf
    for _ in range(trials):
        a = triple.apply_pattern(rng.standard_normal(shape), (1, 1, 1))
        b = rng.standard_normal(shape)
        w = min(w, decomposability_margin(spec, sub_a, sub_b, a, b))
    worst["matricized_tucker"] = w

    # matrix pinching surrogate for the half-constant nuclear pair
    w = np.inf
    for _ in range(trials // 10):
        x = rng.standard_normal((6, 5))
        u = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        nuc = lambda m: np.linalg.svd(m, compute_uv=False).sum()
        corner = u @ (u.T @ x @ v) @ v.T
        other = x - u @ (u.T @ x) - (x - u @ (u.T @ x)) @ v @ v.T
        w = min(w, nuc(x) - nuc(corner) - 0.5 * nuc(other))
    worst["nuclear_half_pinching"] = w

    elapsed = time.time() - start
    min_margin = min(worst.values())
    ok = min_margin >= -1e-10 and elapsed < 120
    _report(
        "criterion 2 (decomposability margins)",
        ok,
        "min margins " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
        elapsed,
        120,
    )
    assert min_margin >= -1e-10
    assert elapsed < 120


# -------------------------------------------------------------------------
# Criterion 3: Gaussian width scaling
# -------------------------------------------------------------------------


def test_criterion_3_width_scaling():
    start = time.time()
    cases = [
        ("entry", entry_l1(), [(5, 5, 5), (10, 10, 10), (20, 20, 20)]),
        ("fiber", fiber_group(0), [(10, 10, 10), (40, 10, 10), (160, 10, 10)]),
        ("slice_frob", slice_frob((0, 1)), [(4, 4, 8), (8, 8, 8), (16, 16, 8)]),
        ("slice_nuclear", slice_nuclear((0, 1)), [(4, 4, 8), (8, 8, 8), (16, 16, 8)]),
        ("matricized", matricized_nuclear_sum(), [(5, 5, 5), (10, 10, 10), (20, 20, 20)]),
    ]
    spreads = {}
    for name, spec, shapes in cases:
        ratios = []
        for shape in shapes:
            est = gaussian_width_mc(spec, shape, draws=2000, seed=101)
            ratios.append(est.mean / width_rate_expression(spec, shape))
        spreads[name] = max(ratios) / min(ratios)

    spectral_ok = True
    spectral_vals = []
    from tenreg.regularizers import tensor_spectral

    for d in (4, 6, 8):
        est = gaussian_width_mc(
            tensor_spectral(),
            (d, d, d),
            draws=2000,
            seed=103,
            hopm_restarts=8,
            hopm_iters=80,
        )
        lo = 0.5 * np.sqrt(3 * d)
        hi = 4 * np.log(12) * 3 * np.sqrt(d)
        spectral_vals.append((d, est.mean, lo, hi))
        spectral_ok &= lo <= est.mean <= hi

    elapsed = time.time() - start
    ok = all(s <= 1.5 for s in spreads.values()) and spectral_ok and elapsed < 600
    _report(
        "criterion 3 (width scaling)",
        ok,
        "ratio spreads "
        + ", ".join(f"{k}={v:.3f}" for k, v in spreads.items())
        + "; spectral "
        + ", ".join(f"d={d}:{v:.2f} in [{lo:.2f},{hi:.1f}]" for d, v, lo, hi in spectral_vals),
        elapsed,
        600,
    )
    assert all(s <= 1.5 for s in spreads.values())
    assert spectral_ok
    assert elapsed < 600


# -------------------------------------------------------------------------
# Criterion 4: risk bound satisfaction
# -------------------------------------------------------------------------


def _bound_coverage(model, reg, sub_builder, n, reps, seed):
    """The share of cells whose realized error max(||delta||_F^2,
    ||delta||_n^2) is within the risk bound, and the largest realized/bound
    ratio."""
    lam = auto_lambda(reg, model.shape, [n], 1.0, 2000, 201)[1][0]
    cells = _cells(model, n, 3, 1.0, np.random.SeedSequence(seed), reps, reg, lam, 1500)
    pairs = [(max(c["fro_sq"], c["emp_sq"]), risk_bound_predicted(reg, sub_builder(t), lam))
             for c, t in cells]
    return np.mean([r <= b for r, b in pairs]), max(r / b for r, b in pairs)


def test_criterion_4_risk_bound():
    start = time.time()
    m1 = ModelClassSpec("theta1", (8, 8, 8), s=5)

    def sub1(truth):
        return support_entries(truth.shape, list(zip(*np.nonzero(truth))))

    cov1, ratio1 = _bound_coverage(m1, entry_l1(), sub1, 2048, 200, 202)

    m3 = ModelClassSpec("theta3", (6, 6, 8), s=2, axes=(0, 1))

    def sub3(truth):
        norms = np.sqrt((truth * truth).sum(axis=(0, 1)))
        return support_slices(
            truth.shape, [int(j) for j in np.nonzero(norms)[0]], axes=(0, 1)
        )

    cov3, ratio3 = _bound_coverage(m3, slice_frob((0, 1)), sub3, 2048, 200, 203)

    elapsed = time.time() - start
    ok = cov1 >= 0.95 and cov3 >= 0.95 and elapsed < 1200
    _report(
        "criterion 4 (risk bound coverage)",
        ok,
        f"entry coverage {cov1:.3f}, slice coverage {cov3:.3f} at n=2048, 200 reps; "
        f"largest realized/bound ratio entry {ratio1:.4f}, slice {ratio3:.4f}",
        elapsed,
        1200,
    )
    assert cov1 >= 0.95
    assert cov3 >= 0.95
    assert elapsed < 1200


# -------------------------------------------------------------------------
# Criterion 5: rate slopes
# -------------------------------------------------------------------------


def test_criterion_5_rate_slopes():
    start = time.time()
    configs = {
        "multi_response": RateExperimentConfig(
            model=ModelClassSpec("t1", (50, 4, 4), s=3),
            regularizer=slice_frob((1, 2)),
            n_grid=(500, 1000, 2000, 4000),
            replications=12,
            seed=301,
            rate_tag="s_max_msq_logp_over_n",
            noise_sigma=1.0,
            split=2,
        ),
        "var": RateExperimentConfig(
            model=ModelClassSpec("t3", (20, 3, 20), s=6),
            regularizer=fiber_group(1),
            n_grid=(2000, 4000, 8000, 16000),
            replications=12,
            seed=302,
            rate_tag="s_max_p_2logm_over_n",
            split=2,
        ),
        "pairwise": RateExperimentConfig(
            model=ModelClassSpec("t4", (8, 8, 8), r=1, magnitude=3.0),
            regularizer="pairwise",
            n_grid=(4000, 8000, 16000, 32000),
            replications=12,
            seed=303,
            rate_tag="r_max_dim_over_n",
            noise_sigma=1.0,
            split=3,
        ),
    }
    fits = {}
    for name, cfg in configs.items():
        rep = rate_experiment(cfg)
        fits[name] = (rep["fit"]["slope"], rep["fit"]["r_squared"])
    elapsed = time.time() - start
    ok = (
        all(0.8 <= s <= 1.2 and r2 >= 0.9 for s, r2 in fits.values())
        and elapsed < 3600
    )
    _report(
        "criterion 5 (rate slopes)",
        ok,
        ", ".join(f"{k}: slope={s:.3f} R2={r2:.3f}" for k, (s, r2) in fits.items()),
        elapsed,
        3600,
    )
    for name, (s, r2) in fits.items():
        assert 0.8 <= s <= 1.2, name
        assert r2 >= 0.9, name
    assert elapsed < 3600


# -------------------------------------------------------------------------
# Criterion 6: VAR spectral sandwich
# -------------------------------------------------------------------------


def test_criterion_6_var_sandwich():
    start = time.time()
    closed = var_spectral_extrema(VarModel(coeffs=0.5 * np.eye(3)[None, :, :]))
    closed_ok = (
        abs(closed["mu_min"] - 0.25) <= 1e-6 and abs(closed["mu_max"] - 2.25) <= 1e-6
    )

    model = gen_var_model(3, 2, s=4, seed=601, target_rho=0.6)
    ext = var_spectral_extrema(model)
    problem = gen_var_series(model, 2000, seed=602)
    rng = np.random.default_rng(603)
    sandwich_ok = True
    for _ in range(5):
        delta = rng.standard_normal((3, 2, 3))
        emp2 = empirical_norm(problem, delta) ** 2
        f2 = float((delta * delta).sum())
        sandwich_ok &= emp2 >= f2 / ext["mu_max"] * 0.85
        sandwich_ok &= emp2 <= f2 / ext["mu_min"] * 1.15

    elapsed = time.time() - start
    ok = closed_ok and sandwich_ok and elapsed < 120
    _report(
        "criterion 6 (VAR spectral sandwich)",
        ok,
        f"closed-form extrema ({closed['mu_min']:.6f}, {closed['mu_max']:.6f}), "
        f"MC sandwich within 15% at n=2000",
        elapsed,
        120,
    )
    assert closed_ok
    assert sandwich_ok
    assert elapsed < 120


# -------------------------------------------------------------------------
# Criterion 7: packing verification
# -------------------------------------------------------------------------


def test_criterion_7_packing():
    start = time.time()
    delta = 1.0
    full = hypercube_packing(12, delta, kind="full", budget=100000, seed=701)
    signs = [np.sign(e) for e in full.elements]
    hamming_ok = all(
        (signs[i] != signs[j]).sum() >= 4
        for i in range(len(signs))
        for j in range(i + 1, len(signs))
    )
    window_ok, *_ = verify_packing(full.elements, delta**2 / 4, delta**2)

    sparse = hypercube_packing(20, delta, kind="sparse", budget=20000, seed=702, s=4)
    sparse_ok, *_ = verify_packing(sparse.elements, delta**2 / 8, delta**2)

    # synthetic configuration satisfying the cardinality precondition: a
    # small-delta construction keeps 128 n delta_f^2 = 32 delta_pack^2
    # below log m while the fano window brackets the realized distances
    n, c_u = 50, 1.0
    delta_pack = 0.1
    small = hypercube_packing(12, delta_pack, kind="full", budget=20000, seed=703)
    delta_f = delta_pack / (2.0 * np.sqrt(n))
    fano = fano_precondition_check(small, n, c_u, delta_f)

    elapsed = time.time() - start
    size_ok = len(full.elements) >= 3  # weak constructive cardinality floor
    ok = hamming_ok and window_ok and sparse_ok and fano["ok"] and size_ok and elapsed < 60
    _report(
        "criterion 7 (packing verification)",
        ok,
        f"full size {len(full.elements)} (hamming>=4, window ok={window_ok}, "
        f"log m/d {full.meta['log_size_per_dim']:.3f}), "
        f"sparse size {len(sparse.elements)} ok={sparse_ok}, fano ok={fano['ok']}",
        elapsed,
        60,
    )
    assert hamming_ok and window_ok
    assert sparse_ok
    assert size_ok
    assert fano["ok"]
    assert elapsed < 60


# -------------------------------------------------------------------------
# Criterion 8: solver against a long-run subgradient oracle
# -------------------------------------------------------------------------


def _subgrad_batch(xs, ys, lam, kind, iters):
    """Tail-averaged diminishing-step subgradient method, batched over
    instances; independent of the proximal solver it checks.  The loss
    gradient (X^T X / n) x - X^T y / n comes from (m, d, d) Gram matrices
    formed once."""
    m, n, d = xs.shape
    grams = xs.transpose(0, 2, 1) @ xs / n
    xty = np.einsum("mnd,mn->md", xs, ys) / n
    mus = np.linalg.eigvalsh(grams)[:, :1]
    x = np.zeros((m, d))
    avg = np.zeros((m, d))
    wsum = 0.0
    for k in range(1, iters + 1):
        g = (grams @ x[:, :, None])[:, :, 0] - xty
        if kind == "entry":
            g += lam * np.sign(x)
        else:
            # a zero fiber divides by 1 and stays zero
            blocks = x.reshape(m, 2, 4)
            norms = np.sqrt((blocks * blocks).sum(axis=1, keepdims=True))
            g += lam * (blocks / np.where(norms > 0, norms, 1.0)).reshape(m, d)
        x -= 2.0 / (mus * (k + 1)) * g
        if k > iters // 2:
            avg += k * x
            wsum += k
    return avg / wsum


def test_criterion_8_solver_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(801)
    lam = 0.05
    n = 200
    worst = 0.0
    for kind, spec, count in [
        ("entry", entry_l1(), 12),
        ("fiber", fiber_group(0), 8),
    ]:
        xs = rng.standard_normal((count, n, 8))
        truths = rng.standard_normal((count, 8)) * (rng.random((count, 8)) < 0.5)
        ys = np.einsum("mnd,md->mn", xs, truths) + 0.1 * rng.standard_normal(
            (count, n)
        )
        oracle = _subgrad_batch(xs, ys, lam, kind, 1000000)
        for i in range(count):
            problem = RegressionProblem(
                covariates=xs[i].reshape(n, 2, 2, 2),
                responses=ys[i],
                split=3,
            )
            res = fista_solve(problem, spec, lam, max_iters=5000, kkt_tol=1e-10)
            dist = float(np.linalg.norm(res.estimate.ravel() - oracle[i]))
            worst = max(worst, dist)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 300
    _report(
        "criterion 8 (solver vs subgradient oracle)",
        ok,
        f"worst F-distance {worst:.2e} over 20 instances, 1e6 oracle iterations",
        elapsed,
        300,
    )
    assert worst <= 1e-4
    assert elapsed < 300


# -------------------------------------------------------------------------
# Criterion 9: CLI determinism
# -------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path, capsys):
    start = time.time()

    def run(args):
        code = cli_main(args)
        capsys.readouterr()
        return code

    identical = []

    outs = []
    for name in ("w1.json", "w2.json"):
        path = str(tmp_path / name)
        assert (
            run(
                ["--seed", "901", "--out", path, "width", "--kinds",
                 "entry_l1,slice_frob:0,1", "--shapes", "4x4x4,6x6x6",
                 "--draws", "300"]
            )
            == 0
        )
        outs.append(Path(path).read_bytes())
    identical.append(outs[0] == outs[1])

    cfg = {
        "model": {"kind": "theta1", "shape": [3, 3, 3], "s": 2},
        "regularizer": {"kind": "entry_l1"},
        "n_grid": [50, 100, 200, 400],
        "replications": 10,
        "seed": 902,
        "rate_tag": "s_log_total_over_n",
        "width_draws": 150,
        "noise_sigma": 0.5,
    }
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    outs = []
    for name in ("r1.json", "r2.json"):
        path = str(tmp_path / name)
        assert run(["--out", path, "rate", "--config", cfg_path]) == 0
        outs.append(Path(path).read_bytes())
    identical.append(outs[0] == outs[1])

    outs = []
    for name in ("p1.json", "p2.json"):
        path = str(tmp_path / name)
        assert (
            run(
                ["--seed", "903", "--out", path, "packing", "--kind", "full",
                 "--d", "12", "--delta", "0.5", "--budget", "20000"]
            )
            == 0
        )
        outs.append(Path(path).read_bytes())
    identical.append(outs[0] == outs[1])

    spec = json.dumps({"kind": "theta1", "shape": [3, 3, 3], "s": 2})
    outs = []
    for sub in ("g1", "g2"):
        prob_dir = str(tmp_path / sub)
        assert (
            run(
                ["--seed", "904", "--out", prob_dir, "gen", "--spec", spec,
                 "--n", "60", "--sigma", "0.2"]
            )
            == 0
        )
        with open(f"{prob_dir}/covariates.tns", "rb") as fh:
            cov = fh.read()
        with open(f"{prob_dir}/manifest.json", "rb") as fh:
            man = fh.read()
        outs.append(cov + man)
    identical.append(outs[0] == outs[1])

    elapsed = time.time() - start
    ok = all(identical)
    _report(
        "criterion 9 (CLI determinism)",
        ok,
        f"width/rate/packing/gen replays byte-identical: {identical}",
        elapsed,
        120,
    )
    assert all(identical)
