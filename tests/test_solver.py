import inspect
import json

import numpy as np
import pytest

from tenreg.datagen import ModelClassSpec, gen_problem, gen_sufficient_stats, gen_truth
from tenreg.errors import ValidationError
from tenreg.regularizers import (
    RegularizerSpec,
    entry_l1,
    fiber_group,
    matricized_nuclear_sum,
    prox,
    slice_frob,
    slice_nuclear,
    support_entries,
    tensor_spectral,
)
from tenreg.solver import (
    RegressionProblem,
    SolveResult,
    SufficientStats,
    admm_matricized,
    empirical_norm,
    expand_pairwise,
    fista_pairwise,
    fista_solve,
    kkt_residual,
    lambda_rule,
    load_problem,
    marginal_features,
    objective,
    risk_bound_predicted,
    save_problem,
    solve,
)
from tenreg.regularizers import _max_top_sv
from tenreg.solver import (
    _certificate,
    _least_squares,
    _LeastSquares,
    _operator,
    _pairwise_map,
)
from tenreg.spectral import gaussian_width_mc, matrix_svt
from tenreg.tensor import dematricize, matricize

PAIRWISE = RegularizerSpec("pairwise_component_nuclear")
# the default certificate tolerance of FISTA and residual tolerance of ADMM
KKT_TOL = inspect.signature(fista_solve).parameters["kkt_tol"].default
ADMM_TOL = inspect.signature(admm_matricized).parameters["tol"].default

rng = np.random.default_rng(23)


def scalar_problem(n, shape, sigma, seed, truth=None):
    r = np.random.default_rng(seed)
    if truth is None:
        truth = r.standard_normal(shape)
    x = r.standard_normal((n,) + shape)
    y = x.reshape(n, -1) @ truth.ravel() + sigma * r.standard_normal(n)
    return RegressionProblem(
        covariates=x, responses=y, split=3, noise_sigma=sigma, truth=truth
    )


class TestProblemValidation:
    def test_nan_response_rejected(self):
        r = np.random.default_rng(40)
        y = r.standard_normal(10)
        y[3] = np.nan
        with pytest.raises(ValueError):
            RegressionProblem(r.standard_normal((10, 2, 2, 2)), y, split=3)

    def test_inf_covariate_rejected(self):
        r = np.random.default_rng(41)
        x = r.standard_normal((10, 2, 2, 2))
        x[4, 1, 0, 1] = -np.inf
        with pytest.raises(ValueError):
            RegressionProblem(x, r.standard_normal(10), split=3)

    def test_nan_truth_rejected(self):
        r = np.random.default_rng(42)
        truth = np.zeros((2, 2, 2))
        truth[0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            RegressionProblem(
                r.standard_normal((10, 2, 2, 2)),
                r.standard_normal(10),
                split=3,
                truth=truth,
            )

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf, True, None, "abc"])
    def test_noise_scale_that_is_not_a_finite_number_rejected(self, sigma):
        r = np.random.default_rng(43)
        with pytest.raises(ValueError, match="noise_sigma must be a finite number >= 0"):
            RegressionProblem(r.standard_normal((10, 2, 2, 2)), r.standard_normal(10),
                              split=3, noise_sigma=sigma)

    @pytest.mark.parametrize(
        "cov_shape, resp_shape", [((0, 3, 3), ()), ((3, 3), (0,)), ((3, 0), (2,))]
    )
    def test_empty_axis_rejected(self, cov_shape, resp_shape):
        with pytest.raises(ValidationError, match="non-empty axes"):
            RegressionProblem(
                np.zeros((5,) + cov_shape),
                np.zeros((5,) + resp_shape),
                split=len(cov_shape),
            )


class TestObjective:
    def test_zero_noise_truth_interpolates(self):
        p = scalar_problem(20, (2, 2, 2), 0.0, 0)
        assert objective(p, entry_l1(), 0.0, p.truth) == pytest.approx(0.0, abs=1e-20)

    def test_zero_estimate(self):
        p = scalar_problem(15, (2, 2, 2), 0.5, 1)
        expected = 0.5 * float((p.responses**2).sum()) / p.n
        assert objective(p, entry_l1(), 0.0, np.zeros((2, 2, 2))) == pytest.approx(
            expected
        )

    def test_matches_naive_loop(self):
        p = scalar_problem(7, (2, 3, 2), 0.3, 2)
        a = rng.standard_normal((2, 3, 2))
        lam = 0.37
        total = 0.0
        for i in range(p.n):
            pred = 0.0
            for idx in np.ndindex(p.truth_shape):
                pred += p.covariates[i][idx] * a[idx]
            total += (p.responses[i] - pred) ** 2
        naive = 0.5 * total / p.n + lam * float(np.abs(a).sum())
        assert objective(p, entry_l1(), lam, a) == pytest.approx(naive, rel=1e-12)


class TestEmpiricalNorm:
    def test_zero(self):
        p = scalar_problem(5, (2, 2, 2), 0.0, 3)
        assert empirical_norm(p, np.zeros((2, 2, 2))) == 0.0

    def test_single_indicator_design(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 1, 0, 1] = 1.0
        p = RegressionProblem(covariates=x, responses=np.zeros(1), split=3)
        delta = rng.standard_normal((2, 2, 2))
        assert empirical_norm(p, delta) == pytest.approx(abs(delta[1, 0, 1]))

    def test_isotropic_concentration(self):
        delta = rng.standard_normal((3, 4, 5))
        p = scalar_problem(2000, (3, 4, 5), 0.0, 4)
        ratio = empirical_norm(p, delta) ** 2 / float((delta * delta).sum())
        assert abs(ratio - 1.0) < 0.05


class TestLambdaRule:
    def test_reference_point(self):
        assert lambda_rule(1.0, 64, c_u=1.0, c_reg=1.0) == pytest.approx(1.0)

    def test_half_constant_scales_by_seven_fourths(self):
        lam1 = lambda_rule(1.0, 64, c_reg=1.0)
        lam2 = lambda_rule(1.0, 64, c_reg=0.5)
        assert lam2 / lam1 == pytest.approx(1.75)

    def test_root_n_scaling(self):
        assert lambda_rule(1.0, 400) == pytest.approx(0.5 * lambda_rule(1.0, 100))

    def test_a_numpy_width_is_a_number(self):
        assert lambda_rule(np.float64(2.0), 100) == lambda_rule(2.0, 100) == pytest.approx(1.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_rule(1.0, 0)


class TestRiskBound:
    def test_reference_arithmetic(self):
        sub = support_entries((2, 2, 2), [(0, 0, 0)])
        val = risk_bound_predicted(entry_l1(), sub, 1.0)
        assert val == pytest.approx(27.0)

    def test_lambda_quadratic(self):
        sub = support_entries((2, 2, 2), [(0, 0, 0)])
        assert risk_bound_predicted(entry_l1(), sub, 2.0) == pytest.approx(
            4 * risk_bound_predicted(entry_l1(), sub, 1.0)
        )

    def test_half_constant_prefactor(self):
        # prefactor 6(1+c)/(3+c): 18/7 at c = 1/2 against 3 at c = 1
        from tenreg.regularizers import tucker_projectors
        from tenreg.tensor import ProjectorTriple

        triple = ProjectorTriple.random((3, 3, 3), (1, 1, 1), rng)
        sub = tucker_projectors((3, 3, 3), triple, role="b_space")
        val = risk_bound_predicted(tensor_spectral(), sub, 1.0)
        assert val == pytest.approx((18.0 / 7.0) * 9.0 * 1.0)


class TestKkt:
    def test_one_dimensional_lasso_closed_form(self):
        n = 50
        r = np.random.default_rng(5)
        x = r.standard_normal((n, 1, 1, 1))
        y = 0.8 * x[:, 0, 0, 0] + 0.1 * r.standard_normal(n)
        p = RegressionProblem(covariates=x, responses=y, split=3)
        lam = 0.15
        s = float((x**2).sum()) / n
        c = float((x[:, 0, 0, 0] * y).sum()) / n
        a_star = np.sign(c) * max(abs(c) - lam, 0.0) / s
        est = np.full((1, 1, 1), a_star)
        assert kkt_residual(p, entry_l1(), lam, est) < 1e-12

    def test_zero_under_large_lambda(self):
        p = scalar_problem(30, (2, 2, 2), 0.2, 6)
        x2, y2 = p.design_matrices()
        grad0 = (x2.T @ (-y2) / p.n).reshape(p.truth_shape)
        lam = float(np.abs(grad0).max()) * 1.01
        assert kkt_residual(p, entry_l1(), lam, np.zeros(p.truth_shape)) == 0.0

    def test_positive_off_optimum(self):
        p = scalar_problem(30, (2, 2, 2), 0.2, 7)
        a = rng.standard_normal((2, 2, 2))
        assert kkt_residual(p, entry_l1(), 0.1, a) > 1e-4


class TestFista:
    def test_unregularized_reaches_least_squares(self):
        p = scalar_problem(100, (2, 2, 2), 0.1, 8)
        res = fista_solve(p, entry_l1(), 0.0, kkt_tol=2e-9)
        x2, y2 = p.design_matrices()
        grad = x2.T @ (x2 @ res.estimate.reshape(-1, 1) - y2) / p.n
        assert np.linalg.norm(grad) < 1e-8
        assert res.status == "Converged"

    def test_null_solution_threshold(self):
        p = scalar_problem(40, (2, 2, 2), 0.5, 9)
        x2, y2 = p.design_matrices()
        grad0 = (x2.T @ (-y2) / p.n).reshape(p.truth_shape)
        lam = float(np.abs(grad0).max()) * 1.05
        res = fista_solve(p, entry_l1(), lam)
        np.testing.assert_array_equal(res.estimate, np.zeros(p.truth_shape))
        assert res.status == "Converged"

    def test_objective_trace_nonincreasing(self):
        p = scalar_problem(60, (2, 3, 2), 0.3, 10)
        res = fista_solve(p, entry_l1(), 0.05)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[-1] <= objective(p, entry_l1(), 0.05, np.zeros(p.truth_shape))
        assert trace[-1] <= objective(p, entry_l1(), 0.05, p.truth) + 1e-12

    def test_beats_random_perturbations(self):
        p = scalar_problem(30, (2, 2, 2), 0.2, 11)
        lam = 0.1
        res = fista_solve(p, entry_l1(), lam)
        base = objective(p, entry_l1(), lam, res.estimate)
        x2, y2 = p.design_matrices()
        est2 = res.estimate.reshape(-1, 1)
        r = np.random.default_rng(12)
        for scale in (1e-4, 1e-2, 1.0):
            deltas = r.standard_normal((20000, 8)) * scale
            cands = est2.T + deltas
            resid = cands @ x2.T - y2.T
            objs = 0.5 * (resid**2).sum(axis=1) / p.n + lam * np.abs(cands).sum(
                axis=1
            )
            assert base <= objs.min() + 1e-12

    def test_multi_response_and_group_penalty(self):
        r = np.random.default_rng(13)
        truth = np.zeros((6, 3, 4))
        truth[:2, 1, :] = 1.0
        x = r.standard_normal((500, 6, 3))
        y = np.einsum("nij,ijk->nk", x, truth) + 0.1 * r.standard_normal((500, 4))
        p = RegressionProblem(covariates=x, responses=y, split=2, truth=truth)
        res = fista_solve(p, fiber_group(2), 0.05)
        assert res.status == "Converged"
        err = float(((res.estimate - truth) ** 2).sum())
        assert err < 0.1 * float((truth**2).sum())

    def test_kkt_certificate_at_solution(self):
        p = scalar_problem(80, (2, 2, 2), 0.3, 14)
        res = fista_solve(p, entry_l1(), 0.08)
        assert res.kkt_residual < 1e-7

    @pytest.mark.parametrize("n", [20, 60])  # data space, compressed
    def test_loss_runs_once_per_step_start_and_per_trial(self, monkeypatch, n):
        # every step start is one fused loss and gradient evaluation, with no
        # separate loss or gradient at its point, the first one's loss also
        # being the starting objective, and every loss evaluation follows a
        # prox (a backtracking trial): the accepted trial's loss is kept, not
        # redone
        events = []

        def logged(name, fn):
            return lambda *args: events.append((name, args[-1])) or fn(*args)

        for name in ("loss", "grad", "loss_grad"):
            monkeypatch.setattr(_LeastSquares, name, logged(name, getattr(_LeastSquares, name)))
        monkeypatch.setattr("tenreg.solver.prox", logged("prox", prox))
        # a low first Lipschitz estimate makes the first step backtrack
        lipschitz = _LeastSquares.lipschitz
        monkeypatch.setattr(_LeastSquares, "lipschitz", lambda op: lipschitz(op) / 8)
        p = scalar_problem(n, (3, 3, 3), 0.3, 15)
        res = fista_solve(p, entry_l1(), 0.05)
        names = [name for name, _ in events]
        # the first step's start gives the objective at the start too
        assert names[:2] == ["loss_grad", "prox"]
        for (prev, at_prev), (name, at) in zip(events, events[1:]):
            if name == "loss":
                assert prev == "prox"
            if name == "loss_grad":
                assert not (prev in ("loss", "grad") and at is at_prev)
            if prev == "loss_grad":
                assert name == "prox"
        starts = names.count("loss_grad")
        assert names.count("loss") == names.count("prox")
        # the run both backtracked and restarted, so the count covers each
        # way a step can end
        assert names.count("prox") > starts > res.iterations


def make_low_tucker_problem(n, sigma, seed, magnitude=10.0):
    spec = ModelClassSpec("theta5", (6, 6, 6), r=1, magnitude=magnitude)
    truth = gen_truth(spec, seed)
    return gen_problem(truth, n, 3, sigma, seed=seed + 1)


class TestAdmm:
    def test_matches_fista_at_zero_lambda(self):
        p = scalar_problem(100, (3, 3, 3), 0.2, 15)
        res_a = admm_matricized(p, 0.0, max_iters=3000)
        res_f = fista_solve(p, entry_l1(), 0.0)
        assert np.linalg.norm(res_a.estimate - res_f.estimate) < 1e-5

    def test_large_lambda_zeroes(self):
        p = scalar_problem(50, (3, 3, 3), 0.3, 16)
        x2, y2 = p.design_matrices()
        grad0 = (x2.T @ (-y2) / p.n).reshape(p.truth_shape)
        spec = matricized_nuclear_sum()
        from tenreg.regularizers import reg_dual

        lam = reg_dual(spec, grad0) * 1.1
        res = admm_matricized(p, lam)
        assert float(np.abs(res.estimate).max()) < 1e-6

    def test_low_rank_recovery(self):
        p = make_low_tucker_problem(300, 0.1, 17)
        width = gaussian_width_mc(matricized_nuclear_sum(), (6, 6, 6), 500, seed=0)
        lam = 0.1 * lambda_rule(width, 300)  # noise scale multiplies the rule
        res = admm_matricized(p, lam)
        err = float(((res.estimate - p.truth) ** 2).sum())
        assert err < 0.5 * float((p.truth**2).sum())

    def test_agrees_with_fista_on_trivial_modes(self):
        # with two singleton modes every unfolding has the same nuclear
        # norm, equal to the Frobenius norm, so the averaged matricized
        # penalty coincides with a one-group slice-Frobenius penalty
        r = np.random.default_rng(29)
        truth = r.standard_normal((6, 1, 1))
        x = r.standard_normal((80, 6, 1, 1))
        y = x.reshape(80, -1) @ truth.ravel() + 0.1 * r.standard_normal(80)
        p = RegressionProblem(covariates=x, responses=y, split=3, truth=truth)
        lam = 0.3
        res_a = admm_matricized(p, lam, max_iters=5000, tol=1e-8)
        res_f = fista_solve(p, slice_frob((0, 1)), lam, max_iters=5000, kkt_tol=1e-10)
        assert np.linalg.norm(res_a.estimate - res_f.estimate) < 1e-5


def _ref_admm_matricized(problem, lam, max_iters, tol):
    """Consensus ADMM with a Cholesky factor of the data-space ridge system,
    refactored on every change of rho.  Returns the result and the number
    of rho changes."""
    spec = matricized_nuclear_sum()
    x2, y2 = problem.design_matrices()
    n = problem.n
    shape = problem.truth_shape
    dim_cov, dim_resp = x2.shape[1], y2.shape[1]
    gram = x2.T @ x2 / n
    rhs0 = x2.T @ y2 / n
    rho = 1.0

    def factorize(r):
        return np.linalg.cholesky(gram + 3.0 * r * np.eye(dim_cov))

    def chol_solve(lo, b):
        return np.linalg.solve(lo.T, np.linalg.solve(lo, b))

    low = factorize(rho)
    a = np.zeros(shape)
    zs = [np.zeros(shape) for _ in range(3)]
    us = [np.zeros(shape) for _ in range(3)]
    trace = [objective(problem, spec, lam, a)]
    status = "MaxIters"
    iters_done = 0
    rebalances = 0
    for it in range(1, max_iters + 1):
        iters_done = it
        rhs = rhs0 + rho * sum(z - u for z, u in zip(zs, us)).reshape(
            dim_cov, dim_resp
        )
        a = chol_solve(low, rhs).reshape(shape)
        primal_sq = 0.0
        dual_sq = 0.0
        for k in range(3):
            target = a + us[k]
            znew = dematricize(
                matrix_svt(matricize(target, [k]), lam / (3.0 * rho)), shape, [k]
            )
            dual_sq += float(((znew - zs[k]) ** 2).sum())
            zs[k] = znew
            us[k] = us[k] + a - znew
            primal_sq += float(((a - znew) ** 2).sum())
        r_norm = np.sqrt(primal_sq)
        s_norm = rho * np.sqrt(dual_sq)
        trace.append(objective(problem, spec, lam, a))
        if not np.isfinite(r_norm) or trace[-1] > 1e3 * max(trace[0], 1e-12):
            status = "Diverged"
            break
        if r_norm < tol and s_norm < tol:
            status = "Converged"
            break
        if r_norm > 10.0 * s_norm:
            rho *= 2.0
            us = [u / 2.0 for u in us]
            low = factorize(rho)
            rebalances += 1
        elif s_norm > 10.0 * r_norm:
            rho /= 2.0
            us = [u * 2.0 for u in us]
            low = factorize(rho)
            rebalances += 1
    result = SolveResult(
        estimate=a,
        objective_trace=trace,
        kkt_residual=float(kkt_residual(problem, spec, lam, a)),
        iterations=iters_done,
        lam=float(lam),
        status=status,
    )
    return result, rebalances


def theta5_problem(d, n, seed):
    truth = gen_truth(ModelClassSpec("theta5", (d, d, d), r=2), seed)
    return gen_problem(truth, n, 3, 1.0, seed=seed)


class TestAdmmSpectralSolve:
    """ADMM's x-update runs on one thin SVD of the least-squares operator's
    design; it must follow the Cholesky reference step for step."""

    @pytest.mark.parametrize(
        "d, n, lam, seed, max_iters",
        [
            (8, 384, 0.2, 904, 2000),  # data space, n < d
            (6, 300, 0.2, 905, 2000),  # compressed, n > d
            (6, 300, 0.05, 906, 2000),  # compressed, rho changed twice
            (4, 30, 0.1, 907, 12),  # data space, stops at MaxIters
        ],
    )
    def test_matches_cholesky_reference(self, d, n, lam, seed, max_iters):
        p = theta5_problem(d, n, seed)
        res = admm_matricized(p, lam, max_iters)
        ref, rebalances = _ref_admm_matricized(p, lam, max_iters, ADMM_TOL)
        assert (res.status, res.iterations) == (ref.status, ref.iterations)
        np.testing.assert_allclose(res.estimate, ref.estimate, rtol=1e-10, atol=0)
        np.testing.assert_allclose(
            res.objective_trace, ref.objective_trace, rtol=1e-12, atol=0
        )
        assert res.kkt_residual == pytest.approx(ref.kkt_residual, rel=1e-8)
        # every case changes rho, so one factorization serves several shifts
        assert rebalances >= 1


class TestShiftedSolve:
    """``shifted_solve(b, c)`` is ``(M^T M / n + c I)^{-1} b`` on the data."""

    @pytest.mark.parametrize(
        "case", ["data_space", "rank_deficient", "compressed", "pairwise"]
    )
    @pytest.mark.parametrize("c", [1e-3, 0.3, 3.0, 96.0])
    def test_matches_dense_solve(self, case, c):
        if case == "data_space":
            x2, y = scalar_problem(40, (4, 4, 4), 0.3, 43).design_matrices()
        elif case == "rank_deficient":  # repeated rows: M M^T is singular
            x2, y = scalar_problem(20, (4, 4, 4), 0.3, 47).design_matrices()
            x2, y = np.vstack([x2, x2[:12]]), np.vstack([y, y[:12]])
        elif case == "compressed":
            x2, y = full_rank_problem().design_matrices()
        else:
            x2, y = pairwise_design(pairwise_problem())
        n, dim = x2.shape
        op = _least_squares(x2, y, n)
        if case in ("data_space", "rank_deficient"):
            assert n < dim and op.design is x2
        elif case == "compressed":
            assert op.design.shape == (dim, dim) and dim < n
        else:
            assert op.design.shape == (91, 108)
        b = np.random.default_rng(44).standard_normal((dim, 3))
        want = np.linalg.solve(x2.T @ x2 / n + c * np.eye(dim), b)
        for got, ref in [
            (op.shifted_solve(b, c), want),
            (op.shifted_solve(b[:, 0], c), want[:, 0]),
        ]:
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_factors_are_taken_once(self, monkeypatch):
        x2, y = scalar_problem(20, (3, 3, 3), 0.3, 45).design_matrices()
        op = _least_squares(x2, y, 20)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k)
        )
        monkeypatch.setattr(
            np.linalg, "svd", lambda *a, **k: pytest.fail("np.linalg.svd called")
        )
        b = np.ones((27, 1))
        for c in (0.5, 1.0, 2.0):
            op.shifted_solve(b, c)
        assert len(calls) == 1


class TestMaxItersValidation:
    @pytest.mark.parametrize("max_iters", [0, -5, 2.0, True])
    @pytest.mark.parametrize("solver", ["fista", "pairwise", "admm"])
    def test_a_cap_that_runs_nothing_is_refused(self, solver, max_iters):
        p = scalar_problem(30, (3, 3, 3), 0.3, 46)
        run = {
            "fista": lambda: fista_solve(p, entry_l1(), 0.1, max_iters),
            "pairwise": lambda: fista_solve(p, PAIRWISE, 0.1, max_iters=max_iters),
            "admm": lambda: admm_matricized(p, 0.1, max_iters),
        }[solver]
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            run()


def test_a_stall_before_the_cap_is_stalled_not_max_iters():
    # at kkt_tol 0 no certificate passes, so a solve that stops before its
    # cap stopped on five steps of no objective change, not on the cap
    p = scalar_problem(40, (2, 2, 2), 0.3, 1)
    res = fista_solve(p, entry_l1(), 0.05, max_iters=5000, kkt_tol=0)
    assert res.iterations < 5000
    assert res.status == "Stalled"


class TestLambdaValidation:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("solver", ["fista", "pairwise", "admm"])
    def test_rejected_before_solving(self, solver, lam):
        p = scalar_problem(30, (3, 3, 3), 0.3, 46)
        run = {
            "fista": lambda: fista_solve(p, entry_l1(), lam),
            "pairwise": lambda: fista_solve(p, PAIRWISE, lam),
            "admm": lambda: admm_matricized(p, lam),
        }[solver]
        with pytest.raises(ValueError, match="lam must be a finite number >= 0"):
            run()


class TestPairwise:
    def test_expand_matches_loop(self):
        comps = (
            rng.standard_normal((3, 4)),
            rng.standard_normal((3, 5)),
            rng.standard_normal((4, 5)),
        )
        t = expand_pairwise(comps, (3, 4, 5))
        for idx in [(0, 0, 0), (2, 3, 4), (1, 2, 3)]:
            j1, j2, j3 = idx
            assert t[idx] == pytest.approx(
                comps[0][j1, j2] + comps[1][j1, j3] + comps[2][j2, j3]
            )

    def test_marginal_features(self):
        x = rng.standard_normal((4, 2, 3, 2))
        f12, f13, f23 = marginal_features(x)
        np.testing.assert_allclose(f12, x.sum(axis=3))
        np.testing.assert_allclose(f23, x.sum(axis=1))

    def test_recovery(self):
        spec = ModelClassSpec("t4", (6, 6, 6), r=1, magnitude=3.0)
        truth = gen_truth(spec, 3)
        p = gen_problem(truth, 3000, 3, 0.5, seed=4)
        res = fista_solve(p, PAIRWISE, 0.05)
        assert res.status == "Converged"
        err = float(((res.estimate - truth) ** 2).sum())
        assert err < 0.2 * float((truth**2).sum())
        assert res.components is not None and len(res.components) == 3

    def test_fista_pairwise_is_fista_solve_on_the_pairwise_penalty(self):
        spec = ModelClassSpec("t4", (4, 4, 4), r=1, magnitude=3.0)
        p = gen_problem(gen_truth(spec, 7), 300, 3, 0.5, seed=8)
        got, want = fista_pairwise(p, 0.05, max_iters=300), fista_solve(p, PAIRWISE, 0.05, 300)
        assert_same_result(got, want)
        for a, b in zip(got.components, want.components, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_objective_trace_nonincreasing(self):
        spec = ModelClassSpec("t4", (4, 4, 4), r=1, magnitude=3.0)
        p = gen_problem(gen_truth(spec, 5), 300, 3, 0.5, seed=6)
        res = fista_solve(p, PAIRWISE, 0.05)
        assert np.all(np.diff(res.objective_trace) <= 1e-12)


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.estimate, b.estimate)
    assert a.objective_trace == b.objective_trace
    assert a.kkt_residual == b.kkt_residual
    assert (a.iterations, a.status) == (b.iterations, b.status)


class TestSolveDispatch:
    def test_prox_penalty_uses_fista(self):
        p = scalar_problem(60, (3, 3, 3), 0.3, 31)
        assert_same_result(
            solve(p, fiber_group(1), 0.05), fista_solve(p, fiber_group(1), 0.05)
        )

    def test_matricized_uses_admm(self):
        p = scalar_problem(80, (3, 3, 3), 0.3, 32)
        assert_same_result(
            solve(p, matricized_nuclear_sum(), 0.1, max_iters=200),
            admm_matricized(p, 0.1, max_iters=200),
        )

    def test_pairwise_uses_block_fista(self):
        spec = ModelClassSpec("t4", (4, 4, 4), r=1, magnitude=3.0)
        p = gen_problem(gen_truth(spec, 7), 300, 3, 0.5, seed=8)
        res = solve(p, PAIRWISE, 0.05, max_iters=300)
        direct = fista_solve(p, PAIRWISE, 0.05, max_iters=300)
        assert_same_result(res, direct)
        assert res.components is not None and len(res.components) == 3
        for got, want in zip(res.components, direct.components):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lam", [0.05, 0.0])
    @pytest.mark.parametrize("form", ["data_space", "compressed", "stats"])
    def test_pairwise_front_ends_agree(self, form, lam):
        # 40 samples are below the 48 block columns of a 4x4x4 model, 300
        # above them; the statistics are those of the 300
        spec = ModelClassSpec("t4", (4, 4, 4), r=1, magnitude=3.0)
        n = 40 if form == "data_space" else 300
        p = gen_problem(gen_truth(spec, 7), n, 3, 0.5, seed=8)
        if form == "stats":
            p = stats_of(p)
        got = fista_solve(p, PAIRWISE, lam)
        other = solve(p, PAIRWISE, lam)
        assert_same_result(other, got)
        for a, b in zip(other.components, got.components, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_max_iters_passed_through(self):
        p = scalar_problem(60, (3, 3, 3), 0.3, 33)
        assert solve(p, entry_l1(), 0.05, max_iters=3).iterations <= 3

    def test_tensor_spectral_has_no_solver(self):
        p = scalar_problem(30, (2, 2, 2), 0.3, 34)
        with pytest.raises(ValidationError, match="no solver for it"):
            solve(p, tensor_spectral(), 0.1)

    def test_tensor_spectral_refused_at_zero_lambda(self, monkeypatch):
        # the certificate needs the penalty's value, which the tensor-spectral
        # kind does not have, so the solve is refused before any iteration
        import tenreg.solver

        monkeypatch.setattr(tenreg.solver, "_apg", pytest.fail)
        p = scalar_problem(30, (2, 2, 2), 0.3, 34)
        with pytest.raises(ValidationError, match="no solver for it"):
            fista_solve(p, tensor_spectral(), 0.0)

    def test_refusal_messages_name_what_can_be_done(self):
        # the tensor-spectral kind has no solver at all; the matricized
        # nuclear norm has ADMM
        p = scalar_problem(30, (2, 2, 2), 0.3, 34)
        with pytest.raises(ValidationError, match="no solver for it") as err:
            fista_solve(p, tensor_spectral(), 0.1)
        assert "ADMM" not in str(err.value)
        with pytest.raises(ValidationError, match="use ADMM"):
            fista_solve(p, matricized_nuclear_sum(), 0.1)


def pairwise_design(p):
    f12, f13, f23 = marginal_features(p.covariates)
    phi = np.hstack([f.reshape(p.n, -1) for f in (f12, f13, f23)])
    return phi, p.responses.reshape(p.n)


def pairwise_data_certificate(p, res):
    # the block solver's certificate, on the data-space gradient
    phi, y = pairwise_design(p)
    vec = np.concatenate([c.ravel() for c in res.components])
    gv = phi.T @ (phi @ vec - y) / p.n
    blocks = np.split(gv, np.cumsum([c.size for c in res.components])[:-1])
    dual = max(
        np.linalg.norm(b.reshape(c.shape), 2) for b, c in zip(blocks, res.components)
    )
    r_val = sum(np.linalg.norm(c, "nuc") for c in res.components)
    return max(0.0, dual - res.lam) + abs(float(gv @ vec) + res.lam * r_val) / (
        1.0 + r_val
    )


class TestOneCertificate:
    """Each solver's returned certificate equals an independent evaluation
    on the data (n at most the parameter dimension)."""

    @pytest.mark.parametrize(
        "spec, lam",
        [
            (entry_l1(), 0.1),
            (fiber_group(1), 0.2),
            (slice_frob((0, 2)), 0.2),
            (slice_nuclear((0, 1)), 0.2),
            (entry_l1(), 0.0),
        ],
    )
    def test_fista(self, spec, lam):
        p = scalar_problem(40, (4, 4, 4), 0.3, 47)
        res = fista_solve(p, spec, lam)
        assert res.kkt_residual == kkt_residual(p, spec, lam, res.estimate)

    @pytest.mark.parametrize("max_iters", [30, 40])
    def test_fista_stopped_between_checks(self, max_iters):
        # neither is a multiple of the 25-iteration check interval, so the
        # last check saw an earlier iterate than the one returned
        p = scalar_problem(40, (4, 4, 4), 0.3, 47)
        res = fista_solve(p, entry_l1(), 0.1, max_iters=max_iters)
        assert (res.status, res.iterations) == ("MaxIters", max_iters)
        assert res.kkt_residual == kkt_residual(p, entry_l1(), 0.1, res.estimate)

    @pytest.mark.parametrize("lam, max_iters", [(0.2, 2000), (0.05, 7)])
    def test_admm(self, lam, max_iters):
        p = theta5_problem(4, 40, 48)
        res = admm_matricized(p, lam, max_iters=max_iters)
        spec = matricized_nuclear_sum()
        assert res.kkt_residual == kkt_residual(p, spec, lam, res.estimate)

    @pytest.mark.parametrize("lam", [0.05, 0.5])
    def test_pairwise(self, lam):
        spec = ModelClassSpec("t4", (4, 4, 4), r=1, magnitude=3.0)
        p = gen_problem(gen_truth(spec, 49), 40, 3, 0.5, seed=50)
        res = fista_solve(p, PAIRWISE, lam)
        assert res.status == "Converged"
        assert abs(res.kkt_residual - pairwise_data_certificate(p, res)) <= 1e-13

    @pytest.mark.parametrize("n, max_iters", [(40, 3), (300, 3), (40, 2000)])
    def test_pairwise_dual_is_the_pruned_top_singular_value(self, n, max_iters):
        # the block solver takes its blocks' top singular values directly;
        # the pruned stack computation of the dual gives the same certificate,
        # also three steps in, where the dual still exceeds lam
        spec = ModelClassSpec("t4", (4, 4, 4), r=1, magnitude=3.0)
        p = gen_problem(gen_truth(spec, 49), n, 3, 0.5, seed=50)
        res = fista_solve(p, PAIRWISE, 0.05, max_iters=max_iters)
        vec = np.concatenate([c.ravel() for c in res.components])
        cuts = np.cumsum([c.size for c in res.components])[:-1]

        def blocks(v):
            return [b.reshape(c.shape) for b, c in zip(np.split(v, cuts), res.components)]

        def dual(g):
            return _max_top_sv([b[None, None] for b in blocks(g)])[0]

        def penalty(v):
            return sum(np.linalg.svd(b, compute_uv=False).sum() for b in blocks(v))

        op = _least_squares(*pairwise_design(p), p.n)
        assert res.kkt_residual == _certificate(op, 0.05, vec, dual, penalty)


def full_rank_problem():
    r = np.random.default_rng(35)
    truth = np.zeros((6, 3, 4))
    truth[:2, 1, :] = 1.0
    x = r.standard_normal((400, 6, 3))
    y = np.einsum("nij,ijk->nk", x, truth) + 0.5 * r.standard_normal((400, 4))
    return RegressionProblem(covariates=x, responses=y, split=2, truth=truth)


def pairwise_problem():
    spec = ModelClassSpec("t4", (6, 6, 6), r=1, magnitude=3.0)
    return gen_problem(gen_truth(spec, 36), 1000, 3, 1.0, seed=37)


class TestCompressedLoss:
    """With n above the parameter dimension the loss is compressed to
    parameter space; it must match the data-space loss."""

    @pytest.mark.parametrize("case", ["full_rank", "pairwise"])
    def test_loss_and_gradient_match_data_space(self, case):
        if case == "full_rank":
            x2, y = full_rank_problem().design_matrices()
            a = np.random.default_rng(38).standard_normal((x2.shape[1], y.shape[1]))
        else:
            x2, y = pairwise_design(pairwise_problem())
            a = np.random.default_rng(38).standard_normal(x2.shape[1])
        n = x2.shape[0]
        comp = _least_squares(x2, y, n)
        assert comp.design.shape[0] <= x2.shape[1] < n
        resid = x2 @ a - y
        want = 0.5 * float((resid * resid).sum()) / n
        assert abs(comp.loss(a) + comp.offset - want) <= 1e-10 * want
        g_data, g_comp = x2.T @ resid / n, comp.grad(a)
        assert np.linalg.norm(g_comp - g_data) <= 1e-10 * np.linalg.norm(g_data)

    def test_pairwise_features_are_rank_deficient(self):
        phi, y = pairwise_design(pairwise_problem())
        # each component's row and column sums share the per-axis totals
        assert _least_squares(phi, y, phi.shape[0]).design.shape[0] == 108 - 17

    def test_full_rank_solve(self):
        p = full_rank_problem()
        spec, lam = fiber_group(2), 0.05
        res = fista_solve(p, spec, lam)
        assert res.status == "Converged"
        zero = objective(p, spec, lam, np.zeros(p.truth_shape))
        assert res.objective_trace[0] == pytest.approx(zero, rel=1e-12)
        assert np.all(np.diff(res.objective_trace) <= 0.0)
        assert kkt_residual(p, spec, lam, res.estimate) < KKT_TOL

    def test_pairwise_solve(self):
        p = pairwise_problem()
        res = fista_solve(p, PAIRWISE, 0.05)
        assert res.status == "Converged"
        zero = objective(p, entry_l1(), 0.0, np.zeros(p.truth_shape))
        assert res.objective_trace[0] == pytest.approx(zero, rel=1e-12)
        assert np.all(np.diff(res.objective_trace) <= 0.0)
        assert pairwise_data_certificate(p, res) < KKT_TOL


def stats_of(p):
    """The sufficient statistics of a data problem."""
    x2, y2 = p.design_matrices()
    return SufficientStats(
        gram=x2.T @ x2,
        xty=(x2.T @ y2).reshape(p.truth_shape),
        yty=float((y2 * y2).sum()),
        n=p.n,
        split=p.split,
        truth=p.truth,
    )


class TestSufficientStats:
    """A problem given by (X^T X, X^T Y, ||Y||^2, n) solves as its data do."""

    @pytest.mark.parametrize("case", ["full_rank", "pairwise"])
    def test_operator_matches_the_data(self, case):
        p = full_rank_problem() if case == "full_rank" else pairwise_problem()
        pairwise = case == "pairwise"
        data, stats = _operator(p, pairwise), _operator(stats_of(p), pairwise)
        a = np.random.default_rng(39).standard_normal(
            108 if pairwise else p.truth_shape
        )
        want = data.loss(a) + data.offset
        assert abs(stats.loss(a) + stats.offset - want) <= 1e-10 * want
        g_data, g_stats = data.grad(a), stats.grad(a)
        assert np.linalg.norm(g_stats - g_data) <= 1e-10 * np.linalg.norm(g_data)

    def test_pairwise_map_gives_the_feature_statistics(self):
        p = pairwise_problem()
        phi, y = pairwise_design(p)
        amap = _pairwise_map(p.cov_shape)
        x2 = p.covariates.reshape(p.n, -1)
        for got, want in ((amap @ (x2.T @ x2) @ amap.T, phi.T @ phi),
                          (amap @ (x2.T @ y), phi.T @ y)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_empirical_norm_objective_and_certificate_match_the_data(self):
        p = full_rank_problem()
        delta = np.random.default_rng(40).standard_normal(p.truth_shape)
        assert empirical_norm(stats_of(p), delta) == pytest.approx(
            empirical_norm(p, delta), rel=1e-12
        )
        spec = fiber_group(2)
        for fn in (objective, kkt_residual):
            assert fn(stats_of(p), spec, 0.05, delta) == pytest.approx(
                fn(p, spec, 0.05, delta), rel=1e-10
            )

    def test_solves_equal_the_data_solves(self):
        # the compressed operator is built from the same statistics, so the
        # solves agree bit for bit; the pairwise features' statistics round
        # differently, so that solve agrees to its tolerance
        p = full_rank_problem()
        assert_same_result(
            fista_solve(stats_of(p), fiber_group(2), 0.05),
            fista_solve(p, fiber_group(2), 0.05),
        )
        q = make_low_tucker_problem(300, 0.5, 41)
        assert_same_result(
            admm_matricized(stats_of(q), 0.1, max_iters=200),
            admm_matricized(q, 0.1, max_iters=200),
        )
        r = pairwise_problem()
        got, want = fista_solve(stats_of(r), PAIRWISE, 0.05), fista_solve(r, PAIRWISE, 0.05)
        assert got.status == want.status == "Converged"
        assert np.abs(got.estimate - want.estimate).max() <= 1e-6

    def test_validation(self):
        st = stats_of(full_rank_problem())
        with pytest.raises(ValidationError, match="gram shape"):
            SufficientStats(st.gram[:-1, :-1], st.xty, st.yty, st.n, st.split)
        with pytest.raises(ValueError, match="gram must be finite"):
            SufficientStats(np.full_like(st.gram, np.nan), st.xty, st.yty, st.n, 2)
        for n in (0, True, 2.5):
            with pytest.raises(ValidationError, match="n must be an integer >= 1"):
                SufficientStats(st.gram, st.xty, st.yty, n, st.split)
        with pytest.raises(ValidationError, match="truth shape"):
            SufficientStats(st.gram, st.xty, st.yty, st.n, 2, truth=np.zeros(3))

    @pytest.mark.parametrize("change", ["negative_yty", "asymmetric", "negative_diagonal"])
    def test_refuses_statistics_that_no_sample_has(self, change):
        # each once gave an answer: yty = -5 a negative objective, -I a
        # Converged solve on no rows, an asymmetric Gram one triangle's eigh
        st = stats_of(full_rank_problem())
        gram, yty = st.gram.copy(), st.yty
        if change == "negative_yty":
            yty, message = -5.0, "yty must be a finite number >= 0, got -5.0"
        elif change == "asymmetric":  # one ulp off symmetric
            gram[0, 1] = np.nextafter(gram[0, 1], np.inf)
            message = "gram must be symmetric"
        else:
            gram, message = -np.eye(len(gram)), "gram must have a nonnegative diagonal"
        with pytest.raises(ValidationError, match=message):
            SufficientStats(gram, st.xty, yty, st.n, st.split)


class TestOneEigendecomposition:
    """A solve eigendecomposes once: statistics in :func:`_compressed`,
    whose eigenpairs also serve ADMM's ridge solve, and data with n <= d in
    the row Gram of ADMM's ridge solve."""

    @pytest.mark.parametrize(
        "spec, n",
        [(matricized_nuclear_sum(), 300), (matricized_nuclear_sum(), 40), (entry_l1(), 300)],
        ids=["admm-statistics", "admm-data-space", "fista-statistics"],
    )
    def test_one_eigh_per_solve(self, monkeypatch, spec, n):
        p = theta5_problem(4, n, 48)
        p = stats_of(p) if n > 64 else p
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k)
        )
        assert solve(p, spec, 0.2).status == "Converged"
        assert len(calls) == 1


def wishart_stats(n, seed):
    """Statistics of a theta5 4x4x4 sample drawn without its data."""
    truth = gen_truth(ModelClassSpec("theta5", (4, 4, 4), r=2), seed)
    return gen_sufficient_stats(truth, n, 3, 1.0, seed=seed + 1)


class TestObjectiveIsTheTrace:
    """:func:`objective` and :func:`kkt_residual` at a solve's estimate are
    its last trace entry and its certificate, bit for bit, on data with
    n <= d and on statistics: one penalized objective, offset added last."""

    @pytest.mark.parametrize(
        "spec, lam",
        [(entry_l1(), 0.1), (entry_l1(), 0.0), (fiber_group(1), 0.2),
         (slice_frob((0, 2)), 0.2), (matricized_nuclear_sum(), 0.2),
         (matricized_nuclear_sum(), 0.05)],
        ids=["entry", "entry-lam0", "fiber", "slice-frob", "admm", "admm-small-lam"],
    )
    @pytest.mark.parametrize(
        "form", ["data", "data-statistics", "wishart-100", "wishart-400"]
    )
    def test_last_entry_and_certificate(self, spec, lam, form):
        if form.startswith("wishart"):
            p = wishart_stats(int(form.split("-")[1]), 50)
        else:
            p = theta5_problem(4, 40, 49)  # n = 40 <= d = 64
            p = stats_of(p) if form == "data-statistics" else p
        res = solve(p, spec, lam)
        assert objective(p, spec, lam, res.estimate) == res.objective_trace[-1]
        assert kkt_residual(p, spec, lam, res.estimate) == res.kkt_residual


class TestOverflow:
    """Finite data whose squares overflow stop as Diverged, not in an
    endless backtracking loop."""

    @pytest.mark.parametrize("n", [200, 10])  # compressed, data space
    def test_fista_diverges(self, n):
        r = np.random.default_rng(39)
        p = RegressionProblem(
            covariates=1e160 * r.standard_normal((n, 5, 4)),
            responses=r.standard_normal((n, 3)),
            split=2,
        )
        res = solve(p, entry_l1(), 0.1, max_iters=50)
        assert res.status == "Diverged"
        assert res.iterations <= 50
        assert res.estimate.shape == (5, 4, 3)

    @pytest.mark.parametrize("n", [60, 10])
    def test_pairwise_diverges(self, n):
        r = np.random.default_rng(40)
        p = RegressionProblem(
            covariates=1e160 * r.standard_normal((n, 3, 3, 3)),
            responses=r.standard_normal(n),
            split=3,
        )
        res = solve(p, PAIRWISE, 0.1, max_iters=50)
        assert res.status == "Diverged"
        assert res.iterations <= 50
        assert len(res.components) == 3

    @pytest.mark.parametrize(
        "n, scaled",
        [(60, "covariates"), (20, "covariates"), (20, "responses")],
    )  # compressed, data space with overflowing factors, and first objective
    def test_admm_diverges(self, n, scaled):
        r = np.random.default_rng(41)
        x, y = r.standard_normal((n, 3, 3, 3)), r.standard_normal(n)
        if scaled == "covariates":
            x *= 1e160
        else:
            y *= 1e160
        p = RegressionProblem(covariates=x, responses=y, split=3)
        with np.errstate(over="raise"):
            res = solve(p, matricized_nuclear_sum(), 0.1, max_iters=50)
        assert res.status == "Diverged"
        assert res.iterations == 0
        assert res.kkt_residual == float("inf")
        assert res.estimate.shape == (3, 3, 3)


def huge_forms():
    """A problem of finite entries whose sums overflow, as data and as
    statistics: every entry is 1e308."""
    with np.errstate(over="raise"):
        return (
            RegressionProblem(np.full((4, 2, 2, 2), 1e308), np.ones(4), 3),
            SufficientStats(np.full((8, 8), 1e308), np.full((2, 2, 2), 1e308), 1.0, 4, 3),
        )


class TestFiniteButHuge:
    """Finiteness is a test of the entries, not of their sum: finite data
    whose sum overflows are a problem, which every solver ends as Diverged."""

    def test_builds_as_data_and_as_statistics(self):
        p, st = huge_forms()
        assert (p.n, p.cov_shape, st.n, st.cov_shape) == (4, (2, 2, 2), 4, (2, 2, 2))

    @pytest.mark.parametrize("form", [0, 1], ids=["data", "statistics"])
    def test_every_solver_diverges(self, form):
        p = huge_forms()[form]
        with np.errstate(over="raise"):
            results = [fista_solve(p, entry_l1(), 0.1), fista_solve(p, PAIRWISE, 0.1),
                       admm_matricized(p, 0.1)]
        assert [r.status for r in results] == ["Diverged"] * 3
        assert [r.kkt_residual for r in results] == [float("inf")] * 3

    @pytest.mark.parametrize("form", [0, 1], ids=["data", "statistics"])
    def test_objective_and_certificate_read_inf(self, form):
        p, a = huge_forms()[form], np.ones((2, 2, 2))
        with np.errstate(over="raise"):
            assert objective(p, entry_l1(), 0.1, a) == float("inf")
            assert kkt_residual(p, entry_l1(), 0.1, a) == float("inf")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["covariates", "responses", "truth", "gram", "xty"])
    def test_non_finite_entries_refused_among_huge_ones(self, name, bad):
        fields = {"covariates": np.full((4, 2, 2, 2), 1e308), "responses": np.full(4, 1e308),
                  "truth": np.full((2, 2, 2), 1e308), "gram": np.full((8, 8), 1e308),
                  "xty": np.full((2, 2, 2), 1e308)}
        fields[name].flat[-1] = bad
        with np.errstate(over="raise"), pytest.raises(ValueError, match=f"^{name} must be finite$"):
            if name in ("gram", "xty"):
                SufficientStats(fields["gram"], fields["xty"], 1.0, 4, 3, truth=fields["truth"])
            else:
                RegressionProblem(fields["covariates"], fields["responses"], 3,
                                  truth=fields["truth"])


class TestSolveResult:
    def test_defaults_are_a_solve_that_overflows_before_its_first_step(self):
        res = SolveResult(np.int64(2), np.zeros((2, 2, 2)))
        assert res.status == "Diverged"
        assert res.kkt_residual == float("inf")
        assert res.objective_trace == []
        assert res.iterations == 0
        assert res.components is None
        assert type(res.lam) is float and res.lam == 2.0

    def test_fields_are_coerced(self):
        res = SolveResult(0.5, np.zeros(2), (3.0, 2.0), np.float64(1e-7), 2, "Converged")
        assert res.objective_trace == [3.0, 2.0]
        assert type(res.kkt_residual) is float


class TestProblemIo:
    def test_round_trip(self, tmp_path):
        p = scalar_problem(12, (2, 3, 2), 0.4, 18)
        save_problem(str(tmp_path / "prob"), p)
        back = load_problem(str(tmp_path / "prob"))
        np.testing.assert_array_equal(back.covariates, p.covariates)
        np.testing.assert_array_equal(back.responses, p.responses)
        np.testing.assert_array_equal(back.truth, p.truth)
        assert back.split == 3 and back.noise_sigma == 0.4

    @pytest.mark.parametrize("key", ["covariates", "responses", "truth"])
    def test_a_path_that_is_not_a_string_is_refused(self, tmp_path, key):
        mpath = save_problem(str(tmp_path / "prob"), scalar_problem(12, (2, 3, 2), 0.4, 18))
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["paths"][key] = 5
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValidationError, match=f"manifest path '{key}' must be a string"):
            load_problem(mpath)
