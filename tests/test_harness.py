import csv
import io
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from tenreg import datagen, harness, regularizers, solver
from tenreg.datagen import ModelClassSpec, gen_truth, gen_var_model, gen_var_series
from tenreg.errors import BudgetExhausted, ValidationError
from tenreg.harness import (
    PackingSet,
    RateExperimentConfig,
    emit_report,
    fano_precondition_check,
    hypercube_packing,
    pairwise_width_mc,
    predicted_rate,
    rate_experiment,
    verify_packing,
    width_experiment,
)
from tenreg.regularizers import (
    entry_l1,
    fiber_group,
    matricized_nuclear_sum,
    slice_frob,
    slice_nuclear,
    tensor_spectral,
)
from tenreg.spectral import WidthEstimate, gaussian_width, gaussian_width_mc
from tenreg.spectral import width_rate_expression


def _ref_pairwise_width_mc(shape, draws, seed):
    """The pairwise width loop as it stood before it shared the width
    driver: its own stream, batches of 128."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    vals = np.empty(draws)
    done = 0
    while done < draws:
        m = min(128, draws - done)
        g = rng.standard_normal((m,) + shape)
        tops = []
        for axis in (3, 2, 1):
            blocks = g.sum(axis=axis)
            tops.append(np.linalg.svd(blocks, compute_uv=False)[..., 0])
        vals[done : done + m] = np.maximum.reduce(tops)
        done += m
    return WidthEstimate(
        mean=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / np.sqrt(draws)),
        draws=draws,
        lemma_bound_form="sqrt_max_dim",
        seed=seed,
        shape=shape,
        kind="pairwise_component_nuclear",
    )


class TestPredictedRate:
    def test_entry_rate(self):
        model = ModelClassSpec("theta1", (8, 8, 8), s=5)
        assert predicted_rate("s_log_total_over_n", model, 100) == pytest.approx(
            5 * np.log(512) / 100
        )

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1)])
    def test_entry_rate_on_one_or_two_entries(self, shape):
        model = ModelClassSpec("theta1", shape, s=1)
        assert predicted_rate("s_log_total_over_n", model, 100) == 1 / 100

    def test_var_rate(self):
        model = ModelClassSpec("t3", (20, 3, 20), s=6)
        assert predicted_rate("s_max_p_2logm_over_n", model, 1000) == pytest.approx(
            6 * max(3, 2 * np.log(20)) / 1000
        )

    def test_pairwise_rate(self):
        model = ModelClassSpec("t4", (8, 8, 8), r=1)
        assert predicted_rate("r_max_dim_over_n", model, 500) == pytest.approx(8 / 500)

    @pytest.mark.parametrize("n", [0, -5])
    @pytest.mark.parametrize(
        "tag, model",
        [("s_log_total_over_n", ModelClassSpec("theta1", (4, 4, 4), s=1)),
         ("r_max_dim_over_n", ModelClassSpec("t4", (8, 8, 8), r=1))],
        ids=["entry", "pairwise"],
    )
    def test_n_below_one_is_refused(self, tag, model, n):
        # n = 0 once gave inf or raised ZeroDivisionError, n = -5 a negative
        # rate; NaN and True are refused in test_errors
        with pytest.raises(ValidationError, match=f"n must be a finite number >= 1, got {n}"):
            predicted_rate(tag, model, n)

    def test_unknown_tag(self):
        model = ModelClassSpec("theta1", (4, 4, 4), s=1)
        with pytest.raises(ValidationError):
            predicted_rate("bogus", model, 10)

    @pytest.mark.parametrize(
        "kind, budget, tag, field",
        [("t4", {"r": 1}, "s_log_total_over_n", "s"),
         ("theta1", {"s": 2}, "rsq_sum_dims_over_n", "r"),
         ("theta1", {"s": 0}, "s_log_total_over_n", "s")],
        ids=["t4-unset-s", "theta1-unset-r", "theta1-zero-s"],
    )
    def test_a_budget_below_one_is_refused(self, kind, budget, tag, field):
        model = ModelClassSpec(kind, (3, 3, 3), **budget)
        with pytest.raises(ValidationError, match=f"{tag}.*model's {field} "):
            predicted_rate(tag, model, 100)

    @pytest.mark.parametrize(
        "shape, mode, axes", [((4, 5, 6), 0, (0, 1)), ((7, 3, 5), 2, (2, 0))]
    )
    def test_every_tag_is_budget_times_squared_width_over_n(self, shape, mode, axes):
        model = ModelClassSpec("theta3", shape, s=3, r=2, mode=mode, axes=axes)
        laws = {
            "s_log_total_over_n": (3, entry_l1()),
            "s_max_fiberdim_loggroups_over_n": (3, fiber_group(mode)),
            "s_max_area_loggroups_over_n": (3, slice_frob(axes)),
            "s_max_msq_logp_over_n": (3, slice_frob((1, 2))),
            "s_max_p_2logm_over_n": (3, fiber_group(1)),
            "r_max_m_logp_over_n": (2, slice_nuclear((1, 2))),
            "r_max_pairprod_over_n": (2, matricized_nuclear_sum()),
            "rsq_sum_dims_over_n": (4, tensor_spectral()),
        }
        assert set(laws) | {"r_max_dim_over_n"} == set(harness._RATES)
        for tag, (budget, penalty) in laws.items():
            want = budget * width_rate_expression(penalty, shape) ** 2 / 250
            assert predicted_rate(tag, model, 250) == pytest.approx(want, rel=1e-12)
        assert predicted_rate("r_max_dim_over_n", model, 250) == 2 * max(shape) / 250

    @pytest.mark.parametrize(
        "kind, shape, budget, tag, grid, first",
        [("t1", (50, 4, 4), {"s": 3}, "s_max_msq_logp_over_n",
          (500, 1000, 2000, 4000), "0x1.89374bc6a7efap-4"),
         ("t3", (20, 3, 20), {"s": 6}, "s_max_p_2logm_over_n",
          (2000, 4000, 8000, 16000), "0x1.267e1236b6f49p-6"),
         ("t4", (8, 8, 8), {"r": 1}, "r_max_dim_over_n",
          (4000, 8000, 16000, 32000), "0x1.0624dd2f1a9fcp-9")],
        ids=["multi_response", "var", "pairwise"],
    )
    def test_criterion_5_rates_are_unchanged(self, kind, shape, budget, tag, grid, first):
        # each grid doubles n, so each rate halves the one before it exactly
        model = ModelClassSpec(kind, shape, **budget)
        want = [float.fromhex(first) / 2**k for k in range(len(grid))]
        assert [predicted_rate(tag, model, n) for n in grid] == want


class TestRateConfig:
    def _config(self, **kw):
        base = dict(
            model=ModelClassSpec("theta1", (3, 3, 3), s=2),
            regularizer=entry_l1(),
            n_grid=(50, 100, 200, 400),
            replications=10,
            seed=1,
            rate_tag="s_log_total_over_n",
            width_draws=200,
        )
        base.update(kw)
        return RateExperimentConfig(**base)

    def test_validation(self):
        with pytest.raises(ValidationError):
            self._config(n_grid=(100, 100, 200, 400))
        with pytest.raises(ValidationError):
            self._config(n_grid=(100, 200, 400))
        with pytest.raises(ValidationError):
            self._config(replications=5)

    @pytest.mark.parametrize(
        "field, value, message",
        [("n_grid", (-3, -2, -1, 0), "n_grid entries must be integers >= 1"),
         ("n_grid", (0, 1, 2, 3), "n_grid entries must be integers >= 1"),
         ("split", 5, "split must be an integer in 1..3, got 5"),
         ("split", 0, "split must be an integer in 1..3, got 0")],
    )
    def test_rejects_a_bad_grid_or_split(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            self._config(**{field: value})

    def test_pairwise_needs_the_whole_tensor(self):
        pairwise = dict(model=ModelClassSpec("t4", (3, 3, 3), r=1),
                        regularizer="pairwise", rate_tag="r_max_dim_over_n")
        self._config(split=3, **pairwise)
        with pytest.raises(ValidationError, match="split must be 3"):
            self._config(split=2, **pairwise)

    @pytest.mark.parametrize(
        "reg, width",
        [(entry_l1(), "gaussian_width_mc"), (harness._PAIRWISE, "pairwise_width_mc")],
        ids=["entry_l1", "pairwise"],
    )
    def test_auto_lambda_checks_its_rule_before_drawing(self, monkeypatch, reg, width):
        monkeypatch.setattr(harness, width, pytest.fail)
        with pytest.raises(ValueError, match="c_u > 0"):
            harness.auto_lambda(reg, (3, 3, 3), [50, 100], 1.0, 200, 0, c_u=0)

    @pytest.mark.parametrize("reg", ["entry_l1", None, {"kind": "entry_l1"}])
    def test_rejects_a_regularizer_that_is_not_a_penalty(self, reg):
        with pytest.raises(ValidationError, match="regularizer must be"):
            self._config(regularizer=reg)

    def test_json_round_trip(self):
        cfg = self._config()
        back = RateExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_smoke_run_and_replay(self):
        cfg = self._config(noise_sigma=0.5)
        rep1 = rate_experiment(cfg)
        rep2 = rate_experiment(cfg)
        assert emit_report(rep1) == emit_report(rep2)
        assert rep1["fit"]["slope"] == rep2["fit"]["slope"]
        assert len(rep1["cells"]) == 40
        assert all(row["nonconverged"] == 0 for row in rep1["per_n"])

    def test_error_decreases_with_n(self):
        cfg = self._config(noise_sigma=0.5)
        rep = rate_experiment(cfg)
        med = [row["median_fro_sq"] for row in rep["per_n"]]
        assert med[-1] < med[0]


class TestAutoLambda:
    """The penalties whose dual is a largest chi group norm tune on their
    exact width; every other kind, slice nuclear included, draws it."""

    GROUPS = [(entry_l1(), (8, 8, 8)), (fiber_group(1), (20, 3, 20)),
              (slice_frob((1, 2)), (50, 4, 4))]

    @pytest.mark.parametrize("reg, shape", GROUPS, ids=lambda v: getattr(v, "kind", ""))
    def test_group_kinds_draw_nothing(self, monkeypatch, reg, shape):
        for name in ("gaussian_width_mc", "pairwise_width_mc"):
            monkeypatch.setattr(harness, name, pytest.fail)
        width, (lam,) = harness.auto_lambda(reg, shape, [400], 1.0, 2000, 0)
        assert width.mean == gaussian_width(reg, shape)
        assert (width.std_error, width.draws) == (0.0, 0)
        assert lam == solver.lambda_rule(width.mean, 400)

    @pytest.mark.parametrize("reg, shape", GROUPS, ids=lambda v: getattr(v, "kind", ""))
    def test_lambda_depends_on_no_seed_or_draw_count(self, reg, shape):
        lams = {
            tuple(harness.auto_lambda(reg, shape, [100, 400], 0.5, draws, seed)[1])
            for draws, seed in [(100, 0), (2000, 1), (5000, 7)]
        }
        assert len(lams) == 1

    @pytest.mark.parametrize(
        "reg",
        [matricized_nuclear_sum(), slice_nuclear((0, 1)), tensor_spectral(), harness._PAIRWISE],
        ids=lambda v: v.kind,
    )
    def test_other_kinds_still_draw(self, monkeypatch, reg):
        calls = []
        drawn = harness.gaussian_width_mc
        monkeypatch.setattr(
            harness, "gaussian_width_mc", lambda *a, **k: calls.append(a) or drawn(*a, **k)
        )
        est, _ = harness.auto_lambda(reg, (3, 3, 3), [50], 1.0, 100, 4)
        assert len(calls) == 1
        assert est.draws == 100 and est.std_error > 0

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [({"draws": 50}, ValidationError, "draws must be an integer >= 100"),
         ({"draws": 200.0}, ValidationError, "draws must be an integer >= 100"),
         ({"seed": -1}, ValidationError, "seed must be an integer >= 0"),
         ({"seed": 2.5}, ValidationError, "seed must be an integer >= 0"),
         ({"shape": (3, 3)}, ValidationError, "shape must be three integers >= 1")],
        ids=["few-draws", "float-draws", "negative-seed", "float-seed", "order-2"],
    )
    def test_refuses_what_a_draw_refuses(self, kwargs, error, message):
        call = dict(shape=(3, 3, 3), draws=200, seed=0) | kwargs
        for reg in (entry_l1(), matricized_nuclear_sum(), harness._PAIRWISE):
            with pytest.raises(error, match=message):
                harness.auto_lambda(reg, call["shape"], [50], 1.0, call["draws"], call["seed"])

    def test_refuses_the_seed_then_the_shape_then_the_draws(self):
        # an exact width refuses in the order a drawn one does
        cases = [((3, 3), 50, -1, "seed"), ((3, 3), 50, 0, "shape"), ((3, 3, 3), 50, 0, "draws")]
        for reg in (entry_l1(), matricized_nuclear_sum()):
            for shape, draws, seed, name in cases:
                with pytest.raises(ValidationError, match=f"^{name} must be"):
                    harness.auto_lambda(reg, shape, [50], 1.0, draws, seed)


class TestRateDraw:
    """A cell with i.i.d. rows draws its sufficient statistics once n
    exceeds d + q (28 for a 3x3x3 truth and a scalar response), and its
    sample up to there.  Above it `marginal_features` sees only the unit
    tensors that give the pairwise map, never a sample."""

    @staticmethod
    def _config(kind, n_grid):
        if kind == "pairwise":
            model = ModelClassSpec("t4", (3, 3, 3), r=1)
            reg, tag = "pairwise", "r_max_dim_over_n"
        else:
            model = ModelClassSpec("theta1", (3, 3, 3), s=2)
            reg, tag = entry_l1(), "s_log_total_over_n"
        return RateExperimentConfig(
            model=model, regularizer=reg, n_grid=n_grid, replications=10,
            seed=3, rate_tag=tag, width_draws=200, noise_sigma=0.5, split=3,
        )

    @staticmethod
    def _watch(monkeypatch):
        """Record each sample `marginal_features` and `gen_problem` see, by
        its size; the unit tensors of the pairwise map are not a sample."""
        seen = []
        real_features, real_gen = solver.marginal_features, datagen.gen_problem

        def features(x):
            x = np.asarray(x)
            if not np.array_equal(x.reshape(len(x), -1), np.eye(len(x))):
                seen.append(("marginal_features", len(x)))
            return real_features(x)

        def gen(truth, n, *args, **kw):
            seen.append(("gen_problem", n))
            return real_gen(truth, n, *args, **kw)

        monkeypatch.setattr(solver, "marginal_features", features)
        monkeypatch.setattr(datagen, "gen_problem", gen)
        return seen

    @pytest.mark.parametrize("kind", ["theta1", "pairwise"])
    def test_statistics_above_d_plus_q(self, monkeypatch, kind):
        seen = self._watch(monkeypatch)
        rep = rate_experiment(self._config(kind, (29, 60, 120, 240)))
        assert seen == []
        assert len(rep["cells"]) == 40
        assert all(math.isfinite(c["emp_sq"]) for c in rep["cells"])

    def test_data_up_to_d_plus_q(self, monkeypatch):
        seen = self._watch(monkeypatch)
        rate_experiment(self._config("pairwise", (10, 20, 28, 29)))
        for name in ("gen_problem", "marginal_features"):
            assert sorted(n for f, n in seen if f == name) == [10] * 10 + [20] * 10 + [28] * 10


class TestVarLockstep:
    """The VAR cells of one n simulate their series in lockstep groups of at
    most p + 2, each group only once the previous group's cells are solved
    and its series freed, and every cell is the one that its own
    `gen_var_series` sample gives."""

    CONFIG = RateExperimentConfig(
        model=ModelClassSpec("t3", (3, 2, 3), s=2),
        regularizer=fiber_group(1),
        n_grid=(50, 100, 200, 400),
        replications=10,
        seed=7,
        rate_tag="s_max_p_2logm_over_n",
        width_draws=200,
    )

    def test_groups_of_at_most_p_plus_2(self, monkeypatch):
        events = []
        simulated = []  # weak references to the series arrays of each group
        real_group, real_solve = datagen._var_group, harness.solve

        def group(models, n, seeds):
            assert all(ref() is None for ref in simulated), "an earlier group is held"
            events.append(("simulate", len(models)))
            for problem in real_group(models, n, seeds):
                simulated.append(weakref.ref(problem.responses.base))
                yield problem

        def solve(problem, *args, **kw):
            events.append(("solve", 1))
            return real_solve(problem, *args, **kw)

        monkeypatch.setattr(datagen, "_var_group", group)
        monkeypatch.setattr(harness, "solve", solve)
        rep = rate_experiment(self.CONFIG)
        # p = 2: ten series per n run as groups of 4, 3 and 3
        one_n = []
        for size in (4, 3, 3):
            one_n += [("simulate", size)] + [("solve", 1)] * size
        assert events == one_n * 4
        assert len(rep["cells"]) == 40

    def test_cells_match_their_own_series(self, monkeypatch):
        # n = 50 > m p = 6: the cells are solved and scored on statistics
        config = self.CONFIG
        estimates = []
        real_solve = harness.solve

        def solve(*args):
            res = real_solve(*args)
            estimates.append(res.estimate)
            return res

        monkeypatch.setattr(harness, "solve", solve)
        rep = rate_experiment(config)
        root = np.random.SeedSequence(config.seed).spawn(len(config.n_grid))
        lam = rep["per_n"][0]["lambda"]
        for ri, rseed in enumerate(root[0].spawn(config.replications)):
            tseed, pseed = rseed.spawn(2)
            model = gen_var_model(3, 2, 2, seed=tseed)
            problem = gen_var_series(model, 50, seed=pseed)
            res = solver.solve(problem, config.regularizer, lam, config.max_iters)
            delta = res.estimate - problem.truth
            cell = rep["cells"][ri]
            assert np.array_equal(estimates[ri], res.estimate)
            assert cell["fro_sq"] == float((delta * delta).sum())
            assert (cell["status"], cell["iterations"]) == (res.status, res.iterations)
            # delta^T G delta / n against the design's own sum of squares
            assert math.isclose(
                cell["emp_sq"], solver.empirical_norm(problem, delta) ** 2, rel_tol=1e-12
            )

    def test_a_point_holds_one_group_and_one_design_copy(self):
        # (20, 3, 20) at n = 16000, eight series in two lockstep groups of 4:
        # a group is 10.6 MB and the flattened lag design 7.7 MB.  Scoring on
        # the series adds a second design copy, its prediction and the
        # square of that (23.6 MB at the peak); statistics add neither, and
        # holding the first group while simulating the second would add 10.6 MB
        model, reg, n = ModelClassSpec("t3", (20, 3, 20), s=6), fiber_group(1), 16000
        _, (lam,) = harness.auto_lambda(reg, model.shape, [n], 1.0, 200, 0)
        tracemalloc.start()
        try:
            cells = list(harness._cells(
                model, n, 2, 1.0, np.random.SeedSequence(302), 8, reg, lam, 2000,
            ))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == 8
        assert peak < 20 * 2**20


class TestRateReport:
    """A rate report is a reduction over its own cells, and each cell is
    scored against the truth its own seed draws."""

    @pytest.mark.parametrize(
        "config",
        [TestRateConfig()._config(noise_sigma=0.5), TestVarLockstep.CONFIG],
        ids=["theta1", "t3"],
    )
    def test_rows_and_fit_reduce_the_cells(self, config):
        rep = rate_experiment(config)
        reps, model = config.replications, config.model
        width, lams = harness.auto_lambda(
            config.regularizer, model.shape, config.n_grid, config.noise_sigma,
            config.width_draws, config.seed,
        )
        assert rep["width"] == width.to_json()
        # fresh streams: `_cells` spawns from the ones it is given
        seqs = zip(np.random.SeedSequence(config.seed).spawn(len(config.n_grid)),
                   np.random.SeedSequence(config.seed).spawn(len(config.n_grid)))
        for gi, (row, n, lam, (seq, own)) in enumerate(
            zip(rep["per_n"], config.n_grid, lams, seqs)
        ):
            at_n = rep["cells"][gi * reps : (gi + 1) * reps]
            fro2 = [c["fro_sq"] for c in at_n]
            assert row == {
                "n": n,
                "lambda": lam,
                "median_fro_sq": float(np.median(fro2)),
                "median_emp_sq": float(np.median([c["emp_sq"] for c in at_n])),
                "q25_fro_sq": float(np.percentile(fro2, 25)),
                "q75_fro_sq": float(np.percentile(fro2, 75)),
                "predicted_rate": predicted_rate(config.rate_tag, model, n),
                "nonconverged": sum(c["status"] != "Converged" for c in at_n),
            }
            pairs = list(harness._cells(
                model, n, config.split, config.noise_sigma, seq, reps,
                config.regularizer, lam, config.max_iters,
            ))
            assert [cell for cell, _ in pairs] == at_n
            for (_, truth), rseed in zip(pairs, own.spawn(reps), strict=True):
                np.testing.assert_array_equal(truth, gen_truth(model, rseed.spawn(2)[0]))
        slope, intercept, r2 = harness._log_fit(
            np.log([row["predicted_rate"] for row in rep["per_n"]]),
            np.log([row["median_fro_sq"] for row in rep["per_n"]]),
        )
        assert rep["fit"] == {"slope": slope, "intercept": intercept, "r_squared": r2}


class TestBenefitComparisons:
    """Qualitative orderings between penalties on their favorable truths."""

    @staticmethod
    def _median_errors(model, specs, n, reps, seed0):
        from tenreg.datagen import gen_problem, gen_truth
        from tenreg.solver import fista_solve, lambda_rule
        from tenreg.spectral import gaussian_width_mc

        lams = {
            s.kind: lambda_rule(
                gaussian_width_mc(s, model.shape, 1000, seed=2), n
            )
            for s in specs
        }
        errs = {s.kind: [] for s in specs}
        for rep in range(reps):
            truth = gen_truth(model, seed0 + rep)
            problem = gen_problem(truth, n, 3, 1.0, seed=seed0 + 100 + rep)
            for s in specs:
                res = fista_solve(problem, s, lams[s.kind], max_iters=800)
                errs[s.kind].append(float(((res.estimate - truth) ** 2).sum()))
        return {k: float(np.median(v)) for k, v in errs.items()}

    def test_fiber_penalty_beats_entrywise_on_clustered_fibers(self):
        model = ModelClassSpec("theta2", (8, 6, 6), s=4, mode=0)
        med = self._median_errors(
            model, [entry_l1(), fiber_group(0)], n=600, reps=9, seed0=100
        )
        assert med["fiber_group"] <= med["entry_l1"]

    def test_slice_nuclear_beats_slice_frobenius_on_low_rank_slices(self):
        from tenreg.regularizers import slice_nuclear

        model = ModelClassSpec(
            "theta4", (12, 12, 4), r=2, axes=(0, 1), magnitude=10.0
        )
        med = self._median_errors(
            model,
            [slice_frob((0, 1)), slice_nuclear((0, 1))],
            n=400,
            reps=9,
            seed0=300,
        )
        assert med["slice_nuclear"] <= med["slice_frob"]

    def test_low_tucker_rank_error_follows_pairproduct_rate(self):
        from tenreg.regularizers import matricized_nuclear_sum

        cfg = RateExperimentConfig(
            model=ModelClassSpec("theta5", (5, 5, 5), r=1, magnitude=40.0),
            regularizer=matricized_nuclear_sum(),
            n_grid=(300, 600, 1200, 2400),
            replications=10,
            seed=305,
            rate_tag="r_max_pairprod_over_n",
            noise_sigma=1.0,
            split=3,
            max_iters=400,
        )
        rep = rate_experiment(cfg)
        assert 0.8 <= rep["fit"]["slope"] <= 1.2
        assert rep["fit"]["r_squared"] >= 0.9

    def test_halving_sigma_reduces_every_cell(self):
        def run(sigma):
            cfg = RateExperimentConfig(
                model=ModelClassSpec("theta1", (3, 3, 3), s=2, magnitude=3.0),
                regularizer=entry_l1(),
                n_grid=(50, 100, 200, 400),
                replications=10,
                seed=307,
                rate_tag="s_log_total_over_n",
                width_draws=200,
                noise_sigma=sigma,
            )
            return [r["median_fro_sq"] for r in rate_experiment(cfg)["per_n"]]

        high = run(1.0)
        low = run(0.5)
        assert all(l < h for l, h in zip(low, high))


class TestWidthExperiment:
    def test_table_and_flags(self):
        report = width_experiment(
            [entry_l1(), fiber_group(0)],
            [(4, 4, 4), (6, 6, 6)],
            draws=300,
            seed=5,
        )
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            assert row["ratio"] == pytest.approx(
                row["estimate"] / row["rate_expression"]
            )
        assert report["flagged"] == []

    @pytest.mark.parametrize("kinds, shapes", [([], [(3, 3, 3)]), ([entry_l1()], [])])
    def test_an_empty_table_is_refused(self, kinds, shapes):
        with pytest.raises(ValidationError, match="at least one kind and one shape"):
            width_experiment(kinds, shapes, draws=150)

    def test_pairwise_width(self):
        est = pairwise_width_mc((6, 6, 6), draws=300, seed=2)
        # marginal sums have entries of std sqrt(d), so the top singular
        # value lands near sqrt(d) * 2 sqrt(d) = 2d
        assert 6.0 <= est.mean <= 40.0

    @pytest.mark.parametrize("draws", [300, 2001])
    @pytest.mark.parametrize("seed", [0, 2, 17])
    @pytest.mark.parametrize("shape", [(6, 6, 6), (8, 8, 8), (4, 5, 7)])
    def test_pairwise_width_matches_reference(self, shape, seed, draws):
        est = pairwise_width_mc(shape, draws=draws, seed=seed)
        assert est.to_json() == _ref_pairwise_width_mc(shape, draws, seed).to_json()

    def test_pairwise_width_is_one_number_at_one_seed(self):
        # the automatic lambda, the width driver and the width table draw
        # the pairwise width from the same stream
        shape, draws, seed = (3, 3, 3), 300, 5
        drawn = gaussian_width_mc(harness._PAIRWISE, shape, draws, seed)
        auto, _ = harness.auto_lambda(harness._PAIRWISE, shape, [50], 1.0, draws, seed)
        (row,) = width_experiment([harness._PAIRWISE], [shape], draws, seed)["rows"]
        assert auto == drawn
        assert row["estimate"] == drawn.mean


class TestPacking:
    def test_full_hypercube_d12(self):
        delta = 1.0
        pack = hypercube_packing(12, delta, kind="full", budget=20000, seed=3)
        assert len(pack.elements) >= 3
        ok, min2, max2, offenders = verify_packing(
            pack.elements, delta**2 / 4, delta**2
        )
        assert ok and not offenders
        # exhaustive Hamming floor
        signs = [np.sign(e) for e in pack.elements]
        for i in range(len(signs)):
            for j in range(i + 1, len(signs)):
                assert (signs[i] != signs[j]).sum() >= 4
        assert pack.meta["verified"]

    def test_no_duplicates_accepted(self):
        pack = hypercube_packing(6, 0.5, kind="full", budget=2000, seed=4)
        seen = set()
        for e in pack.elements:
            key = tuple(np.sign(e).astype(int))
            assert key not in seen
            seen.add(key)

    def test_sparse_window(self):
        delta = 2.0
        pack = hypercube_packing(20, delta, kind="sparse", budget=5000, seed=5, s=4)
        ok, min2, max2, _ = verify_packing(
            pack.elements, delta**2 / 8, delta**2
        )
        assert ok
        for e in pack.elements:
            assert np.count_nonzero(e) == 4

    @pytest.mark.parametrize("d, s", [(12, 3), (30, 6)])
    def test_sparse_set_does_not_depend_on_delta(self, d, s):
        # acceptance is decided on exact inner products of the sign
        # patterns, so delta only scales the set
        patterns = []
        for delta in (0.3, 0.7, 1.0, 1.3):
            pack = hypercube_packing(d, delta, kind="sparse", budget=5000, seed=3, s=s)
            ok, *_ = verify_packing(pack.elements, delta**2 / 8, delta**2)
            assert ok
            patterns.append(np.array(pack.elements) / (delta / np.sqrt(2.0 * s)))
        for pattern in patterns[1:]:
            assert np.array_equal(pattern, patterns[0])

    def test_sparse_size(self):
        pack = hypercube_packing(12, 1.0, kind="sparse", budget=5000, seed=3, s=3)
        assert len(pack.elements) == 100

    def test_lowrank_window_and_rank(self):
        delta = 1.5
        pack = hypercube_packing(
            0, delta, kind="lowrank", budget=3000, seed=6, d1=10, d2=12, r=2
        )
        ok, *_ = verify_packing(pack.elements, delta**2 / 4, delta**2)
        assert ok
        for e in pack.elements:
            assert np.linalg.matrix_rank(e, tol=1e-10) == 2

    def test_budget_exhausted_carries_partial(self):
        with pytest.raises(BudgetExhausted):
            hypercube_packing(12, 1.0, kind="full", budget=1, seed=7)

    def test_validation(self):
        with pytest.raises(ValidationError):
            hypercube_packing(4, 1.0, kind="full", budget=10, seed=0)
        with pytest.raises(ValidationError):
            hypercube_packing(10, 1.0, kind="sparse", budget=10, seed=0, s=99)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(delta=math.nan),
            dict(delta=math.inf),
            dict(delta=-math.inf),
            dict(delta=0.0),
            dict(delta=-1.0),
            dict(budget=0),
            dict(budget=-5),
            dict(kind="lowrank", d=0, d1=12, d2=8, r=0),
            dict(kind="lowrank", d=0, d1=12, d2=8, r=-1),
            dict(kind="lowrank", d=0, d1=0, d2=8, r=1),
            dict(kind="lowrank", d=0, d1=12, d2=0, r=1),
            dict(d=12.0),
            dict(d=True),
            dict(kind="sparse", d=20, s=2.5),
            dict(kind="sparse", d=20, s=True),
            dict(kind="lowrank", d=0, d1=12, d2=8, r=True),
            dict(kind="lowrank", d=0, d1=12.0, d2=8, r=1),
            dict(delta=True),
            dict(delta="1.0"),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejects_bad_input(self, kwargs):
        call = dict(d=12, delta=1.0, kind="full", budget=100, seed=0) | kwargs
        message = "budget must be an integer >= 1" if "budget" in kwargs else "packing needs"
        with pytest.raises(ValidationError, match=message):
            hypercube_packing(**call)


# Reference implementations: the per-pair greedy constructions and the
# per-pair verifier. The library's whole-array versions must reproduce them
# exactly: same accepted sets, same distances, same report bytes.


def _ref_verify(elements, lo, hi):
    m = len(elements)
    flat = [np.asarray(e, dtype=float).ravel() for e in elements]
    min_sq, max_sq = np.inf, 0.0
    offenders = []
    for i in range(m):
        for j in range(i + 1, m):
            d2 = float(((flat[i] - flat[j]) ** 2).sum())
            min_sq = min(min_sq, d2)
            max_sq = max(max_sq, d2)
            if not (lo - 1e-12 <= d2 <= hi + 1e-12):
                offenders.append((i, j, d2))
    return (not offenders, min_sq, max_sq, offenders)


def _ref_packing(d, delta, kind, budget, seed, s=None, d1=None, d2=None, r=None):
    """Accepted elements and verifier window of the per-pair construction."""

    def hamming(a, b):
        return int((a != b).sum())

    rng = np.random.default_rng(seed)
    accepted = []
    if kind == "full":
        a = np.sqrt(3.0) * delta / (4.0 * np.sqrt(d))
        signs_acc = []
        for _ in range(budget):
            cand = rng.choice([-1.0, 1.0], size=d)
            if all(hamming(cand, prev) >= d / 3.0 for prev in signs_acc):
                signs_acc.append(cand)
        accepted = [a * sgn for sgn in signs_acc]
        return accepted, (delta**2 / 4.0, delta**2)
    if kind == "sparse":
        a = delta / np.sqrt(2.0 * s)
        lo, hi = delta**2 / 8.0, delta**2
        for _ in range(budget):
            cand = np.zeros(d)
            support = rng.choice(d, size=s, replace=False)
            cand[support] = a * rng.choice([-1.0, 1.0], size=s)
            if all(
                lo <= float(((cand - prev) ** 2).sum()) <= hi for prev in accepted
            ):
                accepted.append(cand)
        return accepted, (lo, hi)
    ncoord = d1 * r
    a = delta / (2.0 * np.sqrt(ncoord))
    signs_acc = []
    for _ in range(budget):
        cand = rng.choice([-1.0, 1.0], size=(d1, r))
        if np.linalg.matrix_rank(cand) < r:
            continue
        if all(hamming(cand, prev) >= ncoord / 3.0 for prev in signs_acc):
            signs_acc.append(cand)
    accepted = [np.hstack([a * sgn, np.zeros((d1, d2 - r))]) for sgn in signs_acc]
    return accepted, (delta**2 / 4.0, delta**2)


# budgets 9001 and 5000 are not multiples of the 4096-candidate chunk
PACKING_CASES = [
    dict(d=12, delta=1.0, kind="full", budget=9001),
    # accepts about 9 in 10 candidates: hundreds of rows accepted per chunk
    dict(d=90, delta=1.0, kind="full", budget=400),
    dict(d=13, delta=0.7, kind="full", budget=5000),
    dict(d=20, delta=1.0, kind="sparse", budget=3000, s=4),
    dict(d=9, delta=2.5, kind="sparse", budget=1500, s=2),
    dict(d=0, delta=1.0, kind="lowrank", budget=5000, d1=12, d2=8, r=2),
    dict(d=0, delta=1.5, kind="lowrank", budget=3000, d1=4, d2=4, r=3),
]


# the benchmark's criterion-7 packings, each with its seed: full, sparse,
# low-rank, and the full packing of the Fano check at delta 0.1
MC_TABLES_PACKINGS = [
    (dict(d=12, delta=1.0, kind="full", budget=100000), 701),
    (dict(d=20, delta=1.0, kind="sparse", budget=20000, s=4), 702),
    (dict(d=12, delta=1.0, kind="lowrank", budget=5000, d1=12, d2=8, r=2), 704),
    (dict(d=12, delta=0.1, kind="full", budget=20000), 703),
]


def _assert_matches_reference(case, seed):
    pack = hypercube_packing(seed=seed, **case)
    ref, (lo, hi) = _ref_packing(seed=seed, **case)
    assert len(pack.elements) == len(ref) >= 2
    for got, want in zip(pack.elements, ref):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    ok, min_sq, max_sq, _ = _ref_verify(ref, lo, hi)
    want = PackingSet(
        elements=ref,
        delta=float(case["delta"]),
        min_dist_sq=min_sq,
        max_dist_sq=max_sq,
        construction=case["kind"],
        meta=dict(pack.meta, verified=ok),
    )
    assert json.dumps(pack.to_json(), sort_keys=True) == json.dumps(
        want.to_json(), sort_keys=True
    )


class TestPackingMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 701])
    @pytest.mark.parametrize(
        "case", PACKING_CASES, ids=lambda c: f"{c['kind']}-{c['d'] or c['d1']}"
    )
    def test_same_set_and_report(self, case, seed):
        _assert_matches_reference(case, seed)

    @pytest.mark.parametrize(
        "case, seed", MC_TABLES_PACKINGS, ids=lambda v: v["kind"] if isinstance(v, dict) else v
    )
    def test_benchmark_packings_match_reference(self, case, seed):
        _assert_matches_reference(case, seed)

    def test_chunk_and_block_sizes_change_nothing(self, monkeypatch):
        # a tile of one accepted row, and 7-candidate chunks tested in tiles
        # of 20 products: both far fewer rows than the accepted set
        for case in (PACKING_CASES[0], PACKING_CASES[1], PACKING_CASES[5]):
            whole = hypercube_packing(seed=3, **case).to_json()
            assert len(whole["elements"]) > 20
            for chunk, entries in ((harness._PACKING_CHUNK, 1), (7, 20)):
                monkeypatch.setattr(harness, "_PACKING_CHUNK", chunk)
                monkeypatch.setattr(regularizers, "_BATCH_ENTRIES", entries)
                small = hypercube_packing(seed=3, **case).to_json()
                monkeypatch.undo()
                assert small == whole

    def test_acceptance_tiles_keep_the_sparse_packing_small(self):
        # 429 accepted rows against 4096-candidate chunks: one tile of every
        # accepted row would hold 1.7 million products (13 MB)
        case, seed = MC_TABLES_PACKINGS[1]
        tracemalloc.start()
        try:
            pack = hypercube_packing(seed=seed, **case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pack.elements) == 429
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "case, window",
        [
            (PACKING_CASES[0], (0.3, 0.9)),
            (PACKING_CASES[3], (0.3, 0.9)),
            (PACKING_CASES[5], (0.34, 0.8)),
        ],
    )
    def test_verify_with_offenders(self, case, window):
        elements = hypercube_packing(seed=2, **case).elements
        got = verify_packing(elements, *window)
        want = _ref_verify(elements, *window)
        assert not got[0] and want[3]
        assert got == want
        assert [type(v) for v in got[3][0]] == [int, int, float]

    def test_verify_non_finite_and_small_sets(self):
        elements = [
            np.array([0.0, 1.0]),
            np.array([np.nan, 0.0]),
            np.array([1.0, 1.0]),
            np.array([np.inf, 0.0]),
            np.array([0.0, 0.5]),
        ]
        for sub in (elements, elements[:1], elements[:2], []):
            # repr, because nan != nan
            assert repr(verify_packing(sub, 0.1, 2.0)) == repr(
                _ref_verify(sub, 0.1, 2.0)
            )


class TestFano:
    def test_pass_with_tiny_delta(self):
        lo_delta = 1e-3
        elements = [np.zeros(4), np.ones(4)]
        # force distances into the fano window for this delta
        n, c_u = 10, 1.0
        scale = np.sqrt(2.0 * n * lo_delta**2 / c_u**2) / np.linalg.norm(
            elements[1]
        )
        pack_elements = [e * scale for e in elements]
        from tenreg.harness import PackingSet

        pack = PackingSet(
            elements=pack_elements,
            delta=lo_delta,
            min_dist_sq=0.0,
            max_dist_sq=0.0,
            construction="manual",
            meta={},
        )
        report = fano_precondition_check(pack, n, c_u, lo_delta)
        assert report["log_m_ok"] and report["window_ok"] and report["ok"]

    def test_fail_reports_offenders(self):
        from tenreg.harness import PackingSet

        pack = PackingSet(
            elements=[np.zeros(3), np.full(3, 100.0)],
            delta=1e-3,
            min_dist_sq=0.0,
            max_dist_sq=0.0,
            construction="manual",
            meta={},
        )
        report = fano_precondition_check(pack, 10, 1.0, 1e-3)
        assert not report["window_ok"]
        assert report["offending_pairs"] and report["offending_pairs"][0][:2] == [0, 1]

    def test_rescaled_construction_passes_window(self):
        # plug-in arithmetic: delta_f = delta_pack / (2 sqrt(n)) places the
        # verified construction window inside the fano window
        delta_pack = 0.1
        n, c_u = 50, 1.0
        pack = hypercube_packing(12, delta_pack, kind="full", budget=5000, seed=8)
        delta_f = delta_pack / (2.0 * np.sqrt(n))
        report = fano_precondition_check(pack, n, c_u, delta_f)
        assert report["window_ok"]
        assert report["log_m_ok"]  # 128 n delta_f^2 = 32 delta_pack^2 = 0.32


def _ref_report_csv(report):
    """The CSV writer as it stood when it named each column itself."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report.get("kind") == "rate":
        writer.writerow(["n", "replication", "fro_sq", "emp_sq", "status", "iterations"])
        for cell in report["cells"]:
            writer.writerow(
                [
                    cell["n"],
                    cell["replication"],
                    repr(cell["fro_sq"]),
                    repr(cell["emp_sq"]),
                    cell["status"],
                    cell["iterations"],
                ]
            )
        writer.writerow([])
        writer.writerow(["summary_key", "value"])
        writer.writerow(["slope", repr(report["fit"]["slope"])])
        writer.writerow(["intercept", repr(report["fit"]["intercept"])])
        writer.writerow(["r_squared", repr(report["fit"]["r_squared"])])
        for row in report["per_n"]:
            writer.writerow([f"median_fro_sq_n{row['n']}", repr(row["median_fro_sq"])])
    else:
        writer.writerow(["kind", "shape", "estimate", "std_error", "rate_expression", "ratio"])
        for row in report["rows"]:
            writer.writerow(
                [
                    row["kind"],
                    "x".join(str(v) for v in row["shape"]),
                    repr(row["estimate"]),
                    repr(row["std_error"]),
                    repr(row["rate_expression"]),
                    repr(row["ratio"]),
                ]
            )
    return buf.getvalue()


class TestReports:
    def test_json_round_trip(self):
        report = width_experiment([entry_l1()], [(3, 3, 3)], draws=150, seed=9)
        text = emit_report(report)
        assert json.loads(text) == report

    def test_emit_deterministic(self):
        r1 = width_experiment([entry_l1()], [(3, 3, 3)], draws=150, seed=9)
        r2 = width_experiment([entry_l1()], [(3, 3, 3)], draws=150, seed=9)
        assert emit_report(r1) == emit_report(r2)

    def test_csv_rate_report(self):
        cfg = RateExperimentConfig(
            model=ModelClassSpec("theta1", (3, 3, 3), s=2),
            regularizer=entry_l1(),
            n_grid=(50, 100, 200, 400),
            replications=10,
            seed=1,
            rate_tag="s_log_total_over_n",
            width_draws=200,
            noise_sigma=0.5,
        )
        rep = rate_experiment(cfg)
        text = emit_report(rep, "csv")
        assert text == _ref_report_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "n,replication,fro_sq,emp_sq,status,iterations"
        assert len([l for l in lines if l and l[0].isdigit()]) == 40
        assert any(l.startswith("slope,") for l in lines)

    def test_csv_width_report(self):
        kinds = [entry_l1(), fiber_group(1), slice_nuclear((0, 2)), matricized_nuclear_sum()]
        report = width_experiment(kinds, [(3, 3, 3), (2, 4, 5)], draws=150, seed=9)
        text = emit_report(report, "csv")
        assert text == _ref_report_csv(report)
        assert text.startswith("kind,shape,estimate,std_error,rate_expression,ratio\n")
        assert "\nslice_nuclear,2x4x5," in text

    def test_csv_write_and_format_error(self):
        report = width_experiment([entry_l1()], [(3, 3, 3)], draws=150, seed=9)
        assert emit_report(report, fmt="csv").startswith("kind,shape,estimate")
        with pytest.raises(ValidationError):
            emit_report(report, fmt="xml")
        with pytest.raises(ValidationError, match="unknown CSV report kind 'packing'"):
            emit_report({"kind": "packing"}, fmt="csv")

    def test_rate_report_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = RateExperimentConfig(
            model=ModelClassSpec("theta1", (3, 3, 3), s=2),
            regularizer=entry_l1(),
            n_grid=(50, 100, 200, 400),
            replications=10,
            seed=1,
            rate_tag="s_log_total_over_n",
            width_draws=200,
            noise_sigma=0.5,
        )
        rep = rate_experiment(cfg)
        schema = {
            "type": "object",
            "required": ["kind", "config", "width", "fit", "per_n", "cells"],
            "properties": {
                "fit": {
                    "type": "object",
                    "required": ["slope", "intercept", "r_squared"],
                },
                "per_n": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": [
                            "n",
                            "lambda",
                            "median_fro_sq",
                            "median_emp_sq",
                            "predicted_rate",
                        ],
                    },
                },
            },
        }
        jsonschema.validate(json.loads(emit_report(rep)), schema)
