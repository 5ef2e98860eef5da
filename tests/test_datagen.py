import hashlib
import re

import numpy as np
import pytest

from tenreg import datagen
from tenreg.datagen import (
    ModelClassSpec,
    _signs,
    VarModel,
    class_certificate,
    gen_pairwise_components,
    gen_problem,
    gen_samples,
    gen_sufficient_stats,
    gen_truth,
    gen_var_model,
    gen_var_panel,
    gen_var_series,
    var_spectral_extrema,
    var_truth,
)
from tenreg.errors import ValidationError
from tenreg.solver import SufficientStats, objective
from tenreg.regularizers import entry_l1
from tenreg.tensor import inner, matricize

rng = np.random.default_rng(31)


class TestSigns:
    # every +-1 draw goes through `_signs`: a support class's (s,) + group
    # shape, a VAR cell's (p,) lags, and a chunk of m full or lowrank packing
    # candidates, (m, d) and (m, d1, r); each must draw the values and leave
    # the generator state of Generator.choice over the two signs
    @pytest.mark.parametrize(
        "size", [(5,), (3, 4), (2, 4, 5), 3, (4096, 12), (4096, 6, 2)]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_draws_what_choice_draws(self, size, seed):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        signs = _signs(got, size)
        ref = want.choice([-1.0, 1.0], size=size)
        assert signs.dtype == ref.dtype and signs.shape == ref.shape
        np.testing.assert_array_equal(signs, ref)
        assert got.bit_generator.state == want.bit_generator.state


class TestGenTruth:
    def test_theta1_empty(self):
        spec = ModelClassSpec("theta1", (3, 3, 3), s=0)
        np.testing.assert_array_equal(gen_truth(spec, 0), np.zeros((3, 3, 3)))

    def test_theta1_support(self):
        spec = ModelClassSpec("theta1", (4, 4, 4), s=5)
        t = gen_truth(spec, 1)
        assert np.count_nonzero(t) == 5
        assert set(np.abs(t[t != 0])) == {1.0}
        assert class_certificate(spec, t)["ok"]

    def test_theta2_fibers(self):
        spec = ModelClassSpec("theta2", (3, 4, 5), s=3, mode=1)
        t = gen_truth(spec, 2)
        norms = np.sqrt((t * t).sum(axis=1))
        assert np.count_nonzero(norms) == 3
        assert class_certificate(spec, t)["ok"]

    def test_theta3_slices(self):
        spec = ModelClassSpec("theta3", (3, 4, 6), s=2, axes=(0, 1))
        t = gen_truth(spec, 3)
        assert class_certificate(spec, t)["ok"]

    def test_theta4_slice_ranks(self):
        spec = ModelClassSpec("theta4", (4, 5, 6), s=None, r=3, axes=(0, 1))
        t = gen_truth(spec, 4)
        cert = class_certificate(spec, t)
        assert cert["ok"] and sum(cert["slice_ranks"]) == 3

    def test_theta5_tucker_rank_one(self):
        spec = ModelClassSpec("theta5", (4, 4, 4), r=1)
        t = gen_truth(spec, 5)
        for k in range(3):
            assert np.linalg.matrix_rank(matricize(t, [k]), tol=1e-10) == 1
        assert class_certificate(spec, t)["ok"]
        assert np.linalg.norm(t) == pytest.approx(1.0)

    def test_t1_is_slice_sparse_on_first_axis(self):
        spec = ModelClassSpec("t1", (50, 4, 4), s=3)
        t = gen_truth(spec, 6)
        norms = np.sqrt((t * t).sum(axis=(1, 2)))
        assert np.count_nonzero(norms) == 3
        assert class_certificate(spec, t)["ok"]

    def test_t4_components_centered_low_rank(self):
        spec = ModelClassSpec("t4", (6, 6, 6), r=2, magnitude=1.0)
        comps = gen_pairwise_components(spec, 7)
        for m in comps:
            assert float(np.abs(m.sum(axis=0)).max()) < 1e-12
            assert float(np.abs(m.sum(axis=1)).max()) < 1e-12
            assert np.linalg.matrix_rank(m, tol=1e-10) <= 2
        t = gen_truth(spec, 7)
        assert class_certificate(spec, t)["ok"]

    def test_infeasible(self):
        with pytest.raises(ValidationError, match="need 0 <= s <= 8 entries"):
            gen_truth(ModelClassSpec("theta1", (2, 2, 2), s=9), 0)
        with pytest.raises(ValidationError, match="need 1 <= r <= 3"):
            gen_truth(ModelClassSpec("theta5", (3, 3, 3), r=4), 0)
        with pytest.raises(ValidationError, match="pairwise rank must satisfy 1 <= r"):
            gen_truth(ModelClassSpec("t4", (3, 3, 3), r=3), 0)

    def test_json_round_trip(self):
        spec = ModelClassSpec("theta3", (3, 4, 6), s=2, axes=(0, 2), magnitude=2.0)
        assert ModelClassSpec.from_json(spec.to_json()) == spec


class TestGenProblem:
    def test_noiseless_interpolation(self):
        t = gen_truth(ModelClassSpec("theta1", (3, 3, 3), s=4), 8)
        p = gen_problem(t, 25, 3, 0.0, seed=9)
        assert objective(p, entry_l1(), 0.0, t) == pytest.approx(0.0, abs=1e-22)

    def test_identity_design_covariance(self):
        t = gen_truth(ModelClassSpec("theta1", (2, 2, 2), s=2), 10)
        p = gen_problem(t, 5000, 3, 1.0, seed=11)
        flat = p.covariates.reshape(5000, -1)
        cov = flat.T @ flat / 5000
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() > 0.8 and eig.max() < 1.2

    def test_scalar_response_shape(self):
        t = gen_truth(ModelClassSpec("theta1", (3, 3, 3), s=2), 12)
        p = gen_problem(t, 10, 3, 0.5, seed=13)
        assert p.resp_shape == ()
        pred = inner(p.covariates[0], t)
        assert np.isscalar(pred) or np.asarray(pred).shape == ()

    def test_covariance_factor(self):
        t = gen_truth(ModelClassSpec("theta1", (2, 2, 2), s=2), 14)
        factor = np.diag(np.linspace(0.5, 2.0, 8))
        p = gen_problem(t, 4000, 3, 0.0, design=factor, seed=15)
        flat = p.covariates.reshape(4000, -1)
        emp = np.sqrt((flat**2).mean(axis=0))
        np.testing.assert_allclose(emp, np.diag(factor), rtol=0.1)

    def test_bad_factor(self):
        t = gen_truth(ModelClassSpec("theta1", (2, 2, 2), s=1), 16)
        with pytest.raises(ValidationError, match="factor must be a finite 8x8 matrix"):
            gen_problem(t, 5, 3, 0.0, design=np.zeros((3, 3)), seed=0)
        with pytest.raises(ValidationError, match="factor must be a finite 8x8 matrix"):
            gen_problem(t, 5, 3, 0.0, design=np.full((8, 8), np.nan), seed=0)


class TestGenSufficientStats:
    def test_wishart_moments(self):
        # [x; y] with x ~ N(0, I_4) and y = <theta, x> + sigma e has the
        # covariance S below; its Gram matrix over n rows is Wishart(n, S):
        # E W = n S and Var W_ij = n (S_ii S_jj + S_ij^2)
        theta = np.array([1.0, -0.5, 0.0, 2.0])
        sigma, n, draws = 0.7, 9, 8000
        cov = np.eye(5)
        cov[:4, 4] = cov[4, :4] = theta
        cov[4, 4] = theta @ theta + sigma**2
        ws = np.empty((draws, 5, 5))
        for k in range(draws):
            st = gen_sufficient_stats(theta.reshape(2, 2, 1), n, 2, sigma, seed=k)
            ws[k, :4, :4] = st.gram
            ws[k, :4, 4] = ws[k, 4, :4] = st.xty.ravel()
            ws[k, 4, 4] = st.yty
        var = n * (np.outer(np.diag(cov), np.diag(cov)) + cov**2)
        assert np.all(np.abs(ws.mean(axis=0) - n * cov) <= 4.5 * np.sqrt(var / draws))
        np.testing.assert_allclose(ws.var(axis=0), var, rtol=0.08)

    def test_shapes_and_replay(self):
        t = gen_truth(ModelClassSpec("t1", (6, 2, 2), s=2), 3)
        a = gen_sufficient_stats(t, 40, 2, 0.5, seed=4)
        b = gen_sufficient_stats(t, 40, 2, 0.5, seed=4)
        assert a.gram.shape == (12, 12) and a.xty.shape == t.shape
        assert (a.n, a.split) == (40, 2)
        np.testing.assert_array_equal(a.truth, t)
        np.testing.assert_array_equal(a.gram, b.gram)
        np.testing.assert_array_equal(a.xty, b.xty)
        assert a.yty == b.yty

    @pytest.mark.parametrize("n", [4, 5])
    def test_rejects_n_up_to_d_plus_q_and_negative_sigma(self, n):
        t = np.zeros((2, 2, 1))
        gen_sufficient_stats(t, 6, 2, 1.0)  # n = d + q + 1 is the smallest n
        with pytest.raises(ValueError, match=rf"n > d \+ q = 5, got n = {n}"):
            gen_sufficient_stats(t, n, 2, 1.0)
        with pytest.raises(ValueError, match="noise_sigma"):
            gen_sufficient_stats(t, 50, 2, -0.1)


class TestGenSamples:
    """A rate cell draws each sample by its class's one rule, so every
    sample is the one its own seeds give through the direct calls."""

    SEEDS = [(10 + i, 20 + i) for i in range(5)]

    @staticmethod
    def _assert_same(a, b):
        assert type(a) is type(b)
        names = (
            ("gram", "xty", "yty", "n", "split", "truth")
            if isinstance(a, SufficientStats)
            else ("covariates", "responses", "split", "noise_sigma", "truth")
        )
        for name in names:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    # d + q = 27 + 1 = 28 for a 3x3x3 truth at split 3
    @pytest.mark.parametrize(
        "n, draw", [(28, gen_problem), (29, gen_sufficient_stats)],
        ids=["data", "statistics"],
    )
    def test_iid_cells(self, n, draw):
        spec = ModelClassSpec("theta1", (3, 3, 3), s=2)
        got = list(gen_samples(spec, n, 3, 0.5, self.SEEDS))
        assert len(got) == len(self.SEEDS)
        for sample, (tseed, pseed) in zip(got, self.SEEDS):
            want = draw(gen_truth(spec, tseed), n, 3, 0.5, seed=pseed)
            self._assert_same(sample, want)

    # a 3x2x3 VAR truth has m p = 6 lag coordinates, and p = 2: the five
    # series run as lockstep groups of 3 and 2
    def test_var_panel(self):
        # n = 40 > 6: each sample is the statistics of its own series, as a
        # solver reduces the series' flattened lag design
        spec = ModelClassSpec("t3", (3, 2, 3), s=2)
        got = list(gen_samples(spec, 40, 2, 1.0, self.SEEDS))
        assert len(got) == len(self.SEEDS)
        for sample, (tseed, pseed) in zip(got, self.SEEDS):
            series = gen_var_series(gen_var_model(3, 2, 2, seed=tseed), 40, seed=pseed)
            x2, y = series.covariates.reshape(40, 6), series.responses
            want = SufficientStats(
                gram=x2.T @ x2, xty=(x2.T @ y).reshape(3, 2, 3), yty=float((y * y).sum()),
                n=40, split=2, truth=series.truth,
            )
            self._assert_same(sample, want)
            assert np.array_equal(sample.truth, gen_truth(spec, tseed))

    def test_var_panel_at_most_m_p_is_the_series(self, monkeypatch):
        # n = 6 = m p: the series still run in lockstep, as groups of 3 and 2
        sizes = []
        real = datagen._var_group
        monkeypatch.setattr(datagen, "_var_group",
                            lambda models, *rest: sizes.append(len(models)) or real(models, *rest))
        spec = ModelClassSpec("t3", (3, 2, 3), s=2)
        got = list(gen_samples(spec, 6, 2, 1.0, self.SEEDS))
        assert sizes == [3, 2]
        assert len(got) == len(self.SEEDS)
        for sample, (tseed, pseed) in zip(got, self.SEEDS):
            want = gen_var_series(gen_var_model(3, 2, 2, seed=tseed), 6, seed=pseed)
            self._assert_same(sample, want)
            for name in ("covariates", "responses"):  # bit for bit
                assert getattr(sample, name).tobytes() == getattr(want, name).tobytes()
            assert np.array_equal(sample.truth, gen_truth(spec, tseed))

    @pytest.mark.parametrize("split, sigma", [(3, 1.0), (2, 0.5), (2, True)])
    def test_var_takes_only_its_layout(self, monkeypatch, split, sigma):
        monkeypatch.setattr(datagen, "gen_var_panel", pytest.fail)
        spec = ModelClassSpec("t3", (3, 2, 3), s=2)
        with pytest.raises(ValidationError, match="noise_sigma"):
            gen_samples(spec, 40, split, sigma, self.SEEDS)

    def test_var_shape_must_be_m_p_m(self):
        spec = ModelClassSpec("t3", (3, 2, 5), s=2)
        for draw in (lambda: gen_truth(spec, 0),
                     lambda: gen_samples(spec, 40, 2, 1.0, self.SEEDS)):
            with pytest.raises(ValidationError, match=r"\(m, p, m\)"):
                draw()


class TestVarModel:
    def test_rejects_unstable(self):
        with pytest.raises(ValidationError, match="companion spectral radius 1.2000 >= 1"):
            VarModel(coeffs=np.array([[[1.2]]]))

    def test_json_round_trip(self):
        m = gen_var_model(3, 2, s=4, seed=17)
        back = VarModel.from_json(m.to_json())
        np.testing.assert_allclose(back.coeffs, m.coeffs)
        assert back.burn_in == m.burn_in

    def test_gen_var_model_properties(self):
        m = gen_var_model(5, 3, s=6, seed=18, target_rho=0.7)
        assert m.spectral_radius() == pytest.approx(0.7, abs=1e-9)
        fibers = np.sqrt((m.coeffs**2).sum(axis=0))
        assert np.count_nonzero(fibers) == 6

    def test_truth_layouts_agree(self):
        m = gen_var_model(3, 2, s=3, seed=19)
        t_prob = var_truth(m)  # (m, p, m) problem layout
        for k in range(3):
            for l in range(3):
                for j in range(2):
                    assert t_prob[l, j, k] == m.coeffs[j, k, l]


class TestVarSeries:
    def test_white_noise_when_no_dynamics(self):
        m = VarModel(coeffs=np.zeros((1, 1, 1)))
        p = gen_var_series(m, 2000, seed=20)
        x = p.responses[:, 0]
        ac = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(ac) < 0.1

    def test_ar1_autocorrelation(self):
        m = VarModel(coeffs=np.full((1, 1, 1), 0.5))
        p = gen_var_series(m, 5000, seed=21)
        x = p.responses[:, 0]
        ac = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert ac == pytest.approx(0.5, abs=0.05)

    def test_bookkeeping_identity(self):
        # the stored series satisfies y_t = <X_t, T> + eps_t with the exact
        # innovations regenerated from the same stream
        m = gen_var_model(3, 2, s=4, seed=22)
        n = 50
        p = gen_var_series(m, n, seed=23)
        total = m.burn_in + m.p + n
        eps = np.random.default_rng(23).standard_normal((total, 3))
        start = m.burn_in + m.p
        for t in range(n):
            pred = inner(p.covariates[t], p.truth)
            np.testing.assert_allclose(
                p.responses[t], pred + eps[start + t], atol=1e-12
            )

    def test_stationarity_after_burn_in(self):
        m = gen_var_model(4, 2, s=5, seed=24, target_rho=0.6)
        p = gen_var_series(m, 4000, seed=25)
        x = p.responses
        c1 = np.cov(x[:2000].T)
        c2 = np.cov(x[2000:].T)
        rel = np.linalg.norm(c1 - c2) / np.linalg.norm(c1)
        assert rel < 0.10


def _reference_var_series(model, n, seed):
    """A plain one-series loop of the step `gen_var_panel` takes,
    x_t = eps_t + [A_p ... A_1] x_{t-p:t}, kept as its reference:
    covariates and responses of `gen_var_series`."""
    rng = np.random.default_rng(seed)
    p, m = model.p, model.m
    total = model.burn_in + p + n
    xs = np.zeros((p + total, m))  # p zero lags before the first step
    xs[p:] = rng.standard_normal((total, m))
    stacked = np.concatenate(model.coeffs[::-1], axis=1)
    for t in range(p, p + total):
        xs[t] += stacked @ xs[t - p : t].ravel()
    start = p + model.burn_in + p
    cov = np.zeros((n, m, p))
    for j in range(1, p + 1):
        cov[:, :, j - 1] = xs[start - j : start - j + n]
    return cov, xs[start : start + n]


class TestVarPanel:
    @staticmethod
    def _panel(m, p, count):
        models = [
            gen_var_model(m, p, s=min(m * m, 4), seed=60 + i) for i in range(count)
        ]
        seeds = np.random.SeedSequence(61).spawn(count)
        return models, seeds

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bit_identical_to_the_step_loop(self, p, n):
        # p + 4 series run as two lockstep groups
        models, seeds = self._panel(3, p, p + 4)
        problems = list(gen_var_panel(models, n, seeds))
        assert len(problems) == len(models)
        for model, seed, prob in zip(models, seeds, problems):
            cov, resp = _reference_var_series(model, n, seed)
            assert np.array_equal(prob.covariates, cov)
            assert np.array_equal(prob.responses, resp)
            assert np.array_equal(prob.truth, var_truth(model))
            assert prob.meta == {"model": model.to_json(), "seed": seed}

    @pytest.mark.parametrize("count", [1, 3])
    def test_bit_identical_for_one_variable_at_many_lags(self, count):
        # one scalar series at p = 8: each step's product is a dot product of
        # eight lags, batched or not
        models, seeds = self._panel(1, 8, count)
        problems = gen_var_panel(models, 40, seeds)
        for model, seed, prob in zip(models, seeds, problems):
            cov, resp = _reference_var_series(model, 40, seed)
            assert np.array_equal(prob.covariates, cov)
            assert np.array_equal(prob.responses, resp)

    def test_series_is_its_panel_element(self):
        models, seeds = self._panel(3, 2, 6)
        for i, prob in enumerate(gen_var_panel(models, 30, seeds)):
            alone = gen_var_series(models[i], 30, seeds[i])
            assert np.array_equal(alone.covariates, prob.covariates)
            assert np.array_equal(alone.responses, prob.responses)

    def test_covariates_are_read_only_lag_views(self):
        model = gen_var_model(3, 2, s=4, seed=62)
        prob = gen_var_series(model, 20, seed=63)
        assert not prob.covariates.flags.writeable
        assert np.shares_memory(prob.covariates, prob.responses)
        # X_{t+1}[:, 0] is the previous response x_t
        assert np.array_equal(prob.covariates[1:, :, 0], prob.responses[:-1])

    def test_rejects_bad_panels(self):
        a = gen_var_model(3, 2, s=4, seed=64)
        with pytest.raises(ValueError, match="at least one"):
            gen_var_panel([], 10, [])
        with pytest.raises(ValueError, match="one seed per model"):
            gen_var_panel([a, a], 10, [1])
        for other in (
            gen_var_model(3, 1, s=4, seed=65),
            gen_var_model(4, 2, s=4, seed=65),
            VarModel(coeffs=a.coeffs, burn_in=a.burn_in + 1),
        ):
            with pytest.raises(ValidationError, match="p, m and burn_in"):
                gen_var_panel([a, other], 10, [1, 2])


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_samplers_reject_a_nonfinite_or_negative_sigma(sigma):
    truth = np.zeros((2, 2, 1))
    for draw in (gen_problem, gen_sufficient_stats):
        with pytest.raises(ValueError, match="noise_sigma must be a finite number >= 0"):
            draw(truth, 50, 2, sigma)


@pytest.mark.parametrize("n", [0, -3, 2.5, 10.0, True, "10", None])
def test_samplers_reject_a_bad_sample_count(n):
    truth = np.zeros((2, 2, 1))
    model = gen_var_model(2, 1, s=2, seed=66)
    for draw in (
        lambda: gen_problem(truth, n, 2, 1.0),
        lambda: gen_sufficient_stats(truth, n, 2, 1.0),
        lambda: gen_var_series(model, n),
        lambda: gen_var_panel([model], n, [0]),
    ):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            draw()


class TestVarExtrema:
    def test_closed_form_half_identity(self):
        m = VarModel(coeffs=0.5 * np.eye(3)[None, :, :])
        res = var_spectral_extrema(m)
        assert res["mu_min"] == pytest.approx(0.25, abs=1e-6)
        assert res["mu_max"] == pytest.approx(2.25, abs=1e-6)

    def test_no_dynamics_gives_unit_extrema(self):
        m = VarModel(coeffs=np.zeros((2, 3, 3)))
        res = var_spectral_extrema(m)
        assert res["mu_min"] == pytest.approx(1.0, abs=1e-12)
        assert res["mu_max"] == pytest.approx(1.0, abs=1e-12)

    def test_grid_validation(self):
        m = VarModel(coeffs=np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            var_spectral_extrema(m, grid=32)

    def test_empirical_norm_sandwich(self):
        # quick version of the conditioning sandwich at moderate n
        m = gen_var_model(3, 2, s=4, seed=26, target_rho=0.6)
        res = var_spectral_extrema(m)
        p = gen_var_series(m, 2000, seed=27)
        delta = np.random.default_rng(28).standard_normal((3, 2, 3))
        from tenreg.solver import empirical_norm

        emp2 = empirical_norm(p, delta) ** 2
        f2 = float((delta * delta).sum())
        assert emp2 >= f2 / res["mu_max"] * 0.85
        assert emp2 <= f2 / res["mu_min"] * 1.15


# sha256 prefixes of gen_truth(...).tobytes() on a non-cubic shape, recorded
# before the slice and fiber writes went through views (theta1: before the
# entries were written through the same group view)
GOLDEN_SHAPE = (4, 5, 6)
GOLDEN_TRUTHS = {
    ("theta1", (("s", 5),)): (
        "7c8664d63f09f55a", "cd3c81d17ffb18ee", "74fb443a96843b9c"),
    ("theta1", (("magnitude", 2.5), ("s", 12))): (
        "318d6f45c8756604", "8249cdc82e748ef7", "2c61cd9d50b8541e"),
    ("theta2", (("mode", 0), ("s", 3))): (
        "c9a8a898d3054e28", "0f6f596a2dcfde7d", "7152bc13f4fa696d"),
    ("theta2", (("mode", 1), ("s", 3))): (
        "de3feb1ad1fee1f4", "3ded9cea4d6de641", "752b24bb1be05315"),
    ("theta2", (("mode", 2), ("s", 3))): (
        "ac24d05a9fed22e7", "87e33be4d1b6a468", "9dd8c7bccc48ca93"),
    ("theta3", (("axes", (0, 1)), ("s", 2))): (
        "05d8979f561db1d2", "a09e801f1cffb8c0", "f3d4afacd3134667"),
    ("theta3", (("axes", (0, 2)), ("s", 2))): (
        "864fd88156a611bd", "ae7565d4be2ce445", "4e43fef1203bec35"),
    ("theta3", (("axes", (1, 2)), ("s", 2))): (
        "1d131e5ed8f3685a", "1402340cca9db086", "10d39424c428d3eb"),
    ("theta4", (("axes", (0, 1)), ("r", 3))): (
        "dd00c0dbc840e3fd", "14a6e3a87373b067", "160a11ce9181eb98"),
    ("theta4", (("axes", (0, 2)), ("r", 3))): (
        "6540fc3bb1d7d7af", "fd226176e960ea69", "66ccbab4f5036842"),
    ("theta4", (("axes", (1, 2)), ("r", 3))): (
        "08535c029f87dcda", "2a3374fda20494c0", "4bff2fb6b05c7e39"),
    ("t1", (("s", 2),)): (
        "1d131e5ed8f3685a", "1402340cca9db086", "10d39424c428d3eb"),
    ("t2", (("r", 3),)): (
        "08535c029f87dcda", "2a3374fda20494c0", "4bff2fb6b05c7e39"),
}


class TestGroupGeometry:
    @pytest.mark.parametrize(
        "kind, params", list(GOLDEN_TRUTHS), ids=lambda v: str(v).replace(" ", "")
    )
    def test_truth_bytes_are_unchanged(self, kind, params):
        spec = ModelClassSpec(kind, GOLDEN_SHAPE, **dict(params))
        for seed, want in enumerate(GOLDEN_TRUTHS[kind, params]):
            t = gen_truth(spec, seed)
            assert hashlib.sha256(t.tobytes()).hexdigest()[:16] == want
            assert class_certificate(spec, t)["ok"]

    @pytest.mark.parametrize("kind, budget", [("theta3", {"s": 2}), ("theta4", {"r": 5})])
    @pytest.mark.parametrize("axes", [(1, 0), (2, 0), (2, 1)])
    def test_reversed_pair_on_non_square_slices(self, kind, budget, axes):
        spec = ModelClassSpec(kind, GOLDEN_SHAPE, axes=axes, **budget)
        t = gen_truth(spec, 3)
        assert np.any(t)
        assert class_certificate(spec, t)["ok"]

    @pytest.mark.parametrize("kind, budget", [("theta3", {"s": 2}), ("theta4", {"r": 5})])
    def test_reversed_pair_is_the_transposed_draw(self, kind, budget):
        shape = (4, 4, 6)
        fwd = gen_truth(ModelClassSpec(kind, shape, axes=(0, 1), **budget), 5)
        rev = gen_truth(ModelClassSpec(kind, shape, axes=(1, 0), **budget), 5)
        # the first axis of the pair indexes the rows of each slice
        np.testing.assert_array_equal(rev, fwd.transpose(1, 0, 2))

    def test_norm_axes(self):
        assert ModelClassSpec("t1", GOLDEN_SHAPE, axes=(0, 2)).norm_axes == (1, 2)
        assert ModelClassSpec("t2", GOLDEN_SHAPE).norm_axes == (1, 2)
        assert ModelClassSpec("theta3", GOLDEN_SHAPE, axes=(2, 0)).norm_axes == (2, 0)
        assert ModelClassSpec("theta1", GOLDEN_SHAPE, axes=(2, 0)).norm_axes == ()
        assert ModelClassSpec("theta2", GOLDEN_SHAPE, mode=2).norm_axes == (2,)
        assert ModelClassSpec("t3", (4, 3, 4), mode=2).norm_axes == (1,)

    # recorded before the t3 certificate counted through the group norms
    @pytest.mark.parametrize(
        "shape, s, hashes",
        [((4, 3, 4), 3, ("ee93364f21d90dd0", "6091594c7dea74ac", "fa0ca0dd932c8f21")),
         ((5, 2, 5), 7, ("e4b17d8326a0d342", "5f9e457c354e1da3", "9076dca87dc540d5"))],
    )
    def test_t3_truths_and_certificates(self, shape, s, hashes):
        spec = ModelClassSpec("t3", shape, s=s)
        for seed, want in enumerate(hashes):
            t = gen_truth(spec, seed)
            assert hashlib.sha256(t.tobytes()).hexdigest()[:16] == want
            assert class_certificate(spec, t) == {"ok": True, "nonzero_interactions": s}

    def test_support_certificates_count_group_norms(self):
        # one certificate per class on the same tensor; the 1e-300 entry is
        # a nonzero entry, whose group is nonzero although its square
        # underflows to zero
        t = np.zeros((4, 3, 4))
        t[0, 1, 2], t[0, 2, 2], t[3, 0, 1], t[2, 2, 0] = 1.0, -2.0, 1e-300, 5.0
        want = {
            ("theta1", ()): {"ok": False, "nonzero_entries": 4},
            ("theta2", (("mode", 1),)): {"ok": True, "nonzero_fibers": 3},
            ("theta3", (("axes", (2, 0)),)): {"ok": True, "nonzero_slices": 3},
            ("t1", ()): {"ok": True, "nonzero_slices": 3},
            ("t3", ()): {"ok": True, "nonzero_interactions": 3},
        }
        for (kind, params), cert in want.items():
            spec = ModelClassSpec(kind, (4, 3, 4), s=3, **dict(params))
            assert class_certificate(spec, t) == cert

    @pytest.mark.parametrize(
        "kind, params, message",
        [("theta1", {"s": 121}, "need 0 <= s <= 120 entries"),
         ("theta2", {"s": 31, "mode": 2}, "need 0 <= s <= 20 fibers"),
         ("theta3", {"s": 7, "axes": (0, 1)}, "need 0 <= s <= 6 slices"),
         ("t1", {"s": -1}, "need 0 <= s <= 4 slices"),
         ("theta2", {}, "need 0 <= s <= 30 fibers")],
    )
    def test_support_budget_out_of_range(self, kind, params, message):
        with pytest.raises(ValidationError, match=message):
            gen_truth(ModelClassSpec(kind, GOLDEN_SHAPE, **params), 0)

    @pytest.mark.parametrize(
        "s, message",
        [(None, "s must be an integer >= 1, got None"),
         (0, "s must be an integer >= 1, got 0"),
         (17, "need 1 <= s <= 16")],
        ids=["None", "0", "17"],
    )
    def test_var_budget_out_of_range(self, s, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            gen_truth(ModelClassSpec("t3", (4, 3, 4), s=s), 0)

    def test_numpy_scalars_are_accepted(self):
        spec = ModelClassSpec(
            "theta1", (np.int64(3), 3, 3), s=np.int64(2), magnitude=np.float64(0.5)
        )
        assert np.count_nonzero(gen_truth(spec, 0)) == 2

    @pytest.mark.parametrize(
        "field, value, error",
        [("shape", (4.0, 4, 4), ValueError),
         ("shape", (-2, 4, 4), ValueError),
         ("shape", (0, 4, 4), ValueError),
         ("shape", (True, 4, 4), ValueError),
         ("mode", -1, ValueError),
         ("mode", 3, ValueError),
         ("mode", 1.0, ValueError),
         ("axes", (0, 5), ValidationError),
         ("axes", (1, 1), ValidationError),
         ("axes", (0, 1.0), ValidationError),
         ("axes", (0, 1, 2), ValidationError),
         ("axes", None, ValidationError),
         ("shape", 4, ValueError),
         ("shape", None, ValueError),
         ("s", "2", ValueError),
         ("s", 1.5, ValueError),
         ("s", True, ValueError),
         ("r", 2.0, ValueError),
         ("r", False, ValueError),
         ("magnitude", "big", ValueError),
         ("magnitude", float("nan"), ValueError),
         ("magnitude", float("inf"), ValueError),
         ("magnitude", True, ValueError)],
    )
    def test_bad_geometry_is_rejected(self, field, value, error):
        kw = {"shape": (4, 4, 4), "s": 1, field: value}
        with pytest.raises(error, match=f"^{field} must be"):
            ModelClassSpec("theta2", **kw)
