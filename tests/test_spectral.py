import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tenreg import regularizers, spectral
from tenreg.errors import ValidationError
from tenreg.regularizers import (
    RegularizerSpec,
    entry_l1,
    fiber_group,
    matricized_nuclear_sum,
    slice_frob,
    slice_nuclear,
    tensor_spectral,
)
from tenreg.spectral import (
    WidthEstimate,
    _hopm,
    gaussian_width,
    gaussian_width_mc,
    hopm_spectral,
    matrix_svt,
    width_rate_expression,
)

rng = np.random.default_rng(11)


class TestMatrixSvt:
    def test_zero_threshold_is_identity(self):
        z = rng.standard_normal((4, 6))
        np.testing.assert_allclose(matrix_svt(z, 0.0), z, atol=1e-12)

    def test_diagonal_case(self):
        np.testing.assert_allclose(
            matrix_svt(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_residual_spectral_norm_bounded(self):
        for _ in range(50):
            z = rng.standard_normal((5, 7))
            t = float(rng.random() * 2)
            x = matrix_svt(z, t)
            resid_spec = np.linalg.svd(z - x, compute_uv=False)[0]
            assert resid_spec <= t + 1e-8

    def test_minimizes_objective(self):
        z = rng.standard_normal((4, 4))
        t = 0.7
        x = matrix_svt(z, t)
        nuc = lambda m: np.linalg.svd(m, compute_uv=False).sum()
        base = 0.5 * ((x - z) ** 2).sum() + t * nuc(x)
        for _ in range(200):
            d = rng.standard_normal((4, 4))
            d *= 1e-3 / np.linalg.norm(d)
            assert base <= 0.5 * ((x + d - z) ** 2).sum() + t * nuc(x + d) + 1e-12


    @pytest.mark.parametrize("shape", [(3, 4, 6), (2, 5, 5, 3), (4, 1, 3)])
    @pytest.mark.parametrize("t", [0.0, 0.4])
    def test_a_stack_is_thresholded_matrix_by_matrix(self, shape, t):
        z = np.random.default_rng(12).standard_normal(shape)
        # the rank cut is relative to each matrix's own largest value
        z[0] *= 1e-13
        want = np.empty_like(z)
        for idx in np.ndindex(shape[:-2]):
            want[idx] = matrix_svt(z[idx], t)
        np.testing.assert_array_equal(matrix_svt(z, t), want)
        np.testing.assert_array_equal(matrix_svt(np.zeros(shape), t), 0.0)

    @pytest.mark.parametrize("z", [np.ones(3), np.float64(1.0)], ids=["1-D", "0-D"])
    def test_a_non_matrix_is_refused_by_its_shape(self, z):
        # a shape error, not an SVD that failed to converge
        with pytest.raises(ValidationError, match=re.escape(f"got shape {np.shape(z)}")):
            matrix_svt(z, 0.1)


def sphere_grid_oracle(a, npoints=2000):
    """Exhaustive maximization over one parameterized unit circle, exact
    inner maximization over the remaining two factors via the top singular
    value of the contracted matrix.  Feasible at d1 = 2."""
    best = 0.0
    for theta in np.linspace(0, 2 * np.pi, npoints, endpoint=False):
        u = np.array([np.cos(theta), np.sin(theta)])
        mat = np.einsum("ijk,i->jk", a, u)
        best = max(best, np.linalg.svd(mat, compute_uv=False)[0])
    return best


class TestHopm:
    def test_rank_one(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        a = 5.0 * np.einsum("i,j,k->ijk", e1, e1, e1)
        res = hopm_spectral(a, rng=np.random.default_rng(0))
        assert res["value"] == pytest.approx(5.0, rel=1e-10)
        u, v, w = res["factors"]
        sign_product = np.sign(u[0]) * np.sign(v[0]) * np.sign(w[0])
        assert sign_product == 1.0
        for f in (u, v, w):
            np.testing.assert_allclose(np.abs(f), e1, atol=1e-9)

    def test_matches_grid_oracle_at_d2(self):
        for seed in range(5):
            a = np.random.default_rng(seed).standard_normal((2, 2, 2))
            res = hopm_spectral(a, restarts=10, rng=np.random.default_rng(seed + 100))
            oracle = sphere_grid_oracle(a)
            assert res["value"] == pytest.approx(oracle, abs=1e-3)

    def test_homogeneity(self):
        a = rng.standard_normal((3, 4, 2))
        v1 = hopm_spectral(a, restarts=5, rng=np.random.default_rng(1))["value"]
        v2 = hopm_spectral(2.5 * a, restarts=5, rng=np.random.default_rng(1))["value"]
        assert v2 == pytest.approx(2.5 * v1, rel=1e-9)

    def test_value_bounds(self):
        for _ in range(10):
            a = rng.standard_normal((3, 3, 4))
            res = hopm_spectral(a, restarts=5, rng=rng)
            assert res["value"] <= np.linalg.norm(a) * (1 + 1e-12)
            u, v, w = res["factors"]
            attained = float(np.einsum("ijk,i,j,k->", a, u, v, w))
            assert res["value"] >= (1 - 1e-9) * abs(attained)

    def test_zero_tensor(self):
        with pytest.raises(ValidationError, match="spectral norm of the zero tensor"):
            hopm_spectral(np.zeros((2, 2, 2)), rng=rng)

    def test_order_two_input_is_a_shape_error(self):
        with pytest.raises(ValidationError, match="expected an order-3 tensor"):
            hopm_spectral(np.ones((2, 2)), rng=rng)

    def test_nan_entry_rejected(self):
        a = np.random.default_rng(0).standard_normal((3, 3, 3))
        a[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            hopm_spectral(a, rng=np.random.default_rng(0))

    def test_all_inf_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hopm_spectral(np.full((2, 3, 2), np.inf), rng=np.random.default_rng(0))


class TestGaussianWidth:
    def test_matches_flat_max_abs_oracle_same_stream(self):
        shape = (10, 10, 10)
        draws = 500
        est = gaussian_width_mc(entry_l1(), shape, draws=draws, seed=17)
        # independent flat-vector simulation on the identical stream: one
        # worker draws from the seed's own SeedSequence
        oracle_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
        vals = []
        left = draws
        while left > 0:
            m = min(256, left)
            g = oracle_rng.standard_normal((m,) + shape).reshape(m, -1)
            vals.append(np.abs(g).max(axis=1))
            left -= m
        oracle_mean = float(np.concatenate(vals).mean())
        assert est.mean == pytest.approx(oracle_mean, abs=0)

    def test_unit_shape_half_normal_mean(self):
        target = np.sqrt(2.0 / np.pi)
        for spec in [entry_l1(), fiber_group(0), slice_frob((0, 1))]:
            est = gaussian_width_mc(spec, (1, 1, 1), draws=4000, seed=3)
            assert abs(est.mean - target) <= 3 * est.std_error

    def test_unit_shape_matricized_scales_by_three(self):
        est = gaussian_width_mc(matricized_nuclear_sum(), (1, 1, 1), draws=4000, seed=3)
        assert abs(est.mean - 3 * np.sqrt(2.0 / np.pi)) <= 3 * est.std_error

    def test_entry_l1_log_scaling_band(self):
        # frozen from the Monte-Carlo oracle: ratios hover near 1.3 at desk
        # scale and drift slowly, so stability matters more than the level
        ratios = []
        for d in (5, 10, 20):
            est = gaussian_width_mc(entry_l1(), (d, d, d), draws=2000, seed=5)
            ratios.append(est.mean / np.sqrt(3 * np.log(d)))
        assert all(0.7 <= r <= 1.4 for r in ratios)
        assert max(ratios) / min(ratios) <= 1.1

    def test_std_error_shrinks_with_draws(self):
        small = gaussian_width_mc(entry_l1(), (5, 5, 5), draws=100, seed=9)
        large = gaussian_width_mc(entry_l1(), (5, 5, 5), draws=10000, seed=9)
        ratio = small.std_error / large.std_error
        assert 7.0 <= ratio <= 13.0

    def test_deterministic(self):
        a = gaussian_width_mc(entry_l1(), (4, 4, 4), draws=300, seed=21)
        b = gaussian_width_mc(entry_l1(), (4, 4, 4), draws=300, seed=21)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_spectral_band(self):
        for d in (4, 6):
            est = gaussian_width_mc(
                tensor_spectral(),
                (d, d, d),
                draws=200,
                seed=2,
                hopm_restarts=6,
                hopm_iters=60,
            )
            assert 0.5 * np.sqrt(3 * d) <= est.mean <= 4 * np.log(12) * 3 * np.sqrt(d)

    def test_group_l2_linf_product_ball_bound(self):
        # sup over the l2 x l1 product ball equals the largest column norm;
        # its mean stays below 3 (sqrt(d1) + sqrt(log d2))
        for d1, d2 in [(5, 50), (10, 100)]:
            g = np.random.default_rng(4).standard_normal((2000, d1, d2))
            sup = np.sqrt((g * g).sum(axis=1)).max(axis=1)
            assert sup.mean() <= 3 * (np.sqrt(d1) + np.sqrt(np.log(d2)))

    def test_rate_expressions(self):
        assert width_rate_expression(entry_l1(), (4, 4, 4)) == pytest.approx(
            np.sqrt(np.log(64))
        )
        # an entry is a group of size 1, so the law is max(1, log d1d2d3)
        for shape in [(1, 1, 1), (1, 2, 1), (2, 1, 1)]:
            assert width_rate_expression(entry_l1(), shape) == 1.0
        assert width_rate_expression(entry_l1(), (3, 1, 1)) == np.sqrt(np.log(3))
        assert width_rate_expression(fiber_group(0), (40, 5, 5)) == pytest.approx(
            np.sqrt(40)
        )
        assert width_rate_expression(
            matricized_nuclear_sum(), (3, 4, 5)
        ) == pytest.approx(np.sqrt(20))

    def test_json_fields(self):
        est = gaussian_width_mc(entry_l1(), (2, 2, 2), draws=100, seed=0)
        obj = est.to_json()
        assert obj["draws"] == 100 and obj["kind"] == "entry_l1"
        assert obj["shape"] == [2, 2, 2]

    @pytest.mark.parametrize("shape", [(0, 3, 3), (3, 3, 0), (2, -1, 2)])
    def test_rejects_a_dimension_below_one(self, shape):
        with pytest.raises(ValueError, match=r"shape must be three integers >= 1, got \("):
            gaussian_width_mc(tensor_spectral(), shape, draws=100)

    def test_draws_come_from_the_seeds_one_stream(self):
        # every draw from Philox on the seed's own SeedSequence, in order
        shape, draws = (3, 4, 5), 100
        est = gaussian_width_mc(entry_l1(), shape, draws=draws, seed=8)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
        g = rng.standard_normal((draws,) + shape)
        vals = np.abs(g).reshape(draws, -1).max(axis=1)
        assert est.mean == float(vals.mean())
        assert est.std_error == float(vals.std(ddof=1) / np.sqrt(draws))


# (penalty, shape) of the criterion-3 width table (its group kinds), then of
# the benchmark's automatic lambdas: the CLI's theta1 and theta2 solves, and
# the VAR and multi-response rate sweeps
CRITERION_3_GROUP_SHAPES = [
    (entry_l1(), (5, 5, 5)),
    (entry_l1(), (10, 10, 10)),
    (entry_l1(), (20, 20, 20)),
    (fiber_group(0), (10, 10, 10)),
    (fiber_group(0), (40, 10, 10)),
    (fiber_group(0), (160, 10, 10)),
    (slice_frob((0, 1)), (4, 4, 8)),
    (slice_frob((0, 1)), (8, 8, 8)),
    (slice_frob((0, 1)), (16, 16, 8)),
    (slice_nuclear((0, 1)), (4, 4, 8)),
    (slice_nuclear((0, 1)), (8, 8, 8)),
    (slice_nuclear((0, 1)), (16, 16, 8)),
]
# a slice far from square: its integral starts above 0 (sigma_min >> 0)
SKINNY_SLICE = [(slice_nuclear((0, 1)), (2, 120, 10))]
AUTO_LAMBDA_SHAPES = [
    (entry_l1(), (8, 8, 8)),
    (fiber_group(0), (8, 8, 8)),
    (fiber_group(1), (20, 3, 20)),
    (slice_frob((1, 2)), (50, 4, 4)),
]


def _chi_mean(k):
    """E chi_k = sqrt(2) Gamma((k + 1) / 2) / Gamma(k / 2)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((k + 1) / 2) - math.lgamma(k / 2))


def _simpson_chi_max_mean(k, m, hi=16.0, intervals=2**14):
    """E max of m i.i.d. chi_k for k <= 3, int_0^hi 1 - F^m by Simpson's rule
    on a uniform grid, with 1 - F in closed form: erfc(t/sqrt 2) for k = 1,
    exp(-t^2/2) for k = 2, erfc(t/sqrt 2) + sqrt(2/pi) t exp(-t^2/2) for
    k = 3.  Beyond hi = 16 the integrand is below m exp(-100)."""
    t = np.linspace(0.0, hi, intervals + 1)
    erfc = np.array([math.erfc(v / math.sqrt(2.0)) for v in t])
    gauss = np.exp(-t * t / 2)
    tail = {1: erfc, 2: gauss, 3: erfc + math.sqrt(2 / math.pi) * t * gauss}[k]
    with np.errstate(divide="ignore"):  # a tail of 1 gives the integrand 1
        f = -np.expm1(m * np.log1p(-np.minimum(tail, 1.0)))
    return hi / (3 * intervals) * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())


class TestExactWidth:
    """A width whose dual is the largest of m i.i.d. group norms is one
    integral over the law of a group norm, with no draw."""

    @pytest.mark.parametrize(
        "spec, shape",
        [(entry_l1(), (1, 1, 1)), (fiber_group(0), (2, 1, 1)), (fiber_group(1), (1, 3, 1)),
         (fiber_group(2), (1, 1, 8)), (fiber_group(0), (160, 1, 1)),
         (slice_frob((0, 1)), (4, 4, 1)), (slice_frob((1, 2)), (1, 16, 16))],
    )
    def test_one_group_is_the_chi_mean(self, spec, shape):
        # one entry: E|Z| = sqrt(2/pi); one group of size k: E chi_k
        k = math.prod(shape)
        want = math.sqrt(2.0 / math.pi) if k == 1 else _chi_mean(k)
        assert gaussian_width(spec, shape) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "spec, shape",
        [(entry_l1(), (20, 20, 20)), (entry_l1(), (100, 100, 100)),
         (fiber_group(0), (2, 80, 100)), (fiber_group(1), (100, 3, 100))],
        ids=["m8000", "m1e6", "k2", "k3"],
    )
    def test_many_groups_agree_with_a_simpson_integral(self, spec, shape):
        # an independent rule on the closed-form law of one group norm
        k = shape[spec.norm_axes[0]] if spec.norm_axes else 1
        want = _simpson_chi_max_mean(k, math.prod(shape) // k)
        assert gaussian_width(spec, shape) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "spec, shape",
        [(entry_l1(), (20, 20, 20)), (fiber_group(1), (20, 3, 20)),
         (fiber_group(0), (8, 8, 8)), (slice_frob((1, 2)), (50, 4, 4)),
         (fiber_group(0), (160, 10, 10)), (slice_frob((0, 1)), (16, 16, 8)),
         (slice_nuclear((0, 1)), (1, 1, 5)), (slice_nuclear((1, 2)), (3, 6, 9)),
         (slice_nuclear((0, 1)), (8, 8, 8)), (slice_nuclear((0, 2)), (16, 8, 16)),
         (slice_nuclear((0, 1)), (8, 3000, 1)), (slice_nuclear((1, 2)), (2, 120, 120))],
        ids=["k1", "k3", "k8", "k16", "k160", "k256", "1x1", "6x9", "8x8", "16x16",
             "8x3000", "120x120"],
    )
    def test_twice_the_nodes_agrees(self, monkeypatch, spec, shape):
        once = gaussian_width(spec, shape)
        monkeypatch.setattr(spectral, "_QUAD_PANELS", 2 * spectral._QUAD_PANELS)
        assert abs(gaussian_width(spec, shape) - once) <= 1e-10

    @pytest.mark.parametrize(
        "spec, shape",
        CRITERION_3_GROUP_SHAPES + AUTO_LAMBDA_SHAPES + SKINNY_SLICE,
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v.kind,
    )
    def test_monte_carlo_agrees_within_four_standard_errors(self, spec, shape):
        est = gaussian_width_mc(spec, shape, draws=2000, seed=101)
        assert abs(est.mean - gaussian_width(spec, shape)) <= 4 * est.std_error

    def test_large_groups_keep_memory_bounded(self):
        # a 100 x 100 slice is a chi law of 10000 degrees of freedom: its
        # series is summed in blocks, and its mean sits near sqrt(10000)
        tracemalloc.start()
        try:
            width = gaussian_width(slice_frob((0, 1)), (100, 100, 100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert _chi_mean(10000) < width < _chi_mean(10000) + math.sqrt(2 * math.log(100))

    @pytest.mark.parametrize("shape", [(1, 7, 3), (1, 1, 5), (3, 1, 50)])
    def test_a_slice_of_one_row_is_a_fiber(self, shape):
        # the largest singular value of a 1 x c matrix is its norm, chi_c
        norms = fiber_group(1) if shape[1] > 1 else fiber_group(0)
        assert gaussian_width(slice_nuclear((0, 1)), shape) == pytest.approx(
            gaussian_width(norms, shape), rel=1e-12
        )

    def test_slice_nuclear_lies_between_its_bounds(self):
        # E sigma_max of one r x c slice is at least E chi_c (a column) and
        # at most sqrt(r) + sqrt(c) (Gordon)
        for r, c in [(2, 2), (4, 9), (16, 16)]:
            width = gaussian_width(slice_nuclear((0, 1)), (r, c, 1))
            assert _chi_mean(c) < width < math.sqrt(r) + math.sqrt(c)

    @pytest.mark.parametrize(
        "spec", [matricized_nuclear_sum(), tensor_spectral(),
                 RegularizerSpec("pairwise_component_nuclear")],
        ids=lambda spec: spec.kind,
    )
    def test_other_kinds_have_no_exact_width(self, spec):
        with pytest.raises(ValidationError, match="no exact width"):
            gaussian_width(spec, (3, 3, 3))

    @pytest.mark.parametrize("shape", [(3, 3), (3, 0, 3), (3, 2.0, 3)])
    def test_refuses_a_shape_the_draws_refuse(self, shape):
        with pytest.raises(ValidationError, match="shape must be three integers >= 1"):
            gaussian_width(entry_l1(), shape)
        with pytest.raises(ValidationError, match="shape must be three integers >= 1"):
            gaussian_width_mc(entry_l1(), shape, draws=100)

    def test_import_solves_no_quadrature(self):
        # the nodes are solved for at the first exact width, not at import
        code = (
            "import tenreg, tenreg.spectral as s; "
            "assert s._legendre.cache_info().currsize == 0; "
            "s.gaussian_width(tenreg.entry_l1(), (2, 2, 2)); "
            "assert s._legendre.cache_info().currsize == 1"
        )
        src = os.path.dirname(os.path.dirname(spectral.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)


# every kind whose dual is computed draw by draw
PER_DRAW_KINDS = [
    entry_l1(),
    fiber_group(1),
    slice_frob((0, 2)),
    slice_nuclear((1, 2)),
    matricized_nuclear_sum(),
    RegularizerSpec("pairwise_component_nuclear"),
]


class TestBoundedBatches:
    @pytest.mark.parametrize(
        "shape, want",
        [((8, 8, 8), 256), ((1, 1, 1), 256), ((10, 10, 10), 131),
         ((160, 10, 10), 8), ((64, 64, 64), 1), ((100, 100, 100), 1)],
    )
    def test_draws_per_batch(self, shape, want):
        assert regularizers._batch_draws(shape) == want

    @pytest.mark.parametrize("per_batch", [1, 7])
    @pytest.mark.parametrize("k", range(len(PER_DRAW_KINDS)))
    def test_width_does_not_depend_on_the_batch_size(self, monkeypatch, k, per_batch):
        spec, shape = PER_DRAW_KINDS[k], (3, 4, 5)
        want = gaussian_width_mc(spec, shape, draws=301, seed=6)
        sizes = []
        real = spectral._dual_batch

        def record(spec, g, *args):
            sizes.append(len(g))
            return real(spec, g, *args)

        monkeypatch.setattr(regularizers, "_BATCH_ENTRIES", per_batch * 60)
        monkeypatch.setattr(spectral, "_dual_batch", record)
        got = gaussian_width_mc(spec, shape, draws=301, seed=6)
        assert max(sizes) == per_batch and sum(sizes) == 301
        assert got.mean == want.mean and got.std_error == want.std_error

    def test_spectral_width_keeps_its_stream_up_to_512_entries(self):
        # 8 x 8 x 8 still draws 256 tensors per batch, so the restart starts
        # come where they did when every batch held 256
        est = gaussian_width_mc(tensor_spectral(), (8, 8, 8), draws=300, seed=4)
        assert (est.mean, est.std_error) == (7.011898475520203, 0.02353685190153453)

    @pytest.mark.parametrize("spec", [entry_l1(), matricized_nuclear_sum()])
    def test_memory_is_bounded_at_64_cubed(self, spec):
        # one 2 MB draw per batch; 256-draw batches would peak over 400 MB
        tracemalloc.start()
        try:
            gaussian_width_mc(spec, (64, 64, 64), draws=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_numpy_integers_give_plain_json(self):
        est = gaussian_width_mc(entry_l1(), (3, 3, 3), np.int64(150), np.int64(3))
        assert type(est.draws) is int and type(est.seed) is int
        assert json.loads(json.dumps(est.to_json())) == est.to_json()
        assert est == gaussian_width_mc(entry_l1(), (3, 3, 3), 150, 3)

    @pytest.mark.parametrize("draws", [150.5, 200.0, np.float64(200), True, "200"])
    def test_a_non_integer_draw_count_is_refused(self, draws):
        with pytest.raises(ValueError, match="draws must be an integer"):
            gaussian_width_mc(entry_l1(), (3, 3, 3), draws)


# ---------------------------------------------------------------------------
# Reference implementations: the standalone HOPM and the batched HOPM width
# driver as they stood before the two loops were merged into `_hopm`.
# ---------------------------------------------------------------------------


def _ref_unit(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _ref_hopm_spectral(a, restarts=20, iters=200, *, rng, tol=1e-12):
    hosvd = []
    for k in range(3):
        mat = np.moveaxis(a, k, 0).reshape(a.shape[k], -1)
        hosvd.append(np.linalg.svd(mat, full_matrices=False)[0][:, 0])
    best_val = -np.inf
    for r in range(restarts):
        if r == 0:
            u, v, w = (f.copy() for f in hosvd)
        else:
            u = _ref_unit(rng.standard_normal(a.shape[0]))
            v = _ref_unit(rng.standard_normal(a.shape[1]))
            w = _ref_unit(rng.standard_normal(a.shape[2]))
        val = 0.0
        for _ in range(iters):
            u = _ref_unit(np.einsum("ijk,j,k->i", a, v, w))
            v = _ref_unit(np.einsum("ijk,i,k->j", a, u, w))
            w = _ref_unit(np.einsum("ijk,i,j->k", a, u, v))
            new = float(np.einsum("ijk,i,j,k->", a, u, v, w))
            if new - val < tol:
                val = max(val, new)
                break
            val = new
        best_val = max(best_val, val)
    return best_val


def _ref_hopm_batch(g, restarts, iters, rng, tol=1e-12):
    b, d1, d2, d3 = g.shape
    best = np.zeros(b)
    for r in range(restarts):
        v = rng.standard_normal((b, d2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = rng.standard_normal((b, d3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        val = np.zeros(b)
        for _ in range(iters):
            u = np.einsum("bijk,bj,bk->bi", g, v, w)
            u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
            v = np.einsum("bijk,bi,bk->bj", g, u, w)
            v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
            w = np.einsum("bijk,bi,bj->bk", g, u, v)
            nw = np.linalg.norm(w, axis=1, keepdims=True)
            w /= np.maximum(nw, 1e-300)
            new = nw[:, 0]
            if np.all(new - val < tol):
                val = np.maximum(val, new)
                break
            val = new
        best = np.maximum(best, val)
    return best


def _drawn_starts(shape, restarts, rng):
    """The (v, w) starts `_hopm` draws for a batch of `shape`: v, then w,
    for the whole batch per restart, each row normalized."""
    b, _, d2, d3 = shape
    starts = []
    for _ in range(restarts):
        pair = []
        for d in (d2, d3):
            x = rng.standard_normal((b, d))
            pair.append(x / np.linalg.norm(x, axis=1, keepdims=True))
        starts.append(tuple(pair))
    return starts


def _ref_spectral_width(shape, draws, seed, restarts, iters):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    parts = []
    for start in range(0, draws, 256):
        g = rng.standard_normal((min(256, draws - start),) + shape)
        parts.append(_ref_hopm_batch(g, restarts, iters, rng))
    values = np.concatenate(parts)
    return WidthEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(len(values))),
        draws=draws,
        lemma_bound_form="sqrt_sum_dims",
        seed=seed,
        shape=shape,
        kind="tensor_spectral_dual_only",
    ).to_json()


def _assert_width_matches(est, ref):
    """The two-contraction, per-draw-stopping loop moves the reference's
    values at the rounding level: the mean to rtol 1e-10, the standard
    error to rtol 1e-8, and no other field."""
    got = est.to_json()
    assert got["mean"] == pytest.approx(ref["mean"], rel=1e-10)
    assert got["std_error"] == pytest.approx(ref["std_error"], rel=1e-8)
    others = lambda obj: {k: v for k, v in obj.items() if k not in ("mean", "std_error")}
    assert others(got) == others(ref)


class TestOneHopmLoop:
    @pytest.mark.parametrize("seed", [0, 1, 31])
    @pytest.mark.parametrize("d", [4, 6])
    def test_spectral_width_matches_reference_default_counts(self, d, seed):
        shape = (d, d, d)
        est = gaussian_width_mc(tensor_spectral(), shape, draws=300, seed=seed)
        _assert_width_matches(est, _ref_spectral_width(shape, 300, seed, 8, 100))

    @pytest.mark.parametrize("seed", [2, 5])
    @pytest.mark.parametrize("d", [4, 6])
    def test_spectral_width_matches_reference_2001_draws(self, d, seed):
        shape = (d, d, d)
        est = gaussian_width_mc(
            tensor_spectral(), shape, 2001, seed, hopm_restarts=2, hopm_iters=25
        )
        _assert_width_matches(est, _ref_spectral_width(shape, 2001, seed, 2, 25))

    def test_spectral_width_matches_reference_uneven_shape(self):
        # three unequal dimensions and a last batch of 45 draws
        shape = (4, 5, 6)
        est = gaussian_width_mc(tensor_spectral(), shape, 301, 3, hopm_restarts=3, hopm_iters=40)
        _assert_width_matches(est, _ref_spectral_width(shape, 301, 3, 3, 40))

    def test_returned_factors_attain_the_values(self):
        for d in (4, 6):
            g = np.random.default_rng(d).standard_normal((64, d, d, d))
            best, (u, v, w) = _hopm(g, 4, 60, np.random.default_rng(7))
            attained = np.einsum("bijk,bi,bj,bk->b", g, u, v, w)
            np.testing.assert_allclose(attained, best, rtol=1e-12)
            for f in (u, v, w):
                np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, rtol=1e-14)

    def test_hopm_spectral_matches_reference_values(self):
        for i in range(30):
            a = np.random.default_rng(i).standard_normal((3, 4, 5))
            new = hopm_spectral(a, rng=np.random.default_rng(100 + i))
            ref = _ref_hopm_spectral(a, rng=np.random.default_rng(100 + i))
            assert new["value"] == pytest.approx(ref, rel=1e-12)
            u, v, w = new["factors"]
            attained = float(np.einsum("ijk,i,j,k->", a, u, v, w))
            assert attained == pytest.approx(new["value"], rel=1e-12)

    def test_hopm_spectral_first_restart_is_the_unfolding_start(self):
        # one restart runs only the deterministic start: it draws nothing
        a = np.random.default_rng(3).standard_normal((3, 4, 5))
        gen = np.random.default_rng(9)
        state = gen.bit_generator.state
        one = hopm_spectral(a, restarts=1, rng=gen)
        assert gen.bit_generator.state == state
        ref = _ref_hopm_spectral(a, restarts=1, rng=np.random.default_rng(9))
        assert one["value"] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs", [{"restarts": 0}, {"iters": 0}, {"restarts": True}, {"iters": 2.5}]
    )
    def test_hopm_spectral_rejects_empty_search(self, kwargs):
        a = np.random.default_rng(0).standard_normal((3, 3, 3))
        (name,) = kwargs
        with pytest.raises(ValidationError, match=f"{name} must be an integer >= 1"):
            hopm_spectral(a, rng=np.random.default_rng(0), **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"hopm_restarts": 0}, {"hopm_iters": 0}, {"hopm_restarts": True}, {"hopm_iters": 2.5}],
    )
    def test_spectral_width_rejects_empty_search(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValidationError, match=f"{name[5:]} must be an integer >= 1"):
            gaussian_width_mc(tensor_spectral(), (3, 3, 3), draws=100, **kwargs)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (6, 6, 6), (8, 8, 8), (4, 5, 6)])
    def test_values_match_reference_loop(self, shape):
        for seed in (0, 1):
            g = np.random.default_rng(seed).standard_normal((96,) + shape)
            best, _ = _hopm(g, 4, 60, np.random.default_rng(seed + 40))
            ref = _ref_hopm_batch(g, 4, 60, np.random.default_rng(seed + 40))
            np.testing.assert_allclose(best, ref, rtol=1e-10)

    def test_generator_state_matches_reference_loop(self):
        g = np.random.default_rng(5).standard_normal((50, 4, 5, 6))
        gen, ref_gen = np.random.default_rng(12), np.random.default_rng(12)
        _hopm(g, 3, 40, gen)
        _ref_hopm_batch(g, 3, 40, ref_gen)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_mixed_batch_compacts_and_matches_reference(self, monkeypatch):
        # rank-one tensors stop within a few sweeps, the Gaussian draws run
        # on, so the held rows are compacted while the batch is live
        gen = np.random.default_rng(21)
        g = gen.standard_normal((40, 4, 5, 6))
        for b in range(0, 40, 2):
            u, v, w = (gen.standard_normal(d) for d in (4, 5, 6))
            g[b] = (1.0 + b) * np.einsum("i,j,k->ijk", u, v, w)
        sizes = []
        sweep = spectral._hopm_sweep

        def counted(gb, v, w):
            sizes.append(len(gb))
            return sweep(gb, v, w)

        monkeypatch.setattr(spectral, "_hopm_sweep", counted)
        best, (u, v, w) = _hopm(g, 3, 80, np.random.default_rng(4))
        assert sizes[0] == 40 and min(sizes) < 30
        ref = _ref_hopm_batch(g, 3, 80, np.random.default_rng(4))
        np.testing.assert_allclose(best, ref, rtol=1e-10)
        attained = np.einsum("bijk,bi,bj,bk->b", g, u, v, w)
        np.testing.assert_allclose(attained, best, rtol=1e-12)
        norms = np.linalg.norm(g.reshape(40, -1), axis=1)
        np.testing.assert_allclose(best[::2], norms[::2], rtol=1e-10)

    def test_held_set_is_exactly_the_draws_with_a_live_restart(self, monkeypatch):
        # each sweep's values show which restarts stop; the next sweep must
        # hold every draw with a restart still live and no other
        gen = np.random.default_rng(22)
        g = gen.standard_normal((40, 4, 5, 6))
        for b in range(0, 40, 4):
            u, v, w = (gen.standard_normal(d) for d in (4, 5, 6))
            g[b] = np.einsum("i,j,k->ijk", u, v, w)
        index = {gb.tobytes(): b for b, gb in enumerate(g)}
        calls = []
        sweep = spectral._hopm_sweep

        def recorded(gb, v, w):
            out = sweep(gb, v, w)
            calls.append(([index[t.tobytes()] for t in gb], out[1]))
            return out

        monkeypatch.setattr(spectral, "_hopm_sweep", recorded)
        restarts, iters = 3, 80
        _hopm(g, restarts, iters, np.random.default_rng(5))
        live = np.ones((40, restarts), dtype=bool)
        prev = np.zeros((40, restarts))
        for it, (held, new) in enumerate(calls):
            assert held == np.flatnonzero(live.any(axis=1)).tolist()
            stop = live[held] & (new - prev[held] < spectral._HOPM_TOL)
            live[held] &= ~stop if it < iters - 1 else False
            prev[held] = new
        assert not live.any()
        # draws left one or a few at a time, not all at once
        assert len({len(held) for held, _ in calls}) > 10

    def test_each_draw_is_the_best_of_its_one_restart_runs(self):
        # all restarts run as one held set; fed the same starts, one
        # restart at a time gives the same values
        restarts, iters = 5, 60
        g = np.random.default_rng(8).standard_normal((48, 4, 5, 6))
        best, _ = _hopm(g, restarts, iters, np.random.default_rng(3))
        starts = _drawn_starts(g.shape, restarts, np.random.default_rng(3))
        unused = np.random.default_rng(0)
        values = [_hopm(g, 1, iters, unused, start)[0] for start in starts]
        np.testing.assert_allclose(best, np.max(values, axis=0), rtol=1e-12)

    def test_factors_come_from_the_first_restart_that_reaches_the_maximum(self):
        # c e_i o e_j o e_k with c a power of two: every start that is not
        # orthogonal to e_j and e_k reaches exactly c in two sweeps, with
        # factor signs set by the start; restart 0 starts orthogonal to e_j
        # and stays at 0, so restart 1 is the first to reach the maximum
        b, shape, restarts = 32, (3, 4, 5), 4
        r = np.random.default_rng(14)
        g = np.zeros((b,) + shape)
        idx = [r.integers(d, size=b) for d in shape]
        g[np.arange(b), idx[0], idx[1], idx[2]] = 2.0 ** r.integers(-3, 4, size=b)
        v0 = np.eye(shape[1])[(idx[1] + 1) % shape[1]]
        w0 = np.eye(shape[2])[idx[2]]
        best, factors = _hopm(g, restarts, 20, np.random.default_rng(2), (v0, w0))
        np.testing.assert_array_equal(best, g.reshape(b, -1).max(axis=1))
        starts = [(v0, w0)] + _drawn_starts(g.shape, restarts - 1, np.random.default_rng(2))
        unused = np.random.default_rng(0)
        runs = [_hopm(g, 1, 20, unused, start) for start in starts]
        np.testing.assert_array_equal(runs[0][0], 0.0)
        for run in runs[1:]:
            np.testing.assert_array_equal(run[0], best)
        for got, want in zip(factors, runs[1][1]):
            np.testing.assert_array_equal(got, want)
        # each later restart would have given other signs for some draws
        for run in runs[2:]:
            assert any(np.any(f != f1) for f, f1 in zip(run[1], runs[1][1]))

    def test_start_arrays_left_unchanged(self):
        g = np.random.default_rng(2).standard_normal((20, 3, 4, 5))
        start = tuple(np.random.default_rng(3).standard_normal((20, d)) for d in (4, 5))
        start = tuple(f / np.linalg.norm(f, axis=1, keepdims=True) for f in start)
        kept = tuple(f.copy() for f in start)
        _hopm(g, 2, 30, np.random.default_rng(0), start)
        for f, k in zip(start, kept):
            np.testing.assert_array_equal(f, k)
