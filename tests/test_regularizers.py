import hashlib

import numpy as np
import pytest

from tenreg import regularizers as regularizers_module

from tenreg.errors import ValidationError
from tenreg.regularizers import (
    RegularizerSpec,
    SubspaceSpec,
    compatibility,
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
    subspace_project,
    support_entries,
    support_fibers,
    support_slices,
    tensor_spectral,
    tucker_projectors,
)
from tenreg.regularizers import (
    _dual_batch,
    _group_axis,
    _groups,
    _matched_bound,
    _max_top_sv,
    _reg_subgrad,
)
from tenreg.spectral import matrix_svt
from tenreg.tensor import ProjectorTriple

PAIRWISE = RegularizerSpec("pairwise_component_nuclear")

rng = np.random.default_rng(7)

PRIMAL_SPECS = [
    entry_l1(),
    fiber_group(0),
    fiber_group(1),
    slice_frob((0, 1)),
    slice_frob((1, 2)),
    slice_nuclear((0, 1)),
    matricized_nuclear_sum(),
]

SHAPE = (3, 4, 5)


class TestRegEval:
    @pytest.mark.parametrize("spec", PRIMAL_SPECS, ids=lambda s: f"{s.kind}")
    def test_zero(self, spec):
        assert reg_eval(spec, np.zeros(SHAPE)) == 0.0

    def test_entry_l1_counts_unit_entries(self):
        a = rng.choice([-1.0, 1.0], size=(2, 2, 2))
        assert reg_eval(entry_l1(), a) == pytest.approx(8.0)

    def test_slice_nuclear_diag(self):
        a = np.zeros((2, 2, 3))
        a[:, :, 1] = np.diag([3.0, 4.0])
        assert reg_eval(slice_nuclear((0, 1)), a) == pytest.approx(7.0)

    def test_primal_rejected_for_spectral(self):
        a = rng.standard_normal(SHAPE)
        for spec in (tensor_spectral(), PAIRWISE):
            with pytest.raises(ValidationError, match=spec.kind):
                reg_eval(spec, a)

    @pytest.mark.parametrize("spec", PRIMAL_SPECS, ids=lambda s: f"{s.kind}")
    def test_norm_axioms(self, spec):
        for _ in range(50):
            a = rng.standard_normal(SHAPE)
            b = rng.standard_normal(SHAPE)
            alpha = rng.standard_normal()
            ra, rb = reg_eval(spec, a), reg_eval(spec, b)
            assert reg_eval(spec, alpha * a) == pytest.approx(abs(alpha) * ra, rel=1e-10)
            assert reg_eval(spec, a + b) <= ra + rb + 1e-10 * (ra + rb)
            assert ra > 0

    @pytest.mark.parametrize("spec", PRIMAL_SPECS, ids=lambda s: f"{s.kind}")
    def test_dominates_frobenius(self, spec):
        for _ in range(200):
            a = rng.standard_normal(SHAPE)
            assert reg_eval(spec, a) >= np.linalg.norm(a) * (1 - 1e-12)


class TestRegDual:
    def test_entry_l1_max_abs(self):
        a = np.zeros((2, 2, 2))
        a.ravel()[:3] = [-3.0, 2.0, 1.0]
        assert reg_dual(entry_l1(), a) == pytest.approx(3.0)

    def test_slice_nuclear_dual_is_top_singular(self):
        a = np.zeros((2, 2, 3))
        a[:, :, 0] = np.diag([3.0, 4.0])
        assert reg_dual(slice_nuclear((0, 1)), a) == pytest.approx(4.0)

    @pytest.mark.parametrize("spec", PRIMAL_SPECS, ids=lambda s: f"{s.kind}")
    def test_hoelder(self, spec):
        for _ in range(250):
            a = rng.standard_normal(SHAPE)
            b = rng.standard_normal(SHAPE)
            lhs = abs(float((a * b).sum()))
            rhs = reg_eval(spec, a) * reg_dual(spec, b)
            assert lhs <= rhs * (1 + 1e-10)

    def test_dual_maximizers_attain_supremum(self):
        # construct the known maximizer for each max-type dual and check it
        # realizes <A, B> = R*(B) with R(A) = 1
        b = rng.standard_normal(SHAPE)

        spec = entry_l1()
        idx = np.unravel_index(np.argmax(np.abs(b)), SHAPE)
        a = np.zeros(SHAPE)
        a[idx] = np.sign(b[idx])
        assert reg_eval(spec, a) == pytest.approx(1.0)
        assert float((a * b).sum()) == pytest.approx(reg_dual(spec, b), abs=1e-10)

        spec = fiber_group(0)
        norms = np.sqrt((b * b).sum(axis=0))
        j2, j3 = np.unravel_index(np.argmax(norms), norms.shape)
        a = np.zeros(SHAPE)
        a[:, j2, j3] = b[:, j2, j3] / norms[j2, j3]
        assert reg_eval(spec, a) == pytest.approx(1.0)
        assert float((a * b).sum()) == pytest.approx(reg_dual(spec, b), abs=1e-10)

        spec = slice_frob((0, 1))
        norms = np.sqrt((b * b).sum(axis=(0, 1)))
        j = int(np.argmax(norms))
        a = np.zeros(SHAPE)
        a[:, :, j] = b[:, :, j] / norms[j]
        assert reg_eval(spec, a) == pytest.approx(1.0)
        assert float((a * b).sum()) == pytest.approx(reg_dual(spec, b), abs=1e-10)

    def test_spectral_dual_needs_rng(self):
        with pytest.raises(ValueError):
            reg_dual(tensor_spectral(), rng.standard_normal(SHAPE))

    def test_spectral_dual_rank_one(self):
        a = np.zeros((3, 3, 3))
        a[0, 0, 0] = 5.0
        val = reg_dual(tensor_spectral(), a, rng=np.random.default_rng(0))
        assert val == pytest.approx(5.0, rel=1e-9)


def full_svd_slice_dual(spec, g):
    # the slice-nuclear dual as a full SVD of every slice computes it
    order = (0, _group_axis(spec.axes) + 1) + tuple(ax + 1 for ax in spec.axes)
    sv = np.linalg.svd(np.transpose(g, order), compute_uv=False)
    return sv[..., 0].max(axis=1)


def full_svd_pairwise_dual(blocks):
    return np.maximum.reduce(
        [np.linalg.svd(m, compute_uv=False)[..., 0] for m in blocks]
    )


def marginal_sums(g):
    return [g.sum(axis=axis) for axis in (3, 2, 1)]


def special_batches(shape, axes):
    """Batches whose slices along the group axis are rank one, identical or
    zero, an all-zero tensor, and Gaussian tensors scaled far up and down,
    to where the squares of their entries leave the normal range."""
    r = np.random.default_rng(11)
    group = ({0, 1, 2} - set(axes)).pop()
    k, rows, cols = (shape[j] for j in (group,) + tuple(axes))
    back = (0,) + tuple(int(j) + 1 for j in np.argsort((group,) + tuple(axes)))

    def from_slices(stack):
        return np.transpose(stack, back)

    rank_one = np.einsum(
        "bki,bkj->bkij", r.standard_normal((8, k, rows)), r.standard_normal((8, k, cols))
    )
    tied = np.repeat(r.standard_normal((8, 1, rows, cols)), k, axis=1)
    gauss = r.standard_normal((8,) + shape)
    zero_slices = r.standard_normal((8, k, rows, cols))
    zero_slices[:, ::2] = 0.0
    return {
        "rank_one": from_slices(rank_one),
        "tied": from_slices(tied),
        "zero_slices": from_slices(zero_slices),
        "all_zero": np.zeros((2,) + shape),
        "scaled_up": 1e150 * gauss,
        "scaled_down": 1e-150 * gauss,
        "scaled_past_the_gram_range": 1e200 * gauss,
        "scaled_below_the_gram_range": 1e-200 * gauss,
    }


class TestPrunedTopSingularValues:
    """The slice-nuclear and pairwise duals decompose only the matrices that
    can hold the maximum; their values must be those of a full SVD, bit for
    bit."""

    @pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 8)])
    @pytest.mark.parametrize("axes", [(0, 1), (0, 2)])
    def test_gaussian_slices_match_full_svd(self, shape, axes):
        spec = slice_nuclear(axes)
        g = np.random.default_rng(1).standard_normal((64,) + shape)
        expected = full_svd_slice_dual(spec, g)
        assert np.array_equal(_dual_batch(spec, g), expected)
        assert [reg_dual(spec, a) for a in g[:8]] == [float(v) for v in expected[:8]]

    @pytest.mark.parametrize("shape", [(4, 6, 9), (8, 8, 8)])
    def test_pairwise_matches_full_svd(self, shape):
        g = np.random.default_rng(2).standard_normal((64,) + shape)
        expected = full_svd_pairwise_dual(marginal_sums(g))
        assert np.array_equal(_dual_batch(PAIRWISE, g), expected)

    def test_pairwise_two_dimensional_blocks_match_full_svd(self):
        # the block solver's gradient blocks, one matrix per block: its
        # certificate takes the three top singular values directly, the
        # same floats the pruned stack computation gives
        g = np.random.default_rng(3).standard_normal((16, 4, 6, 9))
        for a in np.concatenate([g, 1e-200 * g[:4], 1e200 * g[:4]]):
            blocks = [a.sum(axis=axis) for axis in (2, 1, 0)]
            direct = max(np.linalg.svd(m, compute_uv=False)[0] for m in blocks)
            pruned = _max_top_sv([m[None, None] for m in blocks])[0]
            assert direct == pruned == full_svd_pairwise_dual(blocks)
            assert type(direct) is type(pruned)

    @pytest.mark.parametrize("axes", [(0, 1), (0, 2), (1, 2)])
    @pytest.mark.parametrize(
        "case",
        ["rank_one", "tied", "zero_slices", "all_zero", "scaled_up", "scaled_down",
         "scaled_past_the_gram_range", "scaled_below_the_gram_range"],
    )
    def test_special_slices_match_full_svd(self, axes, case):
        shape = (4, 6, 9)
        spec = slice_nuclear(axes)
        g = special_batches(shape, axes)[case]
        assert g.shape[1:] == shape
        # the bounds run on exactly rescaled tensors, so squares of entries
        # near 1e200 neither overflow nor lose digits near 1e-200
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            slices, pairwise = _dual_batch(spec, g), _dual_batch(PAIRWISE, g)
        assert np.array_equal(slices, full_svd_slice_dual(spec, g))
        assert np.array_equal(pairwise, full_svd_pairwise_dual(marginal_sums(g)))

    @pytest.mark.parametrize("axes", [(0, 1), (0, 2), (1, 2)])
    def test_tall_slices_match_full_svd(self, axes):
        # every slice, and every marginal sum, of a (9, 6, 4) tensor has more
        # rows than columns, so each bound reads the Gram xt @ x
        shape = (9, 6, 4)
        spec = slice_nuclear(axes)
        batches = dict(special_batches(shape, axes))
        batches["gaussian"] = np.random.default_rng(4).standard_normal((64,) + shape)
        for g in batches.values():
            assert np.array_equal(_dual_batch(spec, g), full_svd_slice_dual(spec, g))
            assert np.array_equal(
                _dual_batch(PAIRWISE, g), full_svd_pairwise_dual(marginal_sums(g))
            )

    def test_nan_tensor_raises_as_the_full_svd_does(self):
        a = np.zeros((1, 8, 8, 8))
        a[0, 3, 2, 1] = np.nan
        spec = slice_nuclear((0, 1))
        with pytest.raises(np.linalg.LinAlgError):
            full_svd_slice_dual(spec, a)
        with pytest.raises(np.linalg.LinAlgError):
            _dual_batch(spec, a)
        with pytest.raises(np.linalg.LinAlgError):
            reg_dual(spec, a[0])
        with pytest.raises(np.linalg.LinAlgError):
            _dual_batch(PAIRWISE, a)

    def test_fewer_than_half_the_slices_are_decomposed(self, monkeypatch):
        # a silent fall-back to the full SVD would decompose all 2048
        g = np.random.default_rng(4).standard_normal((256, 8, 8, 8))
        spec = slice_nuclear((0, 1))
        expected = full_svd_slice_dual(spec, g)
        svd, seen = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            seen.append(int(np.prod(a.shape[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert np.array_equal(_dual_batch(spec, g), expected)
        assert 256 <= sum(seen) < 1024


def full_svd_matricized_dual(g):
    # three times the largest top singular value of the unfoldings, each
    # from a full SVD
    b = len(g)
    tops = [
        np.linalg.svd(np.moveaxis(g, k + 1, 1).reshape(b, g.shape[k + 1], -1),
                      compute_uv=False)[:, 0]
        for k in range(3)
    ]
    return 3.0 * np.maximum.reduce(tops)


class TestMatricizedDualFromGrams:
    """The matricized dual takes each unfolding's top singular value from
    its smaller Gram matrix after an exact power-of-two rescale; it must
    agree with a full SVD to rounding, at any scale."""

    @pytest.mark.parametrize("shape", [(3, 5, 7), (7, 5, 3), (12, 2, 3), (20, 20, 20)])
    @pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600], ids=["1", "2^600", "2^-600"])
    def test_matches_full_svd(self, shape, scale):
        spec = matricized_nuclear_sum()
        g = scale * np.random.default_rng(5).standard_normal((24,) + shape)
        expected = full_svd_matricized_dual(g)
        # without the rescale the Gram matrices would overflow or underflow
        assert np.all(np.isfinite(expected)) and np.all(expected > 0)
        with np.errstate(over="raise"):
            got = _dual_batch(spec, g)
        np.testing.assert_allclose(got, expected, rtol=1e-13)
        assert reg_dual(spec, g[3]) == pytest.approx(expected[3], rel=1e-13)

    def test_zero_tensor(self):
        g = np.zeros((2, 3, 4, 5))
        assert np.array_equal(_dual_batch(matricized_nuclear_sum(), g), [0.0, 0.0])

    def test_nan_raises_and_inf_gives_nan_as_the_full_svd_does(self):
        spec = matricized_nuclear_sum()
        g = np.random.default_rng(6).standard_normal((3, 3, 5, 7))
        bad = g.copy()
        bad[1, 0, 2, 3] = np.nan
        for batch in (bad, np.where(np.arange(7) == 4, np.inf, bad)):
            with pytest.raises(np.linalg.LinAlgError):
                full_svd_matricized_dual(batch)
            with pytest.raises(np.linalg.LinAlgError):
                _dual_batch(spec, batch)
        with pytest.raises(np.linalg.LinAlgError):
            reg_dual(spec, bad[1])
        for value in (np.inf, -np.inf):
            bad = g.copy()
            bad[1, 0, 2, 3] = value
            expected, got = full_svd_matricized_dual(bad), _dual_batch(spec, bad)
            assert np.isnan(expected[1]) and np.isnan(got[1])
            np.testing.assert_allclose(got[[0, 2]], expected[[0, 2]], rtol=1e-13)


def prox_objective(spec, x, z, t):
    return 0.5 * float(((x - z) ** 2).sum()) + t * reg_eval(spec, x)


class TestProx:
    def test_entry_soft_threshold_values(self):
        z = np.full((1, 1, 1), 1.0)
        assert prox(entry_l1(), z, 0.4)[0, 0, 0] == pytest.approx(0.6)
        z = np.full((1, 1, 1), 0.3)
        assert prox(entry_l1(), z, 0.4)[0, 0, 0] == 0.0

    def test_fiber_block_shrinkage(self):
        z = np.zeros((4, 1, 1))
        z[:, 0, 0] = [2.0, 0.0, 0.0, 0.0]
        out = prox(fiber_group(0), z, 0.5)
        np.testing.assert_allclose(out[:, 0, 0], [1.5, 0, 0, 0])

    def test_slice_nuclear_svt_against_grid_oracle(self):
        z = np.zeros((2, 2, 1))
        z[:, :, 0] = np.diag([3.0, 1.0])
        t = 2.0
        out = prox(slice_nuclear((0, 1)), z, t)
        np.testing.assert_allclose(out[:, :, 0], np.diag([1.0, 0.0]), atol=1e-12)
        # grid-search oracle over diagonal candidates
        best = np.inf
        spec = slice_nuclear((0, 1))
        for d1 in np.linspace(0, 3, 301):
            for d2 in np.linspace(0, 1, 101):
                cand = np.zeros((2, 2, 1))
                cand[:, :, 0] = np.diag([d1, d2])
                best = min(best, prox_objective(spec, cand, z, t))
        assert prox_objective(spec, out, z, t) <= best + 1e-9

    @pytest.mark.parametrize(
        "spec",
        [entry_l1(), fiber_group(0), slice_frob((0, 1)), slice_nuclear((0, 1))],
        ids=lambda s: f"{s.kind}",
    )
    def test_prox_minimizes(self, spec):
        for _ in range(25):
            z = rng.standard_normal(SHAPE)
            t = float(rng.random() + 0.05)
            x = prox(spec, z, t)
            base = prox_objective(spec, x, z, t)
            for _ in range(20):
                delta = rng.standard_normal(SHAPE)
                delta *= 1e-3 / np.linalg.norm(delta)
                assert base <= prox_objective(spec, x + delta, z, t) + 1e-12

    def test_no_closed_form(self):
        z = rng.standard_normal(SHAPE)
        for spec in (matricized_nuclear_sum(), tensor_spectral(), PAIRWISE):
            with pytest.raises(ValidationError, match="has no closed-form prox"):
                prox(spec, z, 1.0)


class TestSubspaceProject:
    def test_full_support_is_identity(self):
        idx = [(i, j, k) for i in range(3) for j in range(4) for k in range(5)]
        sub = support_entries(SHAPE, idx)
        a = rng.standard_normal(SHAPE)
        np.testing.assert_array_equal(subspace_project(sub, a, "space"), a)
        np.testing.assert_array_equal(
            subspace_project(sub, a, "complement"), np.zeros(SHAPE)
        )

    def _subspaces(self):
        triple = ProjectorTriple.random(SHAPE, (2, 2, 2), rng)
        slices = slicewise_projectors(
            SHAPE,
            [
                (
                    np.linalg.qr(rng.standard_normal((3, 2)))[0],
                    np.linalg.qr(rng.standard_normal((4, 2)))[0],
                )
                for _ in range(5)
            ],
            axes=(0, 1),
        )
        return [
            support_entries(SHAPE, [(0, 1, 2), (2, 3, 4), (1, 0, 0)]),
            support_fibers(SHAPE, [(0, 0), (3, 4)], mode=0),
            support_slices(SHAPE, [1, 3], axes=(0, 1)),
            slices,
            tucker_projectors(SHAPE, triple, role="a_space"),
            tucker_projectors(SHAPE, triple, role="b_space"),
        ]

    def test_decomposition_and_idempotency(self):
        for sub in self._subspaces():
            a = rng.standard_normal(SHAPE)
            inside = subspace_project(sub, a, "space")
            outside = subspace_project(sub, a, "complement")
            np.testing.assert_allclose(inside + outside, a, atol=1e-12)
            assert abs((inside * outside).sum()) < 1e-10
            np.testing.assert_allclose(
                subspace_project(sub, inside, "space"), inside, atol=1e-12
            )
            np.testing.assert_allclose(
                subspace_project(sub, outside, "space"), np.zeros(SHAPE), atol=1e-12
            )

    @pytest.mark.parametrize(
        "sub, space, complement",
        [(support_entries((4, 5, 6), [(0, 1, 2), (3, 4, 5), (1, 0, 0)]),
          "dd6e78925533572b", "8ea8807ade9e76cf"),
         (support_fibers((4, 5, 6), [(0, 1), (3, 5)], mode=1),
          "88b6da601c6f1f49", "f560cb69539b8def"),
         (support_slices((4, 5, 6), [0, 3], axes=(0, 2)),
          "a4a8cd59984a9d43", "f3220923f4903a3d")],
        ids=["entries", "fibers", "slices"],
    )
    def test_support_bytes_are_unchanged(self, sub, space, complement):
        # sha256 prefixes recorded before the masks were marked through views
        a = np.random.default_rng(7).standard_normal((4, 5, 6))
        for which, want in (("space", space), ("complement", complement)):
            out = subspace_project(sub, a, which)
            assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == want


# supports of shape (4, 5, 6) that must be refused when built, with their refusals
GRID = "names no group of the grid"
REPEATED = "a support index is repeated"
MODE = "mode must be an integer 0, 1 or 2"
AXES = "axes must be two distinct integers in 0..2"
BAD_SUPPORTS = {
    "short-entry": (lambda g: support_entries(g, [(0, 1)]), GRID),  # names a fiber
    "long-entry": (lambda g: support_entries(g, [(0, 1, 2, 0)]), GRID),
    "bare-entry": (lambda g: support_entries(g, [3]), GRID),  # names a slice
    "negative-entry": (lambda g: support_entries(g, [(-1, 0, 0)]), GRID),
    "past-entry": (lambda g: support_entries(g, [(4, 0, 0)]), GRID),
    "float-entry": (lambda g: support_entries(g, [(0.0, 1, 2)]), GRID),
    "bool-entry": (lambda g: support_entries(g, [(True, 1, 2)]), GRID),
    "repeated-entry": (lambda g: support_entries(g, [(0, 1, 2), (0, 1, 2)]), REPEATED),
    "past-fiber": (lambda g: support_fibers(g, [(0, 6)], mode=1), GRID),
    "entry-as-fiber": (lambda g: support_fibers(g, [(0, 1, 2)], mode=0), GRID),
    "repeated-fiber": (lambda g: support_fibers(g, [(1, 2), (1, 2)], mode=2), REPEATED),
    "mode-7": (lambda g: support_fibers(g, [(0, 0)], mode=7), MODE),
    "mode-none": (lambda g: support_fibers(g, [(0, 0)], mode=None), MODE),
    "mode-float": (lambda g: support_fibers(g, [(0, 0)], mode=1.0), MODE),
    "past-slice": (lambda g: support_slices(g, [5], axes=(0, 2)), GRID),
    "negative-slice": (lambda g: support_slices(g, [-1], axes=(0, 1)), GRID),
    "pair-as-slice": (lambda g: support_slices(g, [(0, 1)], axes=(0, 1)), GRID),
    "repeated-slice": (lambda g: support_slices(g, [2, 2], axes=(1, 2)), REPEATED),
    "axes-0-0": (lambda g: support_slices(g, [0], axes=(0, 0)), AXES),
    "axes-0-3": (lambda g: support_slices(g, [0], axes=(0, 3)), AXES),
    "axes-one": (lambda g: support_slices(g, [0], axes=(0,)), AXES),
}


def _factor(rows, rank, seed=0):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((rows, rank)))[0]


class TestSubspaceChecks:
    @pytest.mark.parametrize("name", BAD_SUPPORTS)
    def test_bad_support_is_refused_when_built(self, name):
        build, message = BAD_SUPPORTS[name]
        with pytest.raises(ValidationError, match=message):
            build((4, 5, 6))

    @pytest.mark.parametrize(
        "fields, message",
        [(("support_entries", (4, 5, 6), ((0, 1),)), GRID),  # names a fiber
         (("support_entries", (4, 5, 6), ((0, 1, 2), (0, 1, 2))), REPEATED),
         (("support_fibers", (4, 5, 6), ((0, 0),)), MODE),  # no mode
         (("support_slices", (4, 5, 6), (0,)), AXES),  # no axes
         (("support_cubes", (4, 5, 6)), "unknown subspace variant")],
        ids=["short-entry", "repeated-entry", "fiber-without-mode",
             "slice-without-axes", "unknown-variant"],
    )
    def test_a_subspace_built_directly_is_checked(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            SubspaceSpec(*fields)

    def test_projectors_built_directly_are_checked(self):
        good = (_factor(3, 1, 1), _factor(4, 2, 2))
        with pytest.raises(ValueError, match="role"):
            SubspaceSpec("slicewise_projectors", SHAPE, axes=(0, 1),
                         slice_factors=(good,) * 5)
        with pytest.raises(ValidationError, match="one factor pair per slice"):
            SubspaceSpec("slicewise_projectors", SHAPE, axes=(0, 1),
                         slice_factors=(good,) * 4, role="a_space")
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceSpec("slicewise_projectors", SHAPE, axes=(0, 1),
                         slice_factors=(good,) * 4 + ((2 * good[0], good[1]),),
                         role="b_space")
        triple = ProjectorTriple.random(SHAPE, (1, 1, 1), np.random.default_rng(0))
        with pytest.raises(ValidationError, match="projector dims"):
            SubspaceSpec("tucker_projectors", (3, 4, 6), triple=triple, role="b_space")
        with pytest.raises(ValidationError, match="projector dims"):
            SubspaceSpec("tucker_projectors", SHAPE, role="b_space")  # no triple

    def test_numpy_integers_name_groups(self):
        # criterion 4 builds its supports from np.nonzero
        truth = np.zeros((4, 5, 6))
        truth[0, 1, 2] = truth[3, 4, 5] = 1.0
        sub = support_entries(truth.shape, zip(*np.nonzero(truth)))
        assert sub.indices == ((0, 1, 2), (3, 4, 5))
        assert _matched_bound(entry_l1(), sub) == 2.0
        fibers = support_fibers(truth.shape, [np.array([3, 5])], mode=np.int64(1))
        assert _matched_bound(fiber_group(1), fibers) == 1.0
        slices = support_slices(truth.shape, np.nonzero([1, 0, 0, 1, 1])[0], axes=[0, 2])
        assert _matched_bound(slice_frob((0, 2)), slices) == 3.0

    @pytest.mark.parametrize(
        "u1, u2, message",
        [(2 * _factor(3, 1), _factor(4, 1), "orthonormal"),  # a scaled projector
         (_factor(3, 2), np.ones((4, 1)), "orthonormal"),
         (_factor(4, 1), _factor(4, 1), "of 3 rows"),  # U1 fits the columns
         (_factor(3, 1), _factor(3, 1), "of 4 rows"),
         (_factor(3, 1)[:, 0], _factor(4, 1), "is not a matrix")],
        ids=["scaled", "ones", "u1-rows", "u2-rows", "vector"],
    )
    def test_bad_slicewise_factors_are_refused_when_built(self, u1, u2, message):
        good = (_factor(3, 1, 1), _factor(4, 2, 2))
        with pytest.raises(ValidationError, match=message):
            slicewise_projectors(SHAPE, [good, good, (u1, u2), good, good], axes=(0, 1))


def stack_subspaces():
    r = np.random.default_rng(9)
    factors = [
        (np.linalg.qr(r.standard_normal((3, 2)))[0], np.linalg.qr(r.standard_normal((4, 1)))[0])
        for _ in range(5)
    ]
    triple = ProjectorTriple.random(SHAPE, (2, 2, 3), r)
    return [
        support_entries(SHAPE, [(0, 1, 2), (2, 3, 4)]),
        support_fibers(SHAPE, [(0, 1), (3, 4)], mode=0),
        support_slices(SHAPE, [1, 3], axes=(0, 1)),
        slicewise_projectors(SHAPE, factors, axes=(0, 1), role="a_space"),
        slicewise_projectors(SHAPE, factors, axes=(0, 1), role="b_space"),
        tucker_projectors(SHAPE, triple, role="a_space"),
        tucker_projectors(SHAPE, triple, role="b_space"),
    ]


class TestSubspaceProjectStack:
    @pytest.mark.parametrize("which", ["space", "complement"])
    @pytest.mark.parametrize(
        "sub", stack_subspaces(), ids=lambda s: f"{s.variant}-{s.role or ''}"
    )
    def test_a_stack_is_projected_tensor_by_tensor(self, sub, which):
        a = np.random.default_rng(10).standard_normal((2, 3) + SHAPE)
        got = subspace_project(sub, a, which)
        assert got.shape == a.shape
        for idx in np.ndindex(2, 3):
            one = subspace_project(sub, a[idx], which)
            np.testing.assert_allclose(got[idx], one, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 4, 5, 3), (4, 3, 5)])
    def test_trailing_shape_must_match(self, shape):
        with pytest.raises(ValidationError, match="subspace shape"):
            subspace_project(stack_subspaces()[0], np.zeros(shape))


class TestDecomposabilityMargin:
    def test_zero_b_gives_zero_margin(self):
        idx = [(0, 0, 0), (1, 2, 3)]
        sub = support_entries(SHAPE, idx)
        a = rng.standard_normal(SHAPE)
        for spec in [entry_l1(), fiber_group(0), slice_frob((0, 1))]:
            m = decomposability_margin(spec, sub, sub, a, np.zeros(SHAPE))
            assert m == pytest.approx(0.0, abs=1e-12)

    def test_entry_l1_disjoint_support_is_exact(self):
        idx = [(0, 0, 0), (1, 2, 3), (2, 3, 4)]
        sub = support_entries(SHAPE, idx)
        for _ in range(100):
            a = rng.standard_normal(SHAPE)
            b = rng.standard_normal(SHAPE)
            m = decomposability_margin(entry_l1(), sub, sub, a, b)
            assert m == pytest.approx(0.0, abs=1e-12)

    def test_support_pairs_randomized(self):
        cases = [
            (entry_l1(), support_entries(SHAPE, [(0, 1, 2), (2, 0, 0)])),
            (fiber_group(0), support_fibers(SHAPE, [(0, 0), (2, 3)], mode=0)),
            (slice_frob((0, 1)), support_slices(SHAPE, [0, 4], axes=(0, 1))),
        ]
        for spec, sub in cases:
            for _ in range(300):
                a = rng.standard_normal(SHAPE)
                b = rng.standard_normal(SHAPE)
                assert decomposability_margin(spec, sub, sub, a, b) >= -1e-10

    def test_slicewise_projector_pair_randomized(self):
        factors = [
            (
                np.linalg.qr(rng.standard_normal((3, 1)))[0],
                np.linalg.qr(rng.standard_normal((4, 2)))[0],
            )
            for _ in range(5)
        ]
        sub_a = slicewise_projectors(SHAPE, factors, axes=(0, 1), role="a_space")
        sub_b = slicewise_projectors(SHAPE, factors, axes=(0, 1), role="b_space")
        spec = slice_nuclear((0, 1))
        for _ in range(300):
            a = rng.standard_normal(SHAPE)
            b = rng.standard_normal(SHAPE)
            assert decomposability_margin(spec, sub_a, sub_b, a, b) >= -1e-10

    def test_tucker_pair_corner_randomized(self):
        # sample the complement from its doubly-orthogonal corner, where the
        # per-mode singular values of the two parts add exactly
        triple = ProjectorTriple.random(SHAPE, (1, 2, 2), rng)
        sub_a = tucker_projectors(SHAPE, triple, role="a_space")
        sub_b = tucker_projectors(SHAPE, triple, role="b_space")
        spec = matricized_nuclear_sum()
        for _ in range(200):
            a = triple.apply_pattern(rng.standard_normal(SHAPE), (1, 1, 1))
            b = rng.standard_normal(SHAPE)
            assert decomposability_margin(spec, sub_a, sub_b, a, b) >= -1e-10

    def test_matrix_pinching_surrogate_for_nuclear_pair(self):
        # the half-constant inequality for the tensor nuclear pair is
        # exercised on matrices, where the pinched corners are computable:
        # ||X||_* >= ||P1 X P2||_* + 0.5 ||P1perp X P2perp||_*
        for _ in range(300):
            d1, d2 = 6, 5
            x = rng.standard_normal((d1, d2))
            u = np.linalg.qr(rng.standard_normal((d1, 2)))[0]
            v = np.linalg.qr(rng.standard_normal((d2, 2)))[0]
            p1, p2 = u @ u.T, v @ v.T
            nuc = lambda m: np.linalg.svd(m, compute_uv=False).sum()
            whole = nuc(x)
            corner = nuc(p1 @ x @ p2)
            other = nuc((np.eye(d1) - p1) @ x @ (np.eye(d2) - p2))
            assert whole >= corner + 0.5 * other - 1e-10


class TestCompatibility:
    def test_entry_l1_support(self):
        sub = support_entries(SHAPE, [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 3, 4)])
        res = compatibility(entry_l1(), sub, draws=2000, rng=np.random.default_rng(1))
        assert res.analytic_bound == 4.0
        assert res.mc_estimate <= 4.0 * (1 + 1e-9)
        assert res.mc_estimate >= 2.0  # ascent reaches the equal-magnitude max

    def test_slice_frob_support(self):
        sub = support_slices(SHAPE, [0, 2, 3], axes=(0, 1))
        res = compatibility(
            slice_frob((0, 1)), sub, draws=2000, rng=np.random.default_rng(2)
        )
        assert res.analytic_bound == 3.0
        assert 1.5 <= res.mc_estimate <= 3.0 * (1 + 1e-9)

    def test_fiber_group_support(self):
        sub = support_fibers(SHAPE, [(0, 0), (1, 2), (3, 4)], mode=0)
        res = compatibility(
            fiber_group(0), sub, draws=2000, rng=np.random.default_rng(3)
        )
        assert res.analytic_bound == 3.0
        assert 1.5 <= res.mc_estimate <= 3.0 * (1 + 1e-9)

    def test_slicewise_projector_bound(self):
        factors = [
            (
                np.linalg.qr(rng.standard_normal((3, 1)))[0],
                np.linalg.qr(rng.standard_normal((4, 1)))[0],
            )
            for _ in range(5)
        ]
        sub = slicewise_projectors(SHAPE, factors, axes=(0, 1))
        res = compatibility(
            slice_nuclear((0, 1)), sub, draws=2000, rng=np.random.default_rng(4)
        )
        assert res.analytic_bound == 10.0  # sum of projector ranks
        assert res.mc_estimate <= res.analytic_bound * (1 + 1e-9)

    def test_tucker_matricized_bound(self):
        r = 2
        triple = ProjectorTriple.random((4, 4, 4), (r, r, r), rng)
        sub = tucker_projectors((4, 4, 4), triple, role="b_space")
        res = compatibility(
            matricized_nuclear_sum(), sub, draws=3000, rng=np.random.default_rng(5)
        )
        assert res.analytic_bound == float(r)
        assert res.mc_estimate <= r * (1 + 1e-9)
        assert res.mc_estimate >= 0.5 * r

    def test_tensor_nuclear_bound_surrogate(self):
        r = 2
        triple = ProjectorTriple.random((4, 4, 4), (r, r, r), rng)
        sub = tucker_projectors((4, 4, 4), triple, role="b_space")
        res = compatibility(
            tensor_spectral(), sub, draws=1000, rng=np.random.default_rng(6)
        )
        assert res.analytic_bound == float(r * r)
        assert res.mc_estimate <= r * r * (1 + 1e-9)

    def test_unmatched_pair(self):
        sub = support_entries(SHAPE, [(0, 0, 0)])
        with pytest.raises(ValidationError, match="no closed-form bound for"):
            compatibility(slice_frob((0, 1)), sub, draws=100)


def _ref_ratio(spec, a):
    # the sampler's ratio on one tensor, as it stood before the batched one
    fro2 = float((a * a).sum())
    if fro2 == 0:
        return 0.0
    if spec.kind == "tensor_spectral_dual_only":
        val = max(
            float(np.linalg.svd(np.moveaxis(a, k, 0).reshape(a.shape[k], -1),
                                compute_uv=False).sum())
            for k in range(3)
        )
    else:
        val = reg_eval(spec, a)
    return val * val / fro2


def _ref_compatibility(spec, sub, draws, rng, ascent_steps=100):
    """The one-draw-at-a-time sampler and its ascent, as they stood before
    the samples were drawn and scored in batches."""
    best, best_a = 0.0, None
    for _ in range(draws):
        a = subspace_project(sub, rng.standard_normal(sub.shape), "space")
        nrm = np.linalg.norm(a)
        if nrm == 0:
            continue
        a = a / nrm
        ratio = _ref_ratio(spec, a)
        if ratio > best:
            best, best_a = ratio, a
    if best_a is not None and spec.kind != "tensor_spectral_dual_only":
        a, step = best_a, 0.1
        for _ in range(ascent_steps):
            r_val = reg_eval(spec, a)
            grad = 2.0 * r_val * _reg_subgrad(spec, a) - 2.0 * (r_val**2) * a
            grad = subspace_project(sub, grad, "space")
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            cand = subspace_project(sub, a + step * grad / gn, "space")
            cand /= np.linalg.norm(cand)
            ratio = _ref_ratio(spec, cand)
            if ratio > best:
                best, a = ratio, cand
            else:
                step *= 0.5
    return _matched_bound(spec, sub), best


def benchmark_compat_pairs(rng):
    """The five matched pairs of the benchmark's compatibility Monte-Carlo,
    drawn from `rng` in its order."""
    shape = (4, 4, 5)
    slice_factors = [
        (np.linalg.qr(rng.standard_normal((4, 2)))[0], np.linalg.qr(rng.standard_normal((4, 1)))[0])
        for _ in range(5)
    ]
    triple = ProjectorTriple.random((4, 4, 4), (2, 2, 2), rng)
    return [
        (entry_l1(), support_entries(shape, [(0, 1, 2), (2, 0, 0), (3, 3, 4)])),
        (fiber_group(0), support_fibers(shape, [(0, 0), (2, 3), (1, 4)], mode=0)),
        (slice_frob((0, 1)), support_slices(shape, [0, 2], axes=(0, 1))),
        (slice_nuclear((0, 1)),
         slicewise_projectors(shape, slice_factors, axes=(0, 1), role="b_space")),
        (matricized_nuclear_sum(), tucker_projectors((4, 4, 4), triple, role="b_space")),
    ]


class TestBatchedCompatibilitySampler:
    @pytest.mark.parametrize("seed", [1002, 3002])
    def test_benchmark_pairs_match_the_one_draw_sampler(self, seed):
        # 2000 draws: seven full chunks of 256 and one of 208
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = benchmark_compat_pairs(gen)
        assert [p[0] for p in benchmark_compat_pairs(ref_gen)] == [p[0] for p in pairs]
        for spec, sub in pairs:
            res = compatibility(spec, sub, draws=2000, rng=gen)
            bound, ref = _ref_compatibility(spec, sub, 2000, ref_gen)
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            assert res.analytic_bound == bound
            assert res.mc_estimate == pytest.approx(ref, rel=1e-12)
            assert type(res.mc_estimate) is float

    @pytest.mark.parametrize("draws", [0, 1, 255, 257])
    def test_tensor_nuclear_surrogate_matches_the_one_draw_sampler(self, draws):
        triple = ProjectorTriple.random((4, 4, 4), (2, 2, 2), np.random.default_rng(0))
        sub = tucker_projectors((4, 4, 4), triple, role="b_space")
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        res = compatibility(tensor_spectral(), sub, draws=draws, rng=gen)
        _, ref = _ref_compatibility(tensor_spectral(), sub, draws, ref_gen)
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        assert res.mc_estimate == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("per_batch", [1, 7])
    def test_benchmark_pairs_do_not_depend_on_the_batch_size(self, monkeypatch, per_batch):
        # an entry cap of `per_batch` tensors leaves the generator state and
        # the estimate of the default 256-draw batches
        gen, ref_gen = np.random.default_rng(1002), np.random.default_rng(1002)
        pairs = benchmark_compat_pairs(gen)
        benchmark_compat_pairs(ref_gen)
        default = regularizers_module._BATCH_ENTRIES
        for spec, sub in pairs:
            want = compatibility(spec, sub, draws=300, rng=ref_gen)
            monkeypatch.setattr(
                regularizers_module, "_BATCH_ENTRIES", per_batch * int(np.prod(sub.shape))
            )
            assert regularizers_module._batch_draws(sub.shape) == per_batch
            got = compatibility(spec, sub, draws=300, rng=gen)
            monkeypatch.setattr(regularizers_module, "_BATCH_ENTRIES", default)
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            assert got == want

    def test_batches_are_capped_by_entries(self, monkeypatch):
        sizes = []
        real = regularizers_module.subspace_project

        def record(sub, a, which):
            if a.ndim == 4:
                sizes.append(len(a))
            return real(sub, a, which)

        monkeypatch.setattr(regularizers_module, "subspace_project", record)
        # 2**17 // 4000 = 32 draws per batch
        sub = support_entries((10, 20, 20), [(1, 2, 3)])
        compatibility(entry_l1(), sub, draws=100, ascent_steps=0)
        assert sizes == [32, 32, 32, 4]

    @pytest.mark.parametrize("draws", [-5, 2.5, 300.0, True, np.float64(3)])
    def test_a_bad_draw_count_is_refused_before_drawing(self, draws):
        gen = np.random.default_rng(5)
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="draws must be"):
            compatibility(entry_l1(), support_entries(SHAPE, [(1, 2, 3)]), draws=draws, rng=gen)
        assert gen.bit_generator.state == state

    def test_first_of_tied_draws_is_kept(self, monkeypatch):
        # every draw of a one-entry support scores ratio 1 (or 0 if the
        # entry is zero); the ascent then starts from the first draw
        sub = support_entries(SHAPE, [(1, 2, 3)])
        starts = []
        real = regularizers_module._reg_subgrad

        def record(spec, a):
            starts.append(a.copy())
            return real(spec, a)

        monkeypatch.setattr(regularizers_module, "_reg_subgrad", record)
        signs = np.sign(np.random.default_rng(19).standard_normal((300,) + SHAPE)[:, 1, 2, 3])
        # the first draw's sign differs from the second chunk's first and
        # from the last draw's
        assert signs[0] != signs[256] and signs[0] != signs[-1]
        res = compatibility(
            entry_l1(), sub, draws=300, ascent_steps=1, rng=np.random.default_rng(19)
        )
        assert res.mc_estimate == 1.0
        want = np.zeros(SHAPE)
        want[1, 2, 3] = signs[0]
        np.testing.assert_array_equal(starts[0], want)


class TestSpecJson:
    def test_round_trip(self):
        for spec in PRIMAL_SPECS + [tensor_spectral()]:
            back = RegularizerSpec.from_json(spec.to_json())
            assert back == spec

    def test_c_reg_values(self):
        assert entry_l1().c_reg == 1.0
        assert matricized_nuclear_sum().c_reg == 1.0
        assert tensor_spectral().c_reg == 0.5


class TestGeometry:
    def test_norm_axes(self):
        assert fiber_group(2).norm_axes == (2,)
        assert slice_frob((2, 0)).norm_axes == (2, 0)
        assert slice_nuclear((1, 2)).norm_axes == (1, 2)

    @pytest.mark.parametrize(
        "axes, group", [((0, 1), 2), ((1, 0), 2), ((0, 2), 1), ((2, 1), 0)]
    )
    def test_group_axis(self, axes, group):
        assert _group_axis(slice_frob(axes).axes) == group

    @pytest.mark.parametrize("kind", ["slice_frob", "slice_nuclear"])
    @pytest.mark.parametrize(
        "axes", [None, (0, 5), (-1, 0), (1, 1), (0, 1.0), (0, True), (0, 1, 2), (0,)]
    )
    def test_bad_axes_are_rejected(self, kind, axes):
        with pytest.raises(ValidationError, match="axes"):
            RegularizerSpec(kind, axes=axes)

    @pytest.mark.parametrize("mode", [None, -1, 3, 1.0, True])
    def test_bad_fiber_mode_is_rejected(self, mode):
        with pytest.raises(ValueError, match="mode"):
            RegularizerSpec("fiber_group", mode=mode)

    @pytest.mark.parametrize(
        "kind",
        ["entry_l1", "slice_frob", "slice_nuclear", "matricized_nuclear_sum",
         "tensor_spectral_dual_only", "pairwise_component_nuclear"],
    )
    def test_mode_is_refused_on_every_kind_but_fibers(self, kind):
        axes = [0, 1] if kind.startswith("slice") else None
        with pytest.raises(ValueError, match=f"{kind} takes no mode, got 0"):
            RegularizerSpec.from_json({"kind": kind, "mode": 0, "axes": axes})

    @pytest.mark.parametrize(
        "kind",
        ["entry_l1", "fiber_group", "matricized_nuclear_sum",
         "tensor_spectral_dual_only", "pairwise_component_nuclear"],
    )
    def test_axes_are_refused_on_every_kind_but_slices(self, kind):
        mode = 0 if kind == "fiber_group" else None
        with pytest.raises(ValueError, match=rf"{kind} takes no axes, got \(0, 9\)"):
            RegularizerSpec.from_json({"kind": kind, "mode": mode, "axes": [0, 9]})
        with pytest.raises(ValueError, match=f"{kind} takes no axes"):
            RegularizerSpec(kind, mode=mode, axes=(0, 1))

    @pytest.mark.parametrize(
        "spec", PRIMAL_SPECS + [tensor_spectral()], ids=lambda s: s.kind
    )
    @pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 3), (3, 3, 0)])
    def test_an_empty_axis_is_a_shape_mismatch(self, spec, shape):
        a = np.zeros(shape)
        with pytest.raises(ValidationError, match="non-empty"):
            reg_eval(spec, a)
        with pytest.raises(ValidationError, match="non-empty"):
            reg_dual(spec, a, rng=np.random.default_rng(0))
        with pytest.raises(ValidationError, match="non-empty"):
            prox(spec, a, 0.1)


GROUP_KINDS = [
    entry_l1(),
    fiber_group(0),
    fiber_group(1),
    slice_frob((0, 1)),
    slice_frob((1, 0)),
    slice_frob((0, 2)),
]
SUPPORTS = [
    support_entries((4, 5, 6), [(0, 1, 2), (3, 4, 5)]),
    support_fibers((4, 5, 6), [(0, 1), (3, 5)], mode=0),
    support_fibers((4, 5, 6), [(0, 1), (3, 5)], mode=1),
    support_slices((4, 5, 6), [0, 3], axes=(0, 1)),
    support_slices((4, 5, 6), [0, 3], axes=(1, 0)),
    support_slices((4, 5, 6), [0, 3], axes=(0, 2)),
]
# the axes each group spans, per group kind and per support variant
KIND_AXES = [set(), {0}, {1}, {0, 1}, {0, 1}, {0, 2}]


class TestOneGroupFamily:
    @pytest.mark.parametrize("k", range(len(GROUP_KINDS)))
    @pytest.mark.parametrize("v", range(len(SUPPORTS)))
    def test_matched_exactly_when_the_spanned_axes_agree(self, k, v):
        spec, sub = GROUP_KINDS[k], SUPPORTS[v]
        if KIND_AXES[k] == KIND_AXES[v]:
            res = compatibility(spec, sub, draws=20, ascent_steps=5)
            assert res.analytic_bound == 2.0
            assert res.mc_estimate <= 2.0 * (1 + 1e-9)
        else:
            with pytest.raises(ValidationError, match="no closed-form bound for"):
                compatibility(spec, sub, draws=20)

    @pytest.mark.parametrize("axes", [(0, 1), (1, 0), (0, 2)])
    def test_slice_nuclear_and_support_slices_stay_unmatched(self, axes):
        with pytest.raises(ValidationError, match="no closed-form bound for"):
            compatibility(
                slice_nuclear(axes), support_slices((4, 5, 6), [0], axes=axes), draws=20
            )

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_entry_l1_is_the_abs_form_at_every_scale(self, scale):
        a = scale * np.random.default_rng(3).standard_normal((4, 5, 6))
        g = scale * np.random.default_rng(4).standard_normal((7, 4, 5, 6))
        assert reg_eval(entry_l1(), a) == float(np.abs(a).sum())
        assert reg_dual(entry_l1(), a) == float(np.abs(a).max())
        np.testing.assert_array_equal(
            _dual_batch(entry_l1(), g), np.abs(g).reshape(7, -1).max(axis=1)
        )
        assert np.isfinite(reg_eval(entry_l1(), a))

    @pytest.mark.parametrize("power", [600, -600])
    @pytest.mark.parametrize(
        "spec", [fiber_group(0), fiber_group(2), slice_frob((0, 1)), slice_frob((2, 0))]
    )
    def test_fiber_and_slice_norms_scale_exactly(self, spec, power):
        # squares of entries near 2^±600 leave the float range; the norms
        # must not, and must equal the unscaled ones times 2^±600
        x = np.random.default_rng(8).standard_normal((4, 5, 6))
        x[1] = 0.0
        a, scale = np.ldexp(x, power), 2.0**power
        assert reg_eval(spec, a) == scale * reg_eval(spec, x)
        assert reg_dual(spec, a) == scale * reg_dual(spec, x)
        np.testing.assert_array_equal(prox(spec, a, scale * 0.9), scale * prox(spec, x, 0.9))

    def test_entry_l1_prox_is_the_soft_threshold_to_rounding(self):
        z = np.random.default_rng(5).standard_normal((4, 5, 6))
        # entries just above, at and below the threshold
        z[0, 0, :3] = [0.5 + 1e-15, 0.5, 0.5 - 1e-15]
        z[1, 1, :3] = -z[0, 0, :3]
        want = np.sign(z) * np.maximum(np.abs(z) - 0.5, 0.0)
        got = prox(entry_l1(), z, 0.5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(got == 0, want == 0)
        np.testing.assert_array_equal(np.sign(got), np.sign(want))

    @pytest.mark.parametrize(
        "axes, layout",
        [((), (4, 5, 6)), ((0,), (5, 6, 4)), ((2,), (4, 5, 6)), ((0, 1), (6, 4, 5)),
         ((1, 0), (6, 5, 4)), ((2, 0), (5, 6, 4))],
    )
    def test_group_view_layout(self, axes, layout):
        a = np.arange(120.0).reshape(4, 5, 6)
        view = _groups(a, axes)
        assert view.shape == layout
        order = [ax for ax in range(3) if ax not in axes] + list(axes)
        np.testing.assert_array_equal(view, a.transpose(order))
        np.testing.assert_array_equal(_groups(view, axes, inverse=True), a)
        batch = np.stack([a, -a])
        np.testing.assert_array_equal(_groups(batch, axes)[1], -view)

    @pytest.mark.parametrize("axes", [(0, 0), (0, 3), (1, 1, 2), (None,)])
    def test_group_view_rejects_bad_axes(self, axes):
        with pytest.raises(ValidationError, match="axes"):
            _groups(np.zeros((2, 3, 4)), axes)

    @pytest.mark.parametrize("axes", [(0, 1), (1, 0), (0, 2), (2, 1)])
    def test_slice_nuclear_prox_is_the_per_slice_svt(self, axes):
        z = np.random.default_rng(6).standard_normal((4, 5, 6))
        z[:, 0] *= 1e-3
        stack = _groups(z, axes).copy()
        for j in range(stack.shape[0]):
            stack[j] = matrix_svt(stack[j], 0.7)
        want = _groups(stack, axes, inverse=True)
        np.testing.assert_array_equal(prox(slice_nuclear(axes), z, 0.7), want)
